//! Workflow well-formedness and link-compatibility checking.

use crate::model::{Source, Workflow};
use dex_modules::ModuleCatalog;
use dex_ontology::Ontology;
use std::fmt;

/// Why a workflow is not well-formed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A step references a module the catalog has never heard of.
    UnknownModule { step: usize, module: String },
    /// A link points at a step/input/output that does not exist.
    DanglingLink { detail: String },
    /// A link flows backwards (or self-loops), violating topological order.
    BackwardLink { from_step: usize, to_step: usize },
    /// A step input is fed by more than one link.
    DuplicateFeed { step: usize, input: usize },
    /// A mandatory step input has no feeding link.
    UnfedInput { step: usize, input: usize },
    /// A link connects structurally incompatible parameters.
    StructuralMismatch { detail: String },
    /// A link's source concept is not subsumed by the target concept — the
    /// "interoperability issue" the paper's §1 mentions.
    SemanticMismatch { detail: String },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::UnknownModule { step, module } => {
                write!(f, "step {step} references unknown module `{module}`")
            }
            ValidationError::DanglingLink { detail } => write!(f, "dangling link: {detail}"),
            ValidationError::BackwardLink { from_step, to_step } => write!(
                f,
                "link from step {from_step} to earlier-or-same step {to_step}"
            ),
            ValidationError::DuplicateFeed { step, input } => {
                write!(f, "step {step} input {input} is fed by multiple links")
            }
            ValidationError::UnfedInput { step, input } => {
                write!(f, "mandatory input {input} of step {step} is unfed")
            }
            ValidationError::StructuralMismatch { detail } => {
                write!(f, "structural mismatch: {detail}")
            }
            ValidationError::SemanticMismatch { detail } => {
                write!(f, "semantic mismatch: {detail}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validates a workflow against a catalog and ontology.
///
/// Checks structure (references, topology, feeding) and link compatibility:
/// the source's structural type must be accepted by the target parameter
/// and the source's semantic concept must be subsumed by the target's.
/// Withdrawn modules pass validation — the workflow is well-formed, it just
/// cannot currently be enacted.
pub fn validate(
    workflow: &Workflow,
    catalog: &ModuleCatalog,
    ontology: &Ontology,
) -> Result<(), Vec<ValidationError>> {
    let _span = dex_telemetry::span("workflow.validate");
    let result = validate_inner(workflow, catalog, ontology);
    if dex_telemetry::is_enabled() {
        dex_telemetry::counter_add("dex.workflow.validations", 1);
        if let Err(errors) = &result {
            dex_telemetry::counter_add("dex.workflow.validation_errors", errors.len() as u64);
        }
    }
    result
}

fn validate_inner(
    workflow: &Workflow,
    catalog: &ModuleCatalog,
    ontology: &Ontology,
) -> Result<(), Vec<ValidationError>> {
    let mut errors = Vec::new();

    // Resolve descriptors.
    let mut descriptors = Vec::with_capacity(workflow.steps.len());
    for (i, step) in workflow.steps.iter().enumerate() {
        match catalog.descriptor(&step.module) {
            Some(d) => descriptors.push(Some(d)),
            None => {
                errors.push(ValidationError::UnknownModule {
                    step: i,
                    module: step.module.to_string(),
                });
                descriptors.push(None);
            }
        }
    }

    // Resolve a source to its (structural, semantic) annotation.
    let resolve = |source: &Source| -> Result<(dex_values::StructuralType, String), String> {
        match source {
            Source::WorkflowInput(i) => workflow
                .inputs
                .get(*i)
                .map(|p| (p.structural.clone(), p.semantic.clone()))
                .ok_or_else(|| format!("workflow input {i} does not exist")),
            Source::StepOutput { step, output } => {
                let d = descriptors
                    .get(*step)
                    .and_then(|d| *d)
                    .ok_or_else(|| format!("step {step} does not exist or is unknown"))?;
                d.outputs
                    .get(*output)
                    .map(|p| (p.structural.clone(), p.semantic.clone()))
                    .ok_or_else(|| format!("step {step} has no output {output}"))
            }
        }
    };

    // Per-step feed map.
    let mut fed: Vec<Vec<usize>> = descriptors
        .iter()
        .map(|d| vec![0; d.map_or(0, |d| d.inputs.len())])
        .collect();

    for link in &workflow.links {
        // Topology.
        if let Source::StepOutput { step, .. } = link.source {
            if step >= link.target_step {
                errors.push(ValidationError::BackwardLink {
                    from_step: step,
                    to_step: link.target_step,
                });
            }
        }
        let Some(target) = descriptors.get(link.target_step).and_then(|d| *d) else {
            errors.push(ValidationError::DanglingLink {
                detail: format!("target step {} unknown", link.target_step),
            });
            continue;
        };
        let Some(target_param) = target.inputs.get(link.target_input) else {
            errors.push(ValidationError::DanglingLink {
                detail: format!(
                    "step {} has no input {}",
                    link.target_step, link.target_input
                ),
            });
            continue;
        };
        if let Some(count) = fed
            .get_mut(link.target_step)
            .and_then(|f| f.get_mut(link.target_input))
        {
            *count += 1;
            if *count > 1 {
                errors.push(ValidationError::DuplicateFeed {
                    step: link.target_step,
                    input: link.target_input,
                });
            }
        }
        match resolve(&link.source) {
            Err(detail) => errors.push(ValidationError::DanglingLink { detail }),
            Ok((structural, semantic)) => {
                if !target_param.structural.accepts(&structural) {
                    errors.push(ValidationError::StructuralMismatch {
                        detail: format!(
                            "{structural} cannot feed {} at step {} input {}",
                            target_param.structural, link.target_step, link.target_input
                        ),
                    });
                }
                match (ontology.id(&target_param.semantic), ontology.id(&semantic)) {
                    (Some(t), Some(s)) if ontology.subsumes(t, s) => {}
                    _ => errors.push(ValidationError::SemanticMismatch {
                        detail: format!(
                            "`{semantic}` does not fit `{}` at step {} input {}",
                            target_param.semantic, link.target_step, link.target_input
                        ),
                    }),
                }
            }
        }
    }

    // Unfed mandatory inputs.
    for (i, d) in descriptors.iter().enumerate() {
        if let Some(d) = d {
            for (j, p) in d.inputs.iter().enumerate() {
                if !p.optional && fed[i][j] == 0 {
                    errors.push(ValidationError::UnfedInput { step: i, input: j });
                }
            }
        }
    }

    // Workflow outputs must resolve.
    for output in &workflow.outputs {
        if let Err(detail) = resolve(&output.source) {
            errors.push(ValidationError::DanglingLink { detail });
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Workflow;
    use dex_modules::{FnModule, ModuleDescriptor, ModuleKind, Parameter};
    use dex_ontology::mygrid;
    use dex_values::{StructuralType, Value};

    fn catalog() -> ModuleCatalog {
        let mut c = ModuleCatalog::new();
        c.register(FnModule::shared(
            ModuleDescriptor::new(
                "get",
                "Get",
                ModuleKind::SoapService,
                vec![Parameter::required(
                    "acc",
                    StructuralType::Text,
                    "UniprotAccession",
                )],
                vec![Parameter::required(
                    "seq",
                    StructuralType::Text,
                    "ProteinSequence",
                )],
            ),
            |i| Ok(vec![i[0].clone()]),
        ));
        c.register(FnModule::shared(
            ModuleDescriptor::new(
                "use",
                "Use",
                ModuleKind::SoapService,
                vec![Parameter::required(
                    "seq",
                    StructuralType::Text,
                    "BiologicalSequence",
                )],
                vec![Parameter::required("out", StructuralType::Text, "Report")],
            ),
            |_| Ok(vec![Value::text("REPORT x\n")]),
        ));
        c
    }

    fn wf() -> Workflow {
        let mut b = Workflow::builder("w", "w");
        let i = b.input(Parameter::required(
            "acc",
            StructuralType::Text,
            "UniprotAccession",
        ));
        let s0 = b.step("Get", "get");
        let s1 = b.step("Use", "use");
        b.link(Source::WorkflowInput(i), s0, 0);
        b.link(
            Source::StepOutput {
                step: s0,
                output: 0,
            },
            s1,
            0,
        );
        b.output(
            "report",
            Source::StepOutput {
                step: s1,
                output: 0,
            },
        );
        b.build()
    }

    #[test]
    fn valid_workflow_passes() {
        let onto = mygrid::ontology();
        validate(&wf(), &catalog(), &onto).unwrap();
    }

    #[test]
    fn subsumption_compatible_links_pass() {
        // ProteinSequence output feeds a BiologicalSequence input: fine.
        let onto = mygrid::ontology();
        assert!(validate(&wf(), &catalog(), &onto).is_ok());
    }

    #[test]
    fn unknown_module_reported() {
        let onto = mygrid::ontology();
        let mut w = wf();
        w.steps[0].module = "ghost".into();
        let errors = validate(&w, &catalog(), &onto).unwrap_err();
        assert!(errors
            .iter()
            .any(|e| matches!(e, ValidationError::UnknownModule { .. })));
    }

    #[test]
    fn backward_link_reported() {
        let onto = mygrid::ontology();
        let mut w = wf();
        w.links[1].source = Source::StepOutput { step: 1, output: 0 };
        let errors = validate(&w, &catalog(), &onto).unwrap_err();
        assert!(errors
            .iter()
            .any(|e| matches!(e, ValidationError::BackwardLink { .. })));
    }

    #[test]
    fn unfed_input_reported() {
        let onto = mygrid::ontology();
        let mut w = wf();
        w.links.remove(0);
        let errors = validate(&w, &catalog(), &onto).unwrap_err();
        assert!(errors
            .iter()
            .any(|e| matches!(e, ValidationError::UnfedInput { step: 0, input: 0 })));
    }

    #[test]
    fn duplicate_feed_reported() {
        let onto = mygrid::ontology();
        let mut w = wf();
        let duplicate = w.links[0].clone();
        w.links.push(duplicate);
        let errors = validate(&w, &catalog(), &onto).unwrap_err();
        assert!(errors
            .iter()
            .any(|e| matches!(e, ValidationError::DuplicateFeed { .. })));
    }

    #[test]
    fn semantic_mismatch_reported() {
        let onto = mygrid::ontology();
        let mut w = wf();
        // Feed the report-producing step's output back as nothing; instead
        // change the workflow input annotation to something incompatible.
        w.inputs[0].semantic = "GOTerm".to_string();
        let errors = validate(&w, &catalog(), &onto).unwrap_err();
        assert!(errors
            .iter()
            .any(|e| matches!(e, ValidationError::SemanticMismatch { .. })));
    }

    #[test]
    fn dangling_output_reported() {
        let onto = mygrid::ontology();
        let mut w = wf();
        w.outputs[0].source = Source::StepOutput { step: 9, output: 0 };
        let errors = validate(&w, &catalog(), &onto).unwrap_err();
        assert!(errors
            .iter()
            .any(|e| matches!(e, ValidationError::DanglingLink { .. })));
    }

    #[test]
    fn withdrawn_module_still_validates() {
        let onto = mygrid::ontology();
        let mut c = catalog();
        c.withdraw(&"get".into());
        assert!(validate(&wf(), &c, &onto).is_ok());
    }
}
