//! Workflow enactment with full trace capture.

use crate::model::{Source, Workflow};
use dex_modules::{InvocationCache, InvocationError, ModuleCatalog, ModuleId, Retrier};
use dex_values::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why an enactment failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnactError {
    /// The step's module is withdrawn or unknown — a decayed workflow.
    ModuleUnavailable { step: usize, module: ModuleId },
    /// The module was invoked and failed.
    Invocation {
        step: usize,
        module: ModuleId,
        error: InvocationError,
    },
    /// The workflow structure is broken (dangling source, missing input…).
    Structure(String),
}

impl fmt::Display for EnactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnactError::ModuleUnavailable { step, module } => {
                write!(f, "step {step}: module {module} is unavailable")
            }
            EnactError::Invocation {
                step,
                module,
                error,
            } => write!(f, "step {step}: module {module} failed: {error}"),
            EnactError::Structure(s) => write!(f, "workflow structure error: {s}"),
        }
    }
}

impl std::error::Error for EnactError {}

/// The record of one step's invocation inside an enactment — what a
/// provenance system captures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    /// Step index in the workflow.
    pub step: usize,
    /// Step label.
    pub step_name: String,
    /// Invoked module.
    pub module: ModuleId,
    /// Input values, in the module's declaration order.
    pub inputs: Vec<Value>,
    /// Output values, in declaration order.
    pub outputs: Vec<Value>,
}

/// A complete provenance trace of one workflow enactment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnactmentTrace {
    /// The enacted workflow's id.
    pub workflow: String,
    /// The workflow-level input values used.
    pub inputs: Vec<Value>,
    /// One record per executed step, in execution order.
    pub steps: Vec<StepRecord>,
    /// The exported output values, in output-binding order.
    pub outputs: Vec<Value>,
}

/// Enacts a workflow: executes steps in order, feeding each input from its
/// link (or `Null` for unfed optional inputs) and capturing a full trace.
///
/// Every step invocation goes through `retrier` and, when given, `cache`. A
/// step whose `(module, input vector)` the cache already holds (from an
/// earlier enactment sharing it, or from example generation) is answered
/// from the memo, so bulk enactment over a repository whose workflows share
/// modules and pool values skips the repeated work; the trace is identical
/// to an uncached enactment. A step invocation that fails *transiently* is
/// re-attempted under the retrier's policy before the enactment is
/// abandoned. Pass `None, &Retrier::none()` for neither. The availability
/// gate always applies: a step whose module the catalog reports withdrawn
/// fails [`EnactError::ModuleUnavailable`] without an invocation, cached or
/// not.
pub fn enact(
    workflow: &Workflow,
    catalog: &ModuleCatalog,
    inputs: &[Value],
    cache: Option<&InvocationCache>,
    retrier: &Retrier,
) -> Result<EnactmentTrace, EnactError> {
    let _span = dex_telemetry::span("workflow.enact");
    let result = enact_inner(workflow, catalog, inputs, cache, retrier);
    if dex_telemetry::is_enabled() {
        dex_telemetry::counter_add("dex.workflow.enactments", 1);
        match &result {
            Ok(trace) => {
                dex_telemetry::counter_add("dex.workflow.steps_executed", trace.steps.len() as u64);
            }
            Err(_) => {
                dex_telemetry::counter_add("dex.workflow.enact_failures", 1);
            }
        }
    }
    result
}

fn enact_inner(
    workflow: &Workflow,
    catalog: &ModuleCatalog,
    inputs: &[Value],
    cache: Option<&InvocationCache>,
    retrier: &Retrier,
) -> Result<EnactmentTrace, EnactError> {
    if inputs.len() != workflow.inputs.len() {
        return Err(EnactError::Structure(format!(
            "expected {} workflow inputs, got {}",
            workflow.inputs.len(),
            inputs.len()
        )));
    }
    let mut step_outputs: Vec<Vec<Value>> = Vec::with_capacity(workflow.steps.len());
    let mut records = Vec::with_capacity(workflow.steps.len());

    let resolve = |source: &Source, step_outputs: &[Vec<Value>]| -> Result<Value, EnactError> {
        match source {
            Source::WorkflowInput(i) => inputs
                .get(*i)
                .cloned()
                .ok_or_else(|| EnactError::Structure(format!("no workflow input {i}"))),
            Source::StepOutput { step, output } => step_outputs
                .get(*step)
                .and_then(|outs| outs.get(*output))
                .cloned()
                .ok_or_else(|| EnactError::Structure(format!("no output {output} of step {step}"))),
        }
    };

    for (i, step) in workflow.steps.iter().enumerate() {
        let Some(module) = catalog.get(&step.module) else {
            return Err(EnactError::ModuleUnavailable {
                step: i,
                module: step.module.clone(),
            });
        };
        let descriptor = module.descriptor();
        let mut values = vec![Value::Null; descriptor.inputs.len()];
        for link in workflow.links_into(i) {
            if link.target_input >= values.len() {
                return Err(EnactError::Structure(format!(
                    "step {i} has no input {}",
                    link.target_input
                )));
            }
            values[link.target_input] = resolve(&link.source, &step_outputs)?;
        }
        let outputs = retrier
            .invoke(module.as_ref(), &values, cache)
            .as_ref()
            .clone()
            .map_err(|error| EnactError::Invocation {
                step: i,
                module: step.module.clone(),
                error,
            })?;
        records.push(StepRecord {
            step: i,
            step_name: step.name.clone(),
            module: step.module.clone(),
            inputs: values,
            outputs: outputs.clone(),
        });
        step_outputs.push(outputs);
    }

    let mut exported = Vec::with_capacity(workflow.outputs.len());
    for binding in &workflow.outputs {
        exported.push(resolve(&binding.source, &step_outputs)?);
    }

    Ok(EnactmentTrace {
        workflow: workflow.id.clone(),
        inputs: inputs.to_vec(),
        steps: records,
        outputs: exported,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Workflow;
    use dex_modules::{FnModule, ModuleDescriptor, ModuleKind, Parameter};
    use dex_values::StructuralType;

    fn catalog() -> ModuleCatalog {
        let mut c = ModuleCatalog::new();
        c.register(FnModule::shared(
            ModuleDescriptor::new(
                "double",
                "Double",
                ModuleKind::LocalProgram,
                vec![Parameter::required("x", StructuralType::Text, "Document")],
                vec![Parameter::required("y", StructuralType::Text, "Document")],
            ),
            |i| {
                let s = i[0].as_text().unwrap();
                Ok(vec![Value::text(format!("{s}{s}"))])
            },
        ));
        c.register(FnModule::shared(
            ModuleDescriptor::new(
                "suffix",
                "Suffix",
                ModuleKind::LocalProgram,
                vec![
                    Parameter::required("x", StructuralType::Text, "Document"),
                    Parameter::optional("sep", StructuralType::Text, "Document", Value::text("!")),
                ],
                vec![Parameter::required("y", StructuralType::Text, "Document")],
            ),
            |i| {
                Ok(vec![Value::text(format!(
                    "{}{}",
                    i[0].as_text().unwrap(),
                    i[1].as_text().unwrap()
                ))])
            },
        ));
        c
    }

    fn pipeline() -> Workflow {
        let mut b = Workflow::builder("w", "pipeline");
        let i = b.input(Parameter::required("in", StructuralType::Text, "Document"));
        let s0 = b.step("Double", "double");
        let s1 = b.step("Suffix", "suffix");
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
            "out",
            Source::StepOutput {
                step: s1,
                output: 0,
            },
        );
        b.build()
    }

    #[test]
    fn enactment_runs_and_traces() {
        let trace = enact(
            &pipeline(),
            &catalog(),
            &[Value::text("ab")],
            None,
            &Retrier::none(),
        )
        .unwrap();
        assert_eq!(trace.outputs, vec![Value::text("abab!")]);
        assert_eq!(trace.steps.len(), 2);
        assert_eq!(trace.steps[0].outputs, vec![Value::text("abab")]);
        // Optional unfed input recorded as Null (the module defaulted it).
        assert_eq!(trace.steps[1].inputs[1], Value::Null);
        assert_eq!(trace.workflow, "w");
    }

    #[test]
    fn unavailable_module_fails_enactment() {
        let mut c = catalog();
        c.withdraw(&"double".into());
        let err = enact(&pipeline(), &c, &[Value::text("x")], None, &Retrier::none()).unwrap_err();
        assert_eq!(
            err,
            EnactError::ModuleUnavailable {
                step: 0,
                module: "double".into()
            }
        );
    }

    #[test]
    fn invocation_failure_is_reported_with_step() {
        let mut c = ModuleCatalog::new();
        c.register(FnModule::shared(
            ModuleDescriptor::new(
                "double",
                "Double",
                ModuleKind::LocalProgram,
                vec![Parameter::required("x", StructuralType::Text, "Document")],
                vec![Parameter::required("y", StructuralType::Text, "Document")],
            ),
            |_| Err(InvocationError::rejected("nope")),
        ));
        c.register(catalog().get(&"suffix".into()).unwrap().clone());
        let err = enact(&pipeline(), &c, &[Value::text("x")], None, &Retrier::none()).unwrap_err();
        assert!(matches!(err, EnactError::Invocation { step: 0, .. }));
    }

    #[test]
    fn cached_success_does_not_outlive_withdrawal() {
        // The availability gate runs before the cache is consulted, so a
        // memoized success from an earlier enactment cannot mask a module
        // that has since been withdrawn from the catalog.
        let mut c = catalog();
        let cache = InvocationCache::default();
        let none = Retrier::none();
        let wf = pipeline();
        let ok = enact(&wf, &c, &[Value::text("ab")], Some(&cache), &none).unwrap();
        assert_eq!(ok.outputs, vec![Value::text("abab!")]);
        assert!(cache.stats().entries > 0, "first enactment seeds the cache");

        c.withdraw(&"double".into());
        let err = enact(&wf, &c, &[Value::text("ab")], Some(&cache), &none).unwrap_err();
        assert_eq!(
            err,
            EnactError::ModuleUnavailable {
                step: 0,
                module: "double".into()
            }
        );

        c.restore(&"double".into());
        let again = enact(&wf, &c, &[Value::text("ab")], Some(&cache), &none).unwrap();
        assert_eq!(again, ok, "restoration re-enables the memoized trace");
    }

    #[test]
    fn retrying_enactment_rides_out_transient_faults() {
        use dex_modules::RetryPolicy;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let failures = Arc::new(AtomicUsize::new(2));
        let flaky = {
            let failures = Arc::clone(&failures);
            FnModule::shared(
                ModuleDescriptor::new(
                    "double",
                    "Double",
                    ModuleKind::LocalProgram,
                    vec![Parameter::required("x", StructuralType::Text, "Document")],
                    vec![Parameter::required("y", StructuralType::Text, "Document")],
                ),
                move |i| {
                    if failures
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                        .is_ok()
                    {
                        return Err(InvocationError::fault("transient outage"));
                    }
                    let s = i[0].as_text().unwrap();
                    Ok(vec![Value::text(format!("{s}{s}"))])
                },
            )
        };
        let mut c = ModuleCatalog::new();
        c.register(flaky);
        c.register(catalog().get(&"suffix".into()).unwrap().clone());

        let cache = InvocationCache::default();
        let retrier = Retrier::new(RetryPolicy::transient(4));
        let trace = enact(
            &pipeline(),
            &c,
            &[Value::text("ab")],
            Some(&cache),
            &retrier,
        )
        .unwrap();
        assert_eq!(trace.outputs, vec![Value::text("abab!")]);
        let stats = retrier.stats();
        assert!(stats.retries >= 2, "both injected faults were retried");
        assert_eq!(
            cache.memoized_transients(),
            0,
            "transient outcomes never persist in the memo"
        );
    }

    #[test]
    fn wrong_input_arity_is_structural() {
        let err = enact(&pipeline(), &catalog(), &[], None, &Retrier::none()).unwrap_err();
        assert!(matches!(err, EnactError::Structure(_)));
    }

    #[test]
    fn unfed_mandatory_input_surfaces_as_invocation_error() {
        let mut b = Workflow::builder("w2", "broken");
        b.input(Parameter::required("in", StructuralType::Text, "Document"));
        b.step("Double", "double");
        // No link feeds step 0.
        let wf = b.build();
        let err = enact(&wf, &catalog(), &[Value::text("x")], None, &Retrier::none()).unwrap_err();
        assert!(matches!(err, EnactError::Invocation { .. }));
    }
}
