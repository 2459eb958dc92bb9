//! The workflow structure.

use dex_modules::{ModuleId, Parameter};
use serde::{Deserialize, Serialize};

/// Where a step input (or workflow output) draws its value from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Source {
    /// The `i`-th workflow-level input.
    WorkflowInput(usize),
    /// The `output`-th output of step `step`.
    StepOutput { step: usize, output: usize },
}

/// One workflow step: an invocation of a module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Step {
    /// Step label, unique within the workflow (e.g. `Identify`).
    pub name: String,
    /// The module the step invokes.
    pub module: ModuleId,
}

/// A data link feeding one input of one step.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Link {
    /// Value source.
    pub source: Source,
    /// Index of the consuming step.
    pub target_step: usize,
    /// Index of the consumed input within that step's module.
    pub target_input: usize,
}

/// An exported workflow output.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutputBinding {
    /// Output name.
    pub name: String,
    /// Value source.
    pub source: Source,
}

/// A scientific workflow: steps in topological order plus data links.
///
/// # Invariants (checked by [`crate::validate`](crate::validate()))
///
/// * Steps are stored in a valid topological order: a link's
///   `StepOutput.step` is strictly smaller than its `target_step`.
/// * Every input of every step is fed by exactly one link (modules with
///   optional parameters are fed `Null` through enactment defaults when a
///   link is absent — see [`crate::enact`](crate::enact())).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workflow {
    /// Stable identifier within a repository.
    pub id: String,
    /// Human-readable title.
    pub name: String,
    /// Workflow-level inputs (annotated like module parameters).
    pub inputs: Vec<Parameter>,
    /// Steps, topologically ordered.
    pub steps: Vec<Step>,
    /// Data links.
    pub links: Vec<Link>,
    /// Exported outputs.
    pub outputs: Vec<OutputBinding>,
}

impl Workflow {
    /// Starts building a workflow.
    pub fn builder(id: impl Into<String>, name: impl Into<String>) -> WorkflowBuilder {
        WorkflowBuilder {
            workflow: Workflow {
                id: id.into(),
                name: name.into(),
                inputs: Vec::new(),
                steps: Vec::new(),
                links: Vec::new(),
                outputs: Vec::new(),
            },
        }
    }

    /// All module ids referenced by the workflow, in step order (with
    /// duplicates when a module is used twice).
    pub fn module_ids(&self) -> Vec<&ModuleId> {
        self.steps.iter().map(|s| &s.module).collect()
    }

    /// The links feeding a given step, sorted by target input.
    pub fn links_into(&self, step: usize) -> Vec<&Link> {
        let mut links: Vec<&Link> = self
            .links
            .iter()
            .filter(|l| l.target_step == step)
            .collect();
        links.sort_by_key(|l| l.target_input);
        links
    }

    /// Replaces every step referencing `from` with `to`, returning how many
    /// steps changed. The caller is responsible for re-validating.
    pub fn substitute_module(&mut self, from: &ModuleId, to: &ModuleId) -> usize {
        let mut changed = 0;
        for step in &mut self.steps {
            if &step.module == from {
                step.module = to.clone();
                changed += 1;
            }
        }
        changed
    }
}

/// Fluent construction of workflows.
pub struct WorkflowBuilder {
    workflow: Workflow,
}

impl WorkflowBuilder {
    /// Declares a workflow-level input; returns its index.
    pub fn input(&mut self, parameter: Parameter) -> usize {
        self.workflow.inputs.push(parameter);
        self.workflow.inputs.len() - 1
    }

    /// Appends a step; returns its index.
    pub fn step(&mut self, name: impl Into<String>, module: impl Into<ModuleId>) -> usize {
        self.workflow.steps.push(Step {
            name: name.into(),
            module: module.into(),
        });
        self.workflow.steps.len() - 1
    }

    /// Links a source into a step input.
    pub fn link(&mut self, source: Source, target_step: usize, target_input: usize) -> &mut Self {
        self.workflow.links.push(Link {
            source,
            target_step,
            target_input,
        });
        self
    }

    /// Exports an output.
    pub fn output(&mut self, name: impl Into<String>, source: Source) -> &mut Self {
        self.workflow.outputs.push(OutputBinding {
            name: name.into(),
            source,
        });
        self
    }

    /// Finalizes the workflow (structure only; use [`crate::validate`](crate::validate()) for
    /// semantic checks).
    pub fn build(self) -> Workflow {
        self.workflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_values::StructuralType;

    fn two_step() -> Workflow {
        let mut b = Workflow::builder("wf1", "demo");
        let input = b.input(Parameter::required(
            "acc",
            StructuralType::Text,
            "UniprotAccession",
        ));
        let s0 = b.step("GetRecord", "dr:get_uniprot_record");
        let s1 = b.step("Convert", "ft:conv_uniprot_fasta");
        b.link(Source::WorkflowInput(input), s0, 0);
        b.link(
            Source::StepOutput {
                step: s0,
                output: 0,
            },
            s1,
            0,
        );
        b.output(
            "fasta",
            Source::StepOutput {
                step: s1,
                output: 0,
            },
        );
        b.build()
    }

    #[test]
    fn builder_assembles_structure() {
        let wf = two_step();
        assert_eq!(wf.steps.len(), 2);
        assert_eq!(wf.links.len(), 2);
        assert_eq!(wf.outputs.len(), 1);
        let ids = wf.module_ids();
        assert_eq!(ids.len(), 2);
        assert!(ids.contains(&&ModuleId::from("dr:get_uniprot_record")));
        assert!(!ids.contains(&&ModuleId::from("nope")));
    }

    #[test]
    fn links_into_sorted_by_input() {
        let mut wf = two_step();
        wf.links.push(Link {
            source: Source::WorkflowInput(0),
            target_step: 1,
            target_input: 2,
        });
        wf.links.push(Link {
            source: Source::WorkflowInput(0),
            target_step: 1,
            target_input: 1,
        });
        let into1: Vec<usize> = wf.links_into(1).iter().map(|l| l.target_input).collect();
        assert_eq!(into1, vec![0, 1, 2]);
    }

    #[test]
    fn substitution_replaces_all_uses() {
        let mut wf = two_step();
        let from = ModuleId::from("dr:get_uniprot_record");
        let to = ModuleId::from("dr:get_uniprot_record_ebi");
        assert_eq!(wf.substitute_module(&from, &to), 1);
        assert!(!wf.module_ids().contains(&&from));
        assert!(wf.module_ids().contains(&&to));
        assert_eq!(wf.substitute_module(&from, &to), 0);
    }

    #[test]
    fn serde_round_trip() {
        let wf = two_step();
        let json = serde_json::to_string(&wf).unwrap();
        let back: Workflow = serde_json::from_str(&json).unwrap();
        assert_eq!(wf, back);
    }
}
