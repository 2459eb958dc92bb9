//! Reconstructing data examples for modules that no longer exist (§6).

use crate::corpus::ProvenanceCorpus;
use dex_core::{Binding, DataExample, ExampleSet};
use dex_modules::{ModuleDescriptor, ModuleId};

/// Rebuilds `∆(m)` for a module from its recorded invocations.
///
/// Every distinct recorded `(inputs, outputs)` pair becomes one
/// reconstructed [`DataExample`]. The module itself is never invoked — the
/// whole point is that it may be unavailable. The `descriptor` (from an old
/// registry entry) supplies parameter names for the bindings.
///
/// Returns an empty set when the corpus never observed the module — the
/// paper's own limitation: "we were able to construct data examples that
/// characterize 72 unavailable scientific modules", not all of them.
pub fn reconstruct_examples(
    corpus: &ProvenanceCorpus,
    module: &ModuleId,
    descriptor: &ModuleDescriptor,
) -> ExampleSet {
    let mut set = ExampleSet::new(module.clone());
    for record in corpus.invocations_of(module) {
        let inputs: Vec<Binding> = descriptor
            .inputs
            .iter()
            .zip(&record.inputs)
            .map(|(p, v)| Binding::new(p.name.as_str(), v.clone()))
            .collect();
        let outputs: Vec<Binding> = descriptor
            .outputs
            .iter()
            .zip(&record.outputs)
            .map(|(p, v)| Binding::new(p.name.as_str(), v.clone()))
            .collect();
        let example = DataExample::reconstructed(inputs, outputs);
        if !set.examples.contains(&example) {
            set.examples.push(example);
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_modules::{ModuleKind, Parameter};
    use dex_values::{StructuralType, Value};
    use dex_workflow::{EnactmentTrace, StepRecord};

    fn descriptor() -> ModuleDescriptor {
        ModuleDescriptor::new(
            "m",
            "M",
            ModuleKind::SoapService,
            vec![Parameter::required(
                "acc",
                StructuralType::Text,
                "UniprotAccession",
            )],
            vec![Parameter::required(
                "record",
                StructuralType::Text,
                "UniprotRecord",
            )],
        )
    }

    fn corpus() -> ProvenanceCorpus {
        let mut c = ProvenanceCorpus::new("t");
        for (i, acc) in ["P11111", "P22222", "P11111"].iter().enumerate() {
            c.add(EnactmentTrace {
                workflow: format!("w{i}"),
                inputs: vec![],
                steps: vec![StepRecord {
                    step: 0,
                    step_name: "s".into(),
                    module: "m".into(),
                    inputs: vec![Value::text(*acc)],
                    outputs: vec![Value::text(format!("record-of-{acc}"))],
                }],
                outputs: vec![],
            });
        }
        c
    }

    #[test]
    fn reconstruction_dedupes_identical_invocations() {
        let set = reconstruct_examples(&corpus(), &"m".into(), &descriptor());
        assert_eq!(set.len(), 2, "P11111 recorded twice, kept once");
        assert_eq!(&*set.examples[0].inputs[0].parameter, "acc");
        assert_eq!(&*set.examples[0].outputs[0].parameter, "record");
        assert!(set.examples[0].input_partitions.is_empty());
    }

    #[test]
    fn unobserved_module_yields_empty_set() {
        let set = reconstruct_examples(&corpus(), &"ghost".into(), &descriptor());
        assert!(set.is_empty());
    }
}
