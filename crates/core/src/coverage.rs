//! Partition-coverage measurement (paper §3.3 and the *coverage* metric of
//! §4.2).

use crate::error::GenerationError;
use crate::example::ExampleSet;
use crate::partition::partitions_for;
use dex_modules::ModuleDescriptor;
use dex_ontology::Ontology;
use dex_values::Value;
use std::collections::HashSet;

/// Classifies a value into the name of the most specific concept it
/// instantiates, or `None` when unrecognizable. The default classifier for
/// the shipped universe is [`dex_values::classify::classify_concept`].
pub type ValueClassifier = fn(&Value) -> Option<&'static str>;

/// Coverage of a module's input *and* output partitions by a set of data
/// examples — the `coverage(m)` ratio of §4.2.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageReport {
    /// Input partitions (input index, concept), covered ones flagged.
    pub input_partitions: Vec<(usize, String, bool)>,
    /// Output partitions (output index, concept), covered ones flagged.
    pub output_partitions: Vec<(usize, String, bool)>,
}

impl CoverageReport {
    /// Total partitions across inputs and outputs.
    pub fn total(&self) -> usize {
        self.input_partitions.len() + self.output_partitions.len()
    }

    /// Covered partitions across inputs and outputs.
    pub fn covered(&self) -> usize {
        self.input_partitions.iter().filter(|(_, _, c)| *c).count()
            + self.output_partitions.iter().filter(|(_, _, c)| *c).count()
    }

    /// The coverage ratio `#coveredPartitions / #partitions`; `1.0` when the
    /// module has no partitions.
    pub fn ratio(&self) -> f64 {
        if self.total() == 0 {
            1.0
        } else {
            self.covered() as f64 / self.total() as f64
        }
    }

    /// Whether every output partition is covered.
    pub fn outputs_fully_covered(&self) -> bool {
        self.output_partitions.iter().all(|(_, _, c)| *c)
    }
}

/// Measures which input and output partitions `examples` cover.
///
/// * An **input** partition is covered when some example was generated from
///   it (recorded in [`DataExample::input_partitions`]) — or, for
///   reconstructed examples, when the classified input value realizes the
///   partition concept.
/// * An **output** partition is covered when some example's output value is
///   classified (by `classifier`) as exactly that concept — realization
///   semantics, mirroring the input side.
///
/// [`DataExample::input_partitions`]: crate::DataExample::input_partitions
pub fn measure_coverage(
    descriptor: &ModuleDescriptor,
    examples: &ExampleSet,
    ontology: &Ontology,
    classifier: ValueClassifier,
) -> Result<CoverageReport, GenerationError> {
    // Which (input index, concept) pairs do the examples witness?
    let mut witnessed_inputs: HashSet<(usize, String)> = HashSet::new();
    let mut witnessed_outputs: HashSet<(usize, String)> = HashSet::new();
    for example in examples.iter() {
        if example.input_partitions.is_empty() {
            // Reconstructed example: classify the raw values.
            for (i, binding) in example.inputs.iter().enumerate() {
                if let Some(concept) = classifier(&binding.value) {
                    witnessed_inputs.insert((i, concept.to_string()));
                }
            }
        } else {
            for (i, concept) in example.input_partitions.iter().enumerate() {
                witnessed_inputs.insert((i, concept.clone()));
            }
        }
        for (o, binding) in example.outputs.iter().enumerate() {
            if let Some(concept) = classifier(&binding.value) {
                witnessed_outputs.insert((o, concept.to_string()));
            }
        }
    }

    let mut input_partitions = Vec::new();
    for (i, param) in descriptor.inputs.iter().enumerate() {
        for concept in partitions_for(param, ontology)? {
            let name = ontology.concept_name(concept).to_string();
            let covered = witnessed_inputs.contains(&(i, name.clone()));
            input_partitions.push((i, name, covered));
        }
    }
    let mut output_partitions = Vec::new();
    for (o, param) in descriptor.outputs.iter().enumerate() {
        for concept in partitions_for(param, ontology)? {
            let name = ontology.concept_name(concept).to_string();
            let covered = witnessed_outputs.contains(&(o, name.clone()));
            output_partitions.push((o, name, covered));
        }
    }

    Ok(CoverageReport {
        input_partitions,
        output_partitions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example::{Binding, DataExample};
    use dex_modules::{ModuleId, ModuleKind, Parameter};
    use dex_ontology::mygrid;
    use dex_values::classify::classify_concept;
    use dex_values::StructuralType;

    fn descriptor(in_sem: &str, out_sem: &str) -> ModuleDescriptor {
        ModuleDescriptor::new(
            "m",
            "M",
            ModuleKind::SoapService,
            vec![Parameter::required("in", StructuralType::Text, in_sem)],
            vec![Parameter::required("out", StructuralType::Text, out_sem)],
        )
    }

    fn example(partition: &str, in_v: &str, out_v: &str) -> DataExample {
        DataExample::new(
            vec![Binding::new("in", Value::text(in_v))],
            vec![Binding::new("out", Value::text(out_v))],
            vec![partition.to_string()],
        )
    }

    #[test]
    fn output_partitions_covered_by_classification() {
        let onto = mygrid::ontology();
        let d = descriptor("UniprotAccession", "BiologicalSequence");
        let mut set = ExampleSet::new(ModuleId::from("m"));
        // One example producing DNA; leaves RNA/protein/generic uncovered.
        set.examples
            .push(example("UniprotAccession", "P12345", "ACGTACGT"));
        let report = measure_coverage(&d, &set, &onto, classify_concept).unwrap();
        assert!(report.input_partitions.iter().all(|(_, _, c)| *c));
        assert!(!report.outputs_fully_covered());
        let uncovered: Vec<&str> = report
            .output_partitions
            .iter()
            .filter(|(_, _, c)| !*c)
            .map(|(_, name, _)| name.as_str())
            .collect();
        assert_eq!(
            uncovered,
            vec!["BiologicalSequence", "RNASequence", "ProteinSequence"]
        );
        assert_eq!(report.total(), 1 + 4);
        assert_eq!(report.covered(), 1 + 1);
        assert!((report.ratio() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn full_coverage_ratio_is_one() {
        let onto = mygrid::ontology();
        let d = descriptor("GOTerm", "GOTerm");
        let mut set = ExampleSet::new(ModuleId::from("m"));
        set.examples
            .push(example("GOTerm", "GO:0008150", "GO:0001234"));
        let report = measure_coverage(&d, &set, &onto, classify_concept).unwrap();
        assert_eq!(report.ratio(), 1.0);
    }

    #[test]
    fn empty_example_set_covers_nothing() {
        let onto = mygrid::ontology();
        let d = descriptor("GOTerm", "GOTerm");
        let set = ExampleSet::new(ModuleId::from("m"));
        let report = measure_coverage(&d, &set, &onto, classify_concept).unwrap();
        assert_eq!(report.covered(), 0);
        assert_eq!(report.ratio(), 0.0);
    }

    #[test]
    fn reconstructed_examples_classify_inputs() {
        let onto = mygrid::ontology();
        let d = descriptor("BiologicalSequence", "GOTerm");
        let mut set = ExampleSet::new(ModuleId::from("m"));
        set.examples.push(DataExample::reconstructed(
            vec![Binding::new("in", Value::text("ACGT"))],
            vec![Binding::new("out", Value::text("GO:0008150"))],
        ));
        let report = measure_coverage(&d, &set, &onto, classify_concept).unwrap();
        let dna = report
            .input_partitions
            .iter()
            .find(|(_, n, _)| n == "DNASequence")
            .unwrap();
        assert!(dna.2, "DNA partition witnessed via classification");
        assert!(report.outputs_fully_covered());
    }
}
