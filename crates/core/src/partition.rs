//! Ontology-based equivalence partitioning of parameter domains (paper §3.1).

use crate::error::GenerationError;
use dex_modules::{ModuleDescriptor, Parameter};
use dex_ontology::{ConceptId, Ontology};

/// The partitions of every input parameter of one module, in declaration
/// order. Produced by [`input_partition_plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionPlan {
    /// `per_input[i]` lists the partitions (concept ids) of input `i`'s
    /// domain, in deterministic pre-order of the ontology.
    pub per_input: Vec<Vec<ConceptId>>,
}

impl PartitionPlan {
    /// Total number of partition combinations (the size of the cartesian
    /// product), saturating on overflow.
    pub fn combination_count(&self) -> usize {
        self.per_input
            .iter()
            .map(Vec::len)
            .fold(1usize, |acc, n| acc.saturating_mul(n))
    }

    /// Total number of input partitions across all inputs.
    pub fn partition_count(&self) -> usize {
        self.per_input.iter().map(Vec::len).sum()
    }

    /// Iterates all combinations as index vectors (`combo[i]` indexes into
    /// `per_input[i]`), in deterministic lexicographic order.
    pub fn combinations(&self) -> CombinationIter<'_> {
        CombinationIter {
            plan: self,
            next: if self.per_input.iter().any(|p| p.is_empty()) {
                None
            } else {
                Some(vec![0; self.per_input.len()])
            },
        }
    }
}

/// Lexicographic iterator over partition combinations.
pub struct CombinationIter<'a> {
    plan: &'a PartitionPlan,
    next: Option<Vec<usize>>,
}

impl Iterator for CombinationIter<'_> {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let next = self.next.as_mut()?;
        let current = next.clone();
        // Advance like an odometer, most significant digit first, in place.
        let mut pos = next.len();
        let exhausted = loop {
            if pos == 0 {
                break true;
            }
            pos -= 1;
            next[pos] += 1;
            if next[pos] < self.plan.per_input[pos].len() {
                break false;
            }
            next[pos] = 0;
        };
        if exhausted {
            self.next = None;
        }
        Some(current)
    }
}

/// Partitions the domain of a single parameter: every realizable concept
/// subsumed by its semantic annotation (paper §3.1 / Example 3).
pub fn partitions_for(
    parameter: &Parameter,
    ontology: &Ontology,
) -> Result<Vec<ConceptId>, GenerationError> {
    let concept =
        ontology
            .id(&parameter.semantic)
            .ok_or_else(|| GenerationError::UnknownConcept {
                parameter: parameter.name.clone(),
                concept: parameter.semantic.clone(),
            })?;
    Ok(ontology.partitions_of(concept))
}

/// Builds the partition plan for all inputs of a module.
pub fn input_partition_plan(
    descriptor: &ModuleDescriptor,
    ontology: &Ontology,
) -> Result<PartitionPlan, GenerationError> {
    descriptor
        .validate()
        .map_err(GenerationError::BadDescriptor)?;
    let per_input = descriptor
        .inputs
        .iter()
        .map(|p| partitions_for(p, ontology))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(PartitionPlan { per_input })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_modules::ModuleKind;
    use dex_ontology::mygrid;
    use dex_values::StructuralType;

    fn descriptor(semantics: &[&str]) -> ModuleDescriptor {
        ModuleDescriptor::new(
            "m",
            "M",
            ModuleKind::SoapService,
            semantics
                .iter()
                .enumerate()
                .map(|(i, s)| Parameter::required(format!("in{i}"), StructuralType::Text, *s))
                .collect(),
            vec![Parameter::required("out", StructuralType::Text, "Report")],
        )
    }

    #[test]
    fn example3_partitioning() {
        // Paper Example 3: getAccession with a BiologicalSequence input.
        let onto = mygrid::ontology();
        let d = descriptor(&["BiologicalSequence"]);
        let plan = input_partition_plan(&d, &onto).unwrap();
        let names: Vec<&str> = plan.per_input[0]
            .iter()
            .map(|&c| onto.concept_name(c))
            .collect();
        assert_eq!(
            names,
            vec![
                "BiologicalSequence",
                "DNASequence",
                "RNASequence",
                "ProteinSequence"
            ]
        );
        assert_eq!(plan.combination_count(), 4);
        assert_eq!(plan.partition_count(), 4);
    }

    #[test]
    fn multi_input_combinations_are_lexicographic() {
        let onto = mygrid::ontology();
        let d = descriptor(&["BiologicalSequence", "OntologyTerm"]);
        let plan = input_partition_plan(&d, &onto).unwrap();
        assert_eq!(plan.per_input[1].len(), 3); // OntologyTerm, GOTerm, ECNumber
        let combos: Vec<Vec<usize>> = plan.combinations().collect();
        assert_eq!(combos.len(), 12);
        assert_eq!(combos[0], vec![0, 0]);
        assert_eq!(combos[1], vec![0, 1]);
        assert_eq!(combos[2], vec![0, 2]);
        assert_eq!(combos[3], vec![1, 0]);
        assert_eq!(combos[11], vec![3, 2]);
    }

    #[test]
    fn leaf_concept_yields_single_partition() {
        let onto = mygrid::ontology();
        let d = descriptor(&["UniprotAccession"]);
        let plan = input_partition_plan(&d, &onto).unwrap();
        assert_eq!(plan.combination_count(), 1);
        assert_eq!(plan.combinations().count(), 1);
    }

    #[test]
    fn unknown_concept_is_an_error() {
        let onto = mygrid::ontology();
        let d = descriptor(&["NotAConcept"]);
        assert!(matches!(
            input_partition_plan(&d, &onto),
            Err(GenerationError::UnknownConcept { .. })
        ));
    }

    #[test]
    fn empty_partition_list_yields_no_combinations() {
        let plan = PartitionPlan {
            per_input: vec![vec![], vec![ConceptId::from_index(0)]],
        };
        assert_eq!(plan.combinations().count(), 0);
        assert_eq!(plan.combination_count(), 0);
    }

    #[test]
    fn single_input_iteration_matches_partitions() {
        let onto = mygrid::ontology();
        let d = descriptor(&["Document"]);
        let plan = input_partition_plan(&d, &onto).unwrap();
        let combos: Vec<Vec<usize>> = plan.combinations().collect();
        assert_eq!(combos, vec![vec![0], vec![1], vec![2]]);
    }
}
