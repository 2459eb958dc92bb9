//! Comparison baselines for the ablation benches.
//!
//! * [`generate_random_examples`] — example construction *without* ontology
//!   partitioning: input values are drawn uniformly from all pool instances
//!   of the annotated concept (any sub-concept), the way a naive curator
//!   would sample. Ablations compare its completeness/conciseness against
//!   the partition-driven generator.
//! * [`trace_similarity`] — the module-comparison method of the author's
//!   earlier work (reference \[4\] of the paper, discussed in §7.4): no alignment, just
//!   "do the two modules have traces with similar inputs and outputs?",
//!   approximated by Jaccard similarity over classified value concepts.

use crate::error::GenerationError;
use crate::example::{Binding, DataExample, ExampleSet};
use dex_modules::BlackBox;
use dex_ontology::Ontology;
use dex_pool::InstancePool;
use dex_values::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Generates up to `count` data examples by sampling input values uniformly
/// from the pool's instances of each input's annotated concept (instance-of
/// semantics — no partitioning, no realization targeting).
///
/// Combinations that fail to terminate normally are skipped; the function
/// stops after `count * 4` attempts to bound work on picky modules.
pub fn generate_random_examples(
    module: &dyn BlackBox,
    ontology: &Ontology,
    pool: &InstancePool,
    count: usize,
    seed: u64,
) -> Result<ExampleSet, GenerationError> {
    let descriptor = module.descriptor();
    descriptor
        .validate()
        .map_err(GenerationError::BadDescriptor)?;

    // Materialize the candidate lists once per input.
    let mut candidates: Vec<Vec<&Value>> = Vec::with_capacity(descriptor.inputs.len());
    for param in &descriptor.inputs {
        if ontology.id(&param.semantic).is_none() {
            return Err(GenerationError::UnknownConcept {
                parameter: param.name.clone(),
                concept: param.semantic.clone(),
            });
        }
        let values: Vec<&Value> = pool
            .instances_of(&param.semantic, ontology)
            .map(|inst| &inst.value)
            .filter(|v| v.conforms_to(&param.structural))
            .collect();
        candidates.push(values);
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = ExampleSet::new(descriptor.id.clone());
    if candidates.iter().any(Vec::is_empty) {
        return Ok(set);
    }
    let mut attempts = 0usize;
    while set.len() < count && attempts < count.saturating_mul(4) {
        attempts += 1;
        let values: Vec<Value> = candidates
            .iter()
            .map(|pool_vals| (*pool_vals[rng.gen_range(0..pool_vals.len())]).clone())
            .collect();
        if let Ok(outputs) = module.invoke(&values) {
            let inputs = descriptor
                .inputs
                .iter()
                .zip(&values)
                .map(|(p, v)| Binding::new(p.name.as_str(), v.clone()))
                .collect();
            let outputs = descriptor
                .outputs
                .iter()
                .zip(outputs)
                .map(|(p, v)| Binding::new(p.name.as_str(), v))
                .collect();
            set.examples
                .push(DataExample::reconstructed(inputs, outputs));
        }
    }
    Ok(set)
}

/// Trace-similarity score in `[0, 1]` between two example (or trace) sets:
/// the mean of the Jaccard similarities of their input-concept sets and
/// output-concept sets, with values classified by `classifier`.
///
/// This deliberately ignores value identity and alignment — that is the
/// weakness of the earlier method the paper improves on.
pub fn trace_similarity(
    a: &ExampleSet,
    b: &ExampleSet,
    classifier: crate::coverage::ValueClassifier,
) -> f64 {
    let concepts = |set: &ExampleSet, outputs: bool| -> HashSet<&'static str> {
        set.iter()
            .flat_map(|e| if outputs { &e.outputs } else { &e.inputs })
            .filter_map(|binding| classifier(&binding.value))
            .collect()
    };
    let jaccard = |x: &HashSet<&str>, y: &HashSet<&str>| -> f64 {
        if x.is_empty() && y.is_empty() {
            return 1.0;
        }
        let inter = x.intersection(y).count() as f64;
        let union = x.union(y).count() as f64;
        inter / union
    };
    let ia = concepts(a, false);
    let ib = concepts(b, false);
    let oa = concepts(a, true);
    let ob = concepts(b, true);
    (jaccard(&ia, &ib) + jaccard(&oa, &ob)) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_modules::{FnModule, ModuleDescriptor, ModuleKind, Parameter};
    use dex_ontology::mygrid;
    use dex_pool::build_synthetic_pool;
    use dex_values::classify::classify_concept;
    use dex_values::StructuralType;

    fn echo() -> FnModule {
        FnModule::new(
            ModuleDescriptor::new(
                "e",
                "Echo",
                ModuleKind::LocalProgram,
                vec![Parameter::required(
                    "seq",
                    StructuralType::Text,
                    "BiologicalSequence",
                )],
                vec![Parameter::required(
                    "out",
                    StructuralType::Text,
                    "BiologicalSequence",
                )],
            ),
            |i| Ok(vec![i[0].clone()]),
        )
    }

    #[test]
    fn random_generation_produces_requested_count() {
        let onto = mygrid::ontology();
        let pool = build_synthetic_pool(&onto, 5, 2);
        let set = generate_random_examples(&echo(), &onto, &pool, 10, 99).unwrap();
        assert_eq!(set.len(), 10);
        // Inputs are drawn from the whole BiologicalSequence domain.
        for e in set.iter() {
            assert!(classify_concept(&e.inputs[0].value).is_some());
        }
    }

    #[test]
    fn random_generation_is_seeded() {
        let onto = mygrid::ontology();
        let pool = build_synthetic_pool(&onto, 5, 2);
        let a = generate_random_examples(&echo(), &onto, &pool, 5, 1).unwrap();
        let b = generate_random_examples(&echo(), &onto, &pool, 5, 1).unwrap();
        let c = generate_random_examples(&echo(), &onto, &pool, 5, 2).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_candidate_list_yields_empty_set() {
        let onto = mygrid::ontology();
        let pool = InstancePool::new("empty");
        let set = generate_random_examples(&echo(), &onto, &pool, 5, 1).unwrap();
        assert!(set.is_empty());
    }

    #[test]
    fn trace_similarity_of_identical_sets_is_one() {
        let onto = mygrid::ontology();
        let pool = build_synthetic_pool(&onto, 5, 2);
        let a = generate_random_examples(&echo(), &onto, &pool, 5, 1).unwrap();
        assert_eq!(trace_similarity(&a, &a, classify_concept), 1.0);
    }

    #[test]
    fn trace_similarity_of_disjoint_concept_sets_is_zero() {
        let mut a = ExampleSet::new("a".into());
        a.examples.push(DataExample::reconstructed(
            vec![Binding::new("in", Value::text("P12345"))],
            vec![Binding::new("out", Value::text("GO:0008150"))],
        ));
        let mut b = ExampleSet::new("b".into());
        b.examples.push(DataExample::reconstructed(
            vec![Binding::new("in", Value::text("ACGT"))],
            vec![Binding::new("out", Value::text("1ABC"))],
        ));
        assert_eq!(trace_similarity(&a, &b, classify_concept), 0.0);
    }

    #[test]
    fn trace_similarity_empty_sets_is_one() {
        let a = ExampleSet::new("a".into());
        let b = ExampleSet::new("b".into());
        assert_eq!(trace_similarity(&a, &b, classify_concept), 1.0);
    }
}
