//! Property-based tests over the core data structures and invariants.

use data_examples::core::{generate_examples, GenerationConfig};
use data_examples::ontology::{mygrid, Ontology};
use data_examples::pool::build_synthetic_pool;
use data_examples::values::formats::accession::AccessionKind;
use data_examples::values::formats::records::{RecordFormat, SeqEntry};
use data_examples::values::formats::sequence::{
    classify, reverse_complement, transcribe, SequenceKind,
};
use data_examples::values::Value;
use proptest::prelude::*;

fn arb_dna() -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::sample::select(vec!['A', 'C', 'G', 'T']), 1..200)
        .prop_map(|v| v.into_iter().collect())
}

fn arb_value() -> impl Strategy<Value = Value> {
    // JSON has no NaN/±inf, so restrict floats to finite values for the
    // serde round trip (bitwise Value equality still exercises -0.0 etc.).
    let finite = any::<f64>().prop_filter("finite floats only", |f| f.is_finite());
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Integer),
        finite.prop_map(Value::Float),
        any::<bool>().prop_map(Value::Boolean),
        "[a-zA-Z0-9 ]{0,40}".prop_map(Value::text),
    ];
    leaf.prop_recursive(2, 16, 5, |inner| {
        proptest::collection::vec(inner, 0..5).prop_map(Value::List)
    })
}

proptest! {
    /// Reverse complement is an involution on DNA.
    #[test]
    fn revcomp_involution(dna in arb_dna()) {
        prop_assert_eq!(reverse_complement(&reverse_complement(&dna)), dna);
    }

    /// Transcription preserves length and produces RNA-compatible residues.
    #[test]
    fn transcription_is_rna(dna in arb_dna()) {
        let rna = transcribe(&dna);
        prop_assert_eq!(rna.len(), dna.len());
        let kind = classify(&rna);
        prop_assert!(matches!(kind, Some(SequenceKind::Rna | SequenceKind::Dna)), "{:?}", kind);
    }

    /// Value equality implies hash equality (HashMap/HashSet soundness).
    #[test]
    fn value_eq_implies_hash_eq(v in arb_value()) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let w = v.clone();
        prop_assert_eq!(&v, &w);
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        v.hash(&mut ha);
        w.hash(&mut hb);
        prop_assert_eq!(ha.finish(), hb.finish());
    }

    /// Values survive a serde round trip.
    #[test]
    fn value_serde_round_trip(v in arb_value()) {
        let json = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(v, back);
    }

    /// Every generated accession validates and is detected as a kind that
    /// accepts it.
    #[test]
    fn accession_generate_validate(seed in any::<u64>(), kind_idx in 0usize..15) {
        use rand::{rngs::StdRng, SeedableRng};
        let kind = AccessionKind::ALL[kind_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let acc = kind.generate(&mut rng);
        prop_assert!(kind.is_valid(&acc), "{} rejected {}", kind, acc);
        let detected = AccessionKind::detect(&acc).unwrap();
        prop_assert!(detected.is_valid(&acc));
    }

    /// Record render/parse is lossless for core fields, for any entry data.
    #[test]
    fn record_round_trip(
        acc in "[A-Z][A-Z0-9]{3,7}",
        desc in "[a-z][a-z ]{0,30}",
        org in "[A-Z][a-z]{2,12}",
        seq in "[ACDEFGHIKLMNPQRSTVWY]{10,80}",
        fmt_idx in 0usize..5,
    ) {
        let entry = SeqEntry { accession: acc, description: desc.trim().to_string(), organism: org, sequence: seq };
        let format = RecordFormat::ALL[fmt_idx];
        let parsed = format.parse(&format.render(&entry)).unwrap();
        prop_assert_eq!(parsed.accession, entry.accession);
        prop_assert_eq!(parsed.sequence, entry.sequence);
    }
}

// ---------------------------------------------------------------------------
// Blocked-matching equivalence suite: the incremental engine, the one
// fingerprint-blocked matcher, must produce a verdict matrix byte-identical
// to the exhaustive all-pairs oracle over random slices, withdrawn modules,
// and seeded fault injection.
// ---------------------------------------------------------------------------

mod blocked_matching {
    use data_examples::core::delta::Delta;
    use data_examples::core::GenerationConfig;
    use data_examples::modules::ModuleId;
    use data_examples::pool::build_synthetic_pool;
    use dex_experiments::{FaultConfig, IncrementalPipeline};
    use dex_oracle::{match_pairs_exhaustive, MatchSession};
    use proptest::prelude::*;

    proptest! {
        /// The headline property: for randomized pools, catalog slices and
        /// run configurations, the incremental engine's fingerprint-blocked
        /// `matrix()` equals the exhaustive oracle's exactly — same keys,
        /// same outcomes, same rendered error strings, same example counts.
        /// A slice is what stays available at bootstrap (every module
        /// outside it is withdrawn first); a withdrawn module leaves the
        /// slice after bootstrap, through a delta. About half the cases
        /// inject seeded transient faults.
        #[test]
        fn blocked_matrix_is_byte_identical_to_exhaustive_oracle(
            pool_seed in 1u64..10_000,
            pool_per in 2usize..5,
            step in 16usize..45,
            offset in 0usize..7,
            withdraw in any::<bool>(),
            faulted in any::<bool>(),
        ) {
            let mut universe = data_examples::universe::build();
            let all = universe.available_ids();
            let ids: Vec<ModuleId> = all.iter().skip(offset).step_by(step).cloned().collect();
            prop_assert!(ids.len() >= 3);
            for id in all.iter().filter(|id| !ids.contains(id)) {
                universe.catalog.withdraw(id);
            }
            let pool = build_synthetic_pool(&universe.ontology, pool_per, pool_seed);
            let mut config = GenerationConfig::default();
            if faulted {
                // Seeded transient faults on ~1–10% of vectors, with the
                // paired retry policy that provably rides out every burst
                // (bursts are a pure key hash bounded at 2; retries allow
                // 4 attempts) — so outcomes stay order-independent.
                let fault = FaultConfig::injected(1 + (pool_seed % 10) as u32, pool_seed);
                fault.apply(&mut universe.catalog);
                config.retry = fault.retry;
            }
            let mut engine =
                IncrementalPipeline::bootstrap(universe.clone(), pool.clone(), config.clone());
            if withdraw {
                engine.apply(&[Delta::ModuleWithdraw { id: ids[0].clone() }]);
                universe.catalog.withdraw(&ids[0]);
            }
            let session = MatchSession::new(&universe.ontology, &pool, config);
            prop_assert_eq!(engine.matrix(), match_pairs_exhaustive(&session, &universe));
        }
    }
}

/// Ontology invariants checked exhaustively over the shipped ontology
/// (quantified tests rather than random ones — the domain is small).
#[test]
fn ontology_subsumption_is_a_partial_order() {
    let o: Ontology = mygrid::ontology();
    let ids: Vec<_> = o.iter().collect();
    for &a in &ids {
        assert!(o.subsumes(a, a), "reflexive");
        for &b in &ids {
            if o.subsumes(a, b) && o.subsumes(b, a) {
                assert_eq!(a, b, "antisymmetric");
            }
            for &c in &ids {
                if o.subsumes(a, b) && o.subsumes(b, c) {
                    assert!(o.subsumes(a, c), "transitive");
                }
            }
        }
    }
}

#[test]
fn partitions_are_disjoint_under_realization_semantics() {
    // Realization semantics make partitions non-overlapping by definition:
    // every concept appears in the partition list of each ancestor at most
    // once, and partition lists contain no duplicates.
    let o = mygrid::ontology();
    for c in o.iter() {
        let parts = o.partitions_of(c);
        let mut seen = std::collections::HashSet::new();
        for p in &parts {
            assert!(
                seen.insert(*p),
                "duplicate partition under {}",
                o.concept_name(c)
            );
            assert!(o.subsumes(c, *p));
            assert!(o.can_be_realized(*p));
        }
    }
}

#[test]
fn generation_examples_always_replay() {
    // Soundness of generated examples: re-invoking the module on an
    // example's inputs reproduces its outputs (modules are deterministic).
    let universe = data_examples::universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 4, 13);
    let config = GenerationConfig::default();
    for id in universe.available_ids().into_iter().take(40) {
        let module = universe.catalog.get(&id).unwrap();
        let report =
            generate_examples(module.as_ref(), &universe.ontology, &pool, &config).unwrap();
        for example in report.examples.iter() {
            let inputs: Vec<_> = example.inputs.iter().map(|b| b.value.clone()).collect();
            let outputs = module.invoke(&inputs).unwrap();
            let recorded: Vec<_> = example.outputs.iter().map(|b| b.value.clone()).collect();
            assert_eq!(outputs, recorded, "{id}");
        }
    }
}
