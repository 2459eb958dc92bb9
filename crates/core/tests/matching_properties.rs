//! Matching invariants checked across the whole synthetic universe.

use dex_core::matching::{map_parameters, MappingMode};
use dex_core::{compare_modules, FingerprintIndex, GenerationConfig, MatchVerdict};
use dex_modules::{ModuleDescriptor, ModuleKind, Parameter};
use dex_pool::build_synthetic_pool;
use dex_values::StructuralType;
use proptest::prelude::*;

/// Reflexivity: every module is (eventually) equivalent to itself.
#[test]
fn every_module_is_equivalent_to_itself() {
    let universe = dex_universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 4, 17);
    let config = GenerationConfig::default();
    for id in universe.available_ids() {
        let module = universe.catalog.get(&id).expect("available");
        let verdict = compare_modules(
            module.as_ref(),
            module.as_ref(),
            &universe.ontology,
            &pool,
            &config,
        )
        .unwrap_or_else(|e| panic!("{id}: {e}"));
        assert!(
            matches!(verdict, MatchVerdict::Equivalent { .. }),
            "{id}: {verdict}"
        );
    }
}

/// Strict parameter mapping is symmetric; the subsuming relaxation is not
/// (direction matters: the candidate must accept the broader domain).
#[test]
fn strict_mapping_is_symmetric_subsuming_is_directed() {
    let universe = dex_universe::build();
    let ontology = &universe.ontology;
    let ids = universe.available_ids();
    let mut checked = 0;
    for a in ids.iter().take(60) {
        for b in ids.iter().take(60) {
            let da = universe.catalog.descriptor(a).unwrap();
            let db = universe.catalog.descriptor(b).unwrap();
            let ab = map_parameters(da, db, ontology, MappingMode::Strict).is_ok();
            let ba = map_parameters(db, da, ontology, MappingMode::Strict).is_ok();
            assert_eq!(ab, ba, "strict mapping must be symmetric: {a} vs {b}");
            // Strict implies subsuming.
            if ab {
                assert!(
                    map_parameters(da, db, ontology, MappingMode::Subsuming).is_ok(),
                    "{a} vs {b}"
                );
            }
            checked += 1;
        }
    }
    assert!(checked > 0);
    // Directedness witness: GetBiologicalSequence subsumes
    // get_protein_sequence_ebi's interface but not vice versa.
    let broad = universe
        .catalog
        .descriptor(&"dr:get_biological_sequence".into())
        .unwrap();
    let narrow = universe
        .catalog
        .descriptor(&"dr:get_protein_sequence_ebi".into())
        .unwrap();
    assert!(map_parameters(narrow, broad, ontology, MappingMode::Subsuming).is_ok());
    assert!(map_parameters(broad, narrow, ontology, MappingMode::Subsuming).is_err());
}

/// The matcher's verdict is stable under regeneration (same pool, same
/// config → same verdict), for a sample of module pairs.
#[test]
fn verdicts_are_deterministic() {
    let universe = dex_universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 4, 17);
    let config = GenerationConfig::default();
    let pairs = [
        ("dr:get_uniprot_record", "dr:get_uniprot_record_ebi"),
        ("da:align_seq_ebi", "da:align_seq_ddbj"),
        ("mi:map_uniprot_go", "mi:map_uniprot_go_ebi"),
    ];
    for (a, b) in pairs {
        let ma = universe.catalog.get(&a.into()).unwrap();
        let mb = universe.catalog.get(&b.into()).unwrap();
        let v1 =
            compare_modules(ma.as_ref(), mb.as_ref(), &universe.ontology, &pool, &config).unwrap();
        let v2 =
            compare_modules(ma.as_ref(), mb.as_ref(), &universe.ontology, &pool, &config).unwrap();
        assert_eq!(v1, v2, "{a} vs {b}");
    }
}

/// Concepts the descriptor generator draws interface shapes from.
const SHAPE_CONCEPTS: &[&str] = &[
    "BiologicalSequence",
    "DNASequence",
    "RNASequence",
    "ProteinSequence",
    "AlgorithmName",
];

/// A descriptor whose fingerprint is a function of `shape`: arity and
/// per-input concepts are decoded from the shape bits, so a small number
/// of shapes yields colliding buckets while distinct shapes migrate slots
/// across buckets.
fn shaped_descriptor(slot: usize, shape: u64) -> ModuleDescriptor {
    let arity = 1 + (shape % 3) as usize;
    let params: Vec<Parameter> = (0..arity)
        .map(|i| {
            let concept = SHAPE_CONCEPTS[((shape >> (8 * i)) as usize) % SHAPE_CONCEPTS.len()];
            Parameter::required(format!("in{i}"), StructuralType::Text, concept)
        })
        .collect();
    ModuleDescriptor::new(
        format!("prop:slot{slot}"),
        "ShapeModule",
        ModuleKind::RestService,
        params,
        vec![Parameter::required("out", StructuralType::Text, "Document")],
    )
}

proptest! {
    /// Incremental maintenance contract (ISSUE 7): any interleaving of
    /// `FingerprintIndex::insert` / `remove` calls leaves the index
    /// observationally identical to a fresh `build` over the same final
    /// slot assignment — per-slot fingerprints, canonical bucket order,
    /// bucket stats, and both pair worklists included.
    #[test]
    fn incremental_index_matches_fresh_rebuild(
        slots in 2usize..9,
        ops in proptest::collection::vec(any::<u64>(), 1..25),
    ) {
        let ontology = dex_ontology::mygrid::ontology();
        // Each raw op word decodes into a (slot selector, shape) pair.
        let ops: Vec<(u64, u64)> = ops
            .iter()
            .map(|&w| (w, w.rotate_left(23).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect();
        // Start from a built index over an arbitrary initial assignment
        // (the first `slots` ops seed it; `None` for odd shapes).
        let initial: Vec<Option<ModuleDescriptor>> = (0..slots)
            .map(|i| {
                let (a, _) = ops[i % ops.len()];
                (a % 3 != 0).then(|| shaped_descriptor(i, a))
            })
            .collect();
        let mut live = FingerprintIndex::build(
            initial.iter().map(|d| d.as_ref()),
            &ontology,
        );
        let mut assigned = initial;

        for &(sel, shape) in &ops {
            let slot = (sel as usize) % slots;
            if shape % 4 == 0 {
                live.remove(slot);
                assigned[slot] = None;
            } else {
                let d = shaped_descriptor(slot, shape);
                live.insert(slot, &d, &ontology);
                assigned[slot] = Some(d);
            }

            let fresh = FingerprintIndex::build(
                assigned.iter().map(|d| d.as_ref()),
                &ontology,
            );
            prop_assert_eq!(live.len(), fresh.len());
            for i in 0..slots {
                prop_assert_eq!(
                    live.fingerprint(i), fresh.fingerprint(i),
                    "slot {} fingerprint diverged", i
                );
                prop_assert_eq!(live.peers(i), fresh.peers(i), "slot {} peers", i);
            }
            let live_buckets: Vec<&[usize]> = live.buckets().collect();
            let fresh_buckets: Vec<&[usize]> = fresh.buckets().collect();
            prop_assert_eq!(live_buckets, fresh_buckets, "bucket order diverged");
            prop_assert_eq!(live.bucket_count(), fresh.bucket_count());
            prop_assert_eq!(live.largest_bucket(), fresh.largest_bucket());
            prop_assert_eq!(live.comparable_pairs(), fresh.comparable_pairs());
        }
    }
}

/// Provider variants that share a backend are pairwise equivalent — the
/// §6 KEGG claim, checked for every planted equivalence pair.
#[test]
fn planted_equivalences_hold_pairwise() {
    let universe = dex_universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 4, 17);
    let config = GenerationConfig::default();
    for (legacy, expected) in &universe.expected_match {
        let dex_universe::ExpectedMatch::Equivalent(target) = expected else {
            continue;
        };
        let a = universe.catalog.get(legacy).expect("pre-decay: available");
        let b = universe.catalog.get(target).expect("available");
        let verdict = compare_modules(a.as_ref(), b.as_ref(), &universe.ontology, &pool, &config)
            .unwrap_or_else(|e| panic!("{legacy} vs {target}: {e}"));
        assert!(
            matches!(verdict, MatchVerdict::Equivalent { .. }),
            "{legacy} vs {target}: {verdict}"
        );
    }
}
