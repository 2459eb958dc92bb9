//! Matching invariants checked across the whole synthetic universe.

use dex_core::matching::{map_parameters, Correspondence, MappingMode, ParamOrder};
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
                live.insert(slot, &d);
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

/// The parameter labels the mapping property draws from: two share a
/// semantic concept and differ in structure, so both halves of the label
/// order are exercised, and three labels over 1–4 parameters make repeats
/// and mismatches common.
const MAPPING_LABELS: &[(StructuralType, &str)] = &[
    (StructuralType::Text, "DNASequence"),
    (StructuralType::Integer, "DNASequence"),
    (StructuralType::Text, "ProteinSequence"),
];

/// A descriptor whose inputs and outputs carry the labels `inputs` and
/// `outputs` index, in that order.
fn labelled_descriptor(id: &str, inputs: &[usize], outputs: &[usize]) -> ModuleDescriptor {
    let params = |prefix: &str, labels: &[usize]| -> Vec<Parameter> {
        labels
            .iter()
            .enumerate()
            .map(|(i, &l)| {
                let (structural, semantic) = &MAPPING_LABELS[l];
                Parameter::required(format!("{prefix}{i}"), structural.clone(), *semantic)
            })
            .collect()
    };
    ModuleDescriptor::new(
        id,
        id,
        ModuleKind::RestService,
        params("in", inputs),
        params("out", outputs),
    )
}

/// `labels` permuted by a seeded Fisher–Yates shuffle.
fn shuffled(labels: &[usize], mut seed: u64) -> Vec<usize> {
    let mut out = labels.to_vec();
    for i in (1..out.len()).rev() {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        out.swap(i, (seed >> 33) as usize % (i + 1));
    }
    out
}

/// The composed strict mapping from `t` to `c` equals `map_parameters`'
/// search: the same candidate index for every target parameter, or the
/// same error.
fn composed_matches_search(t: &ModuleDescriptor, c: &ModuleDescriptor) -> Result<(), String> {
    let ontology = dex_ontology::mygrid::ontology();
    let (t_order, c_order) = (ParamOrder::of(t), ParamOrder::of(c));
    match (
        map_parameters(t, c, &ontology, MappingMode::Strict),
        t_order.compose(t, &c_order, c),
    ) {
        (Ok(searched), Ok(composed)) => {
            let inputs: Vec<usize> = (0..t.inputs.len()).map(|i| composed.input(i)).collect();
            let outputs: Vec<usize> = (0..t.outputs.len()).map(|o| composed.output(o)).collect();
            prop_assert_eq!(searched.inputs, inputs, "{:?} → {:?}", t, c);
            prop_assert_eq!(searched.outputs, outputs, "{:?} → {:?}", t, c);
        }
        (Err(searched), Err(composed)) => {
            prop_assert_eq!(searched.to_string(), composed.to_string());
        }
        (searched, composed) => {
            return Err(format!(
                "{t:?} → {c:?}: search gave {searched:?}, composition {composed:?}"
            ));
        }
    }
    Ok(())
}

proptest! {
    /// The engine's composed strict mapping reproduces `map_parameters`,
    /// first-fit tie-breaking and error strings included, in both
    /// directions. Half the candidates permute the target's labels (one
    /// label changed in half of those), so most pairs of equal arity are
    /// mappable or fail on a single label.
    #[test]
    fn composed_mapping_matches_map_parameters(
        t_in in proptest::collection::vec(0usize..3, 1..5),
        t_out in proptest::collection::vec(0usize..3, 1..5),
        c_in in proptest::collection::vec(0usize..3, 1..5),
        c_out in proptest::collection::vec(0usize..3, 1..5),
        seed in any::<u64>(),
    ) {
        let (c_in, c_out) = match seed % 4 {
            0 | 1 => (c_in, c_out),
            2 => (shuffled(&t_in, seed), shuffled(&t_out, seed.rotate_left(17))),
            _ => {
                let mut c_in = shuffled(&t_in, seed);
                c_in[0] = (c_in[0] + 1) % MAPPING_LABELS.len();
                (c_in, shuffled(&t_out, seed.rotate_left(17)))
            }
        };
        let t = labelled_descriptor("t", &t_in, &t_out);
        let c = labelled_descriptor("c", &c_in, &c_out);
        composed_matches_search(&t, &c)?;
        composed_matches_search(&c, &t)?;
    }
}
