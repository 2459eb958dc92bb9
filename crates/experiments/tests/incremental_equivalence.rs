//! The incremental engine's correctness contract: after *any* seeded
//! sequence of deltas — pool inserts/removals, module
//! withdrawals/restorations, ontology edge additions, in any batching —
//! the maintained generation reports equal a cold serial generation, and the
//! matching matrix equals the exhaustive oracle's, over the same final
//! state. A second property pins the same equivalence with seeded transient
//! faults injected into every module, riding on the retry layer to
//! converge. The mini worlds come from `dex_oracle::fixture`, whose
//! behaviour classes give the matrix Equivalent and Overlapping pairs as
//! well as Disjoint and incomparable ones.

use dex_core::delta::{Delta, DeltaReport};
use dex_core::{
    generate_examples, GenerationConfig, GenerationReport, MatchOutcome, MatchReport, MatchVerdict,
    PartitionFingerprint,
};
use dex_experiments::IncrementalPipeline;
use dex_modules::{
    FaultInjector, FaultPlan, FnModule, InvocationError, ModuleDescriptor, ModuleId, ModuleKind,
    Parameter, RetryPolicy, SharedModule,
};
use dex_oracle::fixture::{decode_delta, mini_module, mini_world, module_id, world_of};
use dex_oracle::{match_pairs_exhaustive, MatchSession};
use dex_pool::{build_synthetic_pool, AnnotatedInstance, InstancePool};
use dex_universe::Universe;
use dex_values::{StructuralType, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The exhaustive oracle's matrix over a cold universe and pool.
fn oracle_matrix(
    universe: &Universe,
    pool: &InstancePool,
    config: &GenerationConfig,
) -> BTreeMap<(ModuleId, ModuleId), MatchReport> {
    let session = MatchSession::new(&universe.ontology, pool, config.clone());
    match_pairs_exhaustive(&session, universe)
}

/// Replays the same deltas onto a cold universe/pool by direct mutation —
/// the state a from-scratch pipeline run would start from.
fn replay_cold(universe: &mut Universe, pool: &mut InstancePool, deltas: &[Delta]) {
    for delta in deltas {
        match delta {
            Delta::PoolInsert { instance } => pool.add(instance.clone()),
            Delta::PoolRemove {
                concept,
                occurrence,
            } => {
                pool.remove_realization(concept, *occurrence);
            }
            Delta::ModuleWithdraw { id } => {
                universe.catalog.withdraw(id);
            }
            Delta::ModuleRestore { id } => {
                universe.catalog.restore(id);
            }
            Delta::OntologyEdgeAdd { parent, child } => {
                let _ = universe.ontology.add_child(child.clone(), parent);
            }
        }
    }
}

/// What the brute-force pair accounting reads of one tracked slot:
/// availability, fingerprint bucket key (`None` while withdrawn, computed
/// from the descriptor), and the generation outcome a verdict can read.
struct SlotView {
    available: bool,
    bucket: Option<PartitionFingerprint>,
    outcome: Result<String, String>,
}

fn snapshot(engine: &IncrementalPipeline) -> BTreeMap<ModuleId, SlotView> {
    engine
        .tracked_ids()
        .iter()
        .map(|id| {
            let (available, outcome) = engine.annotation(id).expect("tracked");
            let bucket = engine
                .universe()
                .catalog
                .descriptor(id)
                .filter(|_| available)
                .map(PartitionFingerprint::of);
            let view = SlotView {
                available,
                bucket,
                outcome: match outcome {
                    Ok(report) => Ok(format!("{:?}", report.examples)),
                    Err(e) => Err(e.to_string()),
                },
            };
            (id.clone(), view)
        })
        .collect()
}

/// The stored verdict pairs a snapshot implies: every ordered pair of
/// distinct available slots sharing a fingerprint bucket.
fn stored_pairs(view: &BTreeMap<ModuleId, SlotView>) -> Vec<(&ModuleId, &ModuleId)> {
    let mut pairs = Vec::new();
    for (t, tv) in view {
        for (c, cv) in view {
            if t != c && tv.bucket.is_some() && tv.bucket == cv.bucket {
                pairs.push((t, c));
            }
        }
    }
    pairs
}

/// Pins the batch's pair accounting to a brute-force count over the stored
/// pairs before and after it. A slot is vacated when it leaves its bucket
/// (withdrawn) and rejoins when it enters one (restored); a slot whose
/// examples changed recomputes its row. The count compares bucket keys, so
/// it would also see a slot whose fingerprint changed.
fn check_pair_accounting(
    report: &DeltaReport,
    before: &BTreeMap<ModuleId, SlotView>,
    after: &BTreeMap<ModuleId, SlotView>,
) {
    let vacated =
        |id: &ModuleId| before[id].bucket.is_some() && before[id].bucket != after[id].bucket;
    let rejoining =
        |id: &ModuleId| after[id].bucket.is_some() && before[id].bucket != after[id].bucket;
    let changed = |id: &ModuleId| {
        before[id].available && after[id].available && before[id].outcome != after[id].outcome
    };
    let dropped = stored_pairs(before)
        .into_iter()
        .filter(|&(t, c)| vacated(t) || vacated(c))
        .count();
    let stored_after = stored_pairs(after);
    let recomputed = stored_after
        .iter()
        .filter(|&&(t, c)| rejoining(t) || rejoining(c) || changed(t))
        .count();
    assert_eq!(report.dropped_pairs, dropped, "dropped_pairs");
    assert_eq!(report.recomputed_pairs, recomputed, "recomputed_pairs");
    assert_eq!(
        report.carried_forward,
        stored_after.len() - recomputed,
        "carried_forward"
    );
}

/// Drives one full case: bootstrap the engine, apply the op words in
/// batches, and after every batch compare reports and matrix against a
/// cold full run over the identically-replayed state, and the batch's pair
/// accounting against a brute-force count.
fn check_equivalence(
    shape_salt: u64,
    behavior_salt: u64,
    reject_pct: u64,
    ops: &[u64],
    batch_len: usize,
    faults: Option<(u64, u32)>,
) {
    let config = GenerationConfig {
        retry: if faults.is_some() {
            RetryPolicy::transient(4)
        } else {
            RetryPolicy::none()
        },
        ..GenerationConfig::default()
    };
    let (universe, pool) = mini_world(shape_salt, behavior_salt, reject_pct, faults);
    let mut engine = IncrementalPipeline::bootstrap(universe, pool, config.clone());

    let deltas: Vec<Delta> = ops
        .iter()
        .enumerate()
        .map(|(i, &w)| decode_delta(i, w))
        .collect();
    let mut applied = 0usize;
    for batch in deltas.chunks(batch_len.max(1)) {
        let before = snapshot(&engine);
        let report = engine.apply(batch);
        assert_eq!(report.events, batch.len());
        applied += batch.len();
        check_pair_accounting(&report, &before, &snapshot(&engine));

        // Cold oracle over the identically-replayed state.
        let (mut cold_u, mut cold_p) = mini_world(shape_salt, behavior_salt, reject_pct, faults);
        replay_cold(&mut cold_u, &mut cold_p, &deltas[..applied]);

        let cold: BTreeMap<ModuleId, GenerationReport> = cold_u
            .available_ids()
            .into_iter()
            .map(|id| {
                let module = cold_u.catalog.get(&id).expect("available");
                let report = generate_examples(module.as_ref(), &cold_u.ontology, &cold_p, &config)
                    .unwrap_or_else(|e| panic!("cold oracle must generate {id}: {e}"));
                (id, report)
            })
            .collect();
        assert_eq!(
            engine.reports(),
            cold,
            "incremental reports diverged from cold run after {applied} deltas"
        );
        // The dependency index holds each available module's current plan,
        // so its cells are the cold plans' partitions.
        let cold_cells: usize = cold.values().map(|r| r.plan.partition_count()).sum();
        assert_eq!(
            report.cells_total, cold_cells,
            "cells diverged from the cold plans after {applied} deltas"
        );

        assert_eq!(
            engine.matrix(),
            oracle_matrix(&cold_u, &cold_p, &config),
            "incremental matrix diverged from cold run after {applied} deltas"
        );
    }

    // The carried-forward study holds a capture for each module withdrawn
    // now (a restore drops its module's), and only usable verdicts become
    // substitutes.
    let study = engine.matching_study();
    for m in study.matches.values() {
        if let Some((_, v)) = &m.best {
            assert!(v.is_usable());
        }
    }
}

/// Stored incomparable cells whose reason is the target's generation error.
/// Slots 0–2 share one interface, `BiologicalSequence × AlgorithmName`,
/// whose partition product exceeds a cap of one combination, so each of
/// their pairs is stored without a verdict; slots 3 and 4 take a leaf
/// concept and compare. The batch grows a partition under the shared input
/// (so the error string itself changes) and withdraws slot 1.
#[test]
fn stored_generation_errors_render_as_in_a_cold_run() {
    let config = GenerationConfig {
        max_combinations: 1,
        ..GenerationConfig::default()
    };
    let shapes: [&[usize]; 5] = [&[0, 4], &[0, 4], &[0, 4], &[1], &[1]];
    let world = || {
        world_of(shapes.iter().enumerate().map(|(slot, inputs)| {
            Arc::new(mini_module(slot, inputs, slot as u64, 0)) as SharedModule
        }))
    };
    let (universe, pool) = world();
    let mut engine = IncrementalPipeline::bootstrap(universe, pool, config.clone());
    let reason = |matrix: &BTreeMap<(ModuleId, ModuleId), MatchReport>| match &matrix
        [&(module_id(0), module_id(2))]
        .outcome
    {
        MatchOutcome::Incomparable(reason) => reason.clone(),
        other => panic!("expected a generation error, got {other:?}"),
    };
    let before = reason(&engine.matrix());
    assert!(before.contains("above the cap of 1"), "{before}");

    let batch = [
        Delta::OntologyEdgeAdd {
            parent: "BiologicalSequence".to_string(),
            child: "GrownSequence".to_string(),
        },
        Delta::ModuleWithdraw { id: module_id(1) },
    ];
    engine.apply(&batch);
    let (mut cold_u, mut cold_p) = world();
    replay_cold(&mut cold_u, &mut cold_p, &batch);
    let matrix = engine.matrix();
    assert_eq!(matrix, oracle_matrix(&cold_u, &cold_p, &config));
    assert_ne!(reason(&matrix), before, "the batch must change the error");

    for slot in [0, 2] {
        let answer = engine.substitutes(&module_id(slot)).expect("tracked");
        assert_eq!(answer.candidates_compared, 0, "slot {slot}");
        assert!(answer.ranked.is_empty(), "slot {slot}");
    }
    let leaf = engine.substitutes(&module_id(3)).expect("tracked");
    assert_eq!(leaf.candidates_compared, 1);
}

/// A same-behavior echo over one `DNASequence` input that rejects `reject`
/// and counts its invocations in `calls`.
fn echo(id: &str, reject: Option<Value>, calls: Arc<AtomicUsize>) -> SharedModule {
    Arc::new(FnModule::new(
        ModuleDescriptor::new(
            id,
            id,
            ModuleKind::RestService,
            vec![Parameter::required(
                "seq",
                StructuralType::Text,
                "DNASequence",
            )],
            vec![Parameter::required("out", StructuralType::Text, "Document")],
        ),
        move |values| {
            calls.fetch_add(1, Ordering::Relaxed);
            if reject.as_ref() == Some(&values[0]) {
                return Err(InvocationError::rejected("first realization"));
            }
            let seq = values[0].as_text().expect("text input");
            Ok(vec![Value::text(format!("echo:{seq}"))])
        },
    ))
}

/// A target example with no aligned candidate example is replayed for real.
/// Two echoes compute the same function of a leaf-concept input. The target
/// rejects the partition's first realization, so its one example holds
/// attempt 1's pick; the candidate accepts every value, so its example
/// holds pick 0. `(target, candidate)` finds no candidate example on the
/// target's inputs, invokes the candidate on them and agrees;
/// `(candidate, target)` replays the rejected pick on the target and
/// disagrees. Scoring an unaligned example as a disagreement, or skipping
/// its replay, breaks both the verdict and the equality with the oracle.
#[test]
fn an_unaligned_example_is_replayed_against_the_candidate() {
    let first = build_synthetic_pool(&dex_ontology::mygrid::ontology(), 3, 7)
        .get_instance("DNASequence", &StructuralType::Text, 0)
        .expect("the pool realizes DNASequence")
        .value
        .clone();
    let world = |candidate_calls: Arc<AtomicUsize>| {
        world_of(
            [
                echo("fb:target", Some(first.clone()), Arc::default()),
                echo("fb:candidate", None, candidate_calls),
            ]
            .into_iter(),
        )
    };
    let candidate_calls = Arc::new(AtomicUsize::new(0));
    let (universe, pool) = world(Arc::clone(&candidate_calls));
    let mut engine = IncrementalPipeline::bootstrap(universe, pool, GenerationConfig::default());
    let target = ModuleId::from("fb:target");
    let candidate = ModuleId::from("fb:candidate");
    let examples = |id: &ModuleId| match engine.annotation(id).expect("tracked").1 {
        Ok(report) => report.examples.clone(),
        Err(e) => panic!("{id} failed to generate: {e}"),
    };
    let (target_examples, candidate_examples) = (examples(&target), examples(&candidate));
    assert_eq!(target_examples.len(), 1);
    assert_eq!(candidate_examples.len(), 1);
    let target_input = &target_examples.iter().next().unwrap().inputs[0].value;
    let candidate_input = &candidate_examples.iter().next().unwrap().inputs[0].value;
    assert_eq!(
        candidate_input, &first,
        "the candidate's example holds pick 0"
    );
    assert_ne!(
        target_input, &first,
        "the target's example holds attempt 1's pick"
    );

    let (cold_u, cold_p) = world(Arc::default());
    let matrix = engine.matrix();
    assert_eq!(
        matrix,
        oracle_matrix(&cold_u, &cold_p, &GenerationConfig::default())
    );
    assert_eq!(
        matrix[&(target.clone(), candidate.clone())].outcome,
        MatchOutcome::Verdict(MatchVerdict::Equivalent { compared: 1 })
    );
    // The candidate ran once to generate and once to replay the target's
    // unaligned example.
    assert_eq!(candidate_calls.load(Ordering::Relaxed), 2);
    assert_eq!(
        matrix[&(candidate.clone(), target)].outcome,
        MatchOutcome::Verdict(MatchVerdict::Disjoint { compared: 1 })
    );

    // The replay cache lives for one call. A withdraw and a restore
    // re-match the pair without regenerating the candidate (nothing it
    // reads moved), so the target's example is replayed once more, and
    // each call leaves the cache empty.
    assert_eq!(engine.invocation_cache().stats().entries, 0, "bootstrap");
    engine.apply(&[Delta::ModuleWithdraw {
        id: candidate.clone(),
    }]);
    let restore = engine.apply(&[Delta::ModuleRestore { id: candidate }]);
    assert_eq!(restore.regenerated_modules, 0, "{restore:?}");
    assert_eq!(candidate_calls.load(Ordering::Relaxed), 3);
    assert_eq!(engine.invocation_cache().stats().entries, 0, "restore");
}

/// A regenerated module reads its own previous report as its memo: after
/// one partition's first realization is replaced, only the attempts whose
/// inputs no previous example records reach the module, and the report
/// still equals a cold generation over the new pool.
#[test]
fn a_regeneration_invokes_only_what_its_examples_do_not_record() {
    let calls = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&calls);
    let module: SharedModule = Arc::new(FnModule::new(
        ModuleDescriptor::new(
            "memo:len",
            "SequenceLength",
            ModuleKind::LocalProgram,
            vec![Parameter::required(
                "seq",
                StructuralType::Text,
                "BiologicalSequence",
            )],
            vec![Parameter::required("len", StructuralType::Text, "Document")],
        ),
        move |values| {
            counted.fetch_add(1, Ordering::Relaxed);
            let seq = values[0].as_text().expect("text input");
            Ok(vec![Value::text(seq.len().to_string())])
        },
    ));
    let (universe, pool) = world_of(std::iter::once(Arc::clone(&module)));
    let config = GenerationConfig::default();
    let mut engine = IncrementalPipeline::bootstrap(universe, pool, config.clone());
    let id = ModuleId::from("memo:len");
    let before = engine.reports()[&id].examples.clone();
    assert_eq!(calls.load(Ordering::Relaxed), before.len());

    let batch = engine.apply(&[Delta::PoolRemove {
        concept: "DNASequence".to_string(),
        occurrence: 0,
    }]);
    assert_eq!(batch.regenerated_modules, 1, "{batch:?}");
    let after = engine.reports()[&id].clone();
    let moved = after
        .examples
        .iter()
        .filter(|e| !before.iter().any(|b| b.inputs == e.inputs))
        .count();
    assert!(
        moved > 0 && moved < after.examples.len(),
        "{moved} of {} examples moved",
        after.examples.len()
    );
    assert_eq!(
        calls.load(Ordering::Relaxed),
        before.len() + moved,
        "only the moved attempts were invoked"
    );
    let cold = generate_examples(
        module.as_ref(),
        &engine.universe().ontology,
        engine.pool(),
        &config,
    )
    .expect("cold generation");
    assert_eq!(after, cold);
}

/// A pool insert appended behind every dependent module's candidate-probe
/// window (base pick plus retry skips, at pool depth 6) moves no pick: the
/// engine regenerates the concept's dependents from their own reports,
/// which answer every attempt, so no module is invoked and nothing is
/// regenerated, recomputed or dropped. The paper's modules reject nothing
/// over a synthetic pool, so one more dependent rejects the concept's first
/// realization; its report answers that attempt from a recorded rejection.
#[test]
fn single_pool_insert_behind_the_probe_window_dirties_nothing() {
    let mut universe = dex_universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 6, 42);
    let first = pool
        .get_instance("DNASequence", &StructuralType::Text, 0)
        .expect("the pool realizes DNASequence")
        .value
        .clone();
    let rejecting = ModuleId::from("probe:rejects-first");
    universe
        .catalog
        .register(echo(rejecting.as_str(), Some(first), Arc::default()));
    // A 0‰ injector only counts the invocations that reach a module.
    let injector = FaultInjector::new(FaultPlan::none(42));
    universe
        .catalog
        .wrap_modules(|_, module| injector.wrap(module));
    let mut engine = IncrementalPipeline::bootstrap(universe, pool, GenerationConfig::default());
    match engine.annotation(&rejecting).expect("tracked").1 {
        Ok(report) => assert_eq!(report.rejected.len(), 1, "{report:?}"),
        Err(e) => panic!("{rejecting} failed to generate: {e}"),
    }
    let bootstrap = injector.stats().invocations;
    let report = engine.apply(&[Delta::PoolInsert {
        instance: AnnotatedInstance::synthetic(Value::text("GATTACA-delta-0"), "DNASequence"),
    }]);
    assert!(report.dirty_candidates > 0, "{report:?}");
    assert_eq!(report.regenerated_modules, 0, "{report:?}");
    assert_eq!(report.cells_dirty, 0, "{report:?}");
    assert_eq!(report.recomputed_pairs, 0, "{report:?}");
    assert_eq!(report.dropped_pairs, 0, "{report:?}");
    assert_eq!(
        injector.stats().invocations,
        bootstrap,
        "the candidates' own reports answer every attempt"
    );
}

/// A module restored in the batch that also flags it, here through a pool
/// insert on a concept it plans, is checked and regenerated once.
#[test]
fn a_restored_and_flagged_module_is_checked_once() {
    let calls = Arc::new(AtomicUsize::new(0));
    let id = ModuleId::from("dc:echo");
    let (universe, pool) = world_of(std::iter::once(echo(id.as_str(), None, Arc::clone(&calls))));
    let mut engine = IncrementalPipeline::bootstrap(universe, pool, GenerationConfig::default());
    let bootstrap = calls.load(Ordering::Relaxed);
    engine.apply(&[Delta::ModuleWithdraw { id: id.clone() }]);
    let report = engine.apply(&[
        Delta::ModuleRestore { id },
        Delta::PoolInsert {
            instance: AnnotatedInstance::synthetic(Value::text("GATTACA"), "DNASequence"),
        },
    ]);
    assert_eq!(report.dirty_candidates, 1, "{report:?}");
    assert_eq!(report.regenerated_modules, 0, "{report:?}");
    assert_eq!(calls.load(Ordering::Relaxed), bootstrap, "nothing moved");
}

/// A new ontology leaf can name a concept a tracked module's input already
/// uses. `leaf:grown` reads a `GrownSequence` the ontology does not know
/// yet, so it fails to generate, beside a `DNASequence` echo; the pool
/// already holds one `GrownSequence` instance. Once the leaf joins under
/// `DNASequence`, `leaf:grown` must be regenerated (one example), as a cold
/// run over the grown ontology sees it; the echo gains the leaf as a
/// partition.
#[test]
fn a_leaf_naming_a_used_annotation_regenerates_its_module() {
    let grown: SharedModule = Arc::new(FnModule::new(
        ModuleDescriptor::new(
            "leaf:grown",
            "leaf:grown",
            ModuleKind::RestService,
            vec![Parameter::required(
                "seq",
                StructuralType::Text,
                "GrownSequence",
            )],
            vec![Parameter::required("out", StructuralType::Text, "Document")],
        ),
        |values| {
            let seq = values[0].as_text().expect("text input");
            Ok(vec![Value::text(format!("grown:{seq}"))])
        },
    ));
    let world = || {
        let (universe, mut pool) =
            world_of([Arc::clone(&grown), echo("leaf:dna", None, Arc::default())].into_iter());
        pool.add(AnnotatedInstance::synthetic(
            Value::text("GATTACAGROWN"),
            "GrownSequence",
        ));
        (universe, pool)
    };
    let config = GenerationConfig::default();
    let (universe, pool) = world();
    let mut engine = IncrementalPipeline::bootstrap(universe, pool, config.clone());
    let (target, candidate) = (ModuleId::from("leaf:grown"), ModuleId::from("leaf:dna"));
    assert!(matches!(engine.annotation(&target), Some((true, Err(_)))));

    let batch = [Delta::OntologyEdgeAdd {
        parent: "DNASequence".to_string(),
        child: "GrownSequence".to_string(),
    }];
    let report = engine.apply(&batch);
    assert_eq!(report.regenerated_modules, 2, "{report:?}");
    let (mut cold_u, mut cold_p) = world();
    replay_cold(&mut cold_u, &mut cold_p, &batch);
    for id in [&target, &candidate] {
        let module = cold_u.catalog.get(id).expect("available");
        let cold = generate_examples(module.as_ref(), &cold_u.ontology, &cold_p, &config)
            .unwrap_or_else(|e| panic!("cold run must generate {id}: {e}"));
        assert_eq!(engine.reports().get(id), Some(&cold), "{id}");
    }
    let matrix = engine.matrix();
    assert_eq!(matrix, oracle_matrix(&cold_u, &cold_p, &config));
    let pair = &matrix[&(target, candidate)];
    assert_eq!(pair.examples, 1);
    assert_eq!(
        pair.outcome,
        MatchOutcome::Incomparable(
            "modules cannot be compared: no 1-to-1 input parameter mapping".to_string()
        )
    );
}

/// An ontology edge moves no slot between buckets: a fingerprint reads the
/// descriptor alone. Two `DNASequence` echoes share one bucket, and a
/// `GrownSequence` leaf joins under `DNASequence`, which adds a partition
/// to both. With no pool instance of the leaf their examples do not change,
/// so both stored pairs carry forward; with one, both examples change, so
/// the two rows are recomputed and no column is. Either way no pair is
/// dropped, and the matrix equals a cold run's.
#[test]
fn an_ontology_edge_moves_no_slot_between_buckets() {
    for realized in [false, true] {
        let world = || {
            let (universe, mut pool) = world_of(
                [
                    echo("edge:a", None, Arc::default()),
                    echo("edge:b", None, Arc::default()),
                ]
                .into_iter(),
            );
            if realized {
                pool.add(AnnotatedInstance::synthetic(
                    Value::text("GATTACAGROWN"),
                    "GrownSequence",
                ));
            }
            (universe, pool)
        };
        let config = GenerationConfig::default();
        let (universe, pool) = world();
        let mut engine = IncrementalPipeline::bootstrap(universe, pool, config.clone());
        let batch = [Delta::OntologyEdgeAdd {
            parent: "DNASequence".to_string(),
            child: "GrownSequence".to_string(),
        }];
        let report = engine.apply(&batch);
        assert_eq!(report.dropped_pairs, 0, "realized {realized}: {report:?}");
        if realized {
            assert_eq!(report.examples_changed, 2, "{report:?}");
            assert_eq!(report.recomputed_pairs, 2, "{report:?}");
            assert_eq!(report.carried_forward, 0, "{report:?}");
        } else {
            assert_eq!(report.examples_changed, 0, "{report:?}");
            assert_eq!(report.recomputed_pairs, 0, "{report:?}");
            assert_eq!(report.carried_forward, 2, "{report:?}");
        }
        let (mut cold_u, mut cold_p) = world();
        replay_cold(&mut cold_u, &mut cold_p, &batch);
        assert_eq!(
            engine.matrix(),
            oracle_matrix(&cold_u, &cold_p, &config),
            "realized {realized}"
        );
    }
}

/// A pool delta on a concept the ontology lacks is no module's partition:
/// inserting or removing such an instance flags nothing.
#[test]
fn a_pool_concept_the_ontology_lacks_flags_nothing() {
    let calls = Arc::new(AtomicUsize::new(0));
    let (universe, pool) = world_of(std::iter::once(echo(
        "unknown:echo",
        None,
        Arc::clone(&calls),
    )));
    let mut engine = IncrementalPipeline::bootstrap(universe, pool, GenerationConfig::default());
    let bootstrap = calls.load(Ordering::Relaxed);
    let insert = engine.apply(&[Delta::PoolInsert {
        instance: AnnotatedInstance::synthetic(Value::text("GATTACA"), "NotAConcept"),
    }]);
    let remove = engine.apply(&[Delta::PoolRemove {
        concept: "NotAConcept".to_string(),
        occurrence: 0,
    }]);
    for report in [insert, remove] {
        assert_eq!(report.dirty_candidates, 0, "{report:?}");
        assert_eq!(report.regenerated_modules, 0, "{report:?}");
    }
    assert_eq!(calls.load(Ordering::Relaxed), bootstrap, "nothing moved");
    assert_eq!(engine.pool().realizations_of("NotAConcept").count(), 0);
}

/// The fixture's worlds hold agreeing pairs, so the proptests below can see
/// a wrong agreement count: over 40 salts at reject rates of 0, 10 and 30%,
/// the engine's matrix holds Equivalent and Overlapping pairs beside the
/// Disjoint and incomparable ones.
#[test]
fn fixture_worlds_hold_equivalent_and_overlapping_pairs() {
    let mut tally = [0usize; 4];
    for salt in 0..40u64 {
        for reject_pct in [0, 10, 30] {
            let (universe, pool) = mini_world(
                salt.wrapping_mul(0x2545_f491_4f6c_dd1d),
                salt.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                reject_pct,
                None,
            );
            let engine =
                IncrementalPipeline::bootstrap(universe, pool, GenerationConfig::default());
            for report in engine.matrix().values() {
                let kind = match report.outcome {
                    MatchOutcome::Verdict(MatchVerdict::Equivalent { .. }) => 0,
                    MatchOutcome::Verdict(MatchVerdict::Overlapping { .. }) => 1,
                    MatchOutcome::Verdict(MatchVerdict::Disjoint { .. }) => 2,
                    MatchOutcome::Incomparable(_) => 3,
                };
                tally[kind] += 1;
            }
        }
    }
    eprintln!("equivalent / overlapping / disjoint / incomparable: {tally:?}");
    assert!(tally[0] > 0, "no Equivalent pair: {tally:?}");
    assert!(tally[1] > 0, "no Overlapping pair: {tally:?}");
}

proptest! {
    /// Incremental == cold, for any seeded delta sequence and batching.
    #[test]
    fn incremental_state_matches_cold_full_run(
        shape_salt in any::<u64>(),
        behavior_salt in any::<u64>(),
        reject_pct in 0u64..40,
        ops in proptest::collection::vec(any::<u64>(), 1..9),
        batch_len in 1usize..4,
    ) {
        check_equivalence(shape_salt, behavior_salt, reject_pct, &ops, batch_len, None);
    }

    /// Same contract with bounded transient faults injected into every
    /// module: the retry layer converges both the engine and the cold
    /// oracle to the true outcomes, so the equivalence still holds
    /// byte-for-byte even though the two runs see different fault-clock
    /// phases.
    #[test]
    fn incremental_matches_cold_run_under_faults(
        shape_salt in any::<u64>(),
        behavior_salt in any::<u64>(),
        reject_pct in 0u64..40,
        fault_seed in any::<u64>(),
        fault_rate_pct in 1u32..31,
        ops in proptest::collection::vec(any::<u64>(), 1..7),
        batch_len in 1usize..3,
    ) {
        check_equivalence(
            shape_salt,
            behavior_salt,
            reject_pct,
            &ops,
            batch_len,
            Some((fault_seed, fault_rate_pct)),
        );
    }
}
