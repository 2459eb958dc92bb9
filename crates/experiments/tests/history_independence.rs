//! The incremental engine keeps no history. A data example is a recorded
//! invocation, so a module's previous report is the only memo its
//! regeneration needs, and a restored module's carried substitute is
//! dropped. After a long run of small churn waves at 2.5k scaled modules,
//! the engine's replay cache is empty, it carries one substitute per
//! module withdrawn now, and its reports, verdict rows and substitute
//! rankings equal a cold bootstrap over the final universe and pool.

use dex_core::delta::Delta;
use dex_core::{GenerationConfig, MatchVerdict};
use dex_experiments::IncrementalPipeline;
use dex_modules::ModuleId;
use dex_pool::{build_text_pool, text_instance, AnnotatedInstance};
use dex_universe::scale::{build_scaled, ScalePlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const SCALE: usize = 2_500;
const SEED: u64 = 7;
const POOL_DEPTH: usize = 4;
const WAVES: usize = 1_000;
/// Fresh modules withdrawn per wave; the previous wave's are restored.
const WITHDRAW: usize = 2;

/// An available module's stored verdict cells, in slot order.
fn row(engine: &IncrementalPipeline, id: &ModuleId) -> Vec<(ModuleId, MatchVerdict)> {
    engine
        .verdicts(id)
        .expect("available")
        .map(|(c, v)| (c.clone(), v))
        .collect()
}

#[test]
fn churned_engine_equals_a_cold_bootstrap_and_keeps_no_history() {
    let universe = build_scaled(&ScalePlan::new(SCALE, SEED)).universe;
    let pool = build_text_pool(&universe.ontology, POOL_DEPTH, SEED);
    let config = GenerationConfig::default();
    let mut engine = IncrementalPipeline::bootstrap(universe, pool, config.clone());
    assert_eq!(engine.invocation_cache().stats().entries, 0, "bootstrap");

    let ids: Vec<ModuleId> = engine.tracked_ids().to_vec();
    let concepts: Vec<String> = engine
        .pool()
        .covered_concepts()
        .into_iter()
        .map(str::to_string)
        .collect();
    // The next instance number per concept: the pool already holds
    // `POOL_DEPTH` of each.
    let mut next_k = vec![POOL_DEPTH; concepts.len()];
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut withdrawn: Vec<ModuleId> = Vec::new();
    let mut regenerated = 0;
    for wave in 0..WAVES {
        let restored: BTreeSet<ModuleId> = withdrawn.drain(..).collect();
        let mut deltas: Vec<Delta> = restored
            .iter()
            .map(|id| Delta::ModuleRestore { id: id.clone() })
            .collect();
        while withdrawn.len() < WITHDRAW {
            let id = &ids[rng.gen_range(0..ids.len())];
            if !restored.contains(id) && !withdrawn.contains(id) {
                withdrawn.push(id.clone());
            }
        }
        deltas.extend(
            withdrawn
                .iter()
                .map(|id| Delta::ModuleWithdraw { id: id.clone() }),
        );
        let c = rng.gen_range(0..concepts.len());
        let concept = concepts[c].clone();
        deltas.push(Delta::PoolRemove {
            concept: concept.clone(),
            occurrence: 0,
        });
        deltas.push(Delta::PoolInsert {
            instance: AnnotatedInstance::synthetic(
                text_instance(&concept, next_k[c], SEED),
                concept,
            ),
        });
        next_k[c] += 1;

        regenerated += engine.apply(&deltas).regenerated_modules;
        assert_eq!(
            engine.invocation_cache().stats().entries,
            0,
            "wave {wave}: the replay cache outlived its batch"
        );
        assert_eq!(
            engine.matching_study().matches.len(),
            withdrawn.len(),
            "wave {wave}: one carried substitute per module withdrawn now"
        );
    }
    assert!(
        regenerated > 0,
        "the pool churn must regenerate some modules"
    );

    let cold =
        IncrementalPipeline::bootstrap(engine.universe().clone(), engine.pool().clone(), config);
    assert_eq!(engine.available_count(), SCALE - WITHDRAW);
    assert_eq!(cold.tracked_ids().len(), engine.available_count());
    assert!(engine.reports().eq(cold.reports()), "reports diverged");
    for id in cold.tracked_ids() {
        assert_eq!(row(&engine, id), row(&cold, id), "{id}: verdict row");
        let (live, fresh) = (
            engine.substitutes(id).expect("tracked"),
            cold.substitutes(id).expect("tracked"),
        );
        assert!(live.available && fresh.available, "{id}");
        assert_eq!(live.candidates_compared, fresh.candidates_compared, "{id}");
        assert_eq!(live.ranked, fresh.ranked, "{id}");
    }
}
