//! The incremental engine's bootstrap against a plain replay at catalog
//! scale. The engine answers a target example from the candidate's own
//! example on the same inputs instead of replaying it, and keeps no
//! invocation cache past the bootstrap; at 2.5k scaled modules this checks
//! that doing so changes no substitute ranking and makes each distinct
//! invocation once. The oracle generates every report through one fresh
//! cache and replays every comparable pair through it in full.

use dex_core::{
    generate_examples_retrying, match_against_examples_retrying, FingerprintIndex,
    GenerationConfig, MappingMode, MatchVerdict,
};
use dex_experiments::IncrementalPipeline;
use dex_modules::{FaultInjector, FaultPlan, InvocationCache, ModuleId, Retrier};
use dex_pool::build_text_pool;
use dex_universe::scale::{build_scaled, ScalePlan};
use std::cmp::Ordering;

/// The §6 study's order between two usable verdicts: equivalent first, then
/// overlapping by agreeing share, compared exactly as fractions.
fn study_order(a: &MatchVerdict, b: &MatchVerdict) -> Ordering {
    use MatchVerdict::{Equivalent, Overlapping};
    match (a, b) {
        (Equivalent { .. }, Equivalent { .. }) => Ordering::Equal,
        (Equivalent { .. }, _) => Ordering::Greater,
        (_, Equivalent { .. }) => Ordering::Less,
        (
            Overlapping {
                agreeing: a1,
                compared: c1,
            },
            Overlapping {
                agreeing: a2,
                compared: c2,
            },
        ) => (a1 * c2).cmp(&(a2 * c1)),
        _ => unreachable!("only usable verdicts are ranked"),
    }
}

#[test]
fn bootstrap_substitutes_equal_a_full_replay_of_every_comparable_pair() {
    let universe = build_scaled(&ScalePlan::new(2_500, 7)).universe;
    let pool = build_text_pool(&universe.ontology, 4, 7);
    let config = GenerationConfig::default();
    let ids = universe.available_ids();
    let modules: Vec<_> = ids
        .iter()
        .map(|id| universe.catalog.get(id).expect("available").clone())
        .collect();

    let cache = InvocationCache::new();
    let retrier = Retrier::new(config.retry);
    let reports: Vec<_> = modules
        .iter()
        .map(|m| {
            generate_examples_retrying(
                m.as_ref(),
                &universe.ontology,
                &pool,
                &config,
                &cache,
                &retrier,
            )
        })
        .collect();
    let index = FingerprintIndex::build(
        modules.iter().map(|m| Some(m.descriptor())),
        &universe.ontology,
    );
    // Verdict-bearing comparisons per target slot, in candidate order.
    let mut verdicts: Vec<Vec<(ModuleId, MatchVerdict)>> = vec![Vec::new(); ids.len()];
    for (t, c) in index.comparable_pairs() {
        let Ok(report) = &reports[t] else { continue };
        if let Ok(verdict) = match_against_examples_retrying(
            modules[t].descriptor(),
            &report.examples,
            modules[c].as_ref(),
            &universe.ontology,
            MappingMode::Strict,
            &cache,
            &retrier,
        ) {
            verdicts[t].push((ids[c].clone(), verdict));
        }
    }
    let replay = cache.stats();

    // A 0‰ injector only counts the invocations that reach a module.
    let injector = FaultInjector::new(FaultPlan::none(7));
    let mut counted = universe.clone();
    counted
        .catalog
        .wrap_modules(|_, module| injector.wrap(module));
    let engine = IncrementalPipeline::bootstrap(counted, pool, config);
    assert_eq!(engine.tracked_ids(), &ids[..]);
    let mut compared = 0;
    for (t, id) in ids.iter().enumerate() {
        let answer = engine.substitutes(id).expect("tracked");
        let mut ranked: Vec<(ModuleId, MatchVerdict)> = verdicts[t]
            .iter()
            .filter(|(_, v)| v.is_usable())
            .cloned()
            .collect();
        ranked.sort_by(|a, b| study_order(&b.1, &a.1).then_with(|| a.0.cmp(&b.0)));
        assert_eq!(answer.candidates_compared, verdicts[t].len(), "{id}");
        assert_eq!(answer.ranked, ranked, "{id}");
        compared += answer.candidates_compared;
    }
    let invoked = injector.stats().invocations;
    let stats = engine.invocation_cache().stats();
    eprintln!(
        "{} modules, {compared} verdicts: {invoked} engine invocations, engine cache {stats:?}, replay cache {replay:?}",
        ids.len()
    );
    assert!(compared > 0, "the catalog must compare some pairs");
    // The engine invoked each vector the replay invoked, once: its own
    // examples answer every repeat.
    assert_eq!(invoked, replay.misses);
    assert_eq!(stats.entries, 0, "the bootstrap keeps no cache");
}
