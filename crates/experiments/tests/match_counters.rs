//! Dense and summary sweeps account the `dex.match.*` counters the same
//! way, withdrawn ids included: every ordered pair of the slice is counted
//! exactly once, so `dex.match.pairs` grows by `stats.pairs_total` in
//! either mode.

use dex_core::{GenerationConfig, MatchSession};
use dex_experiments::parallel::{match_pairs, BatchConfig, PairOutput};
use dex_modules::ModuleId;
use dex_pool::build_synthetic_pool;

const COUNTERS: [&str; 6] = [
    "dex.match.pairs",
    "dex.match.verdict.equivalent",
    "dex.match.verdict.overlapping",
    "dex.match.verdict.disjoint",
    "dex.match.verdict.incomparable",
    "dex.match.pairs_pruned",
];

// The single test in this binary owns the process-global subscriber; no
// serialization lock is needed.
#[test]
fn dense_and_summary_sweeps_count_every_pair_once() {
    dex_telemetry::enable();
    dex_telemetry::reset();

    let mut universe = dex_universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 3, 11);
    let ids: Vec<ModuleId> = universe.available_ids().into_iter().step_by(17).collect();
    universe.catalog.withdraw(&ids[0]);

    // Counter deltas and blocking stats of one sweep from a fresh session.
    let sweep = |output| {
        let before = COUNTERS.map(dex_telemetry::counter_value);
        let session = MatchSession::new(&universe.ontology, &pool, GenerationConfig::default());
        let run = match_pairs(
            &session,
            &universe,
            &ids,
            output,
            &BatchConfig::with_threads(2),
        );
        let after = COUNTERS.map(dex_telemetry::counter_value);
        let delta: [u64; 6] = std::array::from_fn(|i| after[i] - before[i]);
        (delta, run.stats)
    };
    let (dense, stats) = sweep(PairOutput::Dense);
    let (summary, summary_stats) = sweep(PairOutput::Summary);
    dex_telemetry::disable();

    assert_eq!(stats, summary_stats);
    assert!(stats.pairs_unavailable > 0 && stats.pairs_pruned > 0);
    assert_eq!(dense, summary, "dense vs summary deltas of {COUNTERS:?}");
    assert_eq!(dense[0], stats.pairs_total as u64, "dex.match.pairs");
    assert_eq!(
        dense[5], stats.pairs_pruned as u64,
        "dex.match.pairs_pruned"
    );
}
