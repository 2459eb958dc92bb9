//! Dense and summary sweeps account the `dex.match.*` counters the same
//! way, withdrawn ids included: every ordered pair of the slice is counted
//! exactly once, so `dex.match.pairs` grows by `stats.pairs_total` in
//! either mode. Each sweep also generates a target's examples at most once
//! (`dex.generate.modules`): the dense sweep and the exhaustive oracle
//! generate every available id exactly once, however many pairs it heads.

use dex_core::{GenerationConfig, MatchSession};
use dex_experiments::parallel::{match_pairs, match_pairs_exhaustive, PairOutput};
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

const GENERATED: &str = "dex.generate.modules";

// The single test in this binary owns the process-global subscriber; no
// serialization lock is needed.
#[test]
fn dense_and_summary_sweeps_count_every_pair_once() {
    dex_telemetry::enable();
    dex_telemetry::reset();

    let mut universe = dex_universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 3, 11);
    // A thinned slice, where blocking prunes every available pair, and a
    // contiguous one, where same-bucket pairs run the full comparison. Both
    // start with the withdrawn id.
    let available_ids = universe.available_ids();
    let slices: [Vec<ModuleId>; 2] = [
        available_ids.iter().step_by(17).cloned().collect(),
        available_ids.iter().take(16).cloned().collect(),
    ];
    universe.catalog.withdraw(&available_ids[0]);
    let session = || MatchSession::new(&universe.ontology, &pool, GenerationConfig::default());

    let mut compared = 0;
    for ids in &slices {
        // Counter deltas, generations and blocking stats of one sweep from
        // a fresh session.
        let sweep = |output| {
            let before = COUNTERS.map(dex_telemetry::counter_value);
            let generated = dex_telemetry::counter_value(GENERATED);
            let run = match_pairs(&session(), &universe, ids, output);
            let after = COUNTERS.map(dex_telemetry::counter_value);
            let delta: [u64; 6] = std::array::from_fn(|i| after[i] - before[i]);
            let generated = dex_telemetry::counter_value(GENERATED) - generated;
            (delta, generated, run.stats)
        };
        let (dense, dense_generated, stats) = sweep(PairOutput::Dense);
        let (summary, summary_generated, summary_stats) = sweep(PairOutput::Summary);
        let oracle_generated = {
            let generated = dex_telemetry::counter_value(GENERATED);
            match_pairs_exhaustive(&session(), &universe, ids);
            dex_telemetry::counter_value(GENERATED) - generated
        };

        assert_eq!(stats, summary_stats);
        assert!(stats.pairs_unavailable > 0 && stats.pairs_pruned > 0);
        assert_eq!(dense, summary, "dense vs summary deltas of {COUNTERS:?}");
        assert_eq!(dense[0], stats.pairs_total as u64, "dex.match.pairs");
        assert_eq!(
            dense[5], stats.pairs_pruned as u64,
            "dex.match.pairs_pruned"
        );
        compared += stats.pairs_compared;

        let available = ids
            .iter()
            .filter(|id| universe.catalog.get(id).is_some())
            .count() as u64;
        assert_eq!(dense_generated, available, "dense sweep generations");
        assert_eq!(oracle_generated, available, "exhaustive oracle generations");
        assert!(
            summary_generated <= available,
            "summary sweep generated {summary_generated} reports for {available} available ids"
        );
    }
    dex_telemetry::disable();
    assert!(compared > 0, "no slice ran a full comparison");
}
