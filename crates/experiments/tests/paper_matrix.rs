//! The `Context` the experiment binaries build (seed-42 pool, 6
//! realizations per concept) over the paper's 252 modules, fault-free and
//! under seeded 10% transient faults. Its reports must equal a cold serial
//! generation, its engine's `matrix()` must equal the exhaustive oracle's
//! byte for byte, and the stored verdict rows the matching summary counts
//! must tally the same as `matrix()`.

use dex_core::{generate_examples, GenerationConfig, MatchOutcome, MatchVerdict};
use dex_experiments::faults::DEFAULT_FAULT_SEED;
use dex_experiments::{Context, FaultConfig, POOL_PER_CONCEPT, POOL_SEED};
use dex_oracle::{match_pairs_exhaustive, MatchSession};
use dex_pool::build_synthetic_pool;
use std::collections::BTreeMap;

/// Index of a verdict kind in a `(equivalent, overlapping, disjoint,
/// incomparable)` tally.
fn kind(verdict: &MatchVerdict) -> usize {
    match verdict {
        MatchVerdict::Equivalent { .. } => 0,
        MatchVerdict::Overlapping { .. } => 1,
        MatchVerdict::Disjoint { .. } => 2,
    }
}

#[test]
fn engine_matrix_equals_the_oracle_over_the_paper_modules() {
    for faults in [
        FaultConfig::none(),
        FaultConfig::injected(10, DEFAULT_FAULT_SEED),
    ] {
        let ctx = Context::build(&faults);
        let injecting = faults.is_injecting();
        let universe = ctx.universe();
        assert!(ctx.generation_failures.is_empty(), "faults: {injecting}");

        // A cold serial generation of every available module, without
        // faults: the engine's retries must have absorbed every injected one.
        let clean = dex_universe::build();
        let pool = build_synthetic_pool(&clean.ontology, POOL_PER_CONCEPT, POOL_SEED);
        let config = GenerationConfig::default();
        let cold: BTreeMap<_, _> = clean
            .available_ids()
            .into_iter()
            .map(|id| {
                let module = clean.catalog.get(&id).expect("available");
                let report = generate_examples(module.as_ref(), &clean.ontology, &pool, &config)
                    .unwrap_or_else(|e| panic!("{id}: {e}"));
                (id, report)
            })
            .collect();
        assert_eq!(cold.len(), 252);
        assert!(
            ctx.engine.reports().eq(&cold),
            "reports diverged (faults injected: {injecting})"
        );

        let matrix = ctx.engine.matrix();
        let session = MatchSession::new(&universe.ontology, ctx.pool(), ctx.config.clone());
        assert!(
            matrix == match_pairs_exhaustive(&session, universe),
            "engine matrix diverged from the oracle (faults injected: {injecting})"
        );

        let mut tally = [0usize; 4];
        for report in matrix.values() {
            match &report.outcome {
                MatchOutcome::Verdict(v) => tally[kind(v)] += 1,
                MatchOutcome::Incomparable(_) => tally[3] += 1,
            }
        }
        assert_eq!(tally, [38, 4, 448, 62_762], "faults injected: {injecting}");

        // The matching summary's count: stored verdict cells by kind, and
        // every other ordered pair incomparable.
        let mut rows = [0usize; 4];
        for id in ctx.engine.tracked_ids() {
            for (_, v) in ctx.engine.verdicts(id).into_iter().flatten() {
                rows[kind(&v)] += 1;
            }
        }
        let n = ctx.engine.available_count();
        rows[3] = n * (n - 1) - rows[..3].iter().sum::<usize>();
        assert_eq!(rows, tally, "faults injected: {injecting}");
    }
}
