//! The engine against the exhaustive oracle over the paper's 252 modules,
//! on the `Context` the experiment binaries build (seed-42 pool, 6
//! realizations per concept), fault-free and under seeded 10% transient
//! faults. `matrix()` must equal the oracle's byte for byte, and both runs
//! tally the matching summary `exp_all` prints.

use dex_core::{MatchOutcome, MatchVerdict};
use dex_experiments::faults::DEFAULT_FAULT_SEED;
use dex_experiments::{Context, FaultConfig, IncrementalPipeline};
use dex_oracle::{match_pairs_exhaustive, MatchSession};

#[test]
fn engine_matrix_equals_the_oracle_over_the_paper_modules() {
    for faults in [
        FaultConfig::none(),
        FaultConfig::injected(10, DEFAULT_FAULT_SEED),
    ] {
        let ctx = Context::build_with(&faults);
        let engine = IncrementalPipeline::bootstrap(
            ctx.universe.clone(),
            ctx.pool.clone(),
            ctx.config.clone(),
        );
        let matrix = engine.matrix();
        let session = MatchSession::new(&ctx.universe.ontology, &ctx.pool, ctx.config.clone());
        let injecting = faults.is_injecting();
        assert!(
            matrix == match_pairs_exhaustive(&session, &ctx.universe),
            "engine matrix diverged from the oracle (faults injected: {injecting})"
        );

        // (equivalent, overlapping, disjoint, incomparable)
        let mut tally = [0usize; 4];
        for report in matrix.values() {
            let kind = match report.outcome {
                MatchOutcome::Verdict(MatchVerdict::Equivalent { .. }) => 0,
                MatchOutcome::Verdict(MatchVerdict::Overlapping { .. }) => 1,
                MatchOutcome::Verdict(MatchVerdict::Disjoint { .. }) => 2,
                MatchOutcome::Incomparable(_) => 3,
            };
            tally[kind] += 1;
        }
        assert_eq!(tally, [38, 4, 448, 62_762], "faults injected: {injecting}");
    }
}
