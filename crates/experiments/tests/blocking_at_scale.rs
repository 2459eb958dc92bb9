//! Fingerprint blocking at catalog scale: the blocked summary sweep tallies
//! exactly the verdicts of an exhaustive all-pairs sweep, over the paper's
//! 252 modules and over a 2.5k-module scaled catalog, and compares under
//! half of the ordered pairs.
//!
//! The exhaustive side tallies without materializing its matrix — at 2.5k
//! modules that matrix would hold 6.25M reports.

use dex_core::{GenerationConfig, MatchOutcome, MatchSession, MatchVerdict};
use dex_experiments::parallel::match_pairs;
use dex_experiments::PairOutput;
use dex_pool::{build_synthetic_pool, build_text_pool, InstancePool};
use dex_universe::scale::{build_scaled, ScalePlan};
use dex_universe::Universe;

/// `(equivalent, overlapping, disjoint, incomparable)` over every ordered
/// pair of distinct available modules, each compared in full: no blocking.
fn exhaustive_tally(universe: &Universe, pool: &InstancePool) -> (usize, usize, usize, usize) {
    let session = MatchSession::new(&universe.ontology, pool, GenerationConfig::default());
    let modules: Vec<_> = universe
        .available_ids()
        .iter()
        .map(|id| universe.catalog.get(id).expect("available").clone())
        .collect();
    let mut tally = (0, 0, 0, 0);
    for (t, target) in modules.iter().enumerate() {
        let report = session.report_for(target.as_ref());
        for (c, candidate) in modules.iter().enumerate() {
            if t == c {
                continue;
            }
            match session
                .compare_report(target.as_ref(), &report, candidate.as_ref())
                .outcome
            {
                MatchOutcome::Verdict(MatchVerdict::Equivalent { .. }) => tally.0 += 1,
                MatchOutcome::Verdict(MatchVerdict::Overlapping { .. }) => tally.1 += 1,
                MatchOutcome::Verdict(MatchVerdict::Disjoint { .. }) => tally.2 += 1,
                MatchOutcome::Incomparable(_) => tally.3 += 1,
            }
        }
    }
    tally
}

#[test]
fn blocked_summary_equals_the_exhaustive_tally_at_252_and_2500_modules() {
    let paper = dex_universe::build();
    let paper_pool = build_synthetic_pool(&paper.ontology, 3, 42);
    let scaled = build_scaled(&ScalePlan::new(2_500, 42)).universe;
    let scaled_pool = build_text_pool(&scaled.ontology, 3, 42);

    for (universe, pool) in [(&paper, &paper_pool), (&scaled, &scaled_pool)] {
        let ids = universe.available_ids();
        let n = ids.len();
        let session = MatchSession::new(&universe.ontology, pool, GenerationConfig::default());
        let summary = match_pairs(&session, universe, &ids, PairOutput::Summary);
        let stats = summary.stats;
        eprintln!(
            "{n} modules: tallies {:?}, {} of {} pairs compared",
            summary.tallies(),
            stats.pairs_compared,
            stats.pairs_total
        );
        assert_eq!(stats.pairs_total, n * (n - 1));
        assert_eq!(
            summary.tallies(),
            exhaustive_tally(universe, pool),
            "blocked summary diverged from the exhaustive sweep at {n} modules"
        );
        assert!(
            stats.pairs_compared * 2 < stats.pairs_total,
            "blocking compared {} of {} pairs at {n} modules",
            stats.pairs_compared,
            stats.pairs_total
        );
    }
}
