//! Fingerprint blocking at catalog scale: the incremental engine tallies
//! exactly the verdicts of an exhaustive all-pairs sweep, over the paper's
//! 252 modules and over a 2.5k-module scaled catalog, and blocking compares
//! under half of the ordered pairs. At 10k modules blocking is also checked
//! against the scaled world's constructed families: it prunes no
//! same-family pair.
//!
//! Neither side materializes a matrix — at 2.5k modules it would hold 6.25M
//! reports. The engine's tallies come from its substitute answers: a
//! module's `candidates_compared` counts its verdict-bearing comparisons and
//! `ranked` the usable ones among them; every other ordered pair is
//! incomparable.

use dex_core::{FingerprintIndex, GenerationConfig, MatchOutcome, MatchVerdict};
use dex_experiments::IncrementalPipeline;
use dex_modules::ModuleId;
use dex_oracle::MatchSession;
use dex_pool::{build_synthetic_pool, build_text_pool, InstancePool};
use dex_universe::scale::{build_scaled, ScalePlan};
use dex_universe::Universe;

/// `(equivalent, overlapping, disjoint, incomparable)`.
type Tally = (usize, usize, usize, usize);

/// The tally over every ordered pair of distinct available modules, each
/// compared in full: no blocking.
fn exhaustive_tally(universe: &Universe, pool: &InstancePool) -> Tally {
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

/// The same tally from an engine bootstrapped over the universe.
fn engine_tally(universe: &Universe, pool: &InstancePool) -> Tally {
    let engine =
        IncrementalPipeline::bootstrap(universe.clone(), pool.clone(), GenerationConfig::default());
    let n = engine.tracked_ids().len();
    let mut tally = (0, 0, 0, n * (n - 1));
    for id in engine.tracked_ids() {
        let answer = engine.substitutes(id).expect("tracked");
        tally.2 += answer.candidates_compared - answer.ranked.len();
        tally.3 -= answer.candidates_compared;
        for (_, verdict) in &answer.ranked {
            match verdict {
                MatchVerdict::Equivalent { .. } => tally.0 += 1,
                MatchVerdict::Overlapping { .. } => tally.1 += 1,
                MatchVerdict::Disjoint { .. } => panic!("{id}: a ranked verdict is usable"),
            }
        }
    }
    tally
}

#[test]
fn engine_tallies_equal_the_exhaustive_tally_at_252_and_2500_modules() {
    let paper = dex_universe::build();
    let paper_pool = build_synthetic_pool(&paper.ontology, 3, 42);
    let scaled = build_scaled(&ScalePlan::new(2_500, 42)).universe;
    let scaled_pool = build_text_pool(&scaled.ontology, 3, 42);

    for (universe, pool) in [(&paper, &paper_pool), (&scaled, &scaled_pool)] {
        let ids = universe.available_ids();
        let n = ids.len();
        let pairs = n * (n - 1);
        let compared = FingerprintIndex::build(
            ids.iter().map(|id| universe.catalog.descriptor(id)),
            &universe.ontology,
        )
        .comparable_pairs()
        .len();
        let tally = engine_tally(universe, pool);
        eprintln!("{n} modules: tallies {tally:?}, {compared} of {pairs} pairs compared");
        assert_eq!(
            tally,
            exhaustive_tally(universe, pool),
            "engine tallies diverged from the exhaustive sweep at {n} modules"
        );
        assert!(
            compared * 2 < pairs,
            "blocking compared {compared} of {pairs} pairs at {n} modules"
        );
    }
}

/// Blocking against the constructed truth (after the gold-standard
/// evaluation of García-Jiménez & Wilkinson): every ordered pair of members
/// of one family shares an interface, so blocking must keep it (recall 1),
/// and a comparable pair across families must join two families that
/// borrow the same shared interface shape.
#[test]
fn blocking_keeps_every_same_family_pair_at_10k_modules() {
    for seed in [7, 42] {
        let world = build_scaled(&ScalePlan::new(10_000, seed));
        let universe = &world.universe;
        let ids = universe.available_ids();
        assert_eq!(ids.len(), world.module_count(), "seed {seed}");
        let index = FingerprintIndex::build(
            ids.iter().map(|id| universe.catalog.descriptor(id)),
            &universe.ontology,
        );
        let slot = |id: &ModuleId| ids.binary_search(id).expect("scaled modules are available");
        let mut family = vec![0; ids.len()];
        let mut same_family = 0usize;
        for (f, members) in world.families.iter().map(|f| &f.members).enumerate() {
            for t in members {
                family[slot(t)] = f;
                for c in members.iter().filter(|&c| c != t) {
                    assert!(
                        index.is_comparable(slot(t), slot(c)),
                        "seed {seed}: blocking pruned same-family pair {t} -> {c}"
                    );
                    same_family += 1;
                }
            }
        }
        let mut cross_family = 0usize;
        for bucket in index.buckets() {
            for &t in bucket {
                for &c in bucket.iter().filter(|&&c| family[c] != family[t]) {
                    let shape = |i: usize| world.families[family[i]].shared_shape;
                    assert!(
                        shape(t).is_some() && shape(t) == shape(c),
                        "seed {seed}: {} and {} are comparable across families {:?} / {:?}",
                        ids[t],
                        ids[c],
                        shape(t),
                        shape(c)
                    );
                    cross_family += 1;
                }
            }
        }
        eprintln!(
            "seed {seed}: {same_family} same-family pairs, none pruned; \
             {cross_family} comparable cross-family pairs, all on a shared shape"
        );
    }
}
