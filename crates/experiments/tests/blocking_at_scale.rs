//! Fingerprint blocking at catalog scale: the incremental engine tallies
//! exactly the verdicts of an exhaustive all-pairs sweep, over the paper's
//! 252 modules and over a 2.5k-module scaled catalog, and blocking compares
//! under half of the ordered pairs. At 10k modules blocking is also checked
//! against the scaled world's constructed families: it prunes no
//! same-family pair, and the engine's verdicts form an exact confusion
//! matrix against the families' true relations.
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
use dex_universe::scale::{build_scaled, MemberRole, ScalePlan, ScaledWorld};
use dex_universe::Universe;
use std::collections::HashMap;

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

/// Rows and columns of a confusion matrix: equivalent, overlapping,
/// disjoint, incomparable.
type Confusion = [[usize; 4]; 4];

/// The true relation of two members of one family, by their roles: Anchor
/// and Equivalent members are equivalent to each other, a pair with a
/// Distinct member is disjoint, and any other pair holds an Overlapping
/// member (each diverges in its own way, so two of them overlap as well).
fn same_family_truth(a: MemberRole, b: MemberRole) -> usize {
    if a == MemberRole::Distinct || b == MemberRole::Distinct {
        2
    } else if a == MemberRole::Overlapping || b == MemberRole::Overlapping {
        1
    } else {
        0
    }
}

/// The confusion matrix, truth by row and engine by column, over every
/// ordered pair of distinct modules of `world`. A pair across families is
/// disjoint when both families use one shared interface shape and
/// incomparable otherwise. The engine's column is the verdict of the stored
/// cell, or incomparable when the row holds none.
fn confusion_matrix(world: &ScaledWorld, engine: &IncrementalPipeline) -> Confusion {
    let mut member: HashMap<&ModuleId, (usize, MemberRole)> = HashMap::new();
    // Truly comparable pairs by class, so the unstored ones can be counted
    // without walking all ordered pairs.
    let mut comparable = [0usize; 3];
    let mut per_shape: HashMap<usize, (usize, usize)> = HashMap::new();
    for (f, family) in world.families.iter().enumerate() {
        for (i, (id, &a)) in family.members.iter().zip(&family.roles).enumerate() {
            member.insert(id, (f, a));
            for (j, &b) in family.roles.iter().enumerate() {
                if i != j {
                    comparable[same_family_truth(a, b)] += 1;
                }
            }
        }
        if let Some(shape) = family.shared_shape {
            let k = family.members.len();
            let (modules, same_family) = per_shape.entry(shape).or_default();
            *modules += k;
            *same_family += k * (k - 1);
        }
    }
    for (modules, same_family) in per_shape.into_values() {
        comparable[2] += modules * (modules - 1) - same_family;
    }

    let mut matrix = [[0usize; 4]; 4];
    for id in engine.tracked_ids() {
        let (tf, tr) = member[id];
        for (c, verdict) in engine
            .verdicts(id)
            .expect("every scaled module is available")
        {
            let (cf, cr) = member[c];
            let truth = if tf == cf {
                same_family_truth(tr, cr)
            } else {
                let shape = |f: usize| world.families[f].shared_shape;
                if shape(tf).is_some() && shape(tf) == shape(cf) {
                    2
                } else {
                    3
                }
            };
            let found = match verdict {
                MatchVerdict::Equivalent { .. } => 0,
                MatchVerdict::Overlapping { .. } => 1,
                MatchVerdict::Disjoint { .. } => 2,
            };
            matrix[truth][found] += 1;
        }
    }
    for (truth, total) in comparable.into_iter().enumerate() {
        let stored: usize = matrix[truth][..3].iter().sum();
        matrix[truth][3] = total - stored;
    }
    let n = engine.tracked_ids().len();
    let counted: usize = matrix.iter().flatten().sum();
    matrix[3][3] = n * (n - 1) - counted;
    matrix
}

/// The engine against the constructed truth at 10k modules (ROADMAP item 1,
/// after the gold-standard evaluation of García-Jiménez & Wilkinson). The
/// verdicts are deterministic, so the matrix is exact; an off-diagonal cell
/// is a pair the engine misjudged, or a truly comparable pair it stored no
/// verdict for.
#[test]
fn engine_verdicts_match_the_constructed_truth_at_10k_modules() {
    for (seed, equivalent, overlapping, disjoint) in
        [(7, 29_312, 75_864, 125_930), (42, 34_324, 91_392, 151_366)]
    {
        let world = build_scaled(&ScalePlan::new(10_000, seed));
        let pool = build_text_pool(&world.universe.ontology, 4, seed);
        let engine = IncrementalPipeline::bootstrap(
            world.universe.clone(),
            pool,
            GenerationConfig::default(),
        );
        let n = engine.tracked_ids().len();
        assert_eq!(n, world.module_count(), "seed {seed}");
        let comparable = equivalent + overlapping + disjoint;
        let expected: Confusion = [
            [equivalent, 0, 0, 0],
            [0, overlapping, 0, 0],
            [0, 0, disjoint, 0],
            [0, 0, 0, n * (n - 1) - comparable],
        ];
        assert_eq!(confusion_matrix(&world, &engine), expected, "seed {seed}");
        eprintln!("seed {seed}: {comparable} comparable pairs, every one judged as constructed");
    }
}
