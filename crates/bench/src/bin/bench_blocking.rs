//! Emits `BENCH_blocking.json`: fingerprint-blocked all-pairs matching —
//! the exhaustive all-pairs sweep against the blocked sweep at one thread
//! and at the host's thread count, and the pair-pruning ratio — at paper
//! scale (252 modules, the catalog size of Belhajjame et al.'s EDBT 2014
//! evaluation) and at 2.5k / 25k synthetic registry scale.
//!
//! Usage:
//!   cargo run --release -p dex-bench --bin bench_blocking [--ci] [OUT.json]
//!
//! `--ci` skips the 25k catalog and shortens the crossover sweep so the
//! smoke step stays within CI budget; the default output path is
//! `BENCH_blocking.json` in the working directory.
//!
//! Methodology (DESIGN.md §12):
//! - Every timed configuration gets a warm-up run first, and the two
//!   configurations of a row alternate A/B with the minimum reported — mass
//!   allocation in one run otherwise bleeds into the next run's wall clock
//!   through the allocator, which on this workload can inflate a timing by
//!   10x. Every timed sweep starts from a fresh `MatchSession`.
//! - The all-pairs baseline tallies verdicts without materializing the
//!   dense matrix (at 2.5k that matrix holds 6.25M reports, and building
//!   then dropping it poisons every timing that follows). Its tallies must
//!   equal the blocked summary's — the bench doubles as an equivalence
//!   check at a scale the proptest suite cannot afford.
//! - `blocked_serial_ms` and `blocked_parallel_ms` time the same summary
//!   sweep at one thread and at `threads`, the host's available
//!   parallelism. `parallel_speedup` is their ratio, and `null` on a
//!   one-thread host, where both columns run the serial path. With more
//!   than one thread the bench asserts `parallel_speedup >= 1.0` at 25k.
//! - The crossover sweep times slices of the 2.5k registry with the
//!   executor forced serial and forced batched (at least two workers).
//!   `measured_crossover_pairs` is the smallest compared-pair count where
//!   batched won, or `null` where it never did.
//!
//! The synthetic registries amplify the shipped 252-module universe: one
//! base module per fingerprint bucket (up to 64 distinct interface shapes)
//! is cloned under fresh ids, and every third clone's text outputs are
//! perturbed so same-shape pairs split across equivalent / overlapping /
//! disjoint verdicts instead of collapsing into one class.

use dex_bench::amplified_universe;
use dex_core::{GenerationConfig, MatchOutcome, MatchSession, MatchVerdict};
use dex_experiments::parallel::{match_pairs, match_pairs_exhaustive};
use dex_experiments::{BatchConfig, BlockedMatch, PairOutput};
use dex_modules::ModuleId;
use dex_pool::{build_synthetic_pool, InstancePool};
use dex_universe::Universe;
use std::fmt::Write as _;
use std::time::Instant;

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1_000.0
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| format!("{v:.2}"))
}

/// `(equivalent, overlapping, disjoint, incomparable)` slot of an outcome.
fn verdict_slot(outcome: &MatchOutcome) -> usize {
    match outcome {
        MatchOutcome::Verdict(MatchVerdict::Equivalent { .. }) => 0,
        MatchOutcome::Verdict(MatchVerdict::Overlapping { .. }) => 1,
        MatchOutcome::Verdict(MatchVerdict::Disjoint { .. }) => 2,
        MatchOutcome::Incomparable(_) => 3,
    }
}

/// The exhaustive all-pairs baseline, tallying verdicts without
/// materializing the dense matrix: every ordered pair runs the full
/// comparison serially through one shared session, no blocking.
fn allpairs_tally(
    universe: &Universe,
    ids: &[ModuleId],
    pool: &InstancePool,
    config: &GenerationConfig,
) -> (usize, usize, usize, usize) {
    let session = MatchSession::new(&universe.ontology, pool, config.clone());
    let mut tally = [0usize; 4];
    for (t, target) in ids.iter().enumerate() {
        let target = universe.catalog.get(target).expect("available");
        let report = session.report_for(target.as_ref());
        for (c, candidate) in ids.iter().enumerate() {
            if t == c {
                continue;
            }
            let candidate = universe.catalog.get(candidate).expect("available");
            let report = session.compare_report(target.as_ref(), &report, candidate.as_ref());
            tally[verdict_slot(&report.outcome)] += 1;
        }
    }
    (tally[0], tally[1], tally[2], tally[3])
}

/// Times a summary sweep over `ids` under two batch configurations: one
/// warm-up run under the first, then `rounds` rounds alternating which
/// configuration goes first — whatever position-dependent cost a round
/// carries (page cache, frequency ramp) lands on both sides equally —
/// keeping each one's minimum. Every run must tally the same verdicts.
fn time_alternating(
    universe: &Universe,
    ids: &[ModuleId],
    pool: &InstancePool,
    config: &GenerationConfig,
    batches: [&BatchConfig; 2],
    rounds: usize,
) -> (BlockedMatch, [f64; 2]) {
    let sweep = |batch: &BatchConfig| {
        let session = MatchSession::new(&universe.ontology, pool, config.clone());
        match_pairs(&session, universe, ids, PairOutput::Summary, batch)
    };
    let warm = sweep(batches[0]);
    let mut best = [f64::INFINITY; 2];
    for round in 0..rounds {
        for leg in 0..2 {
            let k = (round + leg) % 2;
            let start = Instant::now();
            let run = sweep(batches[k]);
            best[k] = best[k].min(ms(start));
            assert_eq!(
                warm.tallies(),
                run.tallies(),
                "sweep over {} modules unstable under {:?}",
                ids.len(),
                batches[k]
            );
        }
    }
    (warm, best)
}

fn main() {
    let mut ci = false;
    let mut out_path = "BENCH_blocking.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--ci" {
            ci = true;
        } else {
            out_path = arg;
        }
    }
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    // The crossover sweep's whole point is exercising the spawn path, so it
    // forces at least two workers even on a single-core host.
    let crossover_threads = threads.max(2);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };

    let mut json = String::from("{\n");
    writeln!(json, "  \"profile\": \"{profile}\",").unwrap();
    writeln!(json, "  \"threads\": {threads},").unwrap();

    // --- Catalog-scale sweep ---------------------------------------------
    // 252 = the paper's catalog (natural shape diversity); 2.5k and 25k =
    // amplified registries. The all-pairs baseline is only feasible through
    // 2.5k (6.25M mapping attempts); at 25k (625M ordered pairs) only the
    // blocked summary sweeps run.
    let config = GenerationConfig::default();
    let sizes: &[usize] = if ci {
        &[252, 2_500]
    } else {
        &[252, 2_500, 25_000]
    };
    writeln!(json, "  \"blocked_matching_by_catalog\": [").unwrap();
    for (row, &n) in sizes.iter().enumerate() {
        let universe = if n == 252 {
            dex_universe::build()
        } else {
            amplified_universe(n)
        };
        let pool = build_synthetic_pool(&universe.ontology, 3, 42);
        let ids = universe.available_ids();
        assert_eq!(ids.len(), n);

        let rounds = if n <= 2_500 { 3 } else { 2 };
        let (summary, [blocked_serial_ms, blocked_parallel_ms]) = time_alternating(
            &universe,
            &ids,
            &pool,
            &config,
            [
                &BatchConfig::with_threads(1),
                &BatchConfig::with_threads(threads),
            ],
            rounds,
        );

        // The all-pairs baseline, last in the row so its long serial sweep
        // cannot bleed into the blocked timings. Its verdict tally must
        // agree with the blocked summary exactly.
        let allpairs_serial_ms = (n <= 2_500).then(|| {
            let start = Instant::now();
            let tally = allpairs_tally(&universe, &ids, &pool, &config);
            let elapsed = ms(start);
            assert_eq!(
                tally,
                summary.tallies(),
                "blocked summary diverged from the exhaustive sweep at {n}"
            );
            elapsed
        });

        // With one thread both columns run the serial path, so their ratio
        // would only measure noise.
        let parallel_speedup =
            (threads > 1).then(|| blocked_serial_ms / blocked_parallel_ms.max(1e-9));
        if let (25_000, Some(speedup)) = (n, parallel_speedup) {
            assert!(
                speedup >= 1.0,
                "parallel regression at 25k: speedup {speedup:.3} < 1.0 \
                 (1 thread {blocked_serial_ms:.1}ms vs {threads} threads \
                 {blocked_parallel_ms:.1}ms)"
            );
        }
        let stats = summary.stats;
        let comma = if row + 1 < sizes.len() { "," } else { "" };
        writeln!(
            json,
            "    {{\"modules\": {n}, \"pairs_total\": {}, \"pairs_compared\": {}, \
             \"pairs_pruned\": {}, \"prune_ratio\": {:.4}, \"buckets\": {}, \
             \"largest_bucket\": {}, \"allpairs_serial_ms\": {}, \
             \"blocked_serial_ms\": {blocked_serial_ms:.2}, \
             \"blocked_parallel_ms\": {blocked_parallel_ms:.2}, \
             \"parallel_speedup\": {}, \
             \"verdicts\": {{\"equivalent\": {}, \"overlapping\": {}, \"disjoint\": {}, \
             \"incomparable\": {}}}}}{comma}",
            stats.pairs_total,
            stats.pairs_compared,
            stats.pairs_pruned,
            stats.prune_ratio(),
            stats.buckets,
            stats.largest_bucket,
            fmt_opt(allpairs_serial_ms),
            fmt_opt(parallel_speedup),
            summary.equivalent,
            summary.overlapping,
            summary.disjoint,
            summary.incomparable,
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();

    // --- Serial/batched crossover sweep ----------------------------------
    // Slices of the 2.5k registry with growing compared-pair counts, each
    // timed with the executor forced serial and forced batched. The
    // smallest compared-pair count where batched wins is the measured
    // crossover behind `BatchConfig::SERIAL_CUTOFF_PAIRS`.
    let universe = amplified_universe(2_500);
    let pool = build_synthetic_pool(&universe.ontology, 3, 42);
    let all_ids = universe.available_ids();
    // Slices start at 128: the first 64 ids cover each of the 64 shapes
    // exactly once, a degenerate all-singleton-buckets plan with zero
    // compared pairs and nothing to time.
    let slice_sizes: &[usize] = if ci {
        &[128, 384]
    } else {
        &[128, 192, 256, 384, 512, 768]
    };
    writeln!(json, "  \"crossover_threads\": {crossover_threads},").unwrap();
    writeln!(json, "  \"crossover\": [").unwrap();
    let mut crossover_pairs: Option<usize> = None;
    for (row, &m) in slice_sizes.iter().enumerate() {
        let ids: Vec<ModuleId> = all_ids.iter().take(m).cloned().collect();
        let forced_serial = BatchConfig {
            threads: 1,
            serial_cutoff: usize::MAX,
            chunk: BatchConfig::CHUNK_PAIRS,
        };
        let forced_batched = BatchConfig {
            threads: crossover_threads,
            serial_cutoff: 0,
            chunk: BatchConfig::CHUNK_PAIRS,
        };
        let (warm, [serial_ms, batched_ms]) = time_alternating(
            &universe,
            &ids,
            &pool,
            &config,
            [&forced_serial, &forced_batched],
            2,
        );
        let pairs = warm.stats.pairs_compared;
        if pairs > 0 && batched_ms < serial_ms && crossover_pairs.is_none() {
            crossover_pairs = Some(pairs);
        }
        let comma = if row + 1 < slice_sizes.len() { "," } else { "" };
        writeln!(
            json,
            "    {{\"modules\": {m}, \"pairs_compared\": {pairs}, \
             \"serial_ms\": {serial_ms:.2}, \"batched_ms\": {batched_ms:.2}}}{comma}"
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(
        json,
        "  \"measured_crossover_pairs\": {},",
        crossover_pairs.map_or_else(|| "null".to_string(), |p| p.to_string())
    )
    .unwrap();
    writeln!(
        json,
        "  \"serial_cutoff_pairs\": {}",
        BatchConfig::SERIAL_CUTOFF_PAIRS
    )
    .unwrap();
    json.push_str("}\n");

    // Sanity tie-back to the dense path at paper scale: the matrix agrees
    // with the exhaustive oracle (the proptest suite covers this broadly;
    // this keeps the bench itself honest about what it measures).
    let universe = dex_universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 3, 42);
    let ids: Vec<ModuleId> = universe.available_ids().into_iter().step_by(9).collect();
    let session = || MatchSession::new(&universe.ontology, &pool, config.clone());
    let oracle = match_pairs_exhaustive(&session(), &universe, &ids);
    let blocked = match_pairs(
        &session(),
        &universe,
        &ids,
        PairOutput::Dense,
        &BatchConfig::with_threads(threads),
    );
    assert_eq!(oracle, blocked.reports, "dense blocked matrix diverged");

    std::fs::write(&out_path, &json).expect("write summary");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
