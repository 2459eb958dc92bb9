//! Emits `BENCH_delta.json`: the incremental-recomputation numbers of
//! ISSUE 7 — delta-driven re-annotation via `IncrementalPipeline` against
//! the cold full-pipeline baseline, at paper scale (252 modules) and at
//! 2.5k / 25k synthetic registry scale.
//!
//! Usage:
//!   cargo run --release -p dex-bench --bin bench_delta [--ci] [OUT.json]
//!
//! `--ci` skips the 25k catalog so the smoke step stays within CI budget;
//! the default output path is `BENCH_delta.json` in the working directory.
//!
//! Workloads, applied to one live engine per catalog size:
//! - **single_insert** — one pool instance appended to one concept bucket.
//!   The engine signature-checks the concept's dependent modules; with the
//!   bench's depth-6 pool the append lands beyond every candidate-probe
//!   window, so the signatures *prove* zero cells dirty and the whole
//!   matrix carries forward. This is the gated workload: apply must beat
//!   the cold run by >= 10x at 2.5k while recomputing < 5% of cells.
//! - **churn_1pct** — ~1% of pool instances removed at occurrence 0 and
//!   replaced with fresh values: bucket heads shift, signatures really
//!   change, dirty modules regenerate (through the warm invocation cache)
//!   and re-match their rows.
//! - **flap_window** — ~1% of modules withdraw (substitutes are captured
//!   from the live matrix) and then restore in a second apply; signatures
//!   are unchanged, so the cost is pure matrix maintenance — dropped rows,
//!   then recomputed bucket rows/columns.
//!
//! The cold baseline (`cold_full_ms`) is what a delta-less pipeline redoes
//! per change: full fleet generation plus the blocked matching summary over
//! the current state. At 252 modules the bench also replays the final
//! engine state through the cold dense path and asserts the maintained
//! matrix is byte-identical — the proptest contract, re-checked at bench
//! scale.

use dex_bench::amplified_universe;
use dex_core::delta::{Delta, DeltaReport};
use dex_core::{GenerationConfig, MatchSession};
use dex_experiments::parallel::{generate_fleet, match_pairs};
use dex_experiments::{BatchConfig, IncrementalPipeline, PairOutput};
use dex_modules::Retrier;
use dex_pool::{build_synthetic_pool, AnnotatedInstance};
use dex_values::Value;
use std::fmt::Write as _;
use std::time::Instant;

/// Pool depth for the delta bench: deep enough that appending an instance
/// to a bucket's tail sits beyond the generator's candidate-probe window
/// (base pick + 3 retry skips), which is exactly the case the signature
/// check is supposed to prove clean.
const POOL_DEPTH: usize = 6;

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1_000.0
}

fn workload_json(name: &str, apply_ms: f64, cold_ms: f64, r: &DeltaReport) -> String {
    format!(
        "{{\"workload\": \"{name}\", \"apply_ms\": {apply_ms:.2}, \
         \"speedup_vs_cold\": {:.1}, \"events\": {}, \"dirty_candidates\": {}, \
         \"regenerated_modules\": {}, \"cells_total\": {}, \"cells_dirty\": {}, \
         \"dirty_cell_ratio\": {:.4}, \"examples_changed\": {}, \
         \"fingerprints_changed\": {}, \"recomputed_pairs\": {}, \
         \"carried_forward\": {}, \"dropped_pairs\": {}}}",
        cold_ms / apply_ms.max(1e-9),
        r.events,
        r.dirty_candidates,
        r.regenerated_modules,
        r.cells_total,
        r.cells_dirty,
        r.dirty_cell_ratio(),
        r.examples_changed,
        r.fingerprints_changed,
        r.recomputed_pairs,
        r.carried_forward,
        r.dropped_pairs,
    )
}

fn main() {
    let mut ci = false;
    let mut out_path = "BENCH_delta.json".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--ci" {
            ci = true;
        } else {
            out_path = arg;
        }
    }
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let config = GenerationConfig::default();
    let batch = BatchConfig::with_threads(threads);
    let sizes: &[usize] = if ci {
        &[252, 2_500]
    } else {
        &[252, 2_500, 25_000]
    };

    let mut json = String::from("{\n");
    writeln!(json, "  \"profile\": \"{profile}\",").unwrap();
    writeln!(json, "  \"threads\": {threads},").unwrap();
    writeln!(json, "  \"pool_depth\": {POOL_DEPTH},").unwrap();
    writeln!(json, "  \"delta_by_catalog\": [").unwrap();

    let mut gate_failures: Vec<String> = Vec::new();
    for (row, &n) in sizes.iter().enumerate() {
        let universe = if n == 252 {
            dex_universe::build()
        } else {
            amplified_universe(n)
        };
        let pool = build_synthetic_pool(&universe.ontology, POOL_DEPTH, 42);
        let ids = universe.available_ids();
        assert_eq!(ids.len(), n);

        // Cold full-run baseline over the same state: fleet generation plus
        // the blocked matching summary. Two reps at small sizes (min), one
        // at 25k.
        let reps = if n <= 2_500 { 2 } else { 1 };
        let mut cold_full_ms = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            let retrier = Retrier::new(config.retry);
            let fleet = generate_fleet(&universe, &pool, &config, threads, &retrier, true);
            let session = MatchSession::new(&universe.ontology, &pool, config.clone());
            let summary = match_pairs(&session, &universe, &ids, PairOutput::Summary, &batch);
            cold_full_ms = cold_full_ms.min(ms(start));
            assert!(!fleet.reports.is_empty());
            assert!(summary.stats.pairs_total > 0);
        }

        let start = Instant::now();
        let mut engine = IncrementalPipeline::bootstrap(universe, pool, config.clone());
        let bootstrap_ms = ms(start);

        let concepts: Vec<String> = engine
            .pool()
            .covered_concepts()
            .into_iter()
            .map(str::to_string)
            .collect();

        // --- single_insert ------------------------------------------------
        let deltas = [Delta::PoolInsert {
            instance: AnnotatedInstance::synthetic(Value::text("GATTACA-delta-0"), "DNASequence"),
        }];
        let start = Instant::now();
        let single = engine.apply(&deltas);
        let single_ms = ms(start);

        // --- churn_1pct ---------------------------------------------------
        let churn = (engine.pool().len() / 100).max(1);
        let mut deltas = Vec::with_capacity(churn * 2);
        for k in 0..churn {
            let concept = concepts[k % concepts.len()].clone();
            deltas.push(Delta::PoolRemove {
                concept: concept.clone(),
                occurrence: 0,
            });
            deltas.push(Delta::PoolInsert {
                instance: AnnotatedInstance::synthetic(
                    Value::text(format!("CHURN-{k:04}")),
                    concept,
                ),
            });
        }
        let start = Instant::now();
        let churn_report = engine.apply(&deltas);
        let churn_ms = ms(start);

        // --- flap_window --------------------------------------------------
        let flapping: Vec<_> = engine
            .tracked_ids()
            .iter()
            .step_by((n / (n / 100).max(1)).max(1))
            .take((n / 100).max(1))
            .cloned()
            .collect();
        let withdraw: Vec<Delta> = flapping
            .iter()
            .map(|id| Delta::ModuleWithdraw { id: id.clone() })
            .collect();
        let restore: Vec<Delta> = flapping
            .iter()
            .map(|id| Delta::ModuleRestore { id: id.clone() })
            .collect();
        let start = Instant::now();
        let down = engine.apply(&withdraw);
        let up = engine.apply(&restore);
        let flap_ms = ms(start);
        let flap_report = DeltaReport {
            events: down.events + up.events,
            dirty_candidates: down.dirty_candidates + up.dirty_candidates,
            regenerated_modules: down.regenerated_modules + up.regenerated_modules,
            cells_total: up.cells_total,
            cells_dirty: down.cells_dirty + up.cells_dirty,
            examples_changed: down.examples_changed + up.examples_changed,
            fingerprints_changed: down.fingerprints_changed + up.fingerprints_changed,
            recomputed_pairs: down.recomputed_pairs + up.recomputed_pairs,
            carried_forward: up.carried_forward,
            dropped_pairs: down.dropped_pairs + up.dropped_pairs,
        };

        // Gates (enforced at 2.5k, the acceptance scale): a single pool
        // insert must beat the cold run by >= 10x while recomputing < 5%
        // of cells.
        if n == 2_500 {
            let speedup = cold_full_ms / single_ms.max(1e-9);
            if speedup < 10.0 {
                gate_failures.push(format!(
                    "single_insert at 2.5k: {speedup:.1}x < 10x (apply {single_ms:.1}ms \
                     vs cold {cold_full_ms:.1}ms)"
                ));
            }
            if single.dirty_cell_ratio() >= 0.05 {
                gate_failures.push(format!(
                    "single_insert at 2.5k recomputed {:.2}% of cells (>= 5%)",
                    single.dirty_cell_ratio() * 100.0
                ));
            }
        }

        // Equivalence tie-back at paper scale: the maintained matrix equals
        // a cold dense run over the engine's final state.
        if n == 252 {
            let ids = engine.universe().available_ids();
            let session =
                MatchSession::new(&engine.universe().ontology, engine.pool(), config.clone());
            let cold = match_pairs(&session, engine.universe(), &ids, PairOutput::Dense, &batch);
            assert_eq!(
                engine.matrix(),
                cold.reports,
                "incremental matrix diverged from cold run at {n}"
            );
        }

        let comma = if row + 1 < sizes.len() { "," } else { "" };
        writeln!(
            json,
            "    {{\"modules\": {n}, \"bootstrap_ms\": {bootstrap_ms:.2}, \
             \"cold_full_ms\": {cold_full_ms:.2}, \"workloads\": [\n      {},\n      {},\n      {}\n    ]}}{comma}",
            workload_json("single_insert", single_ms, cold_full_ms, &single),
            workload_json("churn_1pct", churn_ms, cold_full_ms, &churn_report),
            workload_json("flap_window", flap_ms, cold_full_ms, &flap_report),
        )
        .unwrap();
    }
    writeln!(json, "  ]").unwrap();
    json.push_str("}\n");

    if !gate_failures.is_empty() {
        print!("{json}");
        for failure in &gate_failures {
            eprintln!("bench_delta gate failed: {failure}");
        }
        std::process::exit(1);
    }

    std::fs::write(&out_path, &json).expect("write summary");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
