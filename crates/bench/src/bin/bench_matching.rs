//! Emits a machine-readable `BENCH_matching.json` summary of the
//! performance-pass hot paths, so successive changes can track their
//! trajectory.
//!
//! Usage: `cargo run --release -p dex-bench --bin bench_matching [OUT.json]`
//! (default output path: `BENCH_matching.json` in the working directory).
//! Sample counts are sized for a few seconds of wall clock in release mode;
//! debug-mode numbers are labeled as such in the `profile` field.

use dex_core::{compare_modules, GenerationConfig, MatchSession};
use dex_experiments::parallel::{match_pairs, match_pairs_exhaustive};
use dex_experiments::{BatchConfig, PairOutput};
use dex_modules::ModuleId;
use dex_ontology::{ConceptId, Ontology};
use dex_pool::build_synthetic_pool;
use std::fmt::Write as _;
use std::time::Instant;

/// Median nanoseconds per call of `f` over `samples` timed batches of
/// `batch` calls each.
fn median_ns(samples: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(start.elapsed().as_nanos() as f64 / batch as f64);
    }
    per_call.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    per_call[per_call.len() / 2]
}

fn chain_ontology(depth: usize) -> Ontology {
    let mut b = Ontology::builder(format!("chain{depth}"));
    b.root("N0").unwrap();
    for i in 1..depth {
        b.child(&format!("N{i}"), &format!("N{}", i - 1)).unwrap();
    }
    b.child("Leaf", &format!("N{}", depth - 1)).unwrap();
    b.build().unwrap()
}

fn subsumes_walk(o: &Ontology, general: ConceptId, specific: ConceptId) -> bool {
    let dg = o.depth(general);
    let mut cur = specific;
    while o.depth(cur) > dg {
        cur = match o.parent(cur) {
            Some(p) => p,
            None => return false,
        };
    }
    cur == general
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_matching.json".to_string());
    let mut json = String::from("{\n");
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    writeln!(json, "  \"profile\": \"{profile}\",").unwrap();

    // --- Subsumption across ontology depth -------------------------------
    writeln!(json, "  \"subsumes_ns_by_depth\": [").unwrap();
    let depths = [4usize, 16, 64, 256];
    for (i, &depth) in depths.iter().enumerate() {
        let o = chain_ontology(depth);
        let root = o.id("N0").unwrap();
        let leaf = o.id("Leaf").unwrap();
        let interval = median_ns(21, 100_000, || {
            std::hint::black_box(o.subsumes(std::hint::black_box(root), leaf));
        });
        let walk = median_ns(21, 10_000, || {
            std::hint::black_box(subsumes_walk(&o, std::hint::black_box(root), leaf));
        });
        let comma = if i + 1 < depths.len() { "," } else { "" };
        writeln!(
            json,
            "    {{\"depth\": {depth}, \"interval_ns\": {interval:.1}, \"walk_ns\": {walk:.1}}}{comma}"
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();

    // --- Pool lookups across pool size -----------------------------------
    let onto = dex_ontology::mygrid::ontology();
    let identifier = onto.id("Identifier").unwrap();
    writeln!(json, "  \"instances_of_ns_by_pool_size\": [").unwrap();
    let sizes = [2usize, 8, 32];
    for (i, &per_concept) in sizes.iter().enumerate() {
        let pool = build_synthetic_pool(&onto, per_concept, 42);
        let indexed = median_ns(11, 2_000, || {
            std::hint::black_box(pool.instances_of("Identifier", &onto).count());
        });
        let scan = median_ns(11, 500, || {
            std::hint::black_box(
                pool.iter()
                    .filter(|inst| {
                        onto.id(&inst.concept)
                            .is_some_and(|c| onto.subsumes(identifier, c))
                    })
                    .count(),
            );
        });
        let comma = if i + 1 < sizes.len() { "," } else { "" };
        writeln!(
            json,
            "    {{\"pool_size\": {}, \"indexed_ns\": {indexed:.1}, \"scan_ns\": {scan:.1}}}{comma}",
            pool.len()
        )
        .unwrap();
    }
    writeln!(json, "  ],").unwrap();

    // --- All-pairs matching across catalog size --------------------------
    let universe = dex_universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 4, 42);
    let config = GenerationConfig::default();
    let all_ids = universe.available_ids();
    writeln!(json, "  \"all_pairs_ms_by_catalog\": [").unwrap();
    let catalog_sizes = [8usize, 16, 32];
    for (i, &n) in catalog_sizes.iter().enumerate() {
        let ids: Vec<ModuleId> = all_ids
            .iter()
            .step_by((all_ids.len() / n).max(1))
            .take(n)
            .cloned()
            .collect();

        let start = Instant::now();
        let mut serial_pairs = 0usize;
        for t in &ids {
            for c in &ids {
                if t == c {
                    continue;
                }
                let target = universe.catalog.get(t).unwrap();
                let candidate = universe.catalog.get(c).unwrap();
                let _ = compare_modules(
                    target.as_ref(),
                    candidate.as_ref(),
                    &universe.ontology,
                    &pool,
                    &config,
                );
                serial_pairs += 1;
            }
        }
        let serial_ms = start.elapsed().as_secs_f64() * 1_000.0;

        let session = MatchSession::new(&universe.ontology, &pool, config.clone());
        let start = Instant::now();
        let cached = match_pairs_exhaustive(&session, &universe, &ids);
        let cached_ms = start.elapsed().as_secs_f64() * 1_000.0;
        assert_eq!(cached.len(), serial_pairs);

        // The deployment configuration: one worker per hardware thread.
        // Below the crossover (or on a single-core host) the batched
        // executor runs the sweep on the calling thread by design.
        let threads = std::thread::available_parallelism().map_or(4, |n| n.get());
        let start = Instant::now();
        let session = MatchSession::new(&universe.ontology, &pool, config.clone());
        let batch = BatchConfig::with_threads(threads);
        let matrix = match_pairs(&session, &universe, &ids, PairOutput::Dense, &batch).reports;
        let parallel_ms = start.elapsed().as_secs_f64() * 1_000.0;
        assert_eq!(matrix.len(), serial_pairs);

        let comma = if i + 1 < catalog_sizes.len() { "," } else { "" };
        writeln!(
            json,
            "    {{\"modules\": {n}, \"pairs\": {serial_pairs}, \
             \"serial_uncached_ms\": {serial_ms:.2}, \"cached_serial_ms\": {cached_ms:.2}, \
             \"cached_parallel_ms\": {parallel_ms:.2}}}{comma}"
        )
        .unwrap();
    }
    writeln!(json, "  ]").unwrap();
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write summary");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
