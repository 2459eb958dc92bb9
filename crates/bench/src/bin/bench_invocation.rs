//! Emits `BENCH_invocation.json`: before/after numbers for the invocation
//! planner + shared invocation cache, measured on the aligned-matching
//! workload (generation at value offsets `0..k` over a module sample, then
//! all-pairs example replay — the §6 matching pipeline).
//!
//! The "uncached" baseline reproduces the pre-planner pipeline: per-offset
//! memoized generation through `generate_examples` with no cache, with every
//! replay invoking the candidate afresh. The "cached" run is today's
//! pipeline: one [`MatchSession`] whose generations and replays share an
//! [`InvocationCache`].
//!
//! Exits nonzero if the cache records zero hits on this workload — that
//! would mean the planner's sharing is broken, and CI treats it as a
//! regression.
//!
//! Usage: `cargo run --release -p dex-bench --bin bench_invocation [OUT.json]`

use dex_core::{
    generate_examples, match_against_examples, GenerationConfig, GenerationReport, MappingMode,
    MatchSession,
};
use dex_modules::{BlackBox, InvocationError, ModuleDescriptor, ModuleId, Retrier, SharedModule};
use dex_pool::build_synthetic_pool;
use dex_values::Value;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Wraps a catalog module, counting every invocation that actually reaches
/// the black box (cache hits never get here).
struct Counted {
    inner: SharedModule,
    invocations: Arc<AtomicU64>,
}

impl BlackBox for Counted {
    fn descriptor(&self) -> &ModuleDescriptor {
        self.inner.descriptor()
    }

    fn invoke(&self, inputs: &[Value]) -> Result<Vec<Value>, InvocationError> {
        self.invocations.fetch_add(1, Ordering::Relaxed);
        self.inner.invoke(inputs)
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_invocation.json".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };

    let universe = dex_universe::build();
    let pool = build_synthetic_pool(
        &universe.ontology,
        dex_experiments::POOL_PER_CONCEPT,
        dex_experiments::POOL_SEED,
    );
    let config = GenerationConfig::default();
    let offsets = 3usize;

    // Sample lookalike families: modules sharing an input-concept signature
    // are the pairs aligned matching actually replays against each other (a
    // uniformly thinned sample is almost entirely incomparable pairs, which
    // exercises neither the baseline nor the cache).
    let mut families: BTreeMap<Vec<String>, Vec<ModuleId>> = BTreeMap::new();
    for id in universe.available_ids() {
        let module = universe.catalog.get(&id).expect("available");
        let mut signature: Vec<String> = module
            .descriptor()
            .inputs
            .iter()
            .map(|p| p.semantic.clone())
            .collect();
        signature.sort();
        families.entry(signature).or_default().push(id);
    }
    let mut families: Vec<Vec<ModuleId>> = families
        .into_values()
        .filter(|members| members.len() >= 2)
        .collect();
    families.sort_by_key(|members| std::cmp::Reverse(members.len()));
    let ids: Vec<ModuleId> = families.into_iter().flatten().take(16).collect();
    let counter = Arc::new(AtomicU64::new(0));
    let modules: Vec<Counted> = ids
        .iter()
        .map(|id| Counted {
            inner: universe.catalog.get(id).expect("available").clone(),
            invocations: Arc::clone(&counter),
        })
        .collect();
    let pairs = ids.len() * (ids.len() - 1);

    // Each measured run starts from scratch (fresh report memo / fresh
    // session+cache); wall-clock is the median of `REPS` runs, invocation
    // counts come from the last run (they are identical across runs).
    const REPS: usize = 5;
    let median_ms = |times: &mut Vec<f64>| {
        times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        times[times.len() / 2]
    };

    // --- Baseline: pre-planner pipeline ----------------------------------
    // Generation memoized per (module, offset) — the old MatchSession did
    // that much — but produced without a cache, and every replay re-invokes
    // the candidate.
    let mut uncached_times = Vec::with_capacity(REPS);
    let mut uncached_invocations = 0;
    for _ in 0..REPS {
        counter.store(0, Ordering::Relaxed);
        let start = Instant::now();
        let mut reports: HashMap<(usize, usize), GenerationReport> = HashMap::new();
        for offset in 0..offsets {
            let config = GenerationConfig {
                value_offset: offset,
                ..config.clone()
            };
            for (i, module) in modules.iter().enumerate() {
                let report = generate_examples(module, &universe.ontology, &pool, &config)
                    .unwrap_or_else(|e| panic!("{}: {e}", ids[i]));
                reports.insert((offset, i), report);
            }
            for (t, target) in modules.iter().enumerate() {
                for (c, candidate) in modules.iter().enumerate() {
                    if t == c {
                        continue;
                    }
                    let _ = match_against_examples(
                        target.descriptor(),
                        &reports[&(offset, t)].examples,
                        candidate,
                        &universe.ontology,
                        MappingMode::Strict,
                    );
                }
            }
        }
        uncached_times.push(start.elapsed().as_secs_f64() * 1_000.0);
        uncached_invocations = counter.load(Ordering::Relaxed);
    }
    let uncached_ms = median_ms(&mut uncached_times);

    // --- Cached: the planner pipeline ------------------------------------
    let mut cached_times = Vec::with_capacity(REPS);
    let mut cached_invocations = 0;
    let no_retries = Retrier::none();
    let mut stats = dex_modules::InvocationCacheStats::default();
    for _ in 0..REPS {
        counter.store(0, Ordering::Relaxed);
        let start = Instant::now();
        let session = MatchSession::new(&universe.ontology, &pool, config.clone());
        for offset in 0..offsets {
            for (t, target) in modules.iter().enumerate() {
                let report = session.report_at(target, offset);
                let Ok(report) = report.as_ref() else {
                    panic!("{}: generation failed", ids[t])
                };
                for (c, candidate) in modules.iter().enumerate() {
                    if t == c {
                        continue;
                    }
                    let _ = dex_core::match_against_examples_retrying(
                        target.descriptor(),
                        &report.examples,
                        candidate,
                        &universe.ontology,
                        MappingMode::Strict,
                        session.invocation_cache(),
                        &no_retries,
                    );
                }
            }
        }
        cached_times.push(start.elapsed().as_secs_f64() * 1_000.0);
        cached_invocations = counter.load(Ordering::Relaxed);
        stats = session.invocation_stats();
    }
    let cached_ms = median_ms(&mut cached_times);

    let drop_pct = if uncached_invocations > 0 {
        100.0 * (uncached_invocations.saturating_sub(cached_invocations)) as f64
            / uncached_invocations as f64
    } else {
        0.0
    };

    let mut json = String::from("{\n");
    writeln!(json, "  \"profile\": \"{profile}\",").unwrap();
    writeln!(json, "  \"aligned_matching\": {{").unwrap();
    writeln!(
        json,
        "    \"modules\": {}, \"offsets\": {offsets}, \"ordered_pairs\": {pairs},",
        ids.len()
    )
    .unwrap();
    writeln!(
        json,
        "    \"uncached\": {{\"module_invocations\": {uncached_invocations}, \"ms\": {uncached_ms:.2}}},"
    )
    .unwrap();
    writeln!(
        json,
        "    \"cached\": {{\"module_invocations\": {cached_invocations}, \"ms\": {cached_ms:.2}, \
         \"cache_hits\": {}, \"cache_misses\": {}, \"cache_entries\": {}, \"hit_rate_pct\": {:.1}}},",
        stats.hits,
        stats.misses,
        stats.entries,
        stats.hit_rate() * 100.0
    )
    .unwrap();
    writeln!(json, "    \"invocation_drop_pct\": {drop_pct:.1}").unwrap();
    writeln!(json, "  }}").unwrap();
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write summary");
    print!("{json}");
    eprintln!("wrote {out_path}");

    if stats.hits == 0 {
        eprintln!(
            "FAIL: invocation cache recorded zero hits on the aligned-matching workload — \
             cross-invocation sharing is broken"
        );
        std::process::exit(1);
    }
}
