//! Per-layer measurements, each timed from outside around calls to a public
//! entry point, and the table that names the end-to-end metric each one
//! should move.

use crate::report::Metric;
use crate::stats::median;
use crate::world::{ms, us};
use dex_core::delta::{Delta, DeltaReport};
use dex_core::{
    generate_examples_retrying, match_against_examples_retrying, FingerprintIndex,
    GenerationConfig, MappingMode,
};
use dex_modules::{InvocationCache, Retrier};
use dex_pool::InstancePool;
use dex_universe::Universe;
use dexd::{read_message, write_message, Request, Response};
use std::time::Instant;

/// What replaying the bootstrap's three layers by hand costs on one world.
pub struct SetupReplay {
    pub modules: usize,
    pub generate_ms: f64,
    pub invocations: usize,
    pub cache_hit_rate: f64,
    pub blocking_ms: f64,
    pub buckets: usize,
    pub largest_bucket: usize,
    pub pairs_compared: usize,
    pub prune_ratio: f64,
    pub matching_ms: f64,
    pub verdicts: usize,
}

impl SetupReplay {
    pub fn us_per_module(&self) -> f64 {
        self.generate_ms * 1000.0 / self.modules.max(1) as f64
    }

    pub fn us_per_pair(&self) -> f64 {
        self.matching_ms * 1000.0 / self.pairs_compared.max(1) as f64
    }
}

/// Generates every available module's examples with a fresh cache, builds
/// the fingerprint index, and matches every comparable pair: the work
/// `IncrementalPipeline::bootstrap` does, one layer at a time.
pub fn replay_setup(universe: &Universe, pool: &InstancePool) -> SetupReplay {
    let config = GenerationConfig::default();
    let cache = InvocationCache::new();
    let retrier = Retrier::new(config.retry);
    let ids = universe.available_ids();
    let modules: Vec<_> = ids
        .iter()
        .map(|id| universe.catalog.get(id).expect("available id resolves"))
        .collect();

    let t = Instant::now();
    let reports: Vec<_> = {
        let _span = dex_telemetry::span("bench.generate.replay");
        modules
            .iter()
            .map(|m| {
                generate_examples_retrying(
                    m.as_ref(),
                    &universe.ontology,
                    pool,
                    &config,
                    &cache,
                    &retrier,
                )
            })
            .collect()
    };
    let generate_ms = ms(t);
    let invocations = reports
        .iter()
        .map(|r| r.as_ref().map_or(0, |r| r.invocations))
        .sum();
    let cache_hit_rate = cache.stats().hit_rate();

    let t = Instant::now();
    let index = {
        let _span = dex_telemetry::span("bench.blocking.build");
        FingerprintIndex::build(
            modules.iter().map(|m| Some(m.descriptor())),
            &universe.ontology,
        )
    };
    let blocking_ms = ms(t);
    let pairs = index.comparable_pairs();
    let n = modules.len();
    let all_pairs = (n * n.saturating_sub(1)).max(1);

    let t = Instant::now();
    let verdicts = {
        let _span = dex_telemetry::span("bench.matching.replay");
        pairs
            .iter()
            .filter(|&&(t, c)| match &reports[t] {
                Err(_) => false,
                Ok(report) => match_against_examples_retrying(
                    modules[t].descriptor(),
                    &report.examples,
                    modules[c].as_ref(),
                    &universe.ontology,
                    MappingMode::Strict,
                    &cache,
                    &retrier,
                )
                .is_ok(),
            })
            .count()
    };
    SetupReplay {
        modules: n,
        generate_ms,
        invocations,
        cache_hit_rate,
        blocking_ms,
        buckets: index.bucket_count(),
        largest_bucket: index.largest_bucket(),
        pairs_compared: pairs.len(),
        prune_ratio: 1.0 - pairs.len() as f64 / all_pairs as f64,
        matching_ms: ms(t),
        verdicts,
    }
}

/// Per-operation times of the pool mutations in `batches`, replayed in
/// order on a copy of `pool`: (removals, insertions), microseconds.
pub fn replay_pool(pool: &InstancePool, batches: &[Vec<Delta>]) -> (Vec<f64>, Vec<f64>) {
    let _span = dex_telemetry::span("bench.pool.replay");
    let mut pool = pool.clone();
    let mut removes = Vec::new();
    let mut inserts = Vec::new();
    for delta in batches.iter().flatten() {
        match delta {
            Delta::PoolRemove {
                concept,
                occurrence,
            } => {
                let t = Instant::now();
                std::hint::black_box(pool.remove_realization(concept, *occurrence));
                removes.push(us(t));
            }
            Delta::PoolInsert { instance } => {
                let t = Instant::now();
                pool.add(instance.clone());
                inserts.push(us(t));
            }
            _ => {}
        }
    }
    (removes, inserts)
}

/// One request/response pair through the wire codec: encode and decode
/// times (request plus response), and the frame sizes.
#[derive(Clone, Copy)]
pub struct Codec {
    pub encode_us: f64,
    pub decode_us: f64,
    pub req_bytes: usize,
    pub resp_bytes: usize,
}

/// Runs `req` and `resp` through `write_message`/`read_message` on a buffer.
pub fn codec(req: &Request, resp: &Response) -> Codec {
    let mut req_buf = Vec::new();
    let mut resp_buf = Vec::new();
    let t = Instant::now();
    write_message(&mut req_buf, req).expect("requests encode");
    write_message(&mut resp_buf, resp).expect("responses encode");
    let encode_us = us(t);
    let t = Instant::now();
    let req_back: Request = read_message(&mut req_buf.as_slice()).expect("requests decode");
    let resp_back: Response = read_message(&mut resp_buf.as_slice()).expect("responses decode");
    let decode_us = us(t);
    std::hint::black_box((req_back, resp_back));
    Codec {
        encode_us,
        decode_us,
        req_bytes: req_buf.len(),
        resp_bytes: resp_buf.len(),
    }
}

/// The endpoints the service probe times separately.
const ENDPOINTS: [&str; 4] = ["annotate", "substitutes", "validate", "stats"];

/// One request timed on every path it can take: over the socket, through
/// the in-process client, as a direct pipeline call, and through the codec.
pub struct ProbeRow {
    pub endpoint: &'static str,
    pub socket_us: f64,
    pub call_us: f64,
    pub handler_us: f64,
    pub codec: Codec,
}

/// Everything the per-layer table is computed from.
pub struct LayerInputs {
    pub universe_build_ms: f64,
    pub pool_build_ms: f64,
    pub pool_instances: usize,
    pub bootstrap_ms: f64,
    pub replay: SetupReplay,
    /// Uncontended `IncrementalPipeline::apply` time per batch.
    pub apply_ms: Vec<f64>,
    pub reports: Vec<DeltaReport>,
    pub batches: Vec<Vec<Delta>>,
    pub pool_remove_us: Vec<f64>,
    pub pool_insert_us: Vec<f64>,
    pub validate_us: Vec<f64>,
    pub probe: Vec<ProbeRow>,
    pub coalesced_share: f64,
    pub busy_rejections: u64,
    pub overhead_pct: f64,
}

/// The per-layer metrics, in the order `BENCHMARK.json` lists them.
pub fn per_layer(x: &LayerInputs) -> Vec<Metric> {
    let r = &x.replay;
    let batches = x.reports.len();
    let remove_us = median(&x.pool_remove_us);
    let insert_us = median(&x.pool_insert_us);
    let sum = |f: fn(&DeltaReport) -> usize| x.reports.iter().map(f).sum::<usize>();
    let per_batch = |f: fn(&DeltaReport) -> usize| {
        median(&x.reports.iter().map(|d| f(d) as f64).collect::<Vec<_>>())
    };
    let regenerated = sum(|d| d.regenerated_modules);
    let apply_other: Vec<f64> = x
        .batches
        .iter()
        .zip(&x.reports)
        .zip(&x.apply_ms)
        .map(|((batch, d), apply)| {
            let removes = batch
                .iter()
                .filter(|d| matches!(d, Delta::PoolRemove { .. }))
                .count();
            let inserts = batch
                .iter()
                .filter(|d| matches!(d, Delta::PoolInsert { .. }))
                .count();
            let pool_ms = (removes as f64 * remove_us + inserts as f64 * insert_us) / 1000.0;
            let regen_ms = d.regenerated_modules as f64 * r.us_per_module() / 1000.0;
            let pairs_ms = d.recomputed_pairs as f64 * r.us_per_pair() / 1000.0;
            apply - pool_ms - regen_ms - pairs_ms
        })
        .collect();

    let mut out = vec![
        Metric::new("universe.build_ms", x.universe_build_ms, "ms", 1),
        Metric::new("pool.build_ms", x.pool_build_ms, "ms", 1),
        Metric::new("pool.instances", x.pool_instances as f64, "count", 1),
        Metric::new("pool.remove_us", remove_us, "us", x.pool_remove_us.len()),
        Metric::new("pool.insert_us", insert_us, "us", x.pool_insert_us.len()),
        Metric::new("generate.modules", r.modules as f64, "count", 1),
        Metric::new("generate.busy_ms", r.generate_ms, "ms", 1),
        Metric::new("generate.us_per_module", r.us_per_module(), "us", r.modules),
        Metric::new("generate.invocations", r.invocations as f64, "count", 1),
        Metric::new("generate.cache_hit_rate", r.cache_hit_rate, "ratio", 1),
        Metric::new("blocking.build_ms", r.blocking_ms, "ms", 1),
        Metric::new("blocking.buckets", r.buckets as f64, "count", 1),
        Metric::new(
            "blocking.largest_bucket",
            r.largest_bucket as f64,
            "count",
            1,
        ),
        Metric::new(
            "blocking.pairs_compared",
            r.pairs_compared as f64,
            "count",
            1,
        ),
        Metric::new("blocking.prune_ratio", r.prune_ratio, "ratio", 1),
        Metric::new("matching.busy_ms", r.matching_ms, "ms", 1),
        Metric::new(
            "matching.us_per_pair",
            r.us_per_pair(),
            "us",
            r.pairs_compared,
        ),
        Metric::new(
            "matching.verdict_share",
            r.verdicts as f64 / r.pairs_compared.max(1) as f64,
            "ratio",
            r.pairs_compared,
        ),
        Metric::new("incremental.bootstrap_ms", x.bootstrap_ms, "ms", 1),
        Metric::new(
            "incremental.bootstrap_other_ms",
            x.bootstrap_ms - r.generate_ms - r.blocking_ms - r.matching_ms,
            "ms",
            1,
        ),
        Metric::new("incremental.apply_ms", median(&x.apply_ms), "ms", batches),
        Metric::new(
            "delta.dirty_candidates",
            per_batch(|d| d.dirty_candidates),
            "count",
            batches,
        ),
        Metric::new(
            "delta.regenerated_modules",
            per_batch(|d| d.regenerated_modules),
            "count",
            batches,
        ),
        Metric::new(
            "delta.regen_useful_ratio",
            if regenerated == 0 {
                1.0
            } else {
                sum(|d| d.examples_changed) as f64 / regenerated as f64
            },
            "ratio",
            regenerated,
        ),
        Metric::new(
            "delta.recomputed_pairs",
            per_batch(|d| d.recomputed_pairs),
            "count",
            batches,
        ),
        Metric::new(
            "delta.dirty_cell_ratio",
            median(
                &x.reports
                    .iter()
                    .map(DeltaReport::dirty_cell_ratio)
                    .collect::<Vec<_>>(),
            ),
            "ratio",
            batches,
        ),
        Metric::new("delta.apply_other_ms", median(&apply_other), "ms", batches),
        Metric::new(
            "workflow.validate_us",
            median(&x.validate_us),
            "us",
            x.validate_us.len(),
        ),
    ];

    let rows = &x.probe;
    let col = |f: fn(&ProbeRow) -> f64| rows.iter().map(f).collect::<Vec<f64>>();
    out.push(Metric::new(
        "proto.encode_us",
        median(&col(|p| p.codec.encode_us)),
        "us",
        rows.len(),
    ));
    out.push(Metric::new(
        "proto.decode_us",
        median(&col(|p| p.codec.decode_us)),
        "us",
        rows.len(),
    ));
    out.push(Metric::new(
        "proto.req_bytes",
        median(&col(|p| p.codec.req_bytes as f64)),
        "bytes",
        rows.len(),
    ));
    out.push(Metric::new(
        "proto.resp_bytes",
        median(&col(|p| p.codec.resp_bytes as f64)),
        "bytes",
        rows.len(),
    ));
    for (kind, pick) in [
        (
            "call_us",
            (|p: &ProbeRow| p.call_us) as fn(&ProbeRow) -> f64,
        ),
        ("handler_us", |p: &ProbeRow| p.handler_us),
    ] {
        for endpoint in ENDPOINTS {
            let values: Vec<f64> = rows
                .iter()
                .filter(|p| p.endpoint == endpoint)
                .map(pick)
                .collect();
            out.push(Metric::new(
                format!("service.{kind}.{endpoint}"),
                median(&values),
                "us",
                values.len(),
            ));
        }
    }
    out.push(Metric::new(
        "service.overhead_us",
        median(&col(|p| p.call_us - p.handler_us)),
        "us",
        rows.len(),
    ));
    out.push(Metric::new(
        "service.coalesced_share",
        x.coalesced_share,
        "ratio",
        1,
    ));
    out.push(Metric::new(
        "service.busy_rejections",
        x.busy_rejections as f64,
        "count",
        1,
    ));
    out.push(Metric::new(
        "server.transport_us",
        median(&col(|p| {
            p.socket_us - p.call_us - p.codec.encode_us - p.codec.decode_us
        })),
        "us",
        rows.len(),
    ));
    out.push(Metric::new(
        "telemetry.overhead_pct",
        x.overhead_pct,
        "%",
        1,
    ));
    out
}

/// Which end-to-end metric each per-layer metric should move, by name
/// prefix — the third column of the per-layer table.
pub fn should_move(metric: &str) -> &'static str {
    const TABLE: [(&str, &str); 16] = [
        ("universe.", "setup_s, all workloads"),
        (
            "pool.remove",
            "op_p50_us on registry_churn; op_tail_us on serve_mixed; not serve_read",
        ),
        (
            "pool.insert",
            "op_p50_us on registry_churn; op_tail_us on serve_mixed; not serve_read",
        ),
        ("pool.", "setup_s, all workloads"),
        (
            "generate.",
            "setup_s (most on registry_churn); op_p50_us on registry_churn",
        ),
        ("blocking.", "setup_s; op_p50_us on registry_churn"),
        ("matching.", "setup_s; op_p50_us on registry_churn"),
        ("incremental.bootstrap", "setup_s, all workloads"),
        (
            "incremental.",
            "op_p50_us on registry_churn; op_tail_us on serve_mixed",
        ),
        (
            "delta.",
            "op_p50_us on registry_churn; op_tail_us on serve_mixed",
        ),
        (
            "workflow.",
            "op_p50_us on serve_read and serve_mixed (validate share)",
        ),
        ("proto.", "op_p50_us and throughput_ops on serve_read"),
        (
            "service.",
            "op_p50_us on serve_read and serve_mixed; op_tail_us on serve_read",
        ),
        ("server.", "op_p50_us and throughput_ops on serve_read"),
        ("repair.", "op_p50_us on registry_churn (small share)"),
        ("provenance.", "setup_s on registry_churn"),
    ];
    TABLE
        .iter()
        .find(|(prefix, _)| metric.starts_with(prefix))
        .map_or("diagnostic", |(_, moves)| moves)
}
