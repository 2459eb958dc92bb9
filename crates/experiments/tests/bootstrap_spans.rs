//! The spans of a bootstrap split over threads. A span's parent is the
//! innermost span open on its own thread, so a worker thread that opened no
//! span of its own would record every module it generates as a root, each
//! closing into the global span list on its own. Each worker instead opens
//! one root span around its share.
//!
//! Telemetry is process-global, so this binary holds this one test.

use dex_core::GenerationConfig;
use dex_experiments::IncrementalPipeline;
use dex_pool::build_text_pool;
use dex_telemetry::SpanRecord;
use dex_universe::scale::{build_scaled, ScalePlan};

/// Spans named `name` in `spans` and all their descendants.
fn count(spans: &[SpanRecord], name: &str) -> usize {
    spans
        .iter()
        .map(|s| usize::from(s.name == name) + count(&s.children, name))
        .sum()
}

#[test]
fn a_split_bootstrap_records_no_module_generation_as_a_root() {
    // 5,000 modules: two bootstrap threads on a host with two or more
    // cores, one on a single core.
    let universe = build_scaled(&ScalePlan::new(5_000, 42)).universe;
    let pool = build_text_pool(&universe.ontology, 4, 42);
    dex_telemetry::enable();
    dex_telemetry::reset();
    let engine = IncrementalPipeline::bootstrap(universe, pool, GenerationConfig::default());
    let report = dex_telemetry::collect("bootstrap_spans");
    dex_telemetry::disable();

    let modules = engine.tracked_ids().len();
    assert!(modules >= 5_000, "{modules} modules");
    assert_eq!(count(&report.spans, "generate.module"), modules);
    for root in &report.spans {
        assert!(
            matches!(
                root.name.as_str(),
                "incremental.bootstrap"
                    | "incremental.bootstrap.generate.worker"
                    | "incremental.bootstrap.fill.worker"
            ),
            "unexpected root span `{}`",
            root.name
        );
    }
    let workers = count(&report.spans, "incremental.bootstrap.generate.worker");
    assert_eq!(
        count(&report.spans, "incremental.bootstrap.fill.worker"),
        workers
    );
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    assert_eq!(workers, cores.min(2) - 1, "{cores} cores");
}
