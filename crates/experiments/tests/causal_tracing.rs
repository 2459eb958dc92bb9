//! Cross-thread causal tracing through the generation fleet: worker spans
//! opened on scoped threads must stitch under the spawning
//! `parallel.generate_all` span instead of dangling as orphan roots.

use dex_core::GenerationConfig;
use dex_experiments::parallel::generate_fleet;
use dex_modules::Retrier;
use dex_pool::build_synthetic_pool;
use dex_telemetry::SpanRecord;

/// Fleet workers: fewer than the 252 modules, so every thread gets a chunk.
const THREADS: usize = 3;

fn find<'a>(spans: &'a [SpanRecord], name: &str) -> Option<&'a SpanRecord> {
    for span in spans {
        if span.name == name {
            return Some(span);
        }
        if let Some(hit) = find(&span.children, name) {
            return Some(hit);
        }
    }
    None
}

// The single test in this binary owns the process-global subscriber; no
// serialization lock is needed.
#[test]
fn worker_spans_attach_under_the_fleet_span() {
    dex_telemetry::enable();
    dex_telemetry::reset();

    let universe = dex_universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 3, 42);
    let config = GenerationConfig::default();
    let retrier = Retrier::new(config.retry);
    let fleet = {
        let _root = dex_telemetry::span("test.fleet");
        generate_fleet(&universe, &pool, &config, THREADS, &retrier, true)
    };
    assert_eq!(fleet.reports.len(), universe.available_ids().len());

    let report = dex_telemetry::collect("causal_tracing");
    dex_telemetry::disable();

    // The test span is a root holding the fleet span.
    let root = find(&report.spans, "test.fleet").expect("test span recorded");
    assert_eq!(root.parent_id, 0, "test span is a root");
    let fleet_span = find(std::slice::from_ref(root), "parallel.generate_all")
        .expect("fleet span nests under the test span");

    // Every worker span stitched under the fleet span — one per thread,
    // none leaked to the top level as an orphan root.
    let workers: Vec<&SpanRecord> = fleet_span
        .children
        .iter()
        .filter(|c| c.name == "parallel.generate_worker")
        .collect();
    assert_eq!(
        workers.len(),
        THREADS,
        "expected one worker span per thread under the fleet span"
    );
    assert!(
        !report
            .spans
            .iter()
            .any(|root| root.name == "parallel.generate_worker"),
        "no worker span may remain an orphan root"
    );

    for worker in &workers {
        assert_eq!(worker.parent_id, fleet_span.id, "worker parents the fleet");
        assert!(
            worker.id > fleet_span.id,
            "span ids are monotonic in open order"
        );
        assert!(
            worker.start_ns >= fleet_span.start_ns,
            "worker cannot start before its spawner"
        );
        assert_ne!(
            worker.thread, fleet_span.thread,
            "workers run on their own thread tracks"
        );
    }
    // Worker threads each get a distinct track.
    let mut tracks: Vec<u64> = workers.iter().map(|w| w.thread).collect();
    tracks.sort_unstable();
    tracks.dedup();
    assert_eq!(tracks.len(), workers.len(), "one track per worker");

    // The stitched forest exports as a defect-free Chrome trace.
    let events = dex_telemetry::chrome_trace(&report);
    let defects = dex_telemetry::validate_chrome_trace(&events);
    assert!(defects.is_empty(), "trace defects: {defects:?}");
}
