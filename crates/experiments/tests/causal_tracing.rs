//! Cross-thread causal tracing through the real batched matching executor:
//! worker spans opened on scoped threads must stitch under the spawning
//! sweep span — across chunk boundaries — instead of dangling as orphan
//! roots.

use dex_core::{GenerationConfig, MatchSession};
use dex_experiments::parallel::{match_pairs, BatchConfig, PairOutput};
use dex_pool::build_synthetic_pool;
use dex_telemetry::SpanRecord;

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

fn any_named(spans: &[SpanRecord], name: &str) -> bool {
    find(spans, name).is_some()
}

// The single test in this binary owns the process-global subscriber; no
// serialization lock is needed.
#[test]
fn worker_spans_attach_under_sweep_across_chunk_boundaries() {
    dex_telemetry::enable();
    dex_telemetry::reset();

    let universe = dex_universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 3, 42);
    let config = GenerationConfig::default();
    let ids = universe.available_ids();

    // Force the batched path regardless of worklist size, with a chunk of 1
    // so every worker crosses many chunk claim boundaries.
    let batch = BatchConfig {
        threads: 3,
        serial_cutoff: 0,
        chunk: 1,
    };
    let session = MatchSession::new(&universe.ontology, &pool, config);
    let matrix = {
        let _sweep = dex_telemetry::span("test.sweep");
        match_pairs(&session, &universe, &ids, PairOutput::Dense, &batch)
    };
    assert!(
        matrix.stats.pairs_compared > batch.threads,
        "need more compared pairs ({}) than workers so chunk boundaries are \
         actually crossed",
        matrix.stats.pairs_compared
    );

    let report = dex_telemetry::collect("causal_tracing");
    dex_telemetry::disable();

    // The sweep span is a root holding the matching span.
    let sweep = find(&report.spans, "test.sweep").expect("sweep span recorded");
    assert_eq!(sweep.parent_id, 0, "sweep is a root");
    let matching = find(std::slice::from_ref(sweep), "parallel.match_pairs")
        .expect("matching span nests under the sweep");

    // Every worker span stitched under the matching span — none leaked to
    // the top level as an orphan root.
    let workers: Vec<&SpanRecord> = matching
        .children
        .iter()
        .filter(|c| c.name == "parallel.match_worker")
        .collect();
    assert!(
        workers.len() >= 2,
        "expected at least two worker spans under the matching span, got {}",
        workers.len()
    );
    assert!(
        !report
            .spans
            .iter()
            .any(|root| root.name == "parallel.match_worker"),
        "no worker span may remain an orphan root"
    );

    for worker in &workers {
        assert_eq!(worker.parent_id, matching.id, "worker parents the sweep");
        assert!(
            worker.id > matching.id,
            "span ids are monotonic in open order"
        );
        assert!(
            worker.start_ns >= matching.start_ns,
            "worker cannot start before its spawner"
        );
        assert_ne!(
            worker.thread, matching.thread,
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
    assert!(any_named(&report.spans, "parallel.match_pairs"));
}
