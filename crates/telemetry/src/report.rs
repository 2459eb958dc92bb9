//! The per-run telemetry artifact.

use crate::metrics::{snapshot_counters, snapshot_gauges, snapshot_histograms, HistogramSnapshot};
use crate::span::{snapshot_roots, SpanRecord};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Everything one run recorded: a span forest, metric snapshots, and
/// wall-clock totals. Serialized to `TELEMETRY.json` by the experiment
/// binaries (analogous to `BENCH_matching.json` for the perf trajectory).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Caller-chosen run label (usually the binary name).
    pub label: String,
    /// Milliseconds from [`crate::enable`] (or last [`crate::reset`]) to
    /// [`collect`].
    pub wall_ms: f64,
    /// Monotonic counters, name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauges, name → last set value.
    pub gauges: BTreeMap<String, i64>,
    /// Fixed-bucket histograms, name → snapshot.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Completed root spans across all threads, each with nested children;
    /// cross-thread subtrees are stitched under their spawning span.
    pub spans: Vec<SpanRecord>,
    /// Flamegraph folded stacks over `spans`:
    /// `"root;child;leaf" -> exclusive nanoseconds`.
    pub folded: BTreeMap<String, u64>,
}

impl RunReport {
    /// Total spans across the whole forest.
    pub fn span_count(&self) -> usize {
        self.spans.iter().map(SpanRecord::tree_size).sum()
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a report back from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<RunReport> {
        serde_json::from_str(json)
    }
}

/// Snapshots the current telemetry state into a [`RunReport`]. Non-
/// destructive: recording continues and a later `collect` sees a superset.
pub fn collect(label: &str) -> RunReport {
    let spans = snapshot_roots();
    let folded = crate::trace::folded_stacks(&spans);
    RunReport {
        label: label.to_string(),
        wall_ms: crate::wall_ms(),
        counters: snapshot_counters(),
        gauges: snapshot_gauges(),
        histograms: snapshot_histograms(),
        spans,
        folded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;

    #[test]
    fn run_report_round_trips_through_json() {
        let _g = testing::guard();
        crate::enable();
        crate::reset();
        crate::counter_add("r.test.invocations", 42);
        crate::gauge_set("r.test.threads", 8);
        crate::observe_ns("r.test.pair_ns", 1_500);
        crate::observe_ns("r.test.pair_ns", 900_000);
        {
            let _outer = crate::span("r.outer");
            let _inner = crate::span("r.inner");
        }
        let report = collect("round-trip");
        assert_eq!(report.label, "round-trip");
        assert!(report.wall_ms >= 0.0);
        assert_eq!(report.counters["r.test.invocations"], 42);
        assert_eq!(report.gauges["r.test.threads"], 8);
        assert_eq!(report.histograms["r.test.pair_ns"].count, 2);
        assert_eq!(report.span_count(), 2);
        assert!(report.folded.contains_key("r.outer;r.inner"));
        assert!(report.histograms["r.test.pair_ns"].p50_ns > 0);

        let json = report.to_json().unwrap();
        let back = RunReport::from_json(&json).unwrap();
        assert_eq!(back, report);
        // Spot-check the JSON shape is readable, not an opaque blob.
        assert!(json.contains("\"r.outer\""));
        assert!(json.contains("duration_ns"));
        crate::disable();
    }

    #[test]
    fn collect_is_non_destructive() {
        let _g = testing::guard();
        crate::enable();
        crate::reset();
        crate::counter_add("r.test.twice", 1);
        let first = collect("a");
        crate::counter_add("r.test.twice", 1);
        let second = collect("b");
        assert_eq!(first.counters["r.test.twice"], 1);
        assert_eq!(second.counters["r.test.twice"], 2);
        crate::disable();
    }
}
