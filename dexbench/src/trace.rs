//! The traced run's artifacts: a Chrome trace, folded stacks, and the
//! per-layer table, one directory per workload.

use crate::host::Host;
use crate::layers::should_move;
use crate::report::Outcome;
use dex_telemetry::{RunReport, SpanRecord};
use std::fmt::Write as _;
use std::path::Path;

/// Spans written to the Chrome trace. The folded stacks always cover every
/// span; the trace keeps the first spans in causal order, whole subtrees at
/// a time, so a loaded trace stays readable and every parent resolves.
const TRACE_SPAN_BUDGET: usize = 40_000;

/// One in this many requests gets a `bench.*` span in the traced half;
/// every request is counted.
pub const SAMPLE_EVERY: u64 = 64;

/// Writes `trace.json`, `folded.txt` and `layers.tsv` for `outcome` under
/// `dir/<workload>/`. Fails if the trace would not validate.
pub fn write_artifacts(dir: &Path, host: &Host, outcome: &Outcome) -> Result<(), String> {
    let dir = dir.join(outcome.workload);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let report = dex_telemetry::collect(outcome.workload);

    let mut budget = TRACE_SPAN_BUDGET;
    let capped = RunReport {
        spans: truncate(&report.spans, &mut budget),
        ..report.clone()
    };
    let events = dex_telemetry::chrome_trace(&capped);
    let defects = dex_telemetry::validate_chrome_trace(&events);
    if events.is_empty() || !defects.is_empty() {
        return Err(format!(
            "{}: trace has {} events and {} defects",
            outcome.workload,
            events.len(),
            defects.len()
        ));
    }
    let trace = dex_telemetry::chrome_trace_json(&capped).map_err(|e| e.to_string())?;
    write(&dir.join("trace.json"), &trace)?;

    let mut folded = String::new();
    for (stack, ns) in &report.folded {
        writeln!(folded, "{stack} {ns}").expect("writing to a String");
    }
    write(&dir.join("folded.txt"), &folded)?;

    let mut table = format!(
        "{}\nlayer_metric\tvalue\tunit\tn\tshould_move\n",
        host.line()
    );
    for m in outcome.metrics.iter().chain(&outcome.diagnostics) {
        writeln!(
            table,
            "{}\t{}\t{}\t{}\t{}",
            m.name,
            m.value,
            m.unit,
            m.n,
            should_move(&m.name)
        )
        .expect("writing to a String");
    }
    for (name, value) in &report.counters {
        if name.starts_with("bench.") {
            writeln!(table, "{name}\t{value}\tcount\t1\tcounted").expect("writing to a String");
        }
    }
    write(&dir.join("layers.tsv"), &table)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The first `budget` spans of `spans` in pre-order; a span is kept only
/// with its parent, so no kept span loses its parent.
fn truncate(spans: &[SpanRecord], budget: &mut usize) -> Vec<SpanRecord> {
    let mut kept = Vec::new();
    for span in spans {
        if *budget == 0 {
            break;
        }
        *budget -= 1;
        kept.push(SpanRecord {
            id: span.id,
            parent_id: span.parent_id,
            name: span.name.clone(),
            start_ns: span.start_ns,
            duration_ns: span.duration_ns,
            thread: span.thread,
            children: truncate(&span.children, budget),
        });
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent_id: u64, children: Vec<SpanRecord>) -> SpanRecord {
        SpanRecord {
            id,
            parent_id,
            name: format!("s{id}"),
            start_ns: id,
            duration_ns: 1,
            thread: 0,
            children,
        }
    }

    /// Pre-order `(id, parent_id)` pairs.
    fn flatten(spans: &[SpanRecord], out: &mut Vec<(u64, u64)>) {
        for s in spans {
            out.push((s.id, s.parent_id));
            flatten(&s.children, out);
        }
    }

    #[test]
    fn truncate_keeps_a_preorder_prefix_with_every_parent() {
        let forest = vec![
            span(
                1,
                0,
                vec![span(2, 1, vec![span(3, 2, vec![])]), span(4, 1, vec![])],
            ),
            span(5, 0, vec![span(6, 5, vec![])]),
        ];
        let mut all = Vec::new();
        flatten(&forest, &mut all);
        for limit in 0..=all.len() + 1 {
            let mut budget = limit;
            let mut kept = Vec::new();
            flatten(&truncate(&forest, &mut budget), &mut kept);
            assert_eq!(kept, all[..limit.min(all.len())], "budget {limit}");
            let ids: Vec<u64> = kept.iter().map(|k| k.0).collect();
            assert!(kept.iter().all(|&(_, p)| p == 0 || ids.contains(&p)));
        }
    }
}
