//! What one workload run produced, and how it is printed.

use crate::host::Host;
use serde::Serialize;
use std::collections::BTreeMap;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n,
        }
    }
}

/// The result of one workload run.
pub struct Outcome {
    pub workload: &'static str,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run),
    /// exactly the set `BENCHMARK.json` lists for the mode.
    pub metrics: Vec<Metric>,
    /// Workload-specific diagnostics: printed and written to the per-layer
    /// table, but not part of the gated set.
    pub diagnostics: Vec<Metric>,
    /// Operations issued plus correctness comparisons made.
    pub attempted: u64,
    /// Failed operations (error, busy, I/O error) plus failed comparisons.
    pub failed: u64,
    /// One line per failed comparison.
    pub mismatches: Vec<String>,
}

impl Outcome {
    /// No operation or comparison failed, and every gated metric was
    /// measured.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.mismatches.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// `workload metric value unit n=<samples>`, one line per metric.
    pub fn lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .chain(&self.diagnostics)
            .map(|m| {
                format!(
                    "{} {} {} {} n={}",
                    self.workload, m.name, m.value, m.unit, m.n
                )
            })
            .collect()
    }
}

/// A gated metric in the closing line. A value that could not be measured
/// serializes as `null`, and the run is then reported incorrect.
#[derive(Serialize)]
struct Gated {
    value: f64,
    unit: &'static str,
}

#[derive(Serialize)]
struct Summary {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Gated>,
}

/// The closing JSON object: `correct`, `attempted`, `failed`, and every
/// gated metric. With several workloads, metric names carry the workload as
/// a prefix.
pub fn summary_json(outcomes: &[Outcome]) -> String {
    let prefix = outcomes.len() > 1;
    let metrics = outcomes
        .iter()
        .flat_map(|o| {
            o.metrics.iter().map(move |m| {
                let name = if prefix {
                    format!("{}.{}", o.workload, m.name)
                } else {
                    m.name.clone()
                };
                (
                    name,
                    Gated {
                        value: m.value,
                        unit: m.unit,
                    },
                )
            })
        })
        .collect();
    to_json(&Summary {
        correct: outcomes.iter().all(Outcome::correct),
        attempted: outcomes.iter().map(|o| o.attempted).sum(),
        failed: outcomes.iter().map(|o| o.failed).sum(),
        metrics,
    })
}

/// A metric in the `--out` document.
#[derive(Serialize)]
struct Measured {
    value: f64,
    unit: &'static str,
    n: usize,
}

#[derive(Serialize)]
struct WorkloadReport {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Measured>,
}

#[derive(Serialize)]
struct FullReport {
    host: Host,
    workloads: BTreeMap<String, WorkloadReport>,
}

/// The `--out` document: the host block, then every metric of every
/// workload, diagnostics included, with its unit and sample count.
pub fn full_json(host: &Host, outcomes: &[Outcome]) -> String {
    let workloads = outcomes
        .iter()
        .map(|o| {
            let metrics = o
                .metrics
                .iter()
                .chain(&o.diagnostics)
                .map(|m| {
                    (
                        m.name.clone(),
                        Measured {
                            value: m.value,
                            unit: m.unit,
                            n: m.n,
                        },
                    )
                })
                .collect();
            let report = WorkloadReport {
                correct: o.correct(),
                attempted: o.attempted,
                failed: o.failed,
                metrics,
            };
            (o.workload.to_string(), report)
        })
        .collect();
    to_json(&FullReport {
        host: host.clone(),
        workloads,
    }) + "\n"
}

/// Compact JSON of `value`.
pub fn to_json(value: &impl Serialize) -> String {
    serde_json::to_string(value).expect("plain data serializes")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(value: f64) -> Outcome {
        Outcome {
            workload: "serve_read",
            metrics: vec![Metric::new("setup_s", value, "s", 3)],
            diagnostics: vec![Metric::new("tail_percentile", 99.0, "%", 10)],
            attempted: 7,
            failed: 0,
            mismatches: Vec::new(),
        }
    }

    #[test]
    fn summary_keeps_every_digit_and_only_gated_metrics() {
        let json = summary_json(&[outcome(0.812_734_5)]);
        assert_eq!(
            json,
            r#"{"correct":true,"attempted":7,"failed":0,"metrics":{"setup_s":{"value":0.8127345,"unit":"s"}}}"#
        );
    }

    #[test]
    fn unmeasured_value_is_null_and_incorrect() {
        let json = summary_json(&[outcome(f64::NAN)]);
        assert!(json.starts_with(r#"{"correct":false,"#), "{json}");
        assert!(json.contains(r#""value":null"#), "{json}");
    }

    #[test]
    fn several_workloads_prefix_metric_names() {
        let mut other = outcome(1.0);
        other.workload = "registry_churn";
        let json = summary_json(&[outcome(0.5), other]);
        assert!(json.contains(r#""registry_churn.setup_s""#), "{json}");
        assert!(json.contains(r#""serve_read.setup_s""#), "{json}");
    }
}
