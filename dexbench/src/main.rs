//! `dexbench` — the repository's benchmark: one command, three workloads,
//! every end-to-end number checked for correctness and broken down by layer
//! in a traced run.
//!
//! ```text
//! cargo run --release --manifest-path dexbench/Cargo.toml -- \
//!     --workload serve_read|serve_mixed|registry_churn|all --seed N \
//!     [--seconds 10] [--trace 0|1] [--trace-dir DIR] [--out FILE] [--smoke] [--allow-debug]
//! ```
//!
//! Each metric prints as `workload metric value unit n=<samples>`; the last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and the gated metrics (end-to-end ones untraced, per-layer ones
//! with `--trace 1`). Any failed correctness check makes the exit code 1.
//! See `README.md` for the workloads, the metrics and the comparison
//! protocol.

mod check;
mod churn;
mod host;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;
mod world;

use host::Host;
use report::{full_json, summary_json, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Modules in the served world, normal and `--smoke`.
const SERVE_SCALE: [usize; 2] = [10_000, 2_500];
/// Modules in the churned registry, normal and `--smoke`.
const CHURN_SCALE: [usize; 2] = [20_000, 5_000];
/// Seconds in the measured phase, normal and `--smoke`. The run length is
/// the benchmark's, not the caller's: `BENCHMARK.json` records the normal
/// value as `run_seconds`, and `--seconds` must repeat it.
const MEASURE_SECONDS: [u64; 2] = [10, 2];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The workloads, in `--workload all` order.
const WORKLOADS: [&str; 3] = ["serve_read", "serve_mixed", "registry_churn"];

/// Everything a workload run needs to know.
pub struct RunCfg {
    pub seed: u64,
    pub serve_scale: usize,
    pub churn_scale: usize,
    pub warmup: Duration,
    pub measure: Duration,
    pub setups: usize,
    pub trace: bool,
    pub smoke: bool,
    /// Where sockets live while a workload runs.
    pub work_dir: PathBuf,
}

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    trace: bool,
    trace_dir: PathBuf,
    out: Option<PathBuf>,
    smoke: bool,
    allow_debug: bool,
}

const USAGE: &str = "usage: dexbench --workload serve_read|serve_mixed|registry_churn|all \
--seed N [--seconds 10] [--trace 0|1] [--trace-dir DIR] [--out FILE] [--smoke] [--allow-debug]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 42,
        trace: false,
        trace_dir: PathBuf::from(".dexbench/trace"),
        out: None,
        smoke: false,
        allow_debug: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workloads = match name.as_str() {
                    "all" => WORKLOADS.to_vec(),
                    _ => vec![*WORKLOADS
                        .iter()
                        .find(|w| **w == name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?],
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds != MEASURE_SECONDS[0] {
                    return Err(format!(
                        "the measured phase is fixed at {} s; --seconds may only repeat it",
                        MEASURE_SECONDS[0]
                    ));
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace-dir" => args.trace_dir = PathBuf::from(value()?),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            "--allow-debug" => args.allow_debug = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dexbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if host::profile() == "debug" && !args.allow_debug {
        eprintln!("dexbench: refusing to measure a debug build (pass --allow-debug to run anyway)");
        return ExitCode::from(2);
    }
    let tier = usize::from(args.smoke);
    let measure = MEASURE_SECONDS[tier] as f64;
    let warmup = if args.smoke { 0.5 } else { 2.0 };
    let cfg = RunCfg {
        seed: args.seed,
        serve_scale: SERVE_SCALE[tier],
        churn_scale: CHURN_SCALE[tier],
        warmup: Duration::from_secs_f64(warmup),
        measure: Duration::from_secs_f64(measure),
        setups: if args.trace { 1 } else { SETUPS },
        trace: args.trace,
        smoke: args.smoke,
        work_dir: PathBuf::from(".dexbench"),
    };
    let host = Host {
        cores: host::cores(),
        profile: host::profile(),
        commit: host::commit(),
        seed: cfg.seed,
        serve_scale: cfg.serve_scale,
        churn_scale: cfg.churn_scale,
        workers: host::cores(),
        client_threads: serve::CLIENT_THREADS,
        warmup_s: warmup,
        measure_s: measure,
        setups: cfg.setups,
        smoke: cfg.smoke,
    };
    println!("{}", host.line());

    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    for workload in &args.workloads {
        if cfg.trace {
            dex_telemetry::reset();
            dex_telemetry::enable();
        }
        let outcome = match *workload {
            "serve_read" => serve::run(false, &cfg),
            "serve_mixed" => serve::run(true, &cfg),
            _ => churn::run(&cfg),
        };
        dex_telemetry::disable();
        for line in outcome.lines() {
            println!("{line}");
        }
        for mismatch in &outcome.mismatches {
            eprintln!("dexbench: {workload}: MISMATCH {mismatch}");
        }
        if cfg.trace {
            if let Err(e) = trace::write_artifacts(&args.trace_dir, &host, &outcome) {
                problems.push(e);
            }
        }
        outcomes.push(outcome);
    }
    if args.smoke {
        problems.extend(smoke_problems(&outcomes, cfg.trace));
    }
    if let Some(out) = &args.out {
        if let Err(e) = std::fs::write(out, full_json(&host, &outcomes)) {
            problems.push(format!("write {}: {e}", out.display()));
        }
    }
    for p in &problems {
        eprintln!("dexbench: {p}");
    }
    let ok = problems.is_empty() && outcomes.iter().all(Outcome::correct);
    println!("{}", summary_json(&outcomes));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The metric lists `BENCHMARK.json` declares.
#[derive(serde::Deserialize)]
struct Spec {
    run_seconds: u64,
    workloads: Vec<Named>,
    end_to_end: Vec<Named>,
    per_layer: Vec<Named>,
}

#[derive(serde::Deserialize)]
struct Named {
    name: String,
}

/// `--smoke`: the declared run length is the measured phase, every
/// declared metric is emitted for every declared workload that ran, and
/// nothing undeclared is gated.
fn smoke_problems(outcomes: &[Outcome], trace: bool) -> Vec<String> {
    let spec: Spec = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
    {
        Ok(spec) => spec,
        Err(e) => return vec![format!("smoke: cannot read BENCHMARK.json: {e}")],
    };
    let declared = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let mut problems = Vec::new();
    if spec.run_seconds != MEASURE_SECONDS[0] {
        problems.push(format!(
            "smoke: BENCHMARK.json run_seconds is {}, the measured phase {}",
            spec.run_seconds, MEASURE_SECONDS[0]
        ));
    }
    for o in outcomes {
        if !spec.workloads.iter().any(|w| w.name == o.workload) {
            problems.push(format!("smoke: workload {} is not declared", o.workload));
        }
        for d in declared {
            if !o.metrics.iter().any(|m| m.name == d.name) {
                problems.push(format!("smoke: {} does not emit {}", o.workload, d.name));
            }
        }
        for m in &o.metrics {
            if !declared.iter().any(|d| d.name == m.name) {
                problems.push(format!("smoke: {} emits undeclared {}", o.workload, m.name));
            }
        }
    }
    problems
}
