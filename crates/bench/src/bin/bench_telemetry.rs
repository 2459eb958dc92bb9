//! Measures the overhead of the `dex-telemetry` subscriber on two
//! instrumented workloads — plus per-call microcosts of the span guard and
//! the flight recorder — and emits a machine-readable `BENCH_telemetry.json`.
//!
//! The workloads are `Context::build(&FaultConfig::none())`, the
//! experiments' whole set-up (the 252-module universe, the seed-42 curator
//! pool and the engine's bootstrap over them), and an
//! `IncrementalPipeline::bootstrap` over the same 252 modules from a clone
//! of the universe and a 4-per-concept pool: one serial generation per
//! module, the fingerprint index, and the aligned comparison of every
//! same-bucket pair.
//!
//! Usage: `cargo run --release -p dex-bench --bin bench_telemetry [OUT.json]`
//! (default output path: `BENCH_telemetry.json` in the working directory).
//!
//! Each workload runs several interleaved repetitions with the subscriber
//! off and on; the reported overhead compares the medians. Release builds
//! **gate** the results: enabled tracing must cost at most
//! [`OVERHEAD_BUDGET_PCT`] on the workload medians, and a *disabled* span
//! site — one relaxed atomic load and an early return, no allocation — must
//! stay under [`DISABLED_SPAN_BUDGET_NS`] per call. Breaching either budget
//! exits nonzero so CI treats instrumentation creep as a regression.

use dex_core::GenerationConfig;
use dex_experiments::{Context, FaultConfig, IncrementalPipeline};
use dex_pool::build_synthetic_pool;
use std::fmt::Write as _;
use std::time::Instant;

/// Maximum median slowdown tracing may inflict on an instrumented workload.
const OVERHEAD_BUDGET_PCT: f64 = 10.0;

/// Ceiling for a disabled span site, per call. The guard is a single
/// relaxed load (~1 ns on current hardware); the budget leaves headroom for
/// noisy CI hosts while still catching an accidental allocation or clock
/// read on the disabled path, which would cost 20–60 ns.
const DISABLED_SPAN_BUDGET_NS: f64 = 20.0;

/// Per-call milliseconds for one timed batch of `batch` calls.
fn batch_ms(batch: usize, f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..batch {
        f();
    }
    start.elapsed().as_secs_f64() * 1_000.0 / batch as f64
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    samples[samples.len() / 2]
}

/// Median nanoseconds per call of `f` over `reps` batches of `calls`.
fn ns_per_call(reps: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        samples.push(start.elapsed().as_secs_f64() * 1e9 / calls as f64);
    }
    median(samples)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_telemetry.json".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let (reps, batch): (usize, usize) = if cfg!(debug_assertions) {
        (3, 1)
    } else {
        (15, 4)
    };

    let universe = dex_universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 4, 42);
    let config = GenerationConfig::default();
    let modules = universe.available_ids().len();

    let mut json = String::from("{\n");
    writeln!(json, "  \"profile\": \"{profile}\",").unwrap();
    writeln!(json, "  \"overhead_budget_pct\": {OVERHEAD_BUDGET_PCT},").unwrap();

    // Off and on batches alternate so slow machine drift (frequency
    // scaling, background load) hits both sides equally instead of biasing
    // whichever side ran later.
    let section = |name: &str, mut run: Box<dyn FnMut() + '_>| -> (f64, f64) {
        let mut off = Vec::with_capacity(reps);
        let mut on = Vec::with_capacity(reps);
        for _ in 0..reps {
            dex_telemetry::disable();
            off.push(batch_ms(batch, &mut run));
            dex_telemetry::enable();
            on.push(batch_ms(batch, &mut run));
        }
        dex_telemetry::disable();
        dex_telemetry::reset();
        let (off_ms, on_ms) = (median(off), median(on));
        eprintln!("{name}: off {off_ms:.2} ms, on {on_ms:.2} ms");
        (off_ms, on_ms)
    };

    let (ctx_off, ctx_on) = section(
        "context_build",
        Box::new(|| {
            std::hint::black_box(Context::build(&FaultConfig::none()));
        }),
    );
    let (boot_off, boot_on) = section(
        "incremental_bootstrap",
        Box::new(|| {
            std::hint::black_box(IncrementalPipeline::bootstrap(
                universe.clone(),
                pool.clone(),
                config.clone(),
            ));
        }),
    );

    // Microcosts. Disabled sites must be inert: the span guard is a relaxed
    // load + None, the flight gate one relaxed load — no clock read, no
    // allocation, no formatting (call sites gate on `is_enabled()` before
    // building the detail string).
    let micro_calls = if cfg!(debug_assertions) {
        10_000
    } else {
        1_000_000
    };
    dex_telemetry::disable();
    let span_disabled_ns = ns_per_call(reps, micro_calls, || {
        drop(std::hint::black_box(dex_telemetry::span("bench.micro")));
    });
    let flight_disabled_ns = ns_per_call(reps, micro_calls, || {
        if std::hint::black_box(dex_telemetry::is_enabled()) {
            dex_telemetry::flight(
                dex_telemetry::FlightKind::Retry,
                "bench.micro",
                "never reached while disabled".to_string(),
                0,
            );
        }
    });
    dex_telemetry::enable();
    // Enabled spans accumulate in the closed-span list until a reset; keep
    // batches modest and reset after them.
    let span_calls = micro_calls / 10;
    let span_enabled_ns = ns_per_call(reps, span_calls.max(1), || {
        drop(std::hint::black_box(dex_telemetry::span("bench.micro")));
    });
    dex_telemetry::reset();
    // The flight ring displaces its oldest event, so volume is free; each
    // recorded event costs one format plus a push under the ring's lock.
    let flight_enabled_ns = ns_per_call(reps, span_calls.max(1), || {
        if dex_telemetry::is_enabled() {
            dex_telemetry::flight(
                dex_telemetry::FlightKind::Retry,
                "bench.micro",
                "transient failure; retrying".to_string(),
                1,
            );
        }
    });
    dex_telemetry::disable();
    dex_telemetry::reset();
    eprintln!(
        "span: disabled {span_disabled_ns:.1} ns/call, enabled {span_enabled_ns:.1} ns/call; \
         flight: disabled {flight_disabled_ns:.1} ns/call, enabled {flight_enabled_ns:.1} ns/call"
    );

    let pct = |off: f64, on: f64| (on - off) / off * 100.0;
    let ctx_pct = pct(ctx_off, ctx_on);
    let boot_pct = pct(boot_off, boot_on);
    writeln!(
        json,
        "  \"context_build\": {{\"off_ms\": {ctx_off:.2}, \"on_ms\": {ctx_on:.2}, \
         \"overhead_pct\": {ctx_pct:.2}}},",
    )
    .unwrap();
    writeln!(
        json,
        "  \"incremental_bootstrap\": {{\"modules\": {modules}, \"off_ms\": {boot_off:.2}, \
         \"on_ms\": {boot_on:.2}, \"overhead_pct\": {boot_pct:.2}}},",
    )
    .unwrap();
    writeln!(
        json,
        "  \"span_call\": {{\"disabled_ns\": {span_disabled_ns:.1}, \"enabled_ns\": {span_enabled_ns:.1}, \
         \"disabled_budget_ns\": {DISABLED_SPAN_BUDGET_NS}}},"
    )
    .unwrap();
    writeln!(
        json,
        "  \"flight_event\": {{\"disabled_ns\": {flight_disabled_ns:.1}, \
         \"enabled_ns\": {flight_enabled_ns:.1}}},"
    )
    .unwrap();

    // Gate only in release: debug medians measure the lack of optimization,
    // not the instrumentation.
    let mut violations: Vec<String> = Vec::new();
    if !cfg!(debug_assertions) {
        if ctx_pct > OVERHEAD_BUDGET_PCT {
            violations.push(format!(
                "context_build enabled overhead {ctx_pct:.2}% > {OVERHEAD_BUDGET_PCT}%"
            ));
        }
        if boot_pct > OVERHEAD_BUDGET_PCT {
            violations.push(format!(
                "incremental_bootstrap enabled overhead {boot_pct:.2}% > {OVERHEAD_BUDGET_PCT}%"
            ));
        }
        if span_disabled_ns > DISABLED_SPAN_BUDGET_NS {
            violations.push(format!(
                "disabled span site costs {span_disabled_ns:.1} ns/call > {DISABLED_SPAN_BUDGET_NS} ns"
            ));
        }
        if flight_disabled_ns > DISABLED_SPAN_BUDGET_NS {
            violations.push(format!(
                "disabled flight site costs {flight_disabled_ns:.1} ns/call > \
                 {DISABLED_SPAN_BUDGET_NS} ns"
            ));
        }
    }
    writeln!(
        json,
        "  \"gate\": \"{}\"",
        if violations.is_empty() {
            "pass"
        } else {
            "fail"
        }
    )
    .unwrap();
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write summary");
    print!("{json}");
    eprintln!("wrote {out_path}");
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("bench_telemetry: BUDGET VIOLATION: {v}");
        }
        std::process::exit(1);
    }
}
