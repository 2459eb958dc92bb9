//! Fault-injection smoke: proves the fault-tolerant pipeline *converges*.
//!
//! Runs a representative slice of the evaluation twice — once fault-free,
//! once with seeded transient faults injected in front of every module —
//! and requires the rendered reports to be **byte-identical**: retries must
//! fully absorb the injected faults, and the invocation cache must never
//! memoize a transient outcome. Exits nonzero on any divergence, so CI can
//! gate on it.
//!
//! Also prints the example-yield sweep under 0/5/20% fault rates with
//! retries on and off (the EXPERIMENTS.md degradation table).
//!
//! Flags: `--fault-rate=PCT` (default 10; 0 is refused, since the smoke
//! needs faults), `--fault-seed=SEED`, `--telemetry[=PATH]`.

use dex_experiments::flags::flag_value;
use dex_experiments::{experiments, outln, Context, FaultConfig, TelemetryRun};
use dex_modules::RetryPolicy;
use dex_repair::RepositoryPlan;

/// One run of the comparison slice: Table 1 (generation behavior), the
/// matching summary (counted from the verdict rows the context's engine
/// filled at bootstrap, where it compared every same-bucket pair and
/// replayed each target example no candidate example is aligned with), and
/// the small-scale decay pipeline (corpus, Figure 8, repair).
fn digest(faults: &FaultConfig) -> (String, Context) {
    let ctx = Context::build(faults);
    let mut out = String::new();
    out.push_str(&experiments::table1(&ctx));
    out.push_str(&experiments::matching_summary(&ctx));
    let decay = experiments::decay_experiments(&RepositoryPlan::small(2), faults);
    out.push_str(&decay.figure8);
    out.push_str(&decay.repair);
    (out, ctx)
}

/// Total examples generated across all modules under `faults` — the yield
/// the degradation table tracks.
fn yield_under(faults: &FaultConfig) -> (usize, usize) {
    let ctx = Context::build(faults);
    let examples = ctx.reports.values().map(|r| r.examples.len()).sum();
    let transients = ctx
        .reports
        .values()
        .map(|r| r.transient_failures)
        .sum::<usize>()
        + ctx.generation_failures.len();
    (examples, transients)
}

fn main() {
    let telemetry = TelemetryRun::from_env();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Ok(None) = flag_value::<u32>(&args, "--fault-rate") {
        args.push("--fault-rate=10".to_string());
    }
    let faulted = FaultConfig::parse(&args)
        .and_then(|faults| {
            if faults.is_injecting() {
                Ok(faults)
            } else {
                Err("invalid value `0` for --fault-rate (the fault smoke needs faults)".to_string())
            }
        })
        .unwrap_or_else(|error| {
            eprintln!("error: {error}");
            std::process::exit(2)
        });
    let plan = faulted.injector.as_ref().expect("injector armed").plan();
    outln!(
        "fault smoke: rate {}‰, seed {:#x}, retry {} attempts\n",
        plan.fault_rate_millis,
        plan.seed,
        faulted.retry.max_attempts
    );
    let plan_rate = plan.fault_rate_millis;
    let plan_seed = plan.seed;

    let (baseline, _) = digest(&FaultConfig::none());
    let (shaken, ctx) = digest(&faulted);

    let fault_stats = faulted.stats();
    let retry = ctx.engine.retry_stats();
    let mut failed = false;
    if baseline != shaken {
        eprintln!("FAIL: faulted reports diverge from the fault-free baseline");
        for (i, (b, s)) in baseline.lines().zip(shaken.lines()).enumerate() {
            if b != s {
                eprintln!("  first divergent line {i}:\n  - {b}\n  + {s}");
                break;
            }
        }
        failed = true;
    } else {
        outln!("reports: byte-identical to the fault-free baseline");
    }
    if fault_stats.injected_faults == 0 {
        eprintln!("FAIL: no faults were injected — the smoke tested nothing");
        failed = true;
    } else {
        outln!(
            "faults:  {} transient injected over {} invocations",
            fault_stats.injected_faults,
            fault_stats.invocations
        );
    }
    if retry.retries == 0 {
        eprintln!("FAIL: faults were injected but generation never retried");
        failed = true;
    } else {
        outln!(
            "retries: {} (of {} attempts)",
            retry.retries,
            retry.attempts
        );
    }
    if !ctx.generation_failures.is_empty() {
        eprintln!(
            "FAIL: {} modules failed generation even with retries",
            ctx.generation_failures.len()
        );
        failed = true;
    }

    outln!("\nexample yield under injected fault rates (seed {plan_seed:#x}):");
    outln!("| fault rate | retries | examples | transient failures |");
    outln!("|---|---|---|---|");
    for rate in [0u32, 5, 20] {
        for retries_on in [true, false] {
            let mut cfg = FaultConfig::injected(rate, plan_seed);
            if !retries_on {
                cfg.retry = RetryPolicy::none();
            }
            let (examples, transients) = yield_under(&cfg);
            outln!(
                "| {rate}% | {} | {examples} | {transients} |",
                if retries_on { "on" } else { "off" }
            );
        }
    }

    telemetry.finish("exp_faults");
    if failed {
        eprintln!("\nfault smoke FAILED (rate {plan_rate}‰, seed {plan_seed:#x})");
        std::process::exit(1);
    }
    outln!("\nfault smoke passed");
}
