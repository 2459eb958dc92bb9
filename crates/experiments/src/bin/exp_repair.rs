//! Regenerates the §6 repair numbers — and, with `--scale`, drives the
//! continuous decay-and-repair workload over a scaled universe.
//!
//! ```text
//! exp_repair                                  # paper profile (§6 table)
//! exp_repair --scale 10000 --waves 3          # continuous workload
//!            [--workflows N] [--fault-rate PCT] [--seed S]
//! ```
//!
//! In the paper profile, `--fault-rate=PCT` (with `--fault-seed=SEED`,
//! `--fail-fast`) arms the fault injector, as on every experiment binary;
//! the table must not change.
//!
//! In `--scale` mode `--fault-rate` means something else: the percentage of
//! the available modules each wave withdraws (default 10). No fault is
//! injected. Each wave withdraws its share through the incremental delta
//! pipeline (no cold re-runs), repairs every currently broken workflow — the
//! wave's own victims plus the carried-forward broken set from earlier
//! waves — and prints throughput (repairs/s), re-repair counts, and
//! p50/p95/p99 per-workflow latency.
//!
//! Every valued flag takes `--flag=V` or `--flag V`; a missing or
//! unparseable value stops the binary with status 2.

use dex_experiments::flags::flag_value;
use dex_experiments::{out, outln, run_continuous, ContinuousConfig, FaultConfig};
use dex_repair::RepositoryPlan;

/// The continuous workload's configuration, or `None` without `--scale`.
/// Errs, naming the flag and the value, on a scale of 0 (a world needs a
/// module) or a withdrawal rate above 100%.
fn scale_config(args: &[String]) -> Result<Option<ContinuousConfig>, String> {
    let Some(scale) = flag_value(args, "--scale")? else {
        return Ok(None);
    };
    if scale == 0 {
        return Err("invalid value `0` for --scale (a module count, at least 1)".to_string());
    }
    let waves = flag_value(args, "--waves")?.unwrap_or(3);
    let seed = flag_value(args, "--seed")?.unwrap_or(42);
    let mut cfg = ContinuousConfig::at_scale(scale, waves, seed);
    if let Some(workflows) = flag_value(args, "--workflows")? {
        cfg.workflows = workflows;
    }
    if let Some(pct) = flag_value(args, "--fault-rate")? {
        if pct > 100 {
            return Err(format!(
                "invalid value `{pct}` for --fault-rate (a percentage, at most 100)"
            ));
        }
        cfg.fault_pct = pct;
    }
    Ok(Some(cfg))
}

fn main() {
    let telemetry = dex_experiments::TelemetryRun::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_config(&args).unwrap_or_else(|error| {
        eprintln!("error: {error}");
        std::process::exit(2)
    });

    match scale {
        None => {
            let results = dex_experiments::experiments::decay_experiments(
                &RepositoryPlan::default(),
                &FaultConfig::from_env(),
            );
            out!("{}", results.repair);
        }
        Some(cfg) => {
            let report = run_continuous(&cfg);

            let p = &report.prepare;
            outln!(
                "continuous decay-and-repair: {} modules, {} families, {} concepts, {} workflows",
                p.modules,
                p.families,
                p.concepts,
                p.workflows
            );
            outln!(
                "  build {:.0} ms | bootstrap {:.0} ms | streaming harvest {:.0} ms ({} instances)",
                p.build_ms,
                p.bootstrap_ms,
                p.harvest_ms,
                p.harvested_instances
            );
            outln!(
                "{:<5} {:>9} {:>9} {:>8} {:>8} {:>7} {:>7} {:>7} {:>6} {:>10} {:>9} {:>9} {:>9}",
                "wave",
                "withdrawn",
                "affected",
                "carried",
                "rerepair",
                "full",
                "partial",
                "none",
                "subst",
                "repairs/s",
                "p50 ms",
                "p95 ms",
                "p99 ms"
            );
            for w in &report.waves {
                outln!(
                    "{:<5} {:>9} {:>9} {:>8} {:>8} {:>7} {:>7} {:>7} {:>6} {:>10.1} {:>9.3} {:>9.3} {:>9.3}",
                    w.wave,
                    w.withdrawals,
                    w.affected_workflows,
                    w.carried_broken,
                    w.re_repaired,
                    w.fully_repaired,
                    w.partially_repaired,
                    w.unrepaired,
                    w.substitutions,
                    w.repairs_per_sec,
                    w.latency.p50_ns as f64 / 1e6,
                    w.latency.p95_ns as f64 / 1e6,
                    w.latency.p99_ns as f64 / 1e6,
                );
            }
            outln!(
                "total: {} substitutions, {} re-repaired across {} waves | overall p50 {:.3} ms p95 {:.3} ms p99 {:.3} ms",
                report.total_substitutions(),
                report.total_re_repaired(),
                report.waves.len(),
                report.latency_overall.p50_ns as f64 / 1e6,
                report.latency_overall.p95_ns as f64 / 1e6,
                report.latency_overall.p99_ns as f64 / 1e6,
            );
        }
    }
    telemetry.finish("exp_repair");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn out_of_range_scale_values_are_rejected() {
        for (list, message) in [
            (
                &["--scale=0"][..],
                "invalid value `0` for --scale (a module count, at least 1)",
            ),
            (
                &["--scale", "100", "--fault-rate", "200"][..],
                "invalid value `200` for --fault-rate (a percentage, at most 100)",
            ),
            (
                &["--scale=100", "--fault-rate=101"][..],
                "invalid value `101` for --fault-rate (a percentage, at most 100)",
            ),
        ] {
            assert_eq!(
                scale_config(&args(list)).map(|_| ()),
                Err(message.to_string()),
                "{list:?}"
            );
        }
    }

    #[test]
    fn in_range_scale_values_configure_the_workload() {
        assert!(scale_config(&args(&["--fault-rate=200"]))
            .expect("the paper profile ignores the scale flags")
            .is_none());
        let cfg = scale_config(&args(&["--scale=1", "--fault-rate=100", "--waves=2"]))
            .expect("in range")
            .expect("scale mode");
        assert_eq!((cfg.fault_pct, cfg.waves), (100, 2));
    }
}
