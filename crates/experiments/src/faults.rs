//! Opt-in deterministic fault injection for the experiment binaries.
//!
//! A [`FaultConfig`] bundles the three fault-tolerance knobs a run needs:
//! an optional [`FaultInjector`] that wraps every catalog module in seeded
//! transient fault injection, the [`RetryPolicy`] the pipeline uses to ride
//! the injected transients out, and whether residual failures should abort
//! the run (`fail_fast`) or degrade it gracefully.
//!
//! Like telemetry, faults are parsed from the command line only:
//! `--fault-rate=PCT` (and optional `--fault-seed=SEED`, `--fail-fast`).
//! Without a rate, [`FaultConfig::from_env`] returns the inert
//! [`FaultConfig::none`] and the binaries behave exactly as before. A rate
//! or seed that does not parse stops the binary instead of running it
//! fault-free.

use crate::flags::flag_value;
use dex_modules::{FaultInjector, FaultPlan, FaultStats, ModuleCatalog, RetryPolicy};

/// Default seed for injected faults when only a rate is given.
pub const DEFAULT_FAULT_SEED: u64 = 0xFA_0175;

/// Fault-injection and retry configuration for one experiment run.
#[derive(Debug, Clone, Default)]
pub struct FaultConfig {
    /// When set, every catalog module gets wrapped in a seeded fault
    /// injector before any invocation happens.
    pub injector: Option<FaultInjector>,
    /// Retry policy threaded through generation, matching, and enactment.
    pub retry: RetryPolicy,
    /// Abort on the first residual (post-retry) failure instead of
    /// degrading gracefully: [`crate::Context`] panics on the first module,
    /// in id order, whose generation failed in the engine's bootstrap, and
    /// the corpus build on its first failure.
    pub fail_fast: bool,
}

impl FaultConfig {
    /// No injection, no retries, graceful degradation: the historical
    /// behavior of every binary.
    pub fn none() -> FaultConfig {
        FaultConfig::default()
    }

    /// Injects transient faults on roughly `rate_pct`% of invocations
    /// (seeded, deterministic) and arms a retry policy strong enough to
    /// ride out the bounded fault bursts the plan produces.
    pub fn injected(rate_pct: u32, seed: u64) -> FaultConfig {
        FaultConfig {
            injector: Some(FaultInjector::new(FaultPlan::rate_pct(seed, rate_pct))),
            retry: RetryPolicy::transient(4),
            fail_fast: false,
        }
    }

    /// Parses `--fault-rate=PCT`, `--fault-seed=SEED` (each also as
    /// `--flag V`) and `--fail-fast` out of `args`; other arguments are
    /// ignored. No rate, or a rate of 0, injects nothing. Errs, naming the
    /// flag and the value, when a rate or seed is missing or does not parse,
    /// or when the rate is above 100.
    pub fn parse(args: &[String]) -> Result<FaultConfig, String> {
        let rate: Option<u32> = flag_value(args, "--fault-rate")?;
        if let Some(rate) = rate.filter(|&rate| rate > 100) {
            return Err(format!(
                "invalid value `{rate}` for --fault-rate (a percentage, at most 100)"
            ));
        }
        let seed: Option<u64> = flag_value(args, "--fault-seed")?;
        let mut config = match rate {
            Some(rate) if rate > 0 => {
                FaultConfig::injected(rate, seed.unwrap_or(DEFAULT_FAULT_SEED))
            }
            _ => FaultConfig::none(),
        };
        config.fail_fast = args.iter().any(|arg| arg == "--fail-fast");
        Ok(config)
    }

    /// [`FaultConfig::parse`] over the process arguments. A parse error is
    /// printed and the process exits with status 2.
    pub fn from_env() -> FaultConfig {
        let args: Vec<String> = std::env::args().skip(1).collect();
        FaultConfig::parse(&args).unwrap_or_else(|error| {
            eprintln!("error: {error}");
            std::process::exit(2)
        })
    }

    /// Whether any faults will actually be injected.
    pub fn is_injecting(&self) -> bool {
        self.injector
            .as_ref()
            .is_some_and(|i| i.plan().fault_rate_millis > 0)
    }

    /// Wraps every module of `catalog` (withdrawn ones included) in the
    /// configured injector. No-op without one.
    pub fn apply(&self, catalog: &mut ModuleCatalog) {
        if let Some(injector) = &self.injector {
            catalog.wrap_modules(|_, module| injector.wrap(module));
        }
    }

    /// Aggregated injection counters across every wrapped module.
    pub fn stats(&self) -> FaultStats {
        self.injector
            .as_ref()
            .map(|i| i.stats())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert() {
        let f = FaultConfig::none();
        assert!(!f.is_injecting());
        assert!(!f.retry.retries_enabled());
        assert_eq!(f.stats().injected_faults, 0);
    }

    #[test]
    fn injected_arms_retries_strong_enough_for_the_plan() {
        let f = FaultConfig::injected(10, 7);
        assert!(f.is_injecting());
        let plan = f.injector.as_ref().unwrap().plan().clone();
        // Convergence argument: the longest fault burst must be shorter than
        // the attempts the policy grants per invocation, or a faulted run
        // could diverge from the fault-free baseline.
        assert!(plan.max_consecutive < f.retry.max_attempts);
    }

    fn parse(list: &[&str]) -> Result<FaultConfig, String> {
        let args: Vec<String> = list.iter().map(|a| a.to_string()).collect();
        FaultConfig::parse(&args)
    }

    #[test]
    fn parse_reads_both_flag_forms() {
        for list in [
            &["--fault-rate=10", "--fault-seed=7"][..],
            &["--fault-rate", "10", "--fault-seed", "7"][..],
        ] {
            let f = parse(list).unwrap();
            let plan = f.injector.as_ref().unwrap().plan();
            assert_eq!((plan.fault_rate_millis, plan.seed), (100, 7), "{list:?}");
            assert!(!f.fail_fast);
        }
        let f = parse(&["--telemetry", "--fault-rate=5", "--fail-fast"]).unwrap();
        assert_eq!(f.injector.as_ref().unwrap().plan().seed, DEFAULT_FAULT_SEED);
        assert!(f.fail_fast);
    }

    #[test]
    fn parse_without_a_rate_injects_nothing() {
        for list in [&[][..], &["--fault-rate=0"][..], &["--fault-seed=7"][..]] {
            let f = parse(list).unwrap();
            assert!(!f.is_injecting(), "{list:?}");
            assert!(!f.retry.retries_enabled(), "{list:?}");
        }
    }

    #[test]
    fn parse_rejects_a_missing_or_unparseable_value() {
        for (list, message) in [
            (
                &["--fault-rate=ten"][..],
                "invalid value `ten` for --fault-rate",
            ),
            (
                &["--fault-rate", "ten"][..],
                "invalid value `ten` for --fault-rate",
            ),
            (
                &["--fault-seed", "--fail-fast"][..],
                "--fault-seed needs a value",
            ),
            (
                &["--fault-rate=101"][..],
                "invalid value `101` for --fault-rate (a percentage, at most 100)",
            ),
            (
                &["--fault-rate", "429496730"][..],
                "invalid value `429496730` for --fault-rate (a percentage, at most 100)",
            ),
        ] {
            assert_eq!(parse(list).err().as_deref(), Some(message), "{list:?}");
        }
    }
}
