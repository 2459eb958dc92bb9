//! Regenerates Figure 8 (matching unavailable modules). `--fault-rate=PCT`
//! (with `--fault-seed=SEED`, `--fail-fast`) arms the fault injector; the
//! figure must not change.
use dex_experiments::{experiments, out, FaultConfig};
use dex_repair::RepositoryPlan;
fn main() {
    let telemetry = dex_experiments::TelemetryRun::from_env();
    let results =
        experiments::decay_experiments(&RepositoryPlan::default(), &FaultConfig::from_env());
    out!("{}", results.figure8);
    telemetry.finish("exp_figure8");
}
