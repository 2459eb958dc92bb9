//! Runs the DESIGN.md §5 ablations: partitioning vs random selection,
//! pool-size sweep, annotation specificity, and matching-method comparison.
use dex_experiments::{ablations, out};
use dex_repair::RepositoryPlan;
fn main() {
    let telemetry = dex_experiments::TelemetryRun::from_env();
    let ctx = dex_experiments::Context::build(&dex_experiments::FaultConfig::from_env());
    out!("{}", ablations::partitioning_vs_random(&ctx));
    out!("{}", ablations::pool_size_sweep(&ctx));
    out!("{}", ablations::annotation_specificity(&ctx));
    out!("{}", ablations::matching_method(&RepositoryPlan::small(8)));
    telemetry.finish("exp_ablation");
}
