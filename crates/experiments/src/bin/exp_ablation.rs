//! Runs the DESIGN.md §5 ablations: partitioning vs random selection,
//! pool-size sweep, annotation specificity, and matching-method comparison.
use dex_experiments::ablations;
use dex_repair::RepositoryPlan;
fn main() {
    let telemetry = dex_experiments::TelemetryRun::from_env();
    let ctx = dex_experiments::Context::build(&dex_experiments::FaultConfig::from_env());
    print!("{}", ablations::partitioning_vs_random(&ctx));
    print!("{}", ablations::pool_size_sweep(&ctx));
    print!("{}", ablations::annotation_specificity(&ctx));
    print!("{}", ablations::matching_method(&RepositoryPlan::small(8)));
    telemetry.finish("exp_ablation");
}
