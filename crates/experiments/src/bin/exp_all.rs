//! Regenerates every table and figure of the paper's evaluation in order.
use dex_experiments::{experiments, FaultConfig};
use dex_repair::RepositoryPlan;
fn main() {
    let telemetry = dex_experiments::TelemetryRun::from_env();
    let faults = FaultConfig::from_env();
    let ctx = dex_experiments::Context::build(&faults);
    print!("{}", experiments::table1(&ctx));
    print!("{}", experiments::table2(&ctx));
    print!("{}", experiments::table3(&ctx));
    print!("{}", experiments::coverage(&ctx));
    print!("{}", experiments::figure5(&ctx));
    print!("{}", experiments::matching_summary(&ctx));
    // The decay slice runs under the same fault plan, so a seeded-fault run
    // leaves its injected faults in the flight window the withdrawal dump
    // captures.
    let decay = experiments::decay_experiments(&RepositoryPlan::default(), &faults);
    print!("{}", decay.figure8);
    print!("{}", decay.repair);
    telemetry.finish("exp_all");
}
