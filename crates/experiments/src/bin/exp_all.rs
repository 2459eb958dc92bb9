//! Regenerates every table and figure of the paper's evaluation in order.
use dex_experiments::{experiments, out, FaultConfig};
use dex_repair::RepositoryPlan;
fn main() {
    let telemetry = dex_experiments::TelemetryRun::from_env();
    let faults = FaultConfig::from_env();
    let ctx = dex_experiments::Context::build(&faults);
    out!("{}", experiments::table1(&ctx));
    out!("{}", experiments::table2(&ctx));
    out!("{}", experiments::table3(&ctx));
    out!("{}", experiments::coverage(&ctx));
    out!("{}", experiments::figure5(&ctx));
    out!("{}", experiments::matching_summary(&ctx));
    // The decay slice runs under the same fault plan, so a seeded-fault run
    // leaves its injected faults in the flight window the withdrawal dump
    // captures.
    let decay = experiments::decay_experiments(&RepositoryPlan::default(), &faults);
    out!("{}", decay.figure8);
    out!("{}", decay.repair);
    telemetry.finish("exp_all");
}
