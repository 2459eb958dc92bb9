//! Regenerates the §4.3 coverage result.
use dex_experiments::out;
fn main() {
    let telemetry = dex_experiments::TelemetryRun::from_env();
    let ctx = dex_experiments::Context::build(&dex_experiments::FaultConfig::from_env());
    out!("{}", dex_experiments::experiments::coverage(&ctx));
    telemetry.finish("exp_coverage");
}
