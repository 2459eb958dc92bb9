//! Regenerates Table 3 (module category counts).
use dex_experiments::out;
fn main() {
    let telemetry = dex_experiments::TelemetryRun::from_env();
    let ctx = dex_experiments::Context::build(&dex_experiments::FaultConfig::from_env());
    out!("{}", dex_experiments::experiments::table3(&ctx));
    telemetry.finish("exp_table3");
}
