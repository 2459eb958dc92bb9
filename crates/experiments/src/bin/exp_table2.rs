//! Regenerates Table 2 (conciseness distribution).
use dex_experiments::out;
fn main() {
    let telemetry = dex_experiments::TelemetryRun::from_env();
    let ctx = dex_experiments::Context::build(&dex_experiments::FaultConfig::from_env());
    out!("{}", dex_experiments::experiments::table2(&ctx));
    telemetry.finish("exp_table2");
}
