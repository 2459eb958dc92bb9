//! Regenerates Table 2 (conciseness distribution).
fn main() {
    let telemetry = dex_experiments::TelemetryRun::from_env();
    let ctx = dex_experiments::Context::build(&dex_experiments::FaultConfig::from_env());
    print!("{}", dex_experiments::experiments::table2(&ctx));
    telemetry.finish("exp_table2");
}
