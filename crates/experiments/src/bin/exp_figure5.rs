//! Regenerates Figure 5 (the user study).
fn main() {
    let telemetry = dex_experiments::TelemetryRun::from_env();
    let ctx = dex_experiments::Context::build(&dex_experiments::FaultConfig::from_env());
    print!("{}", dex_experiments::experiments::figure5(&ctx));
    telemetry.finish("exp_figure5");
}
