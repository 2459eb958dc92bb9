//! Regenerates Figure 5 (the user study).
use dex_experiments::out;
fn main() {
    let telemetry = dex_experiments::TelemetryRun::from_env();
    let ctx = dex_experiments::Context::build(&dex_experiments::FaultConfig::from_env());
    out!("{}", dex_experiments::experiments::figure5(&ctx));
    telemetry.finish("exp_figure5");
}
