//! The `dexd` daemon: build the operating state once, serve the registry
//! protocol on a Unix socket until a `Shutdown` request arrives.
//!
//! Usage:
//!   cargo run --release -p dexd --bin dexd -- \
//!     [--socket PATH] [--scale N] [--seed N] [--queue N] [--pool-depth N] \
//!     [--telemetry[=OUT]] [--trace-out PATH] [--flight-out PATH]
//!
//! `--scale 0` (the default) serves the paper's byte-frozen 252-module
//! profile; any other value builds a heavy-tailed scaled universe of that
//! many modules. The telemetry flags are shared with the experiment bins:
//! `--trace-out` exports a Chrome trace of the launch and delta spans on
//! exit; per-request latency is in the `dex.dexd.<endpoint>_ns` histograms.
//! `--telemetry` takes its path only as `--telemetry=OUT`.
//!
//! Talk to it with `dexd::SocketClient` or any client that frames JSON as
//! `proto` documents (length-prefixed, little-endian `u32`).

use dex_experiments::telemetry::TelemetryRun;
use dexd::{serve_unix, Dexd, ServiceConfig};
use std::path::PathBuf;

/// Parses the daemon's own options into the socket path and service
/// configuration. The telemetry options belong to `TelemetryRun::from_env`
/// and are skipped here, together with the separate path that only
/// `--trace-out` and `--flight-out` accept.
fn parse_args(args: &[String]) -> Result<(PathBuf, ServiceConfig), String> {
    let mut socket = PathBuf::from("/tmp/dexd.sock");
    let mut cfg = ServiceConfig::default();
    let mut args = args.iter().peekable();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--socket" => socket = PathBuf::from(value()?),
            "--scale" => cfg.scale = number(arg, value()?)?,
            "--seed" => cfg.seed = number(arg, value()?)?,
            "--queue" => cfg.queue_capacity = positive(arg, value()?)?,
            "--pool-depth" => cfg.pool_depth = positive(arg, value()?)?,
            "--trace-out" | "--flight-out" => {
                args.next_if(|next| !next.starts_with("--"));
            }
            "--telemetry" => {}
            other
                if ["--telemetry=", "--trace-out=", "--flight-out="]
                    .iter()
                    .any(|prefix| other.starts_with(prefix)) => {}
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((socket, cfg))
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: `{text}` is not an integer"))
}

/// A count that must be at least 1: a queue of 0 would refuse every
/// request, and a pool depth of 0 would leave every partition unrealized.
fn positive(flag: &str, text: &str) -> Result<usize, String> {
    match number(flag, text)? {
        0 => Err(format!("{flag}: `{text}` must be at least 1")),
        n => Ok(n),
    }
}

fn main() {
    let run = TelemetryRun::from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (socket, cfg) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("dexd: {e}");
        std::process::exit(2);
    });

    eprintln!(
        "dexd: building operating state (scale {}, seed {})...",
        cfg.scale, cfg.seed
    );
    let svc = Dexd::launch(&cfg);
    eprintln!(
        "dexd: serving {} modules on {} (queue {}, bootstrap {:.0} ms)",
        svc.tracked_ids().len(),
        socket.display(),
        cfg.queue_capacity,
        svc.bootstrap_ms()
    );
    if let Err(e) = serve_unix(svc.clone(), &socket) {
        eprintln!("dexd: socket error: {e}");
    }
    svc.shutdown();
    svc.join();
    eprintln!("dexd: stopped");
    run.finish("dexd");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn bare_telemetry_takes_no_separate_path() {
        let err = parse_args(&args(&["--telemetry", "out.json"])).unwrap_err();
        assert_eq!(err, "unknown argument `out.json`");
    }

    #[test]
    fn telemetry_options_are_skipped_with_their_paths() {
        let (socket, cfg) = parse_args(&args(&[
            "--trace-out",
            "t.json",
            "--flight-out",
            "f.json",
            "--telemetry=r.json",
            "--scale",
            "100",
            "--socket",
            "d.sock",
        ]))
        .unwrap();
        assert_eq!(cfg.scale, 100);
        assert_eq!(socket, PathBuf::from("d.sock"));
        assert!(parse_args(&args(&["--seed", "x"])).is_err());
        assert!(parse_args(&args(&["--queue"])).is_err());
        assert_eq!(
            parse_args(&args(&["--queue", "0"])).unwrap_err(),
            "--queue: `0` must be at least 1"
        );
        assert_eq!(
            parse_args(&args(&["--pool-depth", "0"])).unwrap_err(),
            "--pool-depth: `0` must be at least 1"
        );
    }
}
