//! Opt-in telemetry for the experiment binaries.
//!
//! Every binary calls [`TelemetryRun::from_env`] first thing in `main`.
//! When the run was started with `--telemetry[=PATH]`, the global
//! `dex-telemetry` subscriber is enabled and [`TelemetryRun::finish`]
//! writes the collected [`dex_telemetry::RunReport`] as pretty-printed JSON
//! — `TELEMETRY.json` by default.
//! Without the flag everything stays disabled and the binaries behave
//! exactly as before. Options are read from the command line only.
//!
//! Switches:
//!
//! * `--telemetry[=PATH]` — enable, write the run report.
//! * `--trace-out=PATH` — also export the span forest as Perfetto-loadable
//!   Chrome trace JSON (implies enabling telemetry).
//! * `--flight-out=PATH` — where flight-recorder post-mortems land
//!   (`FLIGHT.json` by default whenever telemetry is on).
//!
//! `--trace-out` and `--flight-out` also accept their path as the next
//! argument, and a run that names either without a path stops with exit
//! status 2; `--telemetry` takes one only after `=`.
//!
//! While telemetry is active a panic hook captures the flight-recorder
//! window to the flight path before unwinding continues, so a crashed
//! seeded-fault run leaves a post-mortem instead of a mystery. A run that
//! records no incident writes no post-mortem.

use crate::flags::flag_value;
use std::path::PathBuf;

/// Default run-report artifact path, relative to the working directory.
pub const DEFAULT_PATH: &str = "TELEMETRY.json";

/// Default flight-recorder post-mortem path.
pub const DEFAULT_FLIGHT_PATH: &str = "FLIGHT.json";

/// The fully parsed telemetry-related options of one run. Pure data —
/// [`RunOptions::parse`] touches no globals, so tests can drive it with
/// synthetic argument lists.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Run-report path, when the report was requested.
    pub telemetry: Option<PathBuf>,
    /// Chrome trace export path, when requested.
    pub trace: Option<PathBuf>,
    /// Flight-recorder dump path override.
    pub flight: Option<PathBuf>,
}

impl RunOptions {
    /// Whether any option turns the telemetry subscriber on.
    pub fn is_active(&self) -> bool {
        self.telemetry.is_some() || self.trace.is_some()
    }

    /// Parses the recognized switches out of `args`; other arguments are
    /// ignored. Errs, naming the flag, when `--trace-out` or `--flight-out`
    /// has no path.
    pub fn parse(args: &[String]) -> Result<RunOptions, String> {
        let telemetry = args.iter().rev().find_map(|arg| {
            if arg == "--telemetry" {
                Some(PathBuf::from(DEFAULT_PATH))
            } else {
                arg.strip_prefix("--telemetry=").map(PathBuf::from)
            }
        });
        Ok(RunOptions {
            telemetry,
            trace: flag_value(args, "--trace-out")?,
            flight: flag_value(args, "--flight-out")?,
        })
    }
}

/// Handle for one instrumented experiment run.
///
/// Holds the output paths when telemetry was requested; dropping it without
/// calling [`finish`](TelemetryRun::finish) writes nothing.
pub struct TelemetryRun {
    options: RunOptions,
}

impl TelemetryRun {
    /// Parses the process arguments, enabling telemetry (and the
    /// flight-recorder dump path + panic hook) if requested. A parse error
    /// is printed and the process exits with status 2.
    pub fn from_env() -> TelemetryRun {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let options = RunOptions::parse(&args).unwrap_or_else(|error| {
            eprintln!("error: {error}");
            std::process::exit(2)
        });
        if options.is_active() {
            dex_telemetry::enable();
            let flight = options
                .flight
                .clone()
                .unwrap_or_else(|| PathBuf::from(DEFAULT_FLIGHT_PATH));
            dex_telemetry::set_flight_path(Some(flight));
            install_flight_panic_hook();
        }
        TelemetryRun { options }
    }

    /// Whether this run records telemetry.
    pub fn is_active(&self) -> bool {
        self.options.is_active()
    }

    /// Collects the run report under `label` and writes the requested
    /// artifacts: the report JSON, the Chrome trace, and (when no
    /// post-mortem was already taken) the flight window.
    ///
    /// No-op when telemetry was not requested. IO or serialization problems
    /// are reported on stderr instead of failing the experiment — the tables
    /// were already printed by then.
    pub fn finish(self, label: &str) {
        if !self.options.is_active() {
            return;
        }
        let report = dex_telemetry::collect(label);
        if let Some(path) = &self.options.telemetry {
            match report.to_json() {
                Ok(json) => {
                    if let Err(e) = std::fs::write(path, json + "\n") {
                        eprintln!("telemetry: cannot write {}: {e}", path.display());
                    } else {
                        eprintln!(
                            "telemetry: wrote {} ({} spans, {} counters)",
                            path.display(),
                            report.span_count(),
                            report.counters.len()
                        );
                    }
                }
                Err(e) => eprintln!("telemetry: cannot serialize report: {e}"),
            }
        }
        if let Some(path) = &self.options.trace {
            match dex_telemetry::chrome_trace_json(&report) {
                Ok(json) => {
                    if let Err(e) = std::fs::write(path, json + "\n") {
                        eprintln!("telemetry: cannot write trace {}: {e}", path.display());
                    } else {
                        eprintln!(
                            "telemetry: wrote {} ({} trace events)",
                            path.display(),
                            report.span_count()
                        );
                    }
                }
                Err(e) => eprintln!("telemetry: cannot serialize trace: {e}"),
            }
        }
        if dex_telemetry::dump_flight_fallback("run end") {
            eprintln!("telemetry: wrote flight-recorder window (run end)");
        }
    }
}

/// Chains a panic hook that captures the flight window before unwinding:
/// the hook records the panic itself as a flight event, dumps to the
/// configured flight path, then defers to the previous hook. Installed once
/// per process.
///
/// The capture path is hardened against double panics: a panic raised
/// *inside* the capture (a poisoned lock, an allocation failure, a bug in
/// the dump path) re-enters this hook, where a thread-local guard makes the
/// re-entry skip straight to the previous hook, and the surrounding
/// `catch_unwind` contains the inner unwind — so the original panic still
/// unwinds normally instead of aborting the process and losing the
/// post-mortem.
pub fn install_flight_panic_hook() {
    static HOOKED: std::sync::Once = std::sync::Once::new();
    HOOKED.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            thread_local! {
                static IN_HOOK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
            }
            let first_entry = IN_HOOK.with(|in_hook| !in_hook.replace(true));
            if first_entry {
                if dex_telemetry::is_enabled() {
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        dex_telemetry::flight(
                            dex_telemetry::FlightKind::Panic,
                            "panic",
                            info.to_string(),
                            0,
                        );
                        dex_telemetry::dump_flight("panic");
                    }));
                }
                IN_HOOK.with(|in_hook| in_hook.set(false));
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn inactive_without_flag_or_env() {
        let options = RunOptions::parse(&args(&["--fault-rate=10"])).unwrap();
        assert!(!options.is_active());
        // The process-level wrapper is equally inert.
        let run = TelemetryRun::from_env();
        assert!(!run.is_active());
        run.finish("noop"); // must be a no-op without the flag
    }

    #[test]
    fn telemetry_flag_forms() {
        let options = RunOptions::parse(&args(&["--telemetry"])).unwrap();
        assert_eq!(options.telemetry, Some(PathBuf::from(DEFAULT_PATH)));
        let options = RunOptions::parse(&args(&["--telemetry=custom.json"])).unwrap();
        assert_eq!(options.telemetry, Some(PathBuf::from("custom.json")));
    }

    #[test]
    fn trace_and_flight_paths_parse_in_both_forms() {
        let options =
            RunOptions::parse(&args(&["--trace-out", "t.json", "--flight-out=f.json"])).unwrap();
        assert_eq!(options.trace, Some(PathBuf::from("t.json")));
        assert_eq!(options.flight, Some(PathBuf::from("f.json")));
        assert!(options.is_active(), "trace export implies telemetry");
        assert!(options.telemetry.is_none(), "but not the report artifact");
        // A dangling `--trace-out` followed by another switch is an error.
        let error = RunOptions::parse(&args(&["--trace-out", "--telemetry"]));
        assert_eq!(error, Err("--trace-out needs a value".to_string()));
        let error = RunOptions::parse(&args(&["--telemetry", "--flight-out"]));
        assert_eq!(error, Err("--flight-out needs a value".to_string()));
    }
}
