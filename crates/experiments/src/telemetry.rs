//! Opt-in telemetry for the experiment binaries.
//!
//! Every binary calls [`TelemetryRun::from_env`] first thing in `main`.
//! When the run was started with `--telemetry[=PATH]` (or the
//! `DEX_TELEMETRY` environment variable), the global `dex-telemetry`
//! subscriber is enabled and [`TelemetryRun::finish`] writes the collected
//! [`dex_telemetry::RunReport`] as pretty-printed JSON — `TELEMETRY.json`
//! by default, analogous to `BENCH_matching.json` for the perf trajectory.
//! Without the flag everything stays disabled and the binaries behave
//! exactly as before.
//!
//! Switches (each also accepts `--flag PATH` as two arguments):
//!
//! * `--telemetry[=PATH]` / `DEX_TELEMETRY` — enable, write the run report.
//! * `--telemetry-out=PATH` / `DEX_TELEMETRY_OUT` — override the report
//!   path (implies `--telemetry`), so concurrent CI jobs and bench runs
//!   don't clobber each other's `TELEMETRY.json`.
//! * `--trace-out=PATH` / `DEX_TRACE_OUT` — also export the span forest as
//!   Perfetto-loadable Chrome trace JSON (implies enabling telemetry).
//! * `--flight-out=PATH` / `DEX_FLIGHT_OUT` — where flight-recorder
//!   post-mortems land (`FLIGHT.json` by default whenever telemetry is on).
//!
//! While telemetry is active a panic hook captures the flight-recorder
//! window to the flight path before unwinding continues, so a crashed
//! seeded-fault run leaves a post-mortem instead of a mystery.

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

    /// Parses the recognized switches out of `args` (`--flag=value` and
    /// `--flag value` forms both accepted), falling back to the environment
    /// via `env` for unset options.
    pub fn parse(args: &[String], env: &dyn Fn(&str) -> Option<String>) -> RunOptions {
        let mut options = RunOptions::default();
        let mut out_override: Option<PathBuf> = None;
        let mut i = 0;
        // `--flag value`: consume the next argument when it isn't a switch.
        let value_after = |args: &[String], i: usize| -> Option<(PathBuf, usize)> {
            match args.get(i + 1) {
                Some(next) if !next.starts_with("--") => Some((PathBuf::from(next), i + 1)),
                _ => None,
            }
        };
        while i < args.len() {
            let arg = &args[i];
            if arg == "--telemetry" {
                options.telemetry = Some(PathBuf::from(DEFAULT_PATH));
            } else if let Some(p) = arg.strip_prefix("--telemetry=") {
                options.telemetry = Some(PathBuf::from(p));
            } else if let Some(p) = arg.strip_prefix("--telemetry-out=") {
                out_override = Some(PathBuf::from(p));
            } else if arg == "--telemetry-out" {
                if let Some((p, next)) = value_after(args, i) {
                    out_override = Some(p);
                    i = next;
                }
            } else if let Some(p) = arg.strip_prefix("--trace-out=") {
                options.trace = Some(PathBuf::from(p));
            } else if arg == "--trace-out" {
                if let Some((p, next)) = value_after(args, i) {
                    options.trace = Some(p);
                    i = next;
                }
            } else if let Some(p) = arg.strip_prefix("--flight-out=") {
                options.flight = Some(PathBuf::from(p));
            } else if arg == "--flight-out" {
                if let Some((p, next)) = value_after(args, i) {
                    options.flight = Some(p);
                    i = next;
                }
            }
            i += 1;
        }
        if options.telemetry.is_none() {
            if let Some(v) = env("DEX_TELEMETRY") {
                if !v.is_empty() && v != "0" {
                    options.telemetry = Some(if v == "1" {
                        PathBuf::from(DEFAULT_PATH)
                    } else {
                        PathBuf::from(v)
                    });
                }
            }
        }
        if out_override.is_none() {
            out_override = env("DEX_TELEMETRY_OUT")
                .filter(|v| !v.is_empty())
                .map(PathBuf::from);
        }
        if let Some(out) = out_override {
            // An explicit output path is a request for the report.
            options.telemetry = Some(out);
        }
        if options.trace.is_none() {
            options.trace = env("DEX_TRACE_OUT")
                .filter(|v| !v.is_empty())
                .map(PathBuf::from);
        }
        if options.flight.is_none() {
            options.flight = env("DEX_FLIGHT_OUT")
                .filter(|v| !v.is_empty())
                .map(PathBuf::from);
        }
        options
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
    /// Parses the process arguments and environment, enabling telemetry
    /// (and the flight-recorder dump path + panic hook) if requested.
    pub fn from_env() -> TelemetryRun {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let options = RunOptions::parse(&args, &|name| std::env::var(name).ok());
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
                if dex_telemetry::flight_on() {
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

    fn no_env(_: &str) -> Option<String> {
        None
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn inactive_without_flag_or_env() {
        let options = RunOptions::parse(&args(&["--fault-rate=10"]), &no_env);
        assert!(!options.is_active());
        // The process-level wrapper is equally inert (guard against ambient
        // env from the caller's shell).
        if std::env::var("DEX_TELEMETRY").is_ok()
            || std::env::var("DEX_TELEMETRY_OUT").is_ok()
            || std::env::var("DEX_TRACE_OUT").is_ok()
        {
            return;
        }
        let run = TelemetryRun::from_env();
        assert!(!run.is_active());
        run.finish("noop"); // must be a no-op without the flag
    }

    #[test]
    fn telemetry_flag_forms() {
        let options = RunOptions::parse(&args(&["--telemetry"]), &no_env);
        assert_eq!(options.telemetry, Some(PathBuf::from(DEFAULT_PATH)));
        let options = RunOptions::parse(&args(&["--telemetry=custom.json"]), &no_env);
        assert_eq!(options.telemetry, Some(PathBuf::from("custom.json")));
    }

    #[test]
    fn telemetry_out_overrides_and_implies_telemetry() {
        let options = RunOptions::parse(&args(&["--telemetry-out", "job7.json"]), &no_env);
        assert_eq!(options.telemetry, Some(PathBuf::from("job7.json")));
        assert!(options.is_active());
        let options = RunOptions::parse(
            &args(&["--telemetry", "--telemetry-out=job8.json"]),
            &no_env,
        );
        assert_eq!(options.telemetry, Some(PathBuf::from("job8.json")));
        // Env fallback.
        let env = |name: &str| (name == "DEX_TELEMETRY_OUT").then(|| "env.json".to_string());
        let options = RunOptions::parse(&[], &env);
        assert_eq!(options.telemetry, Some(PathBuf::from("env.json")));
    }

    #[test]
    fn trace_and_flight_paths_parse_in_both_forms() {
        let options = RunOptions::parse(
            &args(&["--trace-out", "t.json", "--flight-out=f.json"]),
            &no_env,
        );
        assert_eq!(options.trace, Some(PathBuf::from("t.json")));
        assert_eq!(options.flight, Some(PathBuf::from("f.json")));
        assert!(options.is_active(), "trace export implies telemetry");
        assert!(options.telemetry.is_none(), "but not the report artifact");
        // A dangling `--trace-out` followed by another switch takes nothing.
        let options = RunOptions::parse(&args(&["--trace-out", "--telemetry"]), &no_env);
        assert!(options.trace.is_none());
        assert!(options.telemetry.is_some());
        // Env fallbacks.
        let env = |name: &str| match name {
            "DEX_TRACE_OUT" => Some("env-trace.json".to_string()),
            "DEX_FLIGHT_OUT" => Some("env-flight.json".to_string()),
            _ => None,
        };
        let options = RunOptions::parse(&[], &env);
        assert_eq!(options.trace, Some(PathBuf::from("env-trace.json")));
        assert_eq!(options.flight, Some(PathBuf::from("env-flight.json")));
    }
}
