//! The host block every output carries: a number counts only together with
//! the machine, build and run shape that produced it.

use serde::Serialize;
use std::path::Path;
use std::process::{Command, Stdio};

/// Where and how a run was measured.
#[derive(Clone, Serialize)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// The checkout's commit, or `unknown` outside a git checkout.
    pub commit: String,
    pub seed: u64,
    /// Modules in the served world (`serve_read`, `serve_mixed`).
    pub serve_scale: usize,
    /// Modules in the maintained registry (`registry_churn`).
    pub churn_scale: usize,
    /// Service worker threads (equal to `cores`).
    pub workers: usize,
    /// Load-generator threads, one socket connection each.
    pub client_threads: usize,
    pub warmup_s: f64,
    pub measure_s: f64,
    /// Set-ups per run behind the `setup_s` median.
    pub setups: usize,
    pub smoke: bool,
}

impl Host {
    /// `# host {...}`, the first line of every run's output.
    pub fn line(&self) -> String {
        format!("# host {}", crate::report::to_json(self))
    }
}

/// Cores the process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The build profile this binary was compiled with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// `git rev-parse HEAD` in the working directory, or `unknown` when that
/// fails. Git looks for a repository in the working directory only, never in
/// the directories above it.
pub fn commit() -> String {
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null());
    if let Some(parent) = std::env::current_dir()
        .ok()
        .as_deref()
        .and_then(Path::parent)
    {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    git.output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|hash| hash.trim().to_string())
        .filter(|hash| !hash.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
