//! # dex-telemetry
//!
//! Observability substrate for the data-examples pipeline: lightweight
//! spans, a process-global metrics registry, a flight recorder, and a
//! JSON-exportable [`RunReport`].
//!
//! The whole crate is gated on one process-global `enabled` flag. When
//! telemetry is **off** (the default) every instrumentation call reduces to
//! a single relaxed atomic load and an early return, so instrumented hot
//! paths pay effectively nothing. When it is **on**:
//!
//! * [`span`] pushes a fixed-size entry onto a thread-local span stack; on
//!   RAII-guard drop the span closes into a flat per-thread buffer, which
//!   joins one global list when the thread's outermost span closes. Spans
//!   carry process-unique ids, parent ids, and monotonic start offsets; a
//!   span's parent is the innermost span open on its own thread.
//!   [`collect`] rebuilds the [`SpanRecord`] forest by parent id.
//! * [`flight`] records incidents (retries, fault injections, withdrawals,
//!   deltas, panics) into a fixed-capacity ring behind a plain lock;
//!   [`dump_flight`] writes the recent window to `FLIGHT.json` as a
//!   post-mortem on panic or module withdrawal. A healthy run records none.
//! * [`trace::chrome_trace_json`] exports the stitched span forest as
//!   Perfetto-loadable Chrome trace JSON; [`RunReport`] additionally carries
//!   flamegraph folded stacks and p50/p95/p99 histogram percentiles.
//! * [`counter_add`] / [`observe_ns`] update atomics inside a read-mostly
//!   registry, so concurrent increments (`dexd`'s connection threads) never
//!   lose updates.
//!
//! [`collect`] snapshots everything into a serde-serializable [`RunReport`];
//! the experiment binaries write it to `TELEMETRY.json`.
//!
//! Zero external dependencies beyond the workspace's serde/serde_json shims,
//! matching the offline build constraint.

mod flight;
mod metrics;
mod report;
mod span;
pub mod trace;

pub use flight::{
    dump_flight, dump_flight_fallback, flight, flight_snapshot, flight_total, set_flight_path,
    FlightDump, FlightEvent, FlightKind, FLIGHT_CAPACITY,
};
pub use metrics::{
    counter, counter_add, counter_value, histogram, observe_ns, Counter, Histo, Histogram,
    HistogramSnapshot, TimedGuard,
};
pub use report::{collect, RunReport};
pub use span::{span, SpanGuard, SpanRecord};
pub use trace::{chrome_trace, chrome_trace_from_json, chrome_trace_json, validate_chrome_trace};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static STARTED_AT: Mutex<Option<Instant>> = Mutex::new(None);

/// Turns telemetry on. Also stamps the wall-clock origin reported as
/// `wall_ms` by [`collect`]. Idempotent; re-enabling does not reset state
/// (use [`reset`] for that).
pub fn enable() {
    let mut started = lock(&STARTED_AT);
    if started.is_none() {
        *started = Some(Instant::now());
    }
    ENABLED.store(true, Ordering::Release);
}

/// Turns telemetry off. Already-recorded data is kept and still collectable;
/// spans opened while enabled finish recording even if dropped after
/// disabling, so the span stack cannot be corrupted by a mid-run toggle.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether telemetry is currently recording.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clears every metric, span, and flight event, and restarts the wall
/// clock. The enabled flag is left as-is.
pub fn reset() {
    metrics::reset();
    span::reset();
    flight::reset();
    *lock(&STARTED_AT) = Some(Instant::now());
}

/// Milliseconds since [`enable`] (or the last [`reset`]); `0.0` if telemetry
/// was never enabled.
pub fn wall_ms() -> f64 {
    lock(&STARTED_AT)
        .map(|t| t.elapsed().as_secs_f64() * 1_000.0)
        .unwrap_or(0.0)
}

/// Locks a mutex, riding through poisoning: telemetry must never turn a
/// panicking test into a cascade of secondary panics.
pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
pub(crate) mod testing {
    use std::sync::Mutex;

    /// All unit tests touching the process-global subscriber serialize on
    /// this lock (the test harness runs them on parallel threads).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    pub fn guard() -> std::sync::MutexGuard<'static, ()> {
        super::lock(&TEST_LOCK)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_toggles() {
        let _g = testing::guard();
        disable();
        assert!(!is_enabled());
        enable();
        assert!(is_enabled());
        assert!(wall_ms() >= 0.0);
        disable();
        assert!(!is_enabled());
    }

    #[test]
    fn reset_clears_all_stores() {
        let _g = testing::guard();
        enable();
        reset();
        counter_add("lib.reset.c", 3);
        observe_ns("lib.reset.h", 500);
        {
            let _s = span("lib.reset.span");
        }
        let before = collect("before-reset");
        assert_eq!(before.counters.get("lib.reset.c"), Some(&3));
        reset();
        let report = collect("after-reset");
        assert!(report.counters.is_empty());
        assert!(report.histograms.is_empty());
        assert!(report.spans.is_empty());
        disable();
    }
}
