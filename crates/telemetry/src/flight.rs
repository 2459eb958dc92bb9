//! Flight recorder: a fixed-capacity ring of recent incidents, dumped as a
//! post-mortem (`FLIGHT.json`) when something goes wrong — a panic, or
//! graceful degradation withdrawing a module.
//!
//! Only incidents are recorded: retries, exhausted retries, injected
//! faults, withdrawals, applied deltas and panics. A healthy invocation is
//! counted by the `dex.invoke.*` counters, not recorded here, so a
//! fault-free run leaves the ring empty and writes no post-mortem.
//!
//! The ring is one `Mutex` around a `VecDeque` capped at
//! [`FLIGHT_CAPACITY`], plus the running total. [`flight`] builds the event
//! before taking the lock and drops a displaced event after releasing it,
//! so nothing inside the critical section can panic: the panic hook's
//! [`dump_flight`] never finds the lock held by its own thread. A snapshot
//! clones the deque, which is already in `seq` order.
//!
//! Recording is gated on the global telemetry flag: while it is off, call
//! sites check [`crate::is_enabled`] and skip even the `String` formatting,
//! so disabled runs stay allocation-free.

use crate::{is_enabled, lock};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Ring capacity. 1024 events cover the recent-history window that makes a
/// seeded-fault post-mortem readable (several full retry storms plus the
/// deltas and withdrawals around them) while bounding memory to ~100 KiB.
pub const FLIGHT_CAPACITY: usize = 1024;

/// What kind of incident the recorder captured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlightKind {
    /// A retry was scheduled after a transient failure (`value` = attempt).
    Retry,
    /// Retries gave up: every attempt the policy grants failed transiently.
    RetryExhausted,
    /// The fault injector fired (`detail` says what it injected).
    FaultInjected,
    /// Graceful degradation withdrew a module from the run.
    ModuleWithdrawn,
    /// The incremental pipeline applied a registry delta.
    DeltaApplied,
    /// A panic unwound through the telemetry panic hook.
    Panic,
}

/// One recorded moment.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Process-wide record order across threads.
    pub seq: u64,
    /// Event category.
    pub kind: FlightKind,
    /// The entity involved, usually a module id.
    pub target: String,
    /// Free-form context (injected error, delta description…).
    pub detail: String,
    /// Kind-specific magnitude (attempt number, tick…).
    pub value: u64,
}

/// The serialized post-mortem artifact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Why the dump was taken ("panic", "module withdrawn", "run end"…).
    pub reason: String,
    /// Total events ever recorded; anything beyond the ring capacity was
    /// overwritten before this dump.
    pub total_recorded: u64,
    /// The surviving window, in `seq` order.
    pub events: Vec<FlightEvent>,
}

impl FlightDump {
    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Parses a dump back from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<FlightDump> {
        serde_json::from_str(json)
    }
}

/// The newest [`FLIGHT_CAPACITY`] events and the count of all ever recorded.
#[derive(Default)]
struct Ring {
    events: VecDeque<FlightEvent>,
    total: u64,
}

static RING: Mutex<Ring> = Mutex::new(Ring {
    events: VecDeque::new(),
    total: 0,
});
static DUMP_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);
static DUMPED: AtomicBool = AtomicBool::new(false);

/// Records one event into the ring, displacing the oldest once the ring is
/// full. No-op while telemetry is disabled.
pub fn flight(kind: FlightKind, target: &str, detail: String, value: u64) {
    if !is_enabled() {
        return;
    }
    let mut event = FlightEvent {
        seq: 0,
        kind,
        target: target.to_string(),
        detail,
        value,
    };
    let displaced = {
        let mut ring = lock(&RING);
        event.seq = ring.total;
        ring.total += 1;
        let displaced = if ring.events.len() == FLIGHT_CAPACITY {
            ring.events.pop_front()
        } else {
            None
        };
        ring.events.push_back(event);
        displaced
    };
    drop(displaced);
}

/// Total events ever recorded (including overwritten ones).
pub fn flight_total() -> u64 {
    lock(&RING).total
}

/// Clones the surviving window, in `seq` order.
pub fn flight_snapshot() -> Vec<FlightEvent> {
    lock(&RING).events.iter().cloned().collect()
}

/// Sets (or clears) the file the next [`dump_flight`] writes to.
pub fn set_flight_path(path: Option<PathBuf>) {
    *lock(&DUMP_PATH) = path;
}

/// Writes the current window to the configured dump path as a
/// [`FlightDump`]. Returns `true` when a non-empty dump was written.
/// No-op (returns `false`) when no path is configured or no events exist —
/// post-mortems are only useful when there is history to show.
///
/// This function runs inside the chained panic hook, so it is *infallible
/// by construction*: any serialization or IO failure is reported to stderr
/// (best-effort — even the report cannot panic) and swallowed, because a
/// panic here would turn a recoverable unwind into a double-panic abort
/// that loses the post-mortem entirely.
pub fn dump_flight(reason: &str) -> bool {
    let Some(path) = lock(&DUMP_PATH).clone() else {
        return false;
    };
    let events = flight_snapshot();
    if events.is_empty() {
        return false;
    }
    let dump = FlightDump {
        reason: reason.to_string(),
        total_recorded: flight_total(),
        events,
    };
    let json = match dump.to_json() {
        Ok(json) => json,
        Err(e) => {
            best_effort_stderr(&format!("flight recorder: cannot serialize dump: {e}"));
            return false;
        }
    };
    match std::fs::write(&path, json) {
        Ok(()) => {
            DUMPED.store(true, Ordering::Relaxed);
            true
        }
        Err(e) => {
            best_effort_stderr(&format!(
                "flight recorder: cannot write {}: {e}",
                path.display()
            ));
            false
        }
    }
}

/// Stderr reporting that can never panic: `eprintln!` panics when stderr is
/// unwritable, which on the dump path would escalate into an abort.
fn best_effort_stderr(msg: &str) {
    use std::io::Write as _;
    let _ = writeln!(std::io::stderr(), "{msg}");
}

/// Run-end variant of [`dump_flight`] that never clobbers an earlier
/// post-mortem: a dump taken at a panic or withdrawal holds the window
/// *around the incident*, which a later run-end window would overwrite.
pub fn dump_flight_fallback(reason: &str) -> bool {
    if DUMPED.load(Ordering::Relaxed) {
        return false;
    }
    dump_flight(reason)
}

pub(crate) fn reset() {
    // Taken under the lock, dropped after it is released.
    let cleared = std::mem::take(&mut *lock(&RING));
    drop(cleared);
    DUMPED.store(false, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;

    #[test]
    fn records_in_order_and_snapshots_nondestructively() {
        let _g = testing::guard();
        crate::enable();
        crate::reset();
        for i in 0..5 {
            flight(FlightKind::Retry, "m1", format!("ok {i}"), i);
        }
        let first = flight_snapshot();
        assert_eq!(first.len(), 5);
        assert!(first.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(first[4].detail, "ok 4");
        // Snapshot left the ring intact.
        let second = flight_snapshot();
        assert_eq!(first, second);
        assert_eq!(flight_total(), 5);
        crate::disable();
    }

    #[test]
    fn ring_keeps_only_the_newest_window() {
        let _g = testing::guard();
        crate::enable();
        crate::reset();
        let extra = 7u64;
        for i in 0..(FLIGHT_CAPACITY as u64 + extra) {
            flight(FlightKind::Retry, "m", String::new(), i);
        }
        let events = flight_snapshot();
        assert_eq!(events.len(), FLIGHT_CAPACITY);
        assert_eq!(events[0].seq, extra, "oldest events were displaced");
        assert_eq!(flight_total(), FLIGHT_CAPACITY as u64 + extra);
        crate::disable();
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let _g = testing::guard();
        crate::enable();
        crate::reset();
        crate::disable();
        flight(FlightKind::Panic, "x", "dropped".into(), 0);
        assert!(flight_snapshot().is_empty());
        assert_eq!(flight_total(), 0);
    }

    #[test]
    fn concurrent_writers_lose_no_slots() {
        let _g = testing::guard();
        crate::enable();
        crate::reset();
        let threads = 8;
        let per_thread = 100; // total 800 < capacity: nothing displaced
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || {
                    for i in 0..per_thread {
                        flight(FlightKind::Retry, "t", String::new(), t * 1000 + i);
                    }
                });
            }
        });
        let events = flight_snapshot();
        assert_eq!(events.len(), (threads * per_thread) as usize);
        // Every ticket exactly once.
        assert!(events.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        crate::disable();
    }

    #[test]
    fn dump_writes_configured_path() {
        let _g = testing::guard();
        crate::enable();
        crate::reset();
        let path = std::env::temp_dir().join("dex_flight_test.json");
        set_flight_path(Some(path.clone()));
        assert!(!dump_flight("empty"), "no events, no dump");
        flight(FlightKind::FaultInjected, "m7", "injected fault".into(), 3);
        flight(FlightKind::ModuleWithdrawn, "m7", "gave up".into(), 0);
        assert!(dump_flight("module withdrawn"));
        let dump = FlightDump::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(dump.reason, "module withdrawn");
        assert_eq!(dump.total_recorded, 2);
        assert_eq!(dump.events.len(), 2);
        assert_eq!(dump.events[0].kind, FlightKind::FaultInjected);
        assert_eq!(dump.events[1].kind, FlightKind::ModuleWithdrawn);
        let _ = std::fs::remove_file(&path);
        set_flight_path(None);
        crate::disable();
    }

    #[test]
    fn dump_into_unwritable_directory_fails_without_panicking() {
        let _g = testing::guard();
        crate::enable();
        crate::reset();
        flight(FlightKind::Panic, "m", "incident".into(), 0);
        // Point the dump at a directory that does not exist: the write must
        // fail, be reported, and leave the sticky dump flag unset so a
        // later dump to a good path still lands.
        let bad = std::env::temp_dir()
            .join("dex_flight_no_such_dir")
            .join("FLIGHT.json");
        set_flight_path(Some(bad));
        assert!(!dump_flight("panic"), "unwritable path cannot dump");
        let good = std::env::temp_dir().join("dex_flight_recovered.json");
        set_flight_path(Some(good.clone()));
        assert!(
            dump_flight_fallback("run end"),
            "failed dump must not mark the incident as dumped"
        );
        let dump = FlightDump::from_json(&std::fs::read_to_string(&good).unwrap()).unwrap();
        assert_eq!(dump.reason, "run end");
        let _ = std::fs::remove_file(&good);
        set_flight_path(None);
        crate::disable();
    }
}
