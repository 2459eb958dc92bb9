//! Causal spans over a thread-local stack.
//!
//! [`span`] opens a span and returns an RAII [`SpanGuard`]; dropping the
//! guard closes the span. Every span carries a process-unique id, its
//! parent's id, a monotonic start offset from the process trace origin, and
//! the id of the thread that opened it. The clock is read once when a span
//! opens and once when it closes.
//!
//! Recording is flat. The thread-local stack holds fixed-size `Copy`
//! entries; a closing span becomes one flat entry in the thread's buffer,
//! and when the thread's outermost span closes the buffer is appended to one
//! global list under a single lock. The guard remembers the stack depth it
//! opened at, so spans close correctly even when a panic unwinds through
//! several guards or an inner guard is leaked with `mem::forget`: any
//! descendants still open above the closing guard close at the same
//! instant.
//!
//! Nesting is rebuilt only by [`crate::collect`]. Each entry hangs under the
//! entry its `parent_id` names, and entries whose parent never closed stay
//! roots. A span's parent is the innermost span open on its own thread, so
//! a thread's outermost span is a root: every traced operation (an
//! experiment phase, a `dexd` request) runs start to finish on the thread
//! that opened it, and the spans of the incremental engine's bootstrap
//! workers are roots on their own tracks.

use crate::{is_enabled, lock};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One completed span: identity, timing, and nested children.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Process-unique span id, allocated at open time from a monotonic
    /// counter (so `id` order is open order, and a parent's id is always
    /// smaller than any descendant's).
    pub id: u64,
    /// Id of the enclosing span on the same thread; `0` for a root.
    pub parent_id: u64,
    /// The name given to [`span`].
    pub name: String,
    /// Nanoseconds from the process trace origin to this span's open.
    pub start_ns: u64,
    /// Wall-clock duration, nanoseconds (monotonic clock).
    pub duration_ns: u64,
    /// Small dense id of the thread that opened the span (trace track).
    pub thread: u64,
    /// Spans that closed while this one was open, in open (= id) order.
    pub children: Vec<SpanRecord>,
}

impl SpanRecord {
    /// Total number of spans in this subtree, including `self`.
    pub fn tree_size(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(SpanRecord::tree_size)
            .sum::<usize>()
    }
}

/// Nanoseconds since the process trace origin, which is fixed at the first
/// call and never rebased: offsets stay mutually comparable across
/// [`crate::reset`] (the exporter normalizes to the earliest span when
/// writing a trace).
fn clock_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Span ids start at 1; 0 is the "no parent" sentinel. Never restarted, so
/// a span still open across a reset cannot share an id with one opened
/// after it.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

/// A span on the thread-local stack.
#[derive(Clone, Copy)]
struct Open {
    id: u64,
    parent_id: u64,
    name: &'static str,
    start_ns: u64,
}

/// A closed span, waiting for [`snapshot_roots`] to place it in the forest.
#[derive(Clone, Copy)]
struct Closed {
    open: Open,
    duration_ns: u64,
    thread: u64,
}

struct Local {
    /// Dense per-thread id used as the trace track.
    track: u64,
    open: Vec<Open>,
    /// Spans closed under the thread's outermost open span.
    closed: Vec<Closed>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        track: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        open: Vec::new(),
        closed: Vec::new(),
    });
}

/// Every span closed under a finished thread root, in no particular order.
static CLOSED: Mutex<Vec<Closed>> = Mutex::new(Vec::new());

/// Closes the span opened by the matching [`span`] call when dropped.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    /// Stack index this guard's span occupies; `None` for the inert guard
    /// handed out while telemetry is disabled.
    depth: Option<usize>,
}

/// Opens a span under the innermost span open on this thread, or as a root
/// (parent 0) when none is. Returns an inert guard while telemetry is
/// disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { depth: None };
    }
    let depth = LOCAL.with(|local| {
        let open = &mut local.borrow_mut().open;
        let parent_id = open.last().map_or(0, |s| s.id);
        open.push(Open {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent_id,
            name,
            start_ns: clock_ns(),
        });
        open.len() - 1
    });
    SpanGuard { depth: Some(depth) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(depth) = self.depth else { return };
        LOCAL.with(|local| {
            let local = &mut *local.borrow_mut();
            // A shorter stack means an outer guard already closed this span.
            if local.open.len() <= depth {
                return;
            }
            // This span and any still-open descendants (leaked guards)
            // close at the same instant.
            let end_ns = clock_ns();
            for open in local.open.drain(depth..).rev() {
                local.closed.push(Closed {
                    open,
                    duration_ns: end_ns.saturating_sub(open.start_ns),
                    thread: local.track,
                });
            }
            if local.open.is_empty() {
                lock(&CLOSED).append(&mut local.closed);
            }
        });
    }
}

/// Builds the completed span forest: entries sorted by id, each attached
/// under the entry its `parent_id` names. Entries whose parent was never
/// recorded (a true root, or a span whose parent was cleared by a reset)
/// stay roots. Ids are allocated in open order and a parent always opens
/// before its children, so children and roots come out in open order.
pub(crate) fn snapshot_roots() -> Vec<SpanRecord> {
    let mut entries = lock(&CLOSED).clone();
    entries.sort_unstable_by_key(|e| e.open.id);
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); entries.len()];
    let mut roots = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        match entries.binary_search_by_key(&entry.open.parent_id, |e| e.open.id) {
            Ok(parent) => children[parent].push(i),
            Err(_) => roots.push(i),
        }
    }
    fn record(i: usize, entries: &[Closed], children: &[Vec<usize>]) -> SpanRecord {
        let Closed {
            open,
            duration_ns,
            thread,
        } = entries[i];
        SpanRecord {
            id: open.id,
            parent_id: open.parent_id,
            name: open.name.to_string(),
            start_ns: open.start_ns,
            duration_ns,
            thread,
            children: children[i]
                .iter()
                .map(|&child| record(child, entries, children))
                .collect(),
        }
    }
    roots
        .into_iter()
        .map(|i| record(i, &entries, &children))
        .collect()
}

pub(crate) fn reset() {
    lock(&CLOSED).clear();
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        local.open.clear();
        local.closed.clear();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;

    #[test]
    fn nesting_builds_a_tree() {
        let _g = testing::guard();
        crate::enable();
        crate::reset();
        {
            let _outer = span("outer");
            {
                let _a = span("a");
                let _deep = span("deep");
            }
            let _b = span("b");
        }
        let roots = snapshot_roots();
        assert_eq!(roots.len(), 1);
        let outer = &roots[0];
        assert_eq!(outer.name, "outer");
        let names: Vec<&str> = outer.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(outer.children[0].children.len(), 1);
        assert_eq!(outer.children[0].children[0].name, "deep");
        assert_eq!(outer.tree_size(), 4);
        crate::disable();
    }

    #[test]
    fn ids_parents_and_offsets_are_causal() {
        let _g = testing::guard();
        crate::enable();
        crate::reset();
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let roots = snapshot_roots();
        let outer = &roots[0];
        let inner = &outer.children[0];
        assert!(outer.id >= 1);
        assert_eq!(outer.parent_id, 0);
        assert_eq!(inner.parent_id, outer.id);
        assert!(inner.id > outer.id, "ids are allocated in open order");
        assert!(inner.start_ns >= outer.start_ns, "children start later");
        assert_eq!(outer.thread, inner.thread);
        crate::disable();
    }

    #[test]
    fn sibling_roots_accumulate() {
        let _g = testing::guard();
        crate::enable();
        crate::reset();
        {
            let _x = span("x");
        }
        {
            let _y = span("y");
        }
        let names: Vec<String> = snapshot_roots().into_iter().map(|r| r.name).collect();
        assert_eq!(names, ["x", "y"]);
        crate::disable();
    }

    #[test]
    fn panic_unwinding_closes_spans() {
        let _g = testing::guard();
        crate::enable();
        crate::reset();
        let result = std::panic::catch_unwind(|| {
            let _outer = span("panicky-outer");
            let _inner = span("panicky-inner");
            panic!("boom");
        });
        assert!(result.is_err());
        let roots = snapshot_roots();
        assert_eq!(roots.len(), 1, "unwind closed both spans: {roots:?}");
        assert_eq!(roots[0].name, "panicky-outer");
        assert_eq!(roots[0].children[0].name, "panicky-inner");
        // The stack is clean: a fresh span still works.
        {
            let _after = span("after-panic");
        }
        assert_eq!(snapshot_roots().len(), 2);
        crate::disable();
    }

    #[test]
    fn leaked_guard_is_folded_by_outer_drop() {
        let _g = testing::guard();
        crate::enable();
        crate::reset();
        {
            let _outer = span("leak-outer");
            std::mem::forget(span("leak-inner"));
        }
        let roots = snapshot_roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].children[0].name, "leak-inner");
        crate::disable();
    }

    #[test]
    fn disabled_span_is_inert() {
        let _g = testing::guard();
        crate::disable();
        crate::reset();
        {
            let _s = span("never-recorded");
        }
        assert!(snapshot_roots().is_empty());
    }

    #[test]
    fn worker_thread_spans_become_roots_without_context() {
        let _g = testing::guard();
        crate::enable();
        crate::reset();
        {
            let _main = span("main-span");
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _w = span("worker-span");
                });
            });
        }
        let mut names: Vec<String> = snapshot_roots().into_iter().map(|r| r.name).collect();
        names.sort();
        assert_eq!(names, ["main-span", "worker-span"]);
        crate::disable();
    }
}
