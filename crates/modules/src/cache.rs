//! Cross-pipeline invocation cache: one module invocation per distinct
//! `(module, input value vector)` for as long as the cache lives.
//!
//! In the paper's setting (§3.2) modules are remote, metered SOAP/REST
//! services, so the invocation is the dominant cost of every downstream
//! workload. The pipeline re-invokes the same module on the same value
//! vector many times over — generation retries, the matcher's aligned
//! generation at multiple value offsets, repair verification, workflow
//! re-enactment. An [`InvocationCache`] memoizes the full outcome (outputs
//! *or* error — modules are deterministic, so a `Rejected` is as cacheable
//! as a result vector) behind one lock, and guarantees that callers racing
//! on the same key trigger exactly one invocation.
//!
//! **Transient errors are never memoized.** `Unavailable` and `Fault` are
//! state-dependent (a withdrawn module can be restored; a crashed call can
//! succeed on retry — see [`InvocationError::is_transient`]), so memoizing
//! one would poison the key for the rest of the process. The cache hands
//! a transient outcome back to its caller and stores nothing, so the next
//! lookup invokes afresh.

use crate::blackbox::BlackBox;
use crate::invoke::InvocationError;
use crate::module::ModuleId;
use dex_values::Value;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// The memoized result of one invocation: the module's outputs, or the error
/// that prevented normal termination.
pub type InvocationOutcome = Result<Vec<Value>, InvocationError>;

/// Snapshot of an [`InvocationCache`]'s behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvocationCacheStats {
    /// Lookups answered by a memoized entry.
    pub hits: u64,
    /// Lookups that found no entry and invoked the module. A miss whose
    /// outcome is transient is also counted under `transients`.
    pub misses: u64,
    /// Transient outcomes handed back to the caller instead of being
    /// memoized.
    pub transients: u64,
    /// Entries currently held.
    pub entries: usize,
}

impl InvocationCacheStats {
    /// Hit fraction in `[0, 1]`; `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Process-global telemetry counters for cache traffic, interned once.
fn cache_counters() -> &'static (
    dex_telemetry::Counter,
    dex_telemetry::Counter,
    dex_telemetry::Counter,
) {
    static COUNTERS: OnceLock<(
        dex_telemetry::Counter,
        dex_telemetry::Counter,
        dex_telemetry::Counter,
    )> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        (
            dex_telemetry::counter("dex.invoke.cache.hits"),
            dex_telemetry::counter("dex.invoke.cache.misses"),
            dex_telemetry::counter("dex.invoke.cache.transients"),
        )
    })
}

/// Everything the cache's one lock guards: the outcomes by module, then by
/// input vector, and the lifetime counters.
#[derive(Default)]
struct Memo {
    outcomes: HashMap<ModuleId, HashMap<Vec<Value>, Arc<InvocationOutcome>>>,
    entries: usize,
    hits: u64,
    misses: u64,
    transients: u64,
}

/// A memo of invocation outcomes keyed by `(module id, input value vector)`.
///
/// * **One lock.** A [`Mutex`] guards the map and its counters, and a miss
///   invokes the module while holding it. That is sound because no two
///   threads ask one cache for the same key, and because no module
///   re-enters a cache: one that invoked through the cache it was invoked
///   from would deadlock, but modules are pure functions of their inputs.
///   The one cache shared across threads is the incremental engine's
///   during its bootstrap fill, whose threads replay disjoint candidates;
///   at 10k and 20k modules (seed 42) that fill makes no lookup, so
///   serializing misses costs nothing there.
/// * **Exactly-once.** Callers racing on a missing key wait for the lock
///   and then hit, so a vector is never invoked twice (see the
///   `tests/invocation_cache.rs` concurrency suite). Racers on a key whose
///   invocation fails transiently share no observation: each waiter probes
///   the key afresh once the lock frees, and invokes again. No production
///   path races on a key.
/// * **Transient-aware.** Outcomes whose error
///   [`InvocationError::is_transient`] holds go back to the caller and are
///   never stored — only successes and permanent errors are memoized.
/// * **Poison-tolerant.** A module that panics mid-invocation poisons the
///   lock but leaves at most a counted miss and no entry, so later lookups
///   ride through the poison.
/// * **Observable.** Per-cache counters plus `dex.invoke.cache.*`
///   telemetry counters when the global subscriber is on.
#[derive(Default)]
pub struct InvocationCache {
    memo: Mutex<Memo>,
}

impl InvocationCache {
    /// An empty cache.
    pub fn new() -> InvocationCache {
        InvocationCache::default()
    }

    fn lock(&self) -> MutexGuard<'_, Memo> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Invokes `module` on `inputs` through the cache: the first call for a
    /// distinct `(module, inputs)` pair invokes the black box; every later
    /// (or concurrent) call returns the memoized outcome.
    ///
    /// A hit clones nothing but the outcome's `Arc`. A miss copies the input
    /// vector into its entry, and the module id only when the module gets
    /// its first entry.
    pub fn invoke(&self, module: &dyn BlackBox, inputs: &[Value]) -> Arc<InvocationOutcome> {
        let id = &module.descriptor().id;
        let telemetry_on = dex_telemetry::is_enabled();
        let mut memo = self.lock();
        let hit = memo
            .outcomes
            .get(id)
            .and_then(|by_inputs| by_inputs.get(inputs))
            .cloned();
        if let Some(outcome) = hit {
            memo.hits += 1;
            if telemetry_on {
                cache_counters().0.add(1);
            }
            return outcome;
        }
        memo.misses += 1;
        if telemetry_on {
            cache_counters().1.add(1);
        }
        let outcome = Arc::new(module.invoke(inputs));
        if matches!(outcome.as_ref(), Err(e) if e.is_transient()) {
            memo.transients += 1;
            if telemetry_on {
                cache_counters().2.add(1);
            }
            return outcome;
        }
        let entry = Arc::clone(&outcome);
        if let Some(by_inputs) = memo.outcomes.get_mut(id) {
            by_inputs.insert(inputs.to_vec(), entry);
        } else {
            let by_inputs = HashMap::from([(inputs.to_vec(), entry)]);
            memo.outcomes.insert(id.clone(), by_inputs);
        }
        memo.entries += 1;
        outcome
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.lock().entries
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry; counters are kept (they describe lifetime traffic).
    pub fn clear(&self) {
        let mut memo = self.lock();
        memo.outcomes.clear();
        memo.entries = 0;
    }

    /// Snapshot of the cache's lifetime behavior.
    pub fn stats(&self) -> InvocationCacheStats {
        let memo = self.lock();
        InvocationCacheStats {
            hits: memo.hits,
            misses: memo.misses,
            transients: memo.transients,
            entries: memo.entries,
        }
    }

    /// Audit sweep: entries holding a transient error. The invariant is that
    /// this is always `0`, since a transient outcome is never stored. It
    /// visits every entry under the lock, so it is for tests and audits,
    /// not for hot paths.
    pub fn memoized_transients(&self) -> usize {
        self.lock()
            .outcomes
            .values()
            .flat_map(HashMap::values)
            .filter(|outcome| matches!(outcome.as_ref(), Err(e) if e.is_transient()))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::FnModule;
    use crate::module::{ModuleDescriptor, ModuleKind};
    use crate::param::Parameter;
    use dex_values::StructuralType;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn counted_upper() -> (FnModule, Arc<AtomicUsize>) {
        let count = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&count);
        let module = FnModule::new(
            ModuleDescriptor::new(
                "op:upper",
                "ToUpper",
                ModuleKind::RestService,
                vec![Parameter::required(
                    "text",
                    StructuralType::Text,
                    "Document",
                )],
                vec![Parameter::required("out", StructuralType::Text, "Document")],
            ),
            move |inputs| {
                seen.fetch_add(1, Ordering::Relaxed);
                let text = inputs[0].as_text().expect("validated");
                if text.is_empty() {
                    return Err(InvocationError::rejected("empty"));
                }
                Ok(vec![Value::text(text.to_uppercase())])
            },
        );
        (module, count)
    }

    #[test]
    fn second_lookup_is_a_hit_and_skips_the_module() {
        let cache = InvocationCache::new();
        let (module, invoked) = counted_upper();
        let a = cache.invoke(&module, &[Value::text("abc")]);
        let b = cache.invoke(&module, &[Value::text("abc")]);
        assert_eq!(a.as_ref().as_ref().unwrap(), &vec![Value::text("ABC")]);
        assert!(Arc::ptr_eq(&a, &b), "same memoized outcome");
        assert_eq!(invoked.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn errors_are_memoized_too() {
        let cache = InvocationCache::new();
        let (module, invoked) = counted_upper();
        for _ in 0..3 {
            let out = cache.invoke(&module, &[Value::text("")]);
            assert!(matches!(
                out.as_ref(),
                Err(InvocationError::Rejected { .. })
            ));
        }
        assert_eq!(invoked.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn distinct_vectors_are_distinct_entries() {
        let cache = InvocationCache::new();
        let (module, invoked) = counted_upper();
        for text in ["a", "b", "c"] {
            cache.invoke(&module, &[Value::text(text)]);
        }
        assert_eq!(invoked.load(Ordering::Relaxed), 3);
        assert_eq!(cache.len(), 3);
        // "b" is held: a second lookup invokes nothing. "z" is not: its
        // first lookup invokes and adds an entry.
        cache.invoke(&module, &[Value::text("b")]);
        assert_eq!((invoked.load(Ordering::Relaxed), cache.len()), (3, 3));
        cache.invoke(&module, &[Value::text("z")]);
        assert_eq!((invoked.load(Ordering::Relaxed), cache.len()), (4, 4));
    }

    #[test]
    fn clear_keeps_counters() {
        let cache = InvocationCache::new();
        let (module, _) = counted_upper();
        cache.invoke(&module, &[Value::text("x")]);
        cache.invoke(&module, &[Value::text("x")]);
        cache.clear();
        assert!(cache.is_empty());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 0));
    }

    /// A module that fails `Unavailable` while the flag is raised — the
    /// cache must re-invoke it every time instead of memoizing the outage.
    fn flagged_module() -> (
        FnModule,
        Arc<AtomicUsize>,
        Arc<std::sync::atomic::AtomicBool>,
    ) {
        let count = Arc::new(AtomicUsize::new(0));
        let down = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let seen = Arc::clone(&count);
        let outage = Arc::clone(&down);
        let module = FnModule::new(
            ModuleDescriptor::new(
                "op:flagged",
                "Flagged",
                ModuleKind::SoapService,
                vec![Parameter::required(
                    "text",
                    StructuralType::Text,
                    "Document",
                )],
                vec![Parameter::required("out", StructuralType::Text, "Document")],
            ),
            move |inputs| {
                seen.fetch_add(1, Ordering::Relaxed);
                if outage.load(Ordering::Relaxed) {
                    return Err(InvocationError::Unavailable);
                }
                Ok(vec![Value::text(
                    inputs[0].as_text().unwrap().to_uppercase(),
                )])
            },
        );
        (module, count, down)
    }

    #[test]
    fn transient_outcomes_are_passed_through_not_memoized() {
        let cache = InvocationCache::new();
        let (module, invoked, down) = flagged_module();
        down.store(true, Ordering::Relaxed);
        for _ in 0..3 {
            let out = cache.invoke(&module, &[Value::text("x")]);
            assert_eq!(out.as_ref(), &Err(InvocationError::Unavailable));
        }
        // Every lookup re-invoked — no poisoned cell.
        assert_eq!(invoked.load(Ordering::Relaxed), 3);
        let stats = cache.stats();
        assert_eq!(stats.transients, 3);
        assert_eq!(cache.memoized_transients(), 0, "invariant: never stored");
        assert_eq!(stats.entries, 0);

        // Recovery: once the outage lifts, the success is memoized again.
        down.store(false, Ordering::Relaxed);
        let ok = cache.invoke(&module, &[Value::text("x")]);
        assert_eq!(ok.as_ref().as_ref().unwrap(), &vec![Value::text("X")]);
        cache.invoke(&module, &[Value::text("x")]);
        assert_eq!(invoked.load(Ordering::Relaxed), 4, "second lookup hit");
        assert_eq!(cache.memoized_transients(), 0);
        assert_eq!(cache.len(), 1, "only the success is held");
    }

    #[test]
    fn equal_inputs_under_different_modules_stay_distinct() {
        let (upper, upper_calls) = counted_upper();
        let (flagged, flagged_calls, _) = flagged_module();
        let cache = InvocationCache::new();
        let inputs = [Value::text("same")];
        cache.invoke(&upper, &inputs);
        let other = cache.invoke(&flagged, &inputs);
        assert_eq!(other.as_ref().as_ref().unwrap(), &vec![Value::text("SAME")]);
        cache.invoke(&upper, &inputs);
        cache.invoke(&flagged, &inputs);
        assert_eq!(upper_calls.load(Ordering::Relaxed), 1);
        assert_eq!(flagged_calls.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 2, 2));
        assert_eq!(cache.len(), 2, "one entry per module");
    }

    #[test]
    fn a_module_panicking_mid_invocation_leaves_the_cache_answering() {
        let cache = InvocationCache::new();
        let (module, invoked) = counted_upper();
        cache.invoke(&module, &[Value::text("before")]);
        let crashing = FnModule::new(
            ModuleDescriptor::new(
                "op:crash",
                "Crash",
                ModuleKind::RestService,
                vec![Parameter::required(
                    "text",
                    StructuralType::Text,
                    "Document",
                )],
                vec![Parameter::required("out", StructuralType::Text, "Document")],
            ),
            |_| panic!("module crashed mid-invocation"),
        );
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.invoke(&crashing, &[Value::text("boom")])
        }));
        assert!(crashed.is_err());
        assert!(cache.memo.is_poisoned(), "the panic poisoned the lock");
        // The panic left a counted miss and no entry for its vector.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 1));

        // The earlier entry still hits, and a fresh vector is memoized.
        cache.invoke(&module, &[Value::text("before")]);
        let after = cache.invoke(&module, &[Value::text("after")]);
        assert_eq!(
            after.as_ref().as_ref().unwrap(),
            &vec![Value::text("AFTER")]
        );
        cache.invoke(&module, &[Value::text("after")]);
        assert_eq!(invoked.load(Ordering::Relaxed), 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 3, 2));
        assert_eq!(stats.transients, 0);
        assert_eq!(cache.memoized_transients(), 0);
    }
}
