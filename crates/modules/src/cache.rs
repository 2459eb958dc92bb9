//! Cross-pipeline invocation cache: one module invocation per distinct
//! `(module, input value vector)` across the whole process.
//!
//! In the paper's setting (§3.2) modules are remote, metered SOAP/REST
//! services, so the invocation is the dominant cost of every downstream
//! workload. The pipeline re-invokes the same module on the same value
//! vector many times over — generation retries, the matcher's aligned
//! generation at multiple value offsets, repair verification, workflow
//! re-enactment. An [`InvocationCache`] memoizes the full outcome (outputs
//! *or* error — modules are deterministic, so a `Rejected` is as cacheable
//! as a result vector) behind sharded locks, and guarantees that concurrent
//! readers racing on the same key trigger exactly one invocation.
//!
//! **Transient errors are never memoized.** `Unavailable` and `Fault` are
//! state-dependent (a withdrawn module can be restored; a crashed call can
//! succeed on retry — see [`InvocationError::is_transient`]), so memoizing
//! one would poison the key for the rest of the process. The cache hands
//! the transient outcome to the callers that raced on it, then forgets the
//! entry so the next lookup invokes afresh.

use crate::blackbox::BlackBox;
use crate::invoke::InvocationError;
use crate::module::ModuleId;
use dex_values::Value;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// The memoized result of one invocation: the module's outputs, or the error
/// that prevented normal termination.
pub type InvocationOutcome = Result<Vec<Value>, InvocationError>;

/// Cache key: module identity plus the exact input value vector. The hash is
/// precomputed once (vectors can hold large flat-file texts) and reused by
/// both shard selection and the shard's `HashMap`.
#[derive(Debug)]
struct CacheKey {
    module: ModuleId,
    inputs: Vec<Value>,
    precomputed_hash: u64,
}

/// A key borrowed from the caller: what a lookup hashes and compares
/// without cloning the module id or the input vector.
#[derive(Clone, Copy)]
struct BorrowedKey<'a> {
    module: &'a ModuleId,
    inputs: &'a [Value],
    precomputed_hash: u64,
}

impl<'a> BorrowedKey<'a> {
    fn new(module: &'a ModuleId, inputs: &'a [Value]) -> BorrowedKey<'a> {
        let mut hasher = DefaultHasher::new();
        module.hash(&mut hasher);
        inputs.hash(&mut hasher);
        BorrowedKey {
            module,
            inputs,
            precomputed_hash: hasher.finish(),
        }
    }

    /// The owned key, built once per miss.
    fn to_key(self) -> CacheKey {
        CacheKey {
            module: self.module.clone(),
            inputs: self.inputs.to_vec(),
            precomputed_hash: self.precomputed_hash,
        }
    }
}

/// The view both key forms share, so the shard map (keyed by owned
/// [`CacheKey`]s) can be probed with a [`BorrowedKey`] through
/// `Borrow<dyn KeyView>`.
trait KeyView {
    fn parts(&self) -> (&ModuleId, &[Value], u64);
}

impl KeyView for CacheKey {
    fn parts(&self) -> (&ModuleId, &[Value], u64) {
        (&self.module, &self.inputs, self.precomputed_hash)
    }
}

impl KeyView for BorrowedKey<'_> {
    fn parts(&self) -> (&ModuleId, &[Value], u64) {
        (self.module, self.inputs, self.precomputed_hash)
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for CacheKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

impl Hash for dyn KeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.parts().2);
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        let (module, inputs, hash) = self.parts();
        let (other_module, other_inputs, other_hash) = other.parts();
        hash == other_hash && module == other_module && inputs == other_inputs
    }
}

impl Eq for dyn KeyView + '_ {}

// `Hash` and `Eq` on the owned key must agree with the view's, as
// `Borrow` requires.
impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn KeyView).hash(state);
    }
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &Self) -> bool {
        (self as &dyn KeyView) == (other as &dyn KeyView)
    }
}

impl Eq for CacheKey {}

/// One entry: a `OnceLock` cell so the first arrival invokes and every
/// concurrent arrival blocks on the same initialization instead of invoking
/// a duplicate.
type CacheCell = Arc<OnceLock<Arc<InvocationOutcome>>>;

/// One lock-sharded slice of the key space.
type Shard = HashMap<CacheKey, CacheCell>;

/// Locks a shard, riding through poisoning. Module invocations, the code
/// that can panic, run outside the lock, and every update under it is a
/// single map insert or remove, so a poisoned shard is still a valid map.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Snapshot of an [`InvocationCache`]'s behavior, serializable into run
/// reports (`TELEMETRY.json`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvocationCacheStats {
    /// Lookups answered by an existing entry (including entries still being
    /// initialized by another thread — the caller waits, it never re-invokes).
    /// A waiter whose entry resolves to a transient outcome is counted under
    /// `transients` instead: the entry is forgotten immediately, so no
    /// invocation was durably saved.
    pub hits: u64,
    /// Lookups that created a fresh entry and invoked the module.
    pub misses: u64,
    /// Transient outcomes handed through (and immediately forgotten) instead
    /// of being memoized.
    pub transients: u64,
    /// Entries currently held across all shards.
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

/// A concurrency-safe memo of invocation outcomes keyed by
/// `(module id, input value vector)`.
///
/// * **Sharded**: keys hash to one of [`InvocationCache::SHARDS`] mutexed
///   maps, so the hot path never serializes on a global lock.
/// * **Exactly-once**: each entry is a `OnceLock`; when N threads race on a
///   missing key, one invokes and N−1 block on the cell, so a vector is
///   never invoked twice (see the `tests/invocation_cache.rs` concurrency
///   suite).
/// * **Transient-aware**: outcomes whose error
///   [`InvocationError::is_transient`] holds are handed through to the
///   racing callers and then *forgotten* — only successes and permanent
///   errors are memoized.
/// * **Observable**: per-cache atomic counters plus `dex.invoke.cache.*`
///   telemetry counters when the global subscriber is on.
pub struct InvocationCache {
    shards: Box<[Mutex<Shard>]>,
    hits: AtomicU64,
    misses: AtomicU64,
    transients: AtomicU64,
}

impl Default for InvocationCache {
    fn default() -> Self {
        InvocationCache::new()
    }
}

impl InvocationCache {
    /// Number of lock shards (power of two; shard = hash low bits).
    pub const SHARDS: usize = 16;

    /// An empty cache.
    pub fn new() -> InvocationCache {
        let mut shards = Vec::with_capacity(Self::SHARDS);
        shards.resize_with(Self::SHARDS, || Mutex::new(Shard::default()));
        InvocationCache {
            shards: shards.into_boxed_slice(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            transients: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &BorrowedKey<'_>) -> &Mutex<Shard> {
        &self.shards[(key.precomputed_hash as usize) & (Self::SHARDS - 1)]
    }

    /// Invokes `module` on `inputs` through the cache: the first call for a
    /// distinct `(module, inputs)` pair invokes the black box; every later
    /// (or concurrent) call returns the memoized outcome.
    ///
    /// The invocation itself runs *outside* the shard lock — only the cell
    /// lookup/insert is locked — so a slow remote module never blocks cache
    /// traffic for other keys, and concurrent misses on different keys
    /// proceed in parallel. A hit hashes the borrowed `(module, inputs)` once
    /// and clones nothing but the cell's `Arc`.
    pub fn invoke(&self, module: &dyn BlackBox, inputs: &[Value]) -> Arc<InvocationOutcome> {
        let key = BorrowedKey::new(&module.descriptor().id, inputs);
        let telemetry_on = dex_telemetry::is_enabled();
        let (cell, fresh) = {
            let mut shard = lock(self.shard(&key));
            match shard.get(&key as &dyn KeyView) {
                Some(cell) => (Arc::clone(cell), false),
                None => {
                    let cell: CacheCell = Arc::new(OnceLock::new());
                    shard.insert(key.to_key(), Arc::clone(&cell));
                    (cell, true)
                }
            }
        };
        if fresh {
            self.misses.fetch_add(1, Ordering::Relaxed);
            if telemetry_on {
                cache_counters().1.add(1);
            }
        }
        // `get_or_init` runs the invocation at most once per cell; racing
        // readers block here until the winner's outcome is published.
        let outcome = Arc::clone(cell.get_or_init(|| {
            let outcome = Arc::new(module.invoke(inputs));
            if matches!(outcome.as_ref(), Err(e) if e.is_transient()) {
                // State-dependent failure: forget the entry *before* the
                // cell is published, so no concurrent `stats()` can ever
                // observe a memoized transient — the waiters blocked on
                // this cell still receive the outcome, but the map never
                // holds an initialized transient entry.
                self.forget_transient(&key, &cell);
            }
            outcome
        }));
        let transient = matches!(outcome.as_ref(), Err(e) if e.is_transient());
        if transient {
            self.transients.fetch_add(1, Ordering::Relaxed);
            if telemetry_on {
                cache_counters().2.add(1);
            }
        }
        if !fresh {
            // Hits are counted only once the outcome is known memoizable: a
            // waiter that raced onto a cell which resolves transient did
            // not durably save an invocation (the entry is forgotten and
            // the next lookup re-invokes), so counting it as a hit would
            // inflate `hit_rate` under contention.
            if !transient {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if telemetry_on {
                    cache_counters().0.add(1);
                }
            }
        }
        outcome
    }

    /// Removes the entry for `key` if it still holds `cell` — a newer cell
    /// (inserted after an earlier forget, or after `clear`) must not be
    /// clobbered by a stale transient outcome.
    fn forget_transient(&self, key: &BorrowedKey<'_>, cell: &CacheCell) {
        let view = key as &dyn KeyView;
        let mut shard = lock(self.shard(key));
        if shard
            .get(view)
            .is_some_and(|current| Arc::ptr_eq(current, cell))
        {
            shard.remove(view);
        }
    }

    /// The memoized outcome for `(module, inputs)`, if present and
    /// initialized — never invokes.
    pub fn peek(&self, module: &ModuleId, inputs: &[Value]) -> Option<Arc<InvocationOutcome>> {
        let key = BorrowedKey::new(module, inputs);
        let shard = lock(self.shard(&key));
        shard
            .get(&key as &dyn KeyView)
            .and_then(|cell| cell.get().cloned())
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry; counters are kept (they describe lifetime traffic).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            lock(shard).clear();
        }
    }

    /// Snapshot of the cache's lifetime behavior: the counters plus one
    /// `len()` per shard, so its cost does not grow with the entries.
    pub fn stats(&self) -> InvocationCacheStats {
        InvocationCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            transients: self.transients.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    /// Audit sweep: initialized entries currently holding a transient
    /// error. The invariant is that this is `0` *at every instant*, not just
    /// at quiescence — transient entries are forgotten before their cell is
    /// published, so even a sweep racing with the failing invocation cannot
    /// observe one. It visits every entry under the shard locks, so it is
    /// for tests and audits, not for hot paths.
    pub fn memoized_transients(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                lock(shard)
                    .values()
                    .filter(|cell| {
                        matches!(cell.get().map(|o| o.as_ref()), Some(Err(e)) if e.is_transient())
                    })
                    .count()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::FnModule;
    use crate::module::{ModuleDescriptor, ModuleKind};
    use crate::param::Parameter;
    use dex_values::StructuralType;
    use std::sync::atomic::AtomicUsize;

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
        assert!(cache
            .peek(&module.descriptor().id, &[Value::text("b")])
            .is_some());
        assert!(cache
            .peek(&module.descriptor().id, &[Value::text("z")])
            .is_none());
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
    }

    #[test]
    fn transient_forget_does_not_clobber_a_newer_success() {
        // Sequence: outage outcome obtained, key re-invoked successfully,
        // then the stale forget path must leave the fresh entry in place.
        // (Exercised here sequentially; the Arc::ptr_eq guard is what makes
        // the interleaved version safe.)
        let cache = InvocationCache::new();
        let (module, invoked, down) = flagged_module();
        down.store(true, Ordering::Relaxed);
        let _ = cache.invoke(&module, &[Value::text("k")]);
        down.store(false, Ordering::Relaxed);
        let _ = cache.invoke(&module, &[Value::text("k")]);
        let _ = cache.invoke(&module, &[Value::text("k")]);
        assert_eq!(invoked.load(Ordering::Relaxed), 2, "outage + one success");
        assert_eq!(cache.stats().entries, 1);
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
        let unknown = ModuleId::from("op:unknown");
        assert!(cache.peek(&upper.descriptor().id, &inputs).is_some());
        assert!(cache.peek(&flagged.descriptor().id, &inputs).is_some());
        assert!(cache.peek(&unknown, &inputs).is_none());
    }

    #[test]
    fn poisoned_shards_still_answer() {
        let cache = InvocationCache::new();
        let (module, invoked) = counted_upper();
        cache.invoke(&module, &[Value::text("before")]);
        for shard in cache.shards.iter() {
            let poisoner = std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        let _guard = shard.lock().unwrap();
                        panic!("poison the shard");
                    })
                    .join()
            });
            assert!(poisoner.is_err());
            assert!(shard.is_poisoned());
        }
        let id = &module.descriptor().id;
        assert!(cache.peek(id, &[Value::text("before")]).is_some());
        let after = cache.invoke(&module, &[Value::text("after")]);
        assert_eq!(
            after.as_ref().as_ref().unwrap(),
            &vec![Value::text("AFTER")]
        );
        cache.invoke(&module, &[Value::text("before")]);
        assert_eq!(invoked.load(Ordering::Relaxed), 2);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
        assert_eq!(cache.memoized_transients(), 0);
    }
}
