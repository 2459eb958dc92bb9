//! Concurrency contract of the shared [`InvocationCache`]: under scoped
//! threads hammering the same key set, every distinct input vector is
//! invoked **exactly once** — racing readers wait for the cache's lock and
//! then hit the winner's entry instead of invoking a duplicate — and every
//! reader observes the same memoized outcome.

use dex_modules::{
    BlackBox, FnModule, InvocationCache, InvocationError, ModuleCatalog, ModuleDescriptor,
    ModuleKind, Parameter, Retrier, RetryPolicy, SharedModule,
};
use dex_values::{StructuralType, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, RwLock};

/// A module that records how often each distinct input was invoked, with an
/// artificial stall to widen the race window.
fn counting_module(stall: std::time::Duration) -> (FnModule, Arc<Mutex<HashMap<String, usize>>>) {
    let counts: Arc<Mutex<HashMap<String, usize>>> = Arc::default();
    let seen = Arc::clone(&counts);
    let module = FnModule::new(
        ModuleDescriptor::new(
            "op:counted",
            "Counted",
            ModuleKind::SoapService,
            vec![Parameter::required("in", StructuralType::Text, "Document")],
            vec![Parameter::required("out", StructuralType::Text, "Document")],
        ),
        move |inputs| {
            let text = inputs[0].as_text().expect("text input").to_string();
            *seen.lock().unwrap().entry(text.clone()).or_insert(0) += 1;
            std::thread::sleep(stall);
            if text.ends_with('!') {
                return Err(InvocationError::rejected("bang"));
            }
            Ok(vec![Value::text(text.to_uppercase())])
        },
    );
    (module, counts)
}

#[test]
fn racing_threads_never_double_invoke_a_vector() {
    let (module, counts) = counting_module(std::time::Duration::from_millis(2));
    let cache = InvocationCache::new();
    let vectors: Vec<Vec<Value>> = (0..24)
        .map(|i| {
            // Every third vector is a rejection — errors must be
            // exactly-once memoized like successes.
            if i % 3 == 0 {
                vec![Value::text(format!("v{i}!"))]
            } else {
                vec![Value::text(format!("v{i}"))]
            }
        })
        .collect();

    let threads = 8;
    let barrier = Barrier::new(threads);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let barrier = &barrier;
            let cache = &cache;
            let module = &module;
            let vectors = &vectors;
            scope.spawn(move || {
                // All workers start together and walk the key set from
                // different offsets, maximizing same-key collisions.
                barrier.wait();
                for k in 0..vectors.len() {
                    let vector = &vectors[(k + t * 3) % vectors.len()];
                    let outcome = cache.invoke(module, vector);
                    let text = vector[0].as_text().unwrap();
                    match outcome.as_ref() {
                        Ok(out) => assert_eq!(out[0].as_text().unwrap(), text.to_uppercase()),
                        Err(_) => assert!(text.ends_with('!')),
                    }
                }
            });
        }
    });

    let counts = counts.lock().unwrap();
    assert_eq!(counts.len(), vectors.len(), "every vector was invoked");
    for (text, count) in counts.iter() {
        assert_eq!(*count, 1, "vector {text} was invoked {count} times");
    }
    let stats = cache.stats();
    assert_eq!(stats.misses as usize, vectors.len());
    assert_eq!(
        (stats.hits + stats.misses) as usize,
        threads * vectors.len(),
        "every lookup was counted"
    );
    assert_eq!(stats.entries, vectors.len());
}

#[test]
fn racing_readers_share_the_winners_outcome() {
    let (module, counts) = counting_module(std::time::Duration::from_millis(5));
    let cache = InvocationCache::new();
    let vector = vec![Value::text("contested")];
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let cache = &cache;
                let module = &module;
                let vector = &vector;
                scope.spawn(move || cache.invoke(module, vector))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // One invocation, and all sixteen readers hold the same Arc.
    assert_eq!(counts.lock().unwrap()["contested"], 1);
    for outcome in &outcomes[1..] {
        assert!(Arc::ptr_eq(outcome, &outcomes[0]));
    }
}

/// Chunked concurrent access: workers claim *chunks* of a worklist off an
/// atomic cursor, keys repeat across chunks, and every key faults
/// transiently on its first attempt. While the run is in flight, a sampler
/// thread sweeps `memoized_transients()` continuously — the
/// `memoized_transients() == 0` invariant must hold at every instant, not
/// just at quiescence (a transient outcome is never stored), and the
/// hit/miss/transient ledger must balance exactly.
#[test]
fn bucket_chunked_access_keeps_stats_invariants_mid_run() {
    const KEYS: usize = 12;
    const CHUNK: usize = 5;
    let attempts: Arc<Mutex<HashMap<String, usize>>> = Arc::default();
    let seen = Arc::clone(&attempts);
    let module = FnModule::new(
        ModuleDescriptor::new(
            "op:first-try-faults",
            "FirstTryFaults",
            ModuleKind::SoapService,
            vec![Parameter::required("in", StructuralType::Text, "Document")],
            vec![Parameter::required("out", StructuralType::Text, "Document")],
        ),
        move |inputs| {
            let text = inputs[0].as_text().unwrap().to_string();
            let attempt = {
                let mut seen = seen.lock().unwrap();
                let n = seen.entry(text.clone()).or_insert(0);
                *n += 1;
                *n
            };
            std::thread::sleep(std::time::Duration::from_micros(300));
            if attempt == 1 {
                return Err(InvocationError::fault("cold start"));
            }
            Ok(vec![Value::text(text.to_uppercase())])
        },
    );

    // Every key appears many times, interleaved so consecutive chunks
    // collide on keys.
    let worklist: Vec<Vec<Value>> = (0..KEYS * 10)
        .map(|i| vec![Value::text(format!("k{}", i % KEYS))])
        .collect();
    let cache = InvocationCache::new();
    let retrier = Retrier::new(RetryPolicy::transient(4));
    let cursor = AtomicUsize::new(0);
    let done = std::sync::atomic::AtomicBool::new(false);
    let threads = 6;
    let barrier = Barrier::new(threads + 1);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            let cache = &cache;
            let retrier = &retrier;
            let module = &module;
            let worklist = &worklist;
            let cursor = &cursor;
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                loop {
                    let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                    if start >= worklist.len() {
                        break;
                    }
                    for vector in &worklist[start..(start + CHUNK).min(worklist.len())] {
                        let outcome = retrier.invoke(module, vector, Some(cache));
                        let text = vector[0].as_text().unwrap();
                        assert_eq!(
                            outcome.as_ref().as_ref().unwrap(),
                            &vec![Value::text(text.to_uppercase())]
                        );
                    }
                }
            });
        }
        // The sampler: hammers the audit sweep for the whole run, so the
        // invariant is checked between lookups, not only once they end.
        let cache = &cache;
        let done = &done;
        let barrier = &barrier;
        let sampler = scope.spawn(move || {
            barrier.wait();
            let mut samples = 0usize;
            while !done.load(Ordering::Relaxed) {
                assert_eq!(
                    cache.memoized_transients(),
                    0,
                    "observed a memoized transient mid-run after {samples} clean samples"
                );
                samples += 1;
            }
            samples
        });
        // Scope joins the workers; flag the sampler down afterwards. The
        // worker handles are anonymous, so park until the cursor drains.
        while cursor.load(Ordering::Relaxed) < worklist.len() + threads * CHUNK {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        done.store(true, Ordering::Relaxed);
        assert!(sampler.join().unwrap() > 0, "sampler never ran");
    });

    let attempts = attempts.lock().unwrap();
    assert_eq!(attempts.len(), KEYS);
    for (key, count) in attempts.iter() {
        // One cold-start fault plus exactly one memoized success per key:
        // the success entry is created once and never raced into a duplicate.
        assert_eq!(*count, 2, "key {key} invoked {count} times");
    }
    let stats = cache.stats();
    assert_eq!(cache.memoized_transients(), 0);
    assert_eq!(stats.entries, KEYS, "only successes are memoized");
    assert_eq!(
        stats.misses as usize,
        2 * KEYS,
        "one fresh cell per fault, one per success"
    );
    // Ledger balance: every lookup is a miss, a hit, or a transient
    // observation — and a fresh-and-transient lookup is counted under both
    // miss and transient, which happens exactly once per key here. Retries
    // add one extra lookup per transient observation.
    let total_lookups = worklist.len() as u64 + stats.transients;
    assert_eq!(
        stats.hits + stats.misses + stats.transients,
        total_lookups + KEYS as u64,
        "{stats:?}"
    );
}

/// Two *different* modules with identical input vectors must not collide:
/// the key is (module id, vector), not the vector alone.
#[test]
fn cache_keys_are_scoped_by_module_identity() {
    let upper = FnModule::new(
        ModuleDescriptor::new(
            "op:upper",
            "Upper",
            ModuleKind::RestService,
            vec![Parameter::required("in", StructuralType::Text, "Document")],
            vec![Parameter::required("out", StructuralType::Text, "Document")],
        ),
        |i| Ok(vec![Value::text(i[0].as_text().unwrap().to_uppercase())]),
    );
    let lower = FnModule::new(
        ModuleDescriptor::new(
            "op:lower",
            "Lower",
            ModuleKind::RestService,
            vec![Parameter::required("in", StructuralType::Text, "Document")],
            vec![Parameter::required("out", StructuralType::Text, "Document")],
        ),
        |i| Ok(vec![Value::text(i[0].as_text().unwrap().to_lowercase())]),
    );
    let cache = InvocationCache::new();
    let input = [Value::text("MiXeD")];
    let a = cache.invoke(&upper, &input);
    let b = cache.invoke(&lower, &input);
    assert_eq!(a.as_ref().as_ref().unwrap()[0], Value::text("MIXED"));
    assert_eq!(b.as_ref().as_ref().unwrap()[0], Value::text("mixed"));
    assert_eq!(cache.stats().misses, 2);
    assert_eq!(cache.stats().hits, 0);
    // And both replay as hits.
    cache.invoke(&upper, &input);
    cache.invoke(&lower, &input);
    assert_eq!(cache.stats().hits, 2);
    let _ = upper.descriptor();
}

/// Adapter that routes every invocation through a live [`ModuleCatalog`]'s
/// availability gate, so a test can withdraw/restore the module *between*
/// cache lookups — the caching equivalent of a provider flapping mid-run.
struct CatalogBacked {
    descriptor: ModuleDescriptor,
    catalog: Arc<RwLock<ModuleCatalog>>,
}

impl BlackBox for CatalogBacked {
    fn descriptor(&self) -> &ModuleDescriptor {
        &self.descriptor
    }

    fn invoke(&self, inputs: &[Value]) -> Result<Vec<Value>, InvocationError> {
        let catalog = self.catalog.read().unwrap();
        catalog.invoke(&self.descriptor.id, inputs)
    }
}

/// Regression for the PR 4 poisoning bug: a module withdrawn mid-run used to
/// leave a memoized `Unavailable` behind, so restoring the provider never
/// helped. Transients now pass through, and the restored module recovers.
#[test]
fn withdrawn_then_restored_module_recovers_through_the_cache() {
    let (module, counts) = counting_module(std::time::Duration::ZERO);
    let descriptor = module.descriptor().clone();
    let id = descriptor.id.clone();
    let mut catalog = ModuleCatalog::new();
    catalog.register(Arc::new(module) as SharedModule);
    let catalog = Arc::new(RwLock::new(catalog));
    let backed = CatalogBacked {
        descriptor,
        catalog: Arc::clone(&catalog),
    };
    let cache = InvocationCache::new();
    let input = [Value::text("probe")];

    // Healthy: success memoized.
    assert!(cache.invoke(&backed, &input).is_ok());

    // Provider withdraws the module mid-run; the cached success for *this*
    // vector still answers (the cache is process-scoped — see the enactment
    // test for the per-enactment gate), but a fresh vector observes the
    // outage as a pass-through transient.
    catalog.write().unwrap().withdraw(&id);
    let fresh = [Value::text("during-outage")];
    for _ in 0..2 {
        assert_eq!(
            cache.invoke(&backed, &fresh).as_ref(),
            &Err(InvocationError::Unavailable)
        );
    }

    // Provider restores supply: the very next lookup recovers. Before the
    // taxonomy fix this stayed `Unavailable` forever.
    catalog.write().unwrap().restore(&id);
    let out = cache.invoke(&backed, &fresh);
    assert_eq!(
        out.as_ref().as_ref().unwrap(),
        &vec![Value::text("DURING-OUTAGE")]
    );
    let stats = cache.stats();
    assert_eq!(stats.transients, 2, "both outage lookups passed through");
    assert_eq!(cache.memoized_transients(), 0);
    assert_eq!(counts.lock().unwrap()["during-outage"], 1, "one real run");
}

/// Two threads racing on a transiently-failing key must both retry — no
/// entry may hold a transient error — and the eventual success must still
/// be invoked exactly once.
#[test]
fn racing_retriers_share_exactly_one_eventual_success() {
    let attempts = Arc::new(AtomicUsize::new(0));
    let successes = Arc::new(AtomicUsize::new(0));
    let seen_attempts = Arc::clone(&attempts);
    let seen_successes = Arc::clone(&successes);
    let module = FnModule::new(
        ModuleDescriptor::new(
            "op:recovering",
            "Recovering",
            ModuleKind::SoapService,
            vec![Parameter::required("in", StructuralType::Text, "Document")],
            vec![Parameter::required("out", StructuralType::Text, "Document")],
        ),
        move |inputs| {
            // The first two invocations fault transiently; from then on the
            // module is healthy.
            if seen_attempts.fetch_add(1, Ordering::SeqCst) < 2 {
                return Err(InvocationError::fault("cold start"));
            }
            seen_successes.fetch_add(1, Ordering::SeqCst);
            Ok(vec![Value::text(
                inputs[0].as_text().unwrap().to_uppercase(),
            )])
        },
    );

    let cache = InvocationCache::new();
    let retrier = Retrier::new(RetryPolicy::transient(8));
    let input = vec![Value::text("contended")];
    let barrier = Barrier::new(2);
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let cache = &cache;
                let retrier = &retrier;
                let module = &module;
                let input = &input;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    retrier.invoke(module, input, Some(cache))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for outcome in &outcomes {
        assert_eq!(
            outcome.as_ref().as_ref().unwrap(),
            &vec![Value::text("CONTENDED")],
            "both racers recovered"
        );
    }
    assert_eq!(
        successes.load(Ordering::SeqCst),
        1,
        "exactly-once still holds for the success"
    );
    let stats = cache.stats();
    assert_eq!(
        cache.memoized_transients(),
        0,
        "no cell seeded with a transient"
    );
    assert!(
        stats.transients >= 1,
        "the cold-start faults passed through"
    );
    assert_eq!(stats.entries, 1, "only the success is memoized");
    assert!(retrier.stats().retries >= 1);
}
