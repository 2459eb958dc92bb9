//! Property tests: the cached generation path, and regeneration from a
//! module's previous report, produce reports identical to the unmemoized
//! one (`generate_examples`, the oracle) across random module behaviors,
//! pool depths/seeds, value offsets, and fault plans.
//!
//! This is the determinism contract of the invocation planner: a memo may
//! only change *how many times* a module is actually invoked, never what the
//! generation report says.

use dex_core::{
    generate_examples, generate_examples_memoized, generate_examples_retrying, GenerationConfig,
    GenerationReport,
};
use dex_modules::{
    BlackBox, FaultInjector, FaultPlan, FnModule, InvocationCache, InvocationError,
    ModuleDescriptor, ModuleKind, Parameter, Retrier, RetryPolicy,
};
use dex_ontology::mygrid;
use dex_pool::build_synthetic_pool;
use dex_values::{StructuralType, Value};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Text-valued concepts of the mygrid ontology the synthetic pool can
/// realize — input annotations are drawn from these.
const CONCEPTS: &[&str] = &[
    "BiologicalSequence",
    "DNASequence",
    "RNASequence",
    "ProteinSequence",
    "AlgorithmName",
];

/// A deterministic black box whose accept/reject behavior is scrambled by
/// `salt`: an input vector is rejected iff its salted digest lands under
/// `reject_pct`. Every value of `salt` is a different module "behavior".
fn arb_module(inputs: &[usize], salt: u64, reject_pct: u64) -> FnModule {
    let params: Vec<Parameter> = inputs
        .iter()
        .enumerate()
        .map(|(i, &c)| Parameter::required(format!("in{i}"), StructuralType::Text, CONCEPTS[c]))
        .collect();
    FnModule::new(
        ModuleDescriptor::new(
            format!("prop:m{salt:x}"),
            "PropModule",
            ModuleKind::RestService,
            params,
            vec![Parameter::required(
                "digest",
                StructuralType::Text,
                "Document",
            )],
        ),
        move |values| {
            let mut acc = salt;
            for v in values {
                if let Some(t) = v.as_text() {
                    for b in t.bytes() {
                        acc = acc.wrapping_mul(1099511628211).wrapping_add(u64::from(b));
                    }
                }
            }
            if acc % 100 < reject_pct {
                return Err(InvocationError::rejected("salted rejection"));
            }
            Ok(vec![Value::text(format!("{acc:016x}"))])
        },
    )
}

/// Wraps a module, counting every invocation that actually reaches it
/// (cache hits never get here).
struct Counted<M> {
    inner: M,
    invocations: AtomicU64,
}

impl<M: BlackBox> Counted<M> {
    fn new(inner: M) -> Counted<M> {
        Counted {
            inner,
            invocations: AtomicU64::new(0),
        }
    }

    /// Calls that reached the module since the last `take`.
    fn take(&self) -> u64 {
        self.invocations.swap(0, Ordering::Relaxed)
    }
}

impl<M: BlackBox> BlackBox for Counted<M> {
    fn descriptor(&self) -> &ModuleDescriptor {
        self.inner.descriptor()
    }

    fn invoke(&self, inputs: &[Value]) -> Result<Vec<Value>, InvocationError> {
        self.invocations.fetch_add(1, Ordering::Relaxed);
        self.inner.invoke(inputs)
    }
}

fn assert_reports_identical(label: &str, a: &GenerationReport, b: &GenerationReport) {
    assert_eq!(a.examples, b.examples, "{label}: examples differ");
    assert_eq!(
        a.failed_combinations, b.failed_combinations,
        "{label}: failed combinations differ"
    );
    assert_eq!(
        a.unvalued_partitions, b.unvalued_partitions,
        "{label}: unvalued partitions differ"
    );
    assert_eq!(a.rejected, b.rejected, "{label}: rejected vectors differ");
    assert_eq!(
        a.invocations, b.invocations,
        "{label}: logical invocation counts differ"
    );
    assert_eq!(
        a.transient_failures, b.transient_failures,
        "{label}: transient failure counts differ"
    );
}

proptest! {
    #[test]
    fn cached_paths_match_the_uncached_oracle(
        inputs in proptest::collection::vec(0usize..CONCEPTS.len(), 1..3),
        salt in any::<u64>(),
        reject_pct in 0u64..101,
        depth in 1usize..7,
        pool_seed in 0u64..1025,
        value_offset in 0usize..5,
        retries in 0usize..5,
    ) {
        let ontology = mygrid::ontology();
        let pool = build_synthetic_pool(&ontology, depth, pool_seed);
        let module = Counted::new(arb_module(&inputs, salt, reject_pct));
        let config = GenerationConfig {
            value_offset,
            retries_per_combination: retries,
            ..GenerationConfig::default()
        };

        // The report's logical invocation count is the number of calls that
        // reached the module on the uncached path.
        let oracle = generate_examples(&module, &ontology, &pool, &config).unwrap();
        prop_assert_eq!(
            module.take(), oracle.invocations as u64,
            "the uncached oracle must invoke the module once per counted attempt"
        );

        // Cached execution on a cold cache: every miss, and only a miss,
        // reaches the module.
        let cache = InvocationCache::new();
        let retrier = Retrier::new(config.retry);
        let cold = generate_examples_retrying(&module, &ontology, &pool, &config, &cache, &retrier)
            .unwrap();
        assert_reports_identical("cached/cold", &cold, &oracle);
        prop_assert_eq!(
            module.take(), cache.stats().misses,
            "a cold cache invokes the module exactly once per miss"
        );

        // …and again on the now-warm cache: zero fresh module invocations,
        // still the identical report.
        let misses_before = cache.stats().misses;
        let warm = generate_examples_retrying(&module, &ontology, &pool, &config, &cache, &retrier)
            .unwrap();
        assert_reports_identical("cached/warm", &warm, &oracle);
        prop_assert_eq!(
            cache.stats().misses, misses_before,
            "warm regeneration must not invoke the module"
        );

        // Cached at a different offset shares whatever vectors the offsets
        // have in common and still matches its own oracle.
        let shifted = GenerationConfig {
            value_offset: value_offset + 1,
            ..config.clone()
        };
        let shifted_oracle = generate_examples(&module, &ontology, &pool, &shifted).unwrap();
        let shifted_cached =
            generate_examples_retrying(&module, &ontology, &pool, &shifted, &cache, &retrier)
                .unwrap();
        assert_reports_identical("cached/shifted", &shifted_cached, &shifted_oracle);
    }

    /// Regenerating from the module's previous report. With its own report
    /// as the memo, every attempt is answered from an example or a recorded
    /// rejection and none reaches the module; with a report of another
    /// pool, the outcomes on vectors both pools share are reused. The
    /// report equals the oracle's either way.
    #[test]
    fn memoized_regeneration_matches_the_unmemoized_oracle(
        inputs in proptest::collection::vec(0usize..CONCEPTS.len(), 1..3),
        salt in any::<u64>(),
        reject_pct in 0u64..101,
        depth in 1usize..7,
        pool_seed in 0u64..1025,
        value_offset in 0usize..5,
        retries in 0usize..5,
    ) {
        let ontology = mygrid::ontology();
        let pool = build_synthetic_pool(&ontology, depth, pool_seed);
        let module = Counted::new(arb_module(&inputs, salt, reject_pct));
        let config = GenerationConfig {
            value_offset,
            retries_per_combination: retries,
            ..GenerationConfig::default()
        };
        let retrier = Retrier::new(config.retry);
        let oracle = generate_examples(&module, &ontology, &pool, &config).unwrap();
        module.take();

        let again = generate_examples_memoized(
            &module, &ontology, &pool, &config, Some(&oracle), &retrier,
        )
        .unwrap();
        assert_reports_identical("memo/own", &again, &oracle);
        prop_assert_eq!(
            module.take(), 0,
            "the module's own report records every attempt"
        );

        let other_pool = build_synthetic_pool(&ontology, depth + 1, pool_seed);
        let previous = generate_examples(&module, &ontology, &other_pool, &config).unwrap();
        module.take();
        let moved = generate_examples_memoized(
            &module, &ontology, &pool, &config, Some(&previous), &retrier,
        )
        .unwrap();
        assert_reports_identical("memo/other-pool", &moved, &oracle);
        prop_assert!(module.take() <= oracle.invocations as u64);
    }

    /// Fault tolerance contract: a module population injected with bounded
    /// transient fault bursts, generated through cache + retry, produces a
    /// report *byte-identical* to the fault-free uncached oracle — and the
    /// cache never memoizes a transient outcome along the way.
    #[test]
    fn faulted_retried_generation_matches_the_fault_free_oracle(
        inputs in proptest::collection::vec(0usize..CONCEPTS.len(), 1..3),
        salt in any::<u64>(),
        reject_pct in 0u64..101,
        fault_rate_pct in 0u32..41,
        fault_seed in any::<u64>(),
        value_offset in 0usize..3,
    ) {
        let ontology = mygrid::ontology();
        let pool = build_synthetic_pool(&ontology, 3, 7);
        let config = GenerationConfig {
            value_offset,
            ..GenerationConfig::default()
        };
        let plain = arb_module(&inputs, salt, reject_pct);
        let oracle = generate_examples(&plain, &ontology, &pool, &config).unwrap();

        // Same behavior, wrapped in seeded fault injection: bursts of up to
        // 2 consecutive transient faults per key, under a policy granting 3
        // retries — every key converges to its true outcome.
        let injector = FaultInjector::new(FaultPlan {
            seed: fault_seed,
            fault_rate_millis: fault_rate_pct * 10,
            max_consecutive: 2,
        });
        let faulty = injector.wrap(Arc::new(arb_module(&inputs, salt, reject_pct)));
        let retry_config = GenerationConfig {
            retry: RetryPolicy::transient(4),
            ..config.clone()
        };
        let cache = InvocationCache::new();
        let retrier = Retrier::new(retry_config.retry);
        let report = generate_examples_retrying(
            faulty.as_ref(), &ontology, &pool, &retry_config, &cache, &retrier,
        )
        .unwrap();
        assert_reports_identical("faulted+retried", &report, &oracle);
        prop_assert_eq!(cache.memoized_transients(), 0, "no transient was memoized");
        if injector.stats().injected_faults > 0 {
            prop_assert!(retrier.stats().retries > 0, "faults imply retries");
        }

        // Disabling faults (rate 0) keeps the retried path equal to the
        // oracle too — retry machinery is inert on a healthy module.
        let healthy = FaultInjector::new(FaultPlan::none(fault_seed))
            .wrap(Arc::new(arb_module(&inputs, salt, reject_pct)));
        let inert = generate_examples_retrying(
            healthy.as_ref(), &ontology, &pool, &retry_config, &InvocationCache::new(), &retrier,
        )
        .unwrap();
        assert_reports_identical("faults-disabled", &inert, &oracle);
    }
}

/// [`arb_module`]'s digest behavior under an explicit module id, so a target
/// and a behaviorally identical candidate can carry distinct identities.
fn digest_module(id: &str, salt: u64, reject_pct: u64) -> FnModule {
    FnModule::new(
        ModuleDescriptor::new(
            id,
            "BurstModule",
            ModuleKind::SoapService,
            vec![
                Parameter::required("in0", StructuralType::Text, CONCEPTS[0]),
                Parameter::required("in1", StructuralType::Text, CONCEPTS[4]),
            ],
            vec![Parameter::required(
                "digest",
                StructuralType::Text,
                "Document",
            )],
        ),
        move |values| {
            let mut acc = salt;
            for v in values {
                if let Some(t) = v.as_text() {
                    for b in t.bytes() {
                        acc = acc.wrapping_mul(1099511628211).wrapping_add(u64::from(b));
                    }
                }
            }
            if acc % 100 < reject_pct {
                return Err(InvocationError::rejected("salted rejection"));
            }
            Ok(vec![Value::text(format!("{acc:016x}"))])
        },
    )
}

/// Acceptance scenario for the fault-tolerance subsystem: when every key
/// faults for up to 3 consecutive attempts, the cached pipeline's example
/// *and* matching reports are byte-identical to the fault-free uncached
/// oracle, and the invocation cache holds zero memoized transient outcomes.
#[test]
fn fault_bursts_converge_to_the_fault_free_reports() {
    use dex_core::{compare_modules, MatchOutcome};
    use dex_oracle::MatchSession;

    let ontology = mygrid::ontology();
    let pool = build_synthetic_pool(&ontology, 3, 42);
    let no_retry = GenerationConfig::default();
    let retry_config = GenerationConfig {
        // Four attempts outlast the longest burst below.
        retry: RetryPolicy::transient(4),
        ..GenerationConfig::default()
    };
    let bursts = |seed: u64| {
        FaultInjector::new(FaultPlan {
            seed,
            fault_rate_millis: 1000,
            max_consecutive: 3,
        })
    };

    // --- Generation: faulted target vs fault-free oracle -----------------
    let target = digest_module("burst:target", 77, 20);
    let oracle = generate_examples(&target, &ontology, &pool, &no_retry).unwrap();
    let target_faults = bursts(1);
    let faulted_target = target_faults.wrap(Arc::new(digest_module("burst:target", 77, 20)));
    let cache = InvocationCache::new();
    let retrier = Retrier::new(retry_config.retry);
    let report = generate_examples_retrying(
        faulted_target.as_ref(),
        &ontology,
        &pool,
        &retry_config,
        &cache,
        &retrier,
    )
    .unwrap();
    assert_reports_identical("bursts/generation", &report, &oracle);
    assert!(
        target_faults.stats().injected_faults > 0,
        "faults were injected"
    );
    assert!(
        retrier.stats().retries > 0,
        "the bursts were retried through"
    );
    assert_eq!(cache.memoized_transients(), 0);

    // --- Matching: faulted candidate vs fault-free oracle -----------------
    let candidate = digest_module("burst:candidate", 77, 20);
    let oracle_verdict = compare_modules(&target, &candidate, &ontology, &pool, &no_retry).unwrap();
    let faulted_candidate = bursts(2).wrap(Arc::new(digest_module("burst:candidate", 77, 20)));
    let session = MatchSession::new(&ontology, &pool, retry_config.clone());
    let verdict = session
        .compare_report(
            &target,
            &session.report_for(&target),
            faulted_candidate.as_ref(),
        )
        .outcome;
    assert_eq!(
        verdict,
        MatchOutcome::Verdict(oracle_verdict),
        "fault bursts must not change the verdict"
    );
    assert_eq!(session.invocation_cache().memoized_transients(), 0);
}
