//! Deterministic, seeded fault injection around any [`BlackBox`].
//!
//! Real BioCatalogue-style services fail transiently all the time; the
//! pipeline must keep its reports reproducible anyway. A [`FaultInjector`]
//! wraps modules so that they fail with *transient*
//! [`InvocationError::Fault`]s according to a [`FaultPlan`]:
//!
//! * **Keyed, not sequenced.** Whether a given `(module, input vector)`
//!   faults — and how many consecutive attempts fail — is a pure hash of
//!   the seed, module id and inputs; a per-key burst counter lets the truth
//!   through once that many attempts have failed. Injection is therefore
//!   independent of invocation order, thread interleaving and cache hits,
//!   which is what lets a faulted run converge to the fault-free reports
//!   once every key's bounded fault burst is retried through.
//! * **No clock.** Nothing here reads time, simulated or real, so runs are
//!   byte-for-byte reproducible. A provider withdrawing a module is
//!   modelled once, by the catalog (`InvocationError::Unavailable`).

use crate::blackbox::{BlackBox, SharedModule};
use crate::invoke::InvocationError;
use crate::module::ModuleDescriptor;
use dex_values::Value;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// What faults to inject, fully determined by the seed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed mixed into every per-key fault decision.
    pub seed: u64,
    /// Per-mill (‰) probability that a distinct `(module, inputs)` key
    /// faults at all. `100` ≈ 10% of keys.
    pub fault_rate_millis: u32,
    /// A faulting key fails between 1 and this many consecutive attempts
    /// before succeeding. Keep it below a retry policy's `max_attempts` and
    /// every key converges to its true outcome.
    pub max_consecutive: u32,
}

impl FaultPlan {
    /// A plan injecting nothing (useful as a baseline with the wrapper on).
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            fault_rate_millis: 0,
            max_consecutive: 0,
        }
    }

    /// A plan faulting roughly `rate_pct`% of keys for up to 2 consecutive
    /// attempts. A rate above 100% saturates at every key.
    pub fn rate_pct(seed: u64, rate_pct: u32) -> FaultPlan {
        FaultPlan {
            seed,
            fault_rate_millis: rate_pct.min(100) * 10,
            max_consecutive: 2,
        }
    }
}

/// Snapshot of injected-fault accounting, aggregated across every module an
/// injector wrapped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Invocations that reached a faulty wrapper.
    pub invocations: u64,
    /// Injected `Fault` errors.
    pub injected_faults: u64,
}

#[derive(Debug, Default)]
struct FaultStatsInner {
    invocations: AtomicU64,
    injected_faults: AtomicU64,
}

impl FaultStatsInner {
    fn snapshot(&self) -> FaultStats {
        FaultStats {
            invocations: self.invocations.load(Ordering::Relaxed),
            injected_faults: self.injected_faults.load(Ordering::Relaxed),
        }
    }
}

/// Process-global telemetry counter for injected faults, interned once.
fn fault_counter() -> &'static dex_telemetry::Counter {
    static COUNTER: OnceLock<dex_telemetry::Counter> = OnceLock::new();
    COUNTER.get_or_init(|| dex_telemetry::counter("dex.fault.injected"))
}

/// Wraps a whole module population with one [`FaultPlan`], aggregating the
/// injection stats across all wrapped modules.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    stats: Arc<FaultStatsInner>,
}

impl FaultInjector {
    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            stats: Arc::default(),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Wraps `module` so that it faults as the plan says, counting into
    /// this injector's stats.
    pub fn wrap(&self, module: SharedModule) -> SharedModule {
        Arc::new(FaultyModule {
            inner: module,
            plan: self.plan.clone(),
            stats: Arc::clone(&self.stats),
            burst: Mutex::new(HashMap::new()),
        })
    }

    /// Aggregated injection accounting across every wrapped module.
    pub fn stats(&self) -> FaultStats {
        self.stats.snapshot()
    }
}

/// A [`BlackBox`] decorator injecting deterministic transient faults.
///
/// The wrapper is transparent to the rest of the pipeline: it delegates the
/// descriptor (so cache keys, catalog ids and match verdicts are unchanged)
/// and only ever *adds* transient errors in front of the inner module.
struct FaultyModule {
    inner: SharedModule,
    plan: FaultPlan,
    stats: Arc<FaultStatsInner>,
    /// Faults injected so far per key hash.
    burst: Mutex<HashMap<u64, u32>>,
}

impl FaultyModule {
    /// Pure per-key decision hash: seed × module id × inputs.
    fn fault_key(&self, inputs: &[Value]) -> u64 {
        let mut hasher = DefaultHasher::new();
        self.plan.seed.hash(&mut hasher);
        self.inner.descriptor().id.hash(&mut hasher);
        inputs.hash(&mut hasher);
        hasher.finish()
    }

    /// How many consecutive attempts of this key fail (0 = key never
    /// faults). Low hash bits pick *whether*, high bits pick *how long*.
    fn planned_burst(&self, key: u64) -> u32 {
        if self.plan.fault_rate_millis == 0 || self.plan.max_consecutive == 0 {
            return 0;
        }
        if key % 1000 < u64::from(self.plan.fault_rate_millis) {
            1 + ((key >> 32) % u64::from(self.plan.max_consecutive)) as u32
        } else {
            0
        }
    }
}

impl BlackBox for FaultyModule {
    fn descriptor(&self) -> &ModuleDescriptor {
        self.inner.descriptor()
    }

    fn invoke(&self, inputs: &[Value]) -> Result<Vec<Value>, InvocationError> {
        self.stats.invocations.fetch_add(1, Ordering::Relaxed);
        let key = self.fault_key(inputs);
        let planned = self.planned_burst(key);
        if planned > 0 {
            let mut burst = self.burst.lock().unwrap_or_else(PoisonError::into_inner);
            let fired = burst.entry(key).or_insert(0);
            if *fired < planned {
                *fired += 1;
                let nth = *fired;
                drop(burst);
                self.stats.injected_faults.fetch_add(1, Ordering::Relaxed);
                if dex_telemetry::is_enabled() {
                    fault_counter().add(1);
                    dex_telemetry::flight(
                        dex_telemetry::FlightKind::FaultInjected,
                        self.inner.descriptor().id.as_str(),
                        format!("injected transient fault ({nth}/{planned})"),
                        u64::from(nth),
                    );
                }
                return Err(InvocationError::fault(format!(
                    "injected transient fault ({nth}/{planned})"
                )));
            }
        }
        self.inner.invoke(inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::FnModule;
    use crate::module::ModuleKind;
    use crate::param::Parameter;
    use dex_values::StructuralType;

    fn upper() -> SharedModule {
        FnModule::shared(
            ModuleDescriptor::new(
                "op:upper",
                "Upper",
                ModuleKind::RestService,
                vec![Parameter::required("in", StructuralType::Text, "Document")],
                vec![Parameter::required("out", StructuralType::Text, "Document")],
            ),
            |i| Ok(vec![Value::text(i[0].as_text().unwrap().to_uppercase())]),
        )
    }

    #[test]
    fn rate_pct_saturates_instead_of_wrapping() {
        for (pct, millis) in [(0, 0), (10, 100), (100, 1000), (101, 1000)] {
            assert_eq!(
                FaultPlan::rate_pct(1, pct).fault_rate_millis,
                millis,
                "{pct}%"
            );
        }
        assert_eq!(FaultPlan::rate_pct(1, 429_496_730).fault_rate_millis, 1000);
        assert_eq!(FaultPlan::rate_pct(1, u32::MAX).fault_rate_millis, 1000);
    }

    #[test]
    fn injection_is_deterministic_and_order_independent() {
        let plan = FaultPlan::rate_pct(7, 30);
        let inputs: Vec<Vec<Value>> = (0..40)
            .map(|i| vec![Value::text(format!("k{i}"))])
            .collect();

        let outcomes_of = |order: Vec<usize>| {
            let injector = FaultInjector::new(plan.clone());
            let faulty = injector.wrap(upper());
            let mut out = vec![None; inputs.len()];
            for i in order {
                out[i] = Some(faulty.invoke(&inputs[i]).is_err());
            }
            (
                out.into_iter().map(Option::unwrap).collect::<Vec<bool>>(),
                injector.stats().injected_faults,
            )
        };

        let (forward, injected) = outcomes_of((0..inputs.len()).collect());
        let (reverse, _) = outcomes_of((0..inputs.len()).rev().collect());
        assert_eq!(
            forward, reverse,
            "first-attempt fate is per-key, not per-sequence"
        );
        assert!(injected > 0, "a 30% rate over 40 keys injects something");
        assert!(forward.iter().any(|e| !e), "and spares something");
    }

    #[test]
    fn bursts_are_bounded_and_then_the_truth_comes_through() {
        let plan = FaultPlan {
            seed: 11,
            fault_rate_millis: 1000, // every key faults
            max_consecutive: 3,
        };
        let faulty = FaultInjector::new(plan).wrap(upper());
        let input = [Value::text("seq")];
        let mut failures = 0;
        let ok = loop {
            match faulty.invoke(&input) {
                Ok(out) => break out,
                Err(e) => {
                    assert!(e.is_transient());
                    failures += 1;
                    assert!(failures <= 3, "burst must be bounded");
                }
            }
        };
        assert_eq!(ok, vec![Value::text("SEQ")]);
        assert!(failures >= 1);
        // Once drained, the key is served straight from the inner module.
        assert!(faulty.invoke(&input).is_ok());
    }

    #[test]
    fn zero_rate_plan_is_transparent() {
        let injector = FaultInjector::new(FaultPlan::none(99));
        let faulty = injector.wrap(upper());
        for i in 0..20 {
            assert!(faulty.invoke(&[Value::text(format!("v{i}"))]).is_ok());
        }
        let stats = injector.stats();
        assert_eq!(stats.injected_faults, 0);
        assert_eq!(stats.invocations, 20);
    }

    #[test]
    fn injector_aggregates_across_wrapped_modules() {
        let injector = FaultInjector::new(FaultPlan::rate_pct(3, 100));
        let a = injector.wrap(upper());
        let b = injector.wrap(upper());
        for i in 0..10 {
            let _ = a.invoke(&[Value::text(format!("a{i}"))]);
            let _ = b.invoke(&[Value::text(format!("b{i}"))]);
        }
        assert_eq!(injector.stats().invocations, 20);
        assert_eq!(injector.plan().fault_rate_millis, 1000);
    }
}
