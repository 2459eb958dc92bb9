//! Retry with simulated-tick backoff for transient invocation failures.
//!
//! Remote services fail transiently all the time; the paper's pipeline only
//! keeps combinations that "terminate normally", so a transient
//! `Unavailable`/`Fault` must not be confused with a deterministic rejection.
//! A [`Retrier`] is the one invocation path (direct or through an
//! [`InvocationCache`]); it re-attempts *transient* errors only, with
//! exponential backoff counted in simulated ticks — no wall clock, so
//! retried runs stay byte-for-byte reproducible. Backoff ticks are delivered
//! to the module via [`BlackBox::advance_ticks`], which lets deterministic
//! fault injectors (see [`crate::fault`]) run flap schedules against the
//! same clock the retrier advances.

use crate::blackbox::BlackBox;
use crate::cache::{InvocationCache, InvocationOutcome};
use dex_values::Value;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// How (and how much) to retry transient invocation failures.
///
/// Permanent errors (`Arity`, `BadInput`, `Rejected`) are never retried —
/// they are deterministic functions of the input vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts per invocation, including the first (`>= 1`).
    pub max_attempts: u32,
    /// Simulated ticks of backoff before the first retry; doubles per retry.
    pub base_backoff_ticks: u64,
    /// Cap on the per-retry backoff.
    pub max_backoff_ticks: u64,
    /// Optional cap on the *total* retries a [`Retrier`] may spend across
    /// its lifetime — the per-run retry budget. `None` is unbounded.
    pub retry_budget: Option<u64>,
}

impl RetryPolicy {
    /// No retries at all: one attempt, zero backoff. Exactly the pipeline's
    /// pre-retry behavior — this is the default everywhere.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ticks: 0,
            max_backoff_ticks: 0,
            retry_budget: None,
        }
    }

    /// Retries transients up to `max_attempts` total attempts with 1→2→4…
    /// tick exponential backoff (capped at 8 ticks), unbounded budget.
    pub fn transient(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff_ticks: 1,
            max_backoff_ticks: 8,
            retry_budget: None,
        }
    }

    /// This policy with a lifetime retry budget.
    pub fn with_budget(mut self, budget: u64) -> RetryPolicy {
        self.retry_budget = Some(budget);
        self
    }

    /// Whether this policy can ever retry.
    pub fn retries_enabled(&self) -> bool {
        self.max_attempts > 1
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::none()
    }
}

/// Snapshot of a [`Retrier`]'s lifetime accounting, serializable into run
/// reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryStats {
    /// Invocation attempts made through the retrier: first tries included,
    /// and an attempt answered by a cache hit counts like one that reached
    /// the module.
    pub attempts: u64,
    /// Attempts beyond the first for some input vector.
    pub retries: u64,
    /// Transient errors observed (whether or not a retry followed).
    pub transient_failures: u64,
    /// Invocations that returned a transient error after exhausting
    /// `max_attempts`.
    pub exhausted: u64,
    /// Retries suppressed because the budget was spent.
    pub budget_denied: u64,
    /// Total simulated backoff ticks accumulated.
    pub backoff_ticks: u64,
}

/// Process-global telemetry counters for retry traffic, interned once.
fn retry_counters() -> &'static (
    dex_telemetry::Counter,
    dex_telemetry::Counter,
    dex_telemetry::Counter,
    dex_telemetry::Counter,
) {
    static COUNTERS: OnceLock<(
        dex_telemetry::Counter,
        dex_telemetry::Counter,
        dex_telemetry::Counter,
        dex_telemetry::Counter,
    )> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        (
            dex_telemetry::counter("dex.retry.attempts"),
            dex_telemetry::counter("dex.retry.exhausted"),
            dex_telemetry::counter("dex.retry.budget_denied"),
            dex_telemetry::counter("dex.retry.backoff_ticks"),
        )
    })
}

/// Executes invocations under a [`RetryPolicy`], with thread-safe lifetime
/// accounting. One retrier is typically shared by a whole run (incremental
/// engine, corpus build, repair pass) so the retry budget is global to it.
#[derive(Debug, Default)]
pub struct Retrier {
    policy: RetryPolicy,
    attempts: AtomicU64,
    retries: AtomicU64,
    transient_failures: AtomicU64,
    exhausted: AtomicU64,
    budget_denied: AtomicU64,
    backoff_ticks: AtomicU64,
}

impl Retrier {
    /// A retrier executing `policy`.
    pub fn new(policy: RetryPolicy) -> Retrier {
        Retrier {
            policy,
            ..Retrier::default()
        }
    }

    /// A retrier that never retries (see [`RetryPolicy::none`]).
    pub fn none() -> Retrier {
        Retrier::new(RetryPolicy::none())
    }

    /// The policy this retrier executes.
    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    /// Snapshot of lifetime accounting.
    pub fn stats(&self) -> RetryStats {
        RetryStats {
            attempts: self.attempts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            transient_failures: self.transient_failures.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Relaxed),
            budget_denied: self.budget_denied.load(Ordering::Relaxed),
            backoff_ticks: self.backoff_ticks.load(Ordering::Relaxed),
        }
    }

    /// Reserves one retry against the budget; returns `false` (and counts a
    /// denial) when the budget is spent.
    fn try_reserve_retry(&self) -> bool {
        match self.policy.retry_budget {
            None => {
                self.retries.fetch_add(1, Ordering::Relaxed);
                true
            }
            Some(budget) => {
                // Optimistic reserve: grab a slot, give it back if that
                // overshot the budget. Concurrent reservers can transiently
                // overshoot the counter but never the number of granted slots.
                let prev = self.retries.fetch_add(1, Ordering::Relaxed);
                if prev >= budget {
                    self.retries.fetch_sub(1, Ordering::Relaxed);
                    self.budget_denied.fetch_add(1, Ordering::Relaxed);
                    if dex_telemetry::is_enabled() {
                        retry_counters().2.add(1);
                    }
                    false
                } else {
                    true
                }
            }
        }
    }

    /// Backoff before retry number `retry` (1-based): exponential in the
    /// base, capped.
    fn backoff_for(&self, retry: u32) -> u64 {
        let base = self.policy.base_backoff_ticks;
        if base == 0 {
            return 0;
        }
        let doublings = (retry - 1).min(32);
        let raw = base.saturating_mul(1u64 << doublings);
        raw.min(self.policy.max_backoff_ticks.max(base))
    }

    /// Books one attempt and, if `outcome` is a transient error with retries
    /// (and budget) remaining, books the backoff and returns `Some(ticks)`
    /// to signal "retry after advancing the module clock by `ticks`".
    fn plan_retry(&self, outcome: &InvocationOutcome, retry_idx: u32) -> Option<u64> {
        self.attempts.fetch_add(1, Ordering::Relaxed);
        let telemetry_on = dex_telemetry::is_enabled();
        if telemetry_on {
            retry_counters().0.add(1);
        }
        let transient = matches!(outcome, Err(e) if e.is_transient());
        if !transient {
            return None;
        }
        self.transient_failures.fetch_add(1, Ordering::Relaxed);
        if retry_idx + 1 >= self.policy.max_attempts {
            self.exhausted.fetch_add(1, Ordering::Relaxed);
            if telemetry_on {
                retry_counters().1.add(1);
            }
            return None;
        }
        if !self.try_reserve_retry() {
            return None;
        }
        let ticks = self.backoff_for(retry_idx + 1);
        self.backoff_ticks.fetch_add(ticks, Ordering::Relaxed);
        if telemetry_on && ticks > 0 {
            retry_counters().3.add(ticks);
        }
        Some(ticks)
    }

    /// Books the causal record of one scheduled retry: lazily opens the
    /// invocation-level span (so the healthy path never allocates one) and
    /// records a flight event. Subsequent attempts then open `retry.attempt`
    /// spans that nest under `invoke.retrying`.
    fn note_retry(
        &self,
        module: &dyn BlackBox,
        invoke_span: &mut Option<dex_telemetry::SpanGuard>,
        retry_idx: u32,
        ticks: u64,
    ) {
        if !dex_telemetry::is_enabled() {
            return;
        }
        if invoke_span.is_none() {
            *invoke_span = Some(dex_telemetry::span("invoke.retrying"));
        }
        dex_telemetry::flight(
            dex_telemetry::FlightKind::Retry,
            module.descriptor().id.as_str(),
            format!("transient failure; backing off {ticks} ticks"),
            (retry_idx + 1) as u64,
        );
    }

    /// Records the flight post-mortem entry for a transient error that
    /// survived every attempt (or was denied by the budget).
    fn note_exhausted(&self, module: &dyn BlackBox, outcome: &InvocationOutcome) {
        let Err(error) = outcome else { return };
        if error.is_transient() && dex_telemetry::is_enabled() {
            dex_telemetry::flight(
                dex_telemetry::FlightKind::RetryExhausted,
                module.descriptor().id.as_str(),
                format!("{error:?}"),
                0,
            );
        }
    }

    /// Invokes `module` on `inputs`, retrying transient failures per the
    /// policy: the one retry loop every pipeline invocation goes through.
    ///
    /// With a `cache`, each attempt is a [`InvocationCache::invoke`] lookup.
    /// The cache never memoizes transients, so each retry reaches the
    /// module; a success or permanent error is memoized as usual and ends
    /// the loop. Without one, each attempt invokes the module directly. The
    /// final outcome (success, permanent error, or the transient error that
    /// survived every attempt) is returned. A caller with no retry policy
    /// passes [`Retrier::none`].
    pub fn invoke(
        &self,
        module: &dyn BlackBox,
        inputs: &[Value],
        cache: Option<&InvocationCache>,
    ) -> Arc<InvocationOutcome> {
        let mut retry_idx = 0u32;
        let mut invoke_span = None;
        loop {
            let outcome = {
                let _attempt = invoke_span
                    .as_ref()
                    .map(|_| dex_telemetry::span("retry.attempt"));
                match cache {
                    Some(cache) => cache.invoke(module, inputs),
                    None => Arc::new(module.invoke(inputs)),
                }
            };
            match self.plan_retry(&outcome, retry_idx) {
                Some(ticks) => {
                    self.note_retry(module, &mut invoke_span, retry_idx, ticks);
                    module.advance_ticks(ticks);
                    retry_idx += 1;
                }
                None => {
                    if retry_idx > 0 {
                        self.note_exhausted(module, &outcome);
                    }
                    return outcome;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::FnModule;
    use crate::invoke::InvocationError;
    use crate::module::{ModuleDescriptor, ModuleKind};
    use crate::param::Parameter;
    use dex_values::StructuralType;
    use std::sync::atomic::AtomicUsize;

    /// A module that fails transiently the first `flaky` times per distinct
    /// input, then succeeds forever.
    fn flaky_upper(flaky: usize) -> (FnModule, Arc<AtomicUsize>) {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let module = FnModule::new(
            ModuleDescriptor::new(
                "op:flaky",
                "Flaky",
                ModuleKind::SoapService,
                vec![Parameter::required("in", StructuralType::Text, "Document")],
                vec![Parameter::required("out", StructuralType::Text, "Document")],
            ),
            move |inputs| {
                let n = seen.fetch_add(1, Ordering::Relaxed);
                if n < flaky {
                    return Err(InvocationError::fault("transient blip"));
                }
                Ok(vec![Value::text(
                    inputs[0].as_text().unwrap().to_uppercase(),
                )])
            },
        );
        (module, calls)
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        let (module, calls) = flaky_upper(2);
        let retrier = Retrier::new(RetryPolicy::transient(4));
        let out = retrier.invoke(&module, &[Value::text("ok")], None);
        assert_eq!(out.as_ref(), &Ok(vec![Value::text("OK")]));
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        let stats = retrier.stats();
        assert_eq!(stats.attempts, 3);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.transient_failures, 2);
        assert_eq!(stats.exhausted, 0);
        // Exponential backoff: 1 + 2 simulated ticks.
        assert_eq!(stats.backoff_ticks, 3);
    }

    #[test]
    fn permanent_errors_are_never_retried() {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let module = FnModule::new(
            ModuleDescriptor::new(
                "op:reject",
                "Reject",
                ModuleKind::RestService,
                vec![Parameter::required("in", StructuralType::Text, "Document")],
                vec![Parameter::required("out", StructuralType::Text, "Document")],
            ),
            move |_| {
                seen.fetch_add(1, Ordering::Relaxed);
                Err(InvocationError::rejected("always"))
            },
        );
        let retrier = Retrier::new(RetryPolicy::transient(5));
        let out = retrier.invoke(&module, &[Value::text("x")], None);
        assert!(matches!(
            out.as_ref(),
            Err(InvocationError::Rejected { .. })
        ));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(retrier.stats().retries, 0);
    }

    #[test]
    fn exhaustion_returns_the_transient_error() {
        let (module, calls) = flaky_upper(usize::MAX);
        let retrier = Retrier::new(RetryPolicy::transient(3));
        let out = retrier.invoke(&module, &[Value::text("x")], None);
        assert!(matches!(out.as_ref(), Err(InvocationError::Fault { .. })));
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        let stats = retrier.stats();
        assert_eq!(stats.exhausted, 1);
        assert_eq!(stats.retries, 2);
    }

    #[test]
    fn budget_caps_total_retries_across_invocations() {
        let (module, _) = flaky_upper(usize::MAX);
        let retrier = Retrier::new(RetryPolicy::transient(10).with_budget(3));
        for i in 0..4 {
            let _ = retrier.invoke(&module, &[Value::text(format!("v{i}"))], None);
        }
        let stats = retrier.stats();
        assert_eq!(stats.retries, 3, "budget granted exactly 3 retries");
        assert!(stats.budget_denied >= 1, "{stats:?}");
    }

    #[test]
    fn none_policy_is_single_attempt() {
        let (module, calls) = flaky_upper(usize::MAX);
        let retrier = Retrier::none();
        let out = retrier.invoke(&module, &[Value::text("x")], None);
        assert!(out.is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert!(!retrier.policy().retries_enabled());
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let retrier = Retrier::new(RetryPolicy {
            max_attempts: 10,
            base_backoff_ticks: 2,
            max_backoff_ticks: 10,
            retry_budget: None,
        });
        assert_eq!(retrier.backoff_for(1), 2);
        assert_eq!(retrier.backoff_for(2), 4);
        assert_eq!(retrier.backoff_for(3), 8);
        assert_eq!(retrier.backoff_for(4), 10, "capped");
        assert_eq!(retrier.backoff_for(60), 10, "shift saturates");
    }
}
