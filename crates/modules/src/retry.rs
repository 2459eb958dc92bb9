//! Retry for transient invocation failures.
//!
//! Remote services fail transiently all the time; the paper's pipeline only
//! keeps combinations that "terminate normally", so a transient
//! `Unavailable`/`Fault` must not be confused with a deterministic rejection.
//! A [`Retrier`] is the one invocation path (direct or through an
//! [`InvocationCache`]); it re-attempts *transient* errors only, at once, up
//! to the policy's `max_attempts`. Nothing waits and nothing reads a clock:
//! an injected fault's fate is a function of its key and of how many
//! attempts of that key already failed (see [`crate::fault`]), so retried
//! runs stay byte-for-byte reproducible.

use crate::blackbox::BlackBox;
use crate::cache::{InvocationCache, InvocationOutcome};
use dex_values::Value;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// How often to attempt an invocation that fails transiently.
///
/// Permanent errors (`Arity`, `BadInput`, `Rejected`) are never retried —
/// they are deterministic functions of the input vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts per invocation, including the first (`>= 1`).
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// No retries at all: one attempt. Exactly the pipeline's pre-retry
    /// behavior — this is the default everywhere.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_attempts: 1 }
    }

    /// Retries transients at once, up to `max_attempts` total attempts.
    pub fn transient(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
        }
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
}

/// Process-global telemetry counters for retry traffic, interned once.
fn retry_counters() -> &'static (
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
            dex_telemetry::counter("dex.retry.attempts"),
            dex_telemetry::counter("dex.retry.exhausted"),
            dex_telemetry::counter("dex.retry.retries"),
        )
    })
}

/// Executes invocations under a [`RetryPolicy`], with thread-safe lifetime
/// accounting. One retrier is typically shared by a whole run (incremental
/// engine, corpus build, repair pass) so its stats cover the run.
#[derive(Debug, Default)]
pub struct Retrier {
    policy: RetryPolicy,
    attempts: AtomicU64,
    retries: AtomicU64,
    transient_failures: AtomicU64,
    exhausted: AtomicU64,
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
        }
    }

    /// Books one attempt and returns whether `outcome` is a transient error
    /// with attempts remaining, in which case it also books the retry this
    /// schedules.
    fn plan_retry(&self, outcome: &InvocationOutcome, retry_idx: u32) -> bool {
        self.attempts.fetch_add(1, Ordering::Relaxed);
        let telemetry_on = dex_telemetry::is_enabled();
        if telemetry_on {
            retry_counters().0.add(1);
        }
        let transient = matches!(outcome, Err(e) if e.is_transient());
        if !transient {
            return false;
        }
        self.transient_failures.fetch_add(1, Ordering::Relaxed);
        if retry_idx + 1 >= self.policy.max_attempts {
            self.exhausted.fetch_add(1, Ordering::Relaxed);
            if telemetry_on {
                retry_counters().1.add(1);
            }
            return false;
        }
        self.retries.fetch_add(1, Ordering::Relaxed);
        if telemetry_on {
            retry_counters().2.add(1);
        }
        true
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
            "transient failure; retrying".to_string(),
            (retry_idx + 1) as u64,
        );
    }

    /// Records the flight post-mortem entry for a transient error that
    /// survived every attempt.
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
            if !self.plan_retry(&outcome, retry_idx) {
                if retry_idx > 0 {
                    self.note_exhausted(module, &outcome);
                }
                return outcome;
            }
            self.note_retry(module, &mut invoke_span, retry_idx);
            retry_idx += 1;
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
    fn none_policy_is_single_attempt() {
        let (module, calls) = flaky_upper(usize::MAX);
        let retrier = Retrier::none();
        let out = retrier.invoke(&module, &[Value::text("x")], None);
        assert!(out.is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert!(!retrier.policy().retries_enabled());
    }
}
