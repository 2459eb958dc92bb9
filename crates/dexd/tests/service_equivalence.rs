//! The service's correctness contract (ISSUE 10): any interleaving of
//! concurrent dexd requests yields responses **byte-identical** to what a
//! sequential batch pipeline over the same state answers — admission
//! control and the scheduling of concurrent callers must be invisible in
//! the payloads. A second property
//! pins the same contract with seeded transient faults injected into every
//! module, and with a lock-poisoning `Chaos` panic thrown mid-run.
//!
//! Shape of each case: one `Dexd` service and one bare
//! [`IncrementalPipeline`] oracle are built over identical mini worlds
//! (`dex_oracle::fixture`, shared with the engine's equivalence suite).
//! Seeded delta batches go to both (sequentially); between batches a burst
//! of read requests hits the service from several client threads at once,
//! and every response is compared — as serialized JSON bytes — against the
//! reply the oracle's accessors dictate.

use dex_core::GenerationConfig;
use dex_experiments::IncrementalPipeline;
use dex_modules::RetryPolicy;
use dex_oracle::fixture::{decode_delta, mini_world, module_id, MODULES};
use dexd::{AnnotationReply, Client, Dexd, Request, Response, ServiceConfig, SubstitutesReply};
use proptest::prelude::*;
use std::sync::Arc;

/// Client threads per read burst.
const BURST_THREADS: usize = 3;
/// Requests per client thread per burst.
const BURST_LEN: usize = 4;

/// Decodes the read burst one op word dictates: a deterministic list of
/// annotation and substitute lookups aimed at seeded slots.
fn decode_burst(word: u64) -> Vec<Request> {
    (0..BURST_THREADS * BURST_LEN)
        .map(|k| {
            let bits = word
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                .wrapping_add(k as u64 * 0x9e37_79b9);
            let id = module_id((bits >> 3) as usize % MODULES).0;
            if bits.is_multiple_of(2) {
                Request::FindSubstitutes { id }
            } else {
                Request::AnnotateModule { id }
            }
        })
        .collect()
}

/// What the sequential pipeline answers for a read request — the oracle
/// the service must agree with byte-for-byte.
fn oracle_response(p: &IncrementalPipeline, req: &Request) -> Response {
    match req {
        Request::AnnotateModule { id } => {
            let mid = dex_modules::ModuleId(id.clone());
            match p.annotation(&mid) {
                None => Response::Error {
                    message: format!("module `{id}` is not tracked by this registry"),
                },
                Some((available, outcome)) => Response::Annotation(AnnotationReply {
                    id: id.clone(),
                    available,
                    examples: outcome.as_ref().ok().map(|r| r.examples.clone()),
                    error: outcome.as_ref().err().map(|e| e.to_string()),
                    invocations: outcome.as_ref().map(|r| r.invocations).unwrap_or(0),
                    transient_failures: outcome.as_ref().map(|r| r.transient_failures).unwrap_or(0),
                }),
            }
        }
        Request::FindSubstitutes { id } => {
            let mid = dex_modules::ModuleId(id.clone());
            match p.substitutes(&mid) {
                None => Response::Error {
                    message: format!("module `{id}` is not tracked by this registry"),
                },
                Some(answer) => Response::Substitutes(SubstitutesReply {
                    id: id.clone(),
                    available: answer.available,
                    candidates_compared: answer.candidates_compared,
                    ranked: answer.ranked.into_iter().map(|(m, v)| (m.0, v)).collect(),
                }),
            }
        }
        other => unreachable!("burst only carries reads, got {other:?}"),
    }
}

/// Drives one full case: identical worlds for service and oracle, seeded
/// delta batches applied to both, concurrent read bursts between batches,
/// every response compared as serialized bytes.
fn check_service_equivalence(
    shape_salt: u64,
    behavior_salt: u64,
    reject_pct: u64,
    ops: &[u64],
    faults: Option<(u64, u32)>,
    inject_chaos: bool,
) {
    let config = GenerationConfig {
        retry: if faults.is_some() {
            RetryPolicy::transient(4)
        } else {
            RetryPolicy::none()
        },
        ..GenerationConfig::default()
    };
    let cfg = ServiceConfig {
        queue_capacity: 64,
        generation: config.clone(),
        ..ServiceConfig::default()
    };

    let (svc_u, svc_p) = mini_world(shape_salt, behavior_salt, reject_pct, faults);
    let svc = Dexd::launch_with(svc_u, svc_p, &cfg);
    let client = Client::new(Arc::clone(&svc));

    let (oracle_u, oracle_p) = mini_world(shape_salt, behavior_salt, reject_pct, faults);
    let mut oracle = IncrementalPipeline::bootstrap(oracle_u, oracle_p, config);

    for (i, &word) in ops.iter().enumerate() {
        // ---- Concurrent read burst: any interleaving, same bytes. ------
        if inject_chaos && i == ops.len() / 2 {
            // Poison the write lock mid-run; the service must shrug it off.
            let resp = client.call(Request::Chaos { hold_write: true });
            assert!(
                matches!(&resp, Response::Error { message } if message.contains("chaos")),
                "chaos answered {resp:?}"
            );
        }
        let requests = decode_burst(word);
        let answered: Vec<(Request, Response)> = std::thread::scope(|scope| {
            let handles: Vec<_> = requests
                .chunks(BURST_LEN)
                .map(|chunk| {
                    let client = client.clone();
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|req| {
                                let mut resp = client.call(req.clone());
                                while matches!(resp, Response::Busy) {
                                    std::thread::yield_now();
                                    resp = client.call(req.clone());
                                }
                                (req.clone(), resp)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("burst thread"))
                .collect()
        });
        for (req, got) in &answered {
            let want = oracle_response(&oracle, req);
            let got_bytes = serde_json::to_string(got).expect("serialize service response");
            let want_bytes = serde_json::to_string(&want).expect("serialize oracle response");
            assert_eq!(
                got_bytes, want_bytes,
                "concurrent response diverged from the sequential pipeline for {req:?}"
            );
        }

        // ---- Sequential write: same delta batch to both sides. ---------
        let delta = decode_delta(i, word);
        let want_report = oracle.apply(std::slice::from_ref(&delta));
        let resp = client.call(Request::ApplyDelta {
            deltas: vec![delta],
        });
        match resp {
            Response::DeltaApplied(got_report) => assert_eq!(
                got_report, want_report,
                "delta accounting diverged after {i} ops"
            ),
            other => panic!("ApplyDelta answered {other:?}"),
        }
    }

    // Final burst after the last delta, then a clean shutdown.
    for req in decode_burst(0xD00D ^ ops.len() as u64) {
        let got = client.call(req.clone());
        let want = oracle_response(&oracle, &req);
        assert_eq!(
            serde_json::to_string(&got).unwrap(),
            serde_json::to_string(&want).unwrap(),
            "post-run response diverged for {req:?}"
        );
    }
    svc.shutdown();
    svc.join();
}

proptest! {
    /// Concurrent service == sequential pipeline, byte for byte, for any
    /// seeded request interleaving and delta sequence.
    #[test]
    fn concurrent_responses_match_sequential_pipeline(
        shape_salt in any::<u64>(),
        behavior_salt in any::<u64>(),
        reject_pct in 0u64..40,
        ops in proptest::collection::vec(any::<u64>(), 1..6),
    ) {
        check_service_equivalence(shape_salt, behavior_salt, reject_pct, &ops, None, false);
    }

    /// Same contract with seeded transient faults in every module and a
    /// lock-poisoning chaos panic injected mid-run: the retry layer
    /// converges both sides to the true outcomes, and poison recovery
    /// leaves the served state untouched.
    #[test]
    fn equivalence_survives_faults_and_injected_panics(
        shape_salt in any::<u64>(),
        behavior_salt in any::<u64>(),
        reject_pct in 0u64..40,
        fault_seed in any::<u64>(),
        fault_rate_pct in 1u32..31,
        ops in proptest::collection::vec(any::<u64>(), 1..5),
    ) {
        check_service_equivalence(
            shape_salt,
            behavior_salt,
            reject_pct,
            &ops,
            Some((fault_seed, fault_rate_pct)),
            true,
        );
    }
}
