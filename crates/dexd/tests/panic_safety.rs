//! Satellite 3 of ISSUE 10: neither backpressure (`Busy`), nor handler
//! panics, nor shutdown may poison the shared operating state or leak
//! admission tickets. The `Chaos` request panics *while holding* the
//! pipeline lock — on the write side this genuinely poisons the std
//! `RwLock` — and the service must keep answering correctly afterwards,
//! including further writes. A rude socket client that disconnects
//! mid-request must likewise leave the daemon serving everyone else.

use dex_core::delta::Delta;
use dexd::{proto, serve_unix, Client, Dexd, Request, Response, ServiceConfig, SocketClient};
use std::os::unix::net::UnixStream;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_service(queue_capacity: usize) -> Arc<Dexd> {
    Dexd::launch(&ServiceConfig {
        scale: 120,
        seed: 9,
        pool_depth: 2,
        workers: 2,
        queue_capacity,
        ..ServiceConfig::default()
    })
}

/// Tickets release on `Drop`, not synchronously with the reply, so give
/// the counter a moment to settle before asserting it drained.
fn assert_drains(svc: &Dexd) {
    let start = Instant::now();
    while svc.in_flight() != 0 {
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "admission tickets leaked: {} still in flight",
            svc.in_flight()
        );
        std::thread::yield_now();
    }
}

/// Calls through transient `Busy` answers: a ticket releases on `Drop`
/// just *after* its reply lands, so even a sequential caller can hit the
/// admission cap for an instant when the capacity is this small.
fn call_retry(client: &Client, req: Request) -> Response {
    loop {
        match client.call(req.clone()) {
            Response::Busy => std::thread::yield_now(),
            resp => return resp,
        }
    }
}

fn stats(client: &Client) -> dexd::StatsReply {
    match call_retry(client, Request::Stats) {
        Response::Stats(s) => s,
        other => panic!("stats answered {other:?}"),
    }
}

#[test]
fn injected_panics_and_busy_storm_leave_state_unpoisoned() {
    let svc = small_service(2);
    let client = Client::new(Arc::clone(&svc));
    let ids = svc.tracked_ids();
    let probe = ids[0].0.clone();

    // Baseline answer, for comparing post-chaos bytes against.
    let baseline = call_retry(&client, Request::FindSubstitutes { id: probe.clone() });
    assert!(matches!(baseline, Response::Substitutes(_)));

    // ---- Panic under the read lock: contained, answered, recovered. ----
    let resp = call_retry(&client, Request::Chaos { hold_write: false });
    assert!(
        matches!(&resp, Response::Error { message } if message.contains("chaos")),
        "read-side chaos answered {resp:?}"
    );
    assert_eq!(
        serde_json::to_string(&call_retry(
            &client,
            Request::FindSubstitutes { id: probe.clone() }
        ))
        .unwrap(),
        serde_json::to_string(&baseline).unwrap(),
        "read-side chaos changed a served answer"
    );

    // ---- Panic under the WRITE lock: the std RwLock is now poisoned; ---
    // every later acquisition must ride through the poison.
    let resp = call_retry(&client, Request::Chaos { hold_write: true });
    assert!(
        matches!(&resp, Response::Error { message } if message.contains("chaos")),
        "write-side chaos answered {resp:?}"
    );
    assert_eq!(
        serde_json::to_string(&call_retry(
            &client,
            Request::FindSubstitutes { id: probe.clone() }
        ))
        .unwrap(),
        serde_json::to_string(&baseline).unwrap(),
        "write-side chaos changed a served answer"
    );

    // Writes still work on the poisoned lock: withdraw + restore a module.
    let victim = ids[1].0.clone();
    for delta in [
        Delta::ModuleWithdraw {
            id: victim.as_str().into(),
        },
        Delta::ModuleRestore {
            id: victim.as_str().into(),
        },
    ] {
        let resp = call_retry(
            &client,
            Request::ApplyDelta {
                deltas: vec![delta],
            },
        );
        assert!(
            matches!(resp, Response::DeltaApplied(_)),
            "post-poison delta answered {resp:?}"
        );
    }

    // An untracked id is refused with an Error — never a panic (the engine
    // itself would assert on it under the write lock).
    let resp = call_retry(
        &client,
        Request::ApplyDelta {
            deltas: vec![Delta::ModuleWithdraw {
                id: "no-such-module".into(),
            }],
        },
    );
    assert!(
        matches!(&resp, Response::Error { message } if message.contains("not tracked")),
        "untracked delta answered {resp:?}"
    );

    // ---- Busy storm: capacity 2, eight concurrent blocking callers. ----
    // Busy rejections must be immediate, leak nothing, and poison nothing.
    std::thread::scope(|scope| {
        for t in 0..8usize {
            let client = client.clone();
            let ids = &ids;
            scope.spawn(move || {
                for k in 0..25usize {
                    let req = Request::FindSubstitutes {
                        id: ids[(t * 25 + k) % ids.len()].0.clone(),
                    };
                    let mut resp = client.call(req.clone());
                    while matches!(resp, Response::Busy) {
                        std::thread::yield_now();
                        resp = client.call(req.clone());
                    }
                    assert!(
                        matches!(resp, Response::Substitutes(_)),
                        "storm request answered {resp:?}"
                    );
                }
            });
        }
    });
    assert_drains(&svc);

    let s = stats(&client);
    assert_eq!(s.handler_panics, 2, "both chaos panics must be counted");
    assert_eq!(s.queue_depth, 0);
    assert!(
        s.in_flight >= 1 && s.in_flight <= 2,
        "stats saw {} in flight (itself plus at most one draining ticket)",
        s.in_flight
    );
    assert!(
        s.busy_rejections > 0,
        "eight callers against capacity 2 must have seen Busy"
    );

    // The baseline answer survived everything above.
    assert_eq!(
        serde_json::to_string(&call_retry(&client, Request::FindSubstitutes { id: probe }))
            .unwrap(),
        serde_json::to_string(&baseline).unwrap(),
    );

    // ---- Shutdown: answered, sticky, and clean. ------------------------
    let resp = call_retry(&client, Request::Shutdown);
    assert!(matches!(resp, Response::ShuttingDown));
    let resp = client.call(Request::Stats);
    assert!(
        matches!(resp, Response::ShuttingDown),
        "post-shutdown request answered {resp:?}"
    );
    svc.join();
    assert_drains(&svc);
}

#[test]
fn socket_client_disconnecting_mid_request_does_not_wedge_the_daemon() {
    let svc = small_service(8);
    let ids = svc.tracked_ids();
    let path = std::env::temp_dir().join(format!("dexd-panic-safety-{}.sock", std::process::id()));
    let server = {
        let svc = Arc::clone(&svc);
        let path = path.clone();
        std::thread::spawn(move || serve_unix(svc, &path))
    };
    let connect = |what: &str| {
        let start = Instant::now();
        loop {
            match UnixStream::connect(&path) {
                Ok(s) => return s,
                Err(e) => {
                    assert!(
                        start.elapsed() < Duration::from_secs(10),
                        "{what}: daemon never bound {}: {e}",
                        path.display()
                    );
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    };

    // Rude client: send a valid request frame, vanish without reading the
    // reply. The worker still runs the job; the reply send fails silently;
    // the ticket releases on drop.
    for id in ids.iter().take(3) {
        let mut rude = connect("rude client");
        proto::write_message(&mut rude, &Request::FindSubstitutes { id: id.0.clone() })
            .expect("rude client write");
        drop(rude);
    }
    // A garbage frame gets an Error reply, not a dead daemon.
    let mut garbage = connect("garbage client");
    proto::write_frame(&mut garbage, b"{\"NoSuchRequest\":{}}").expect("garbage write");
    match proto::read_message::<Response>(&mut garbage) {
        Ok(Response::Error { message }) => {
            assert!(message.contains("malformed"), "got: {message}")
        }
        other => panic!("garbage frame answered {other:?}"),
    }
    drop(garbage);

    // A polite client is still served normally.
    let mut polite = SocketClient::connect(&path).expect("polite connect");
    let resp = polite
        .call(&Request::FindSubstitutes {
            id: ids[0].0.clone(),
        })
        .expect("polite call");
    assert!(
        matches!(resp, Response::Substitutes(_)),
        "polite request answered {resp:?}"
    );
    assert_drains(&svc);
    let resp = polite.call(&Request::Shutdown).expect("shutdown call");
    assert!(matches!(resp, Response::ShuttingDown));
    server
        .join()
        .expect("server thread")
        .expect("serve_unix result");
    svc.join();
    assert!(!path.exists(), "socket file must be removed on exit");
}

/// Shutdown rounds raced against callers. Each round takes milliseconds;
/// with either bug below present, a round hangs within the first few dozen.
const SHUTDOWN_RACE_ROUNDS: u64 = 200;

/// Callers racing `shutdown()` always get an answer, and `join()` always
/// returns. A caller that passed the entry check must not push its job
/// after the workers drained the queue and exited, and a worker between
/// its flag check and its wait must not miss the shutdown wakeup. Either
/// bug hangs the round past its deadline.
#[test]
fn calls_racing_shutdown_are_answered_and_workers_join() {
    for round in 0..SHUTDOWN_RACE_ROUNDS {
        let (done, finished) = std::sync::mpsc::channel();
        let round_thread = std::thread::spawn(move || {
            let svc = Dexd::launch(&ServiceConfig {
                scale: 24,
                seed: 9,
                pool_depth: 1,
                workers: 2,
                queue_capacity: 8,
                ..ServiceConfig::default()
            });
            let callers: Vec<_> = (0..4)
                .map(|_| {
                    let client = Client::new(Arc::clone(&svc));
                    std::thread::spawn(move || loop {
                        match client.call(Request::Stats) {
                            Response::ShuttingDown => break,
                            Response::Stats(_) | Response::Busy => {}
                            other => panic!("a racing call answered {other:?}"),
                        }
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_micros(round % 9 * 100));
            svc.shutdown();
            svc.join();
            for caller in callers {
                caller.join().expect("caller panicked");
            }
            let _ = done.send(());
        });
        // A hung round is left detached; a finished or panicked one is
        // joined so its panic surfaces here.
        if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(10)) {
            panic!("shutdown race round {round} hung past its deadline");
        }
        round_thread.join().expect("shutdown race round panicked");
    }
}
