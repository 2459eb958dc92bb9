//! `serve_read` and `serve_mixed`: `dexd` over a scaled world behind its Unix
//! socket, loaded by this process through one connection per client thread.
//!
//! `serve_read` is a closed loop of reads: it stresses transport, codec,
//! service and read handlers, while the delta, generation and matching
//! layers do no work after set-up — an optimisation of those layers must
//! leave it unchanged. `serve_mixed` offers the same reads on a fixed
//! schedule and replaces one read every 250 ms with a write batch; readers
//! queue behind the writer, so the cost of applying a batch shows up in the
//! readers' tail.

use crate::check::{corruption_is_detected, expected_reply, Verdicts};
use crate::layers::{codec, per_layer, replay_pool, replay_setup, LayerInputs, ProbeRow};
use crate::report::{Metric, Outcome};
use crate::stats::{median, tail_quantile, Windows};
use crate::trace::SAMPLE_EVERY;
use crate::world::{build_world, ms, us, workflows, Churner, POOL_DEPTH};
use crate::{host, RunCfg};
use dex_core::delta::{Delta, DeltaReport};
use dex_experiments::IncrementalPipeline;
use dex_modules::ModuleId;
use dex_workflow::Workflow;
use dexd::{serve_unix, Client, Dexd, Request, Response, ServiceConfig, SocketClient};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Stored workflows the read mix validates.
const WORKFLOWS: usize = 200;
/// Load-generator threads, each with its own connection.
pub const CLIENT_THREADS: usize = 2;
/// `serve_mixed`: reads offered per second by each thread.
const RATE_PER_THREAD: f64 = 1000.0;
/// `serve_mixed`: thread 0 sends a write batch instead of every this-many-th
/// read (every 250 ms).
const WRITE_EVERY: u64 = 250;
/// `serve_mixed` batch shape: modules withdrawn (and the previous batch's
/// restored), and pool concepts whose first instance is replaced.
const BATCH_WITHDRAW: usize = 4;
const BATCH_POOL_CONCEPTS: usize = 2;
/// Read answers fetched after the load and compared with the reference.
const CHECK_READS: usize = 256;
/// `Stats` calls timed by the service probe.
const STATS_PROBES: usize = 32;
/// Batches of the `serve_mixed` shape applied to the reference after the
/// checks of `serve_read`, so its delta layers are measured too.
const PROBE_BATCHES: usize = 8;
/// A read slower than this misses the latency limit.
const READ_LIMIT_US: f64 = 2000.0;

/// The service configuration every served world runs with.
pub fn service_config(scale: usize, seed: u64) -> ServiceConfig {
    ServiceConfig {
        scale,
        seed,
        pool_depth: POOL_DEPTH,
        workers: host::cores(),
        queue_capacity: 256,
        ..ServiceConfig::default()
    }
}

/// The read mix: 60% `FindSubstitutes`, 25% `AnnotateModule`, 10%
/// `ValidateWorkflow`, 5% `Stats`, ids uniform.
struct ReadMix {
    rng: StdRng,
    ids: Arc<Vec<String>>,
    workflows: Arc<Vec<Workflow>>,
}

impl ReadMix {
    fn new(seed: u64, ids: Arc<Vec<String>>, workflows: Arc<Vec<Workflow>>) -> ReadMix {
        ReadMix {
            rng: StdRng::seed_from_u64(seed),
            ids,
            workflows,
        }
    }

    fn next(&mut self) -> Request {
        let roll = self.rng.gen_range(0..100u32);
        if roll < 60 {
            Request::FindSubstitutes { id: self.id() }
        } else if roll < 85 {
            Request::AnnotateModule { id: self.id() }
        } else if roll < 95 {
            Request::ValidateWorkflow {
                workflow: self.workflows[self.rng.gen_range(0..self.workflows.len())].clone(),
            }
        } else {
            Request::Stats
        }
    }

    /// The next state read (no `Stats`): what the correctness sample draws.
    fn next_state_read(&mut self) -> Request {
        loop {
            let req = self.next();
            if !matches!(req, Request::Stats) {
                return req;
            }
        }
    }

    fn id(&mut self) -> String {
        self.ids[self.rng.gen_range(0..self.ids.len())].clone()
    }
}

/// Whether a response answers its request successfully.
fn answered(req: &Request, resp: &Response) -> bool {
    matches!(
        (req, resp),
        (Request::AnnotateModule { .. }, Response::Annotation(_))
            | (Request::FindSubstitutes { .. }, Response::Substitutes(_))
            | (Request::ValidateWorkflow { .. }, Response::Validation(_))
            | (Request::Stats, Response::Stats(_))
            | (Request::ApplyDelta { .. }, Response::DeltaApplied(_))
    )
}

/// One read in the measured phase.
struct Read {
    /// Seconds from the start of the measured phase to when the read was
    /// sent (closed loop) or due (open loop).
    at_s: f64,
    /// Seconds from the start of the measured phase to its completion.
    done_s: f64,
    latency_us: f64,
    ok: bool,
    traced: bool,
}

/// One write batch, warm-up included (every batch is replayed).
struct Write {
    batch: Vec<Delta>,
    report: Option<DeltaReport>,
    latency_ms: f64,
    measured: bool,
}

#[derive(Default)]
struct ThreadLog {
    reads: Vec<Read>,
    writes: Vec<Write>,
    attempted: u64,
    failed: u64,
    max_late_ms: f64,
    late: u64,
}

/// The phase boundaries every load thread follows.
#[derive(Clone, Copy)]
struct Phases {
    start: Instant,
    measure_start: Instant,
    /// Start of the traced half (equal to `end` in an untraced run).
    traced_from: Instant,
    end: Instant,
}

impl Phases {
    fn offset_s(&self, t: Instant) -> f64 {
        if t >= self.measure_start {
            (t - self.measure_start).as_secs_f64()
        } else {
            -(self.measure_start - t).as_secs_f64()
        }
    }
}

/// Runs `serve_read` (`mixed == false`) or `serve_mixed`.
pub fn run(mixed: bool, cfg: &RunCfg) -> Outcome {
    let workload = if mixed { "serve_mixed" } else { "serve_read" };
    let scale = cfg.serve_scale;
    let svc_cfg = service_config(scale, cfg.seed);

    // ---- Set-up, repeated; the last service is the one loaded. ----------
    let mut setup_s = Vec::new();
    let mut served = None;
    for round in 0..cfg.setups {
        let world = build_world(scale, cfg.seed);
        let last = round + 1 == cfg.setups;
        let inputs = last.then(|| {
            (
                workflows(&world.universe, &world.pool, cfg.seed, WORKFLOWS),
                world
                    .pool
                    .covered_concepts()
                    .into_iter()
                    .map(str::to_string)
                    .collect::<Vec<_>>(),
            )
        });
        let t = Instant::now();
        let svc = {
            let _span = dex_telemetry::span("bench.dexd.launch");
            Dexd::launch_with(world.universe, world.pool, &svc_cfg)
        };
        setup_s.push((world.build_ms + world.pool_ms + ms(t)) / 1000.0);
        match inputs {
            Some(inputs) => served = Some((svc, inputs)),
            None => {
                svc.shutdown();
                svc.join();
            }
        }
    }
    let (svc, (workflows, concepts)) = served.expect("at least one set-up");
    let ids: Arc<Vec<String>> = Arc::new(svc.tracked_ids().into_iter().map(|m| m.0).collect());
    let workflows = Arc::new(workflows);
    let mut served = OnSocket::start(svc, &cfg.work_dir, workload);

    // ---- Load. -----------------------------------------------------------
    if cfg.trace {
        dex_telemetry::disable();
    }
    let start = Instant::now();
    let measure_start = start + cfg.warmup;
    let end = measure_start + cfg.measure;
    let phases = Phases {
        start,
        measure_start,
        traced_from: if cfg.trace {
            measure_start + cfg.measure / 2
        } else {
            end
        },
        end,
    };
    let churner = Churner::new(
        cfg.seed,
        ids.iter().map(|id| ModuleId(id.clone())).collect(),
        concepts.clone(),
        BATCH_WITHDRAW,
        BATCH_POOL_CONCEPTS,
    );
    let logs: Vec<ThreadLog> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let mut churner = Some(churner);
        for tid in 0..CLIENT_THREADS {
            let mix = ReadMix::new(
                cfg.seed ^ (0x5EED_0000 + tid as u64),
                Arc::clone(&ids),
                Arc::clone(&workflows),
            );
            let socket = &served.socket;
            let writer = if mixed && tid == 0 {
                churner.take()
            } else {
                None
            };
            handles.push(scope.spawn(move || {
                let client = connect(socket);
                if mixed {
                    open_loop(client, mix, writer, tid, phases)
                } else {
                    closed_loop(client, mix, phases)
                }
            }));
        }
        if cfg.trace {
            std::thread::sleep(phases.traced_from.saturating_duration_since(Instant::now()));
            dex_telemetry::enable();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let peak_rss_mb = host::peak_rss_mb();

    // ---- Answers to check, fetched over the socket after the load. --------
    let mut sample = ReadMix::new(
        cfg.seed ^ 0xC0FFEE,
        Arc::clone(&ids),
        Arc::clone(&workflows),
    );
    let probes: Vec<(Request, Response, f64)> = (0..CHECK_READS + STATS_PROBES)
        .map(|i| {
            let req = if i < CHECK_READS {
                sample.next_state_read()
            } else {
                Request::Stats
            };
            let t = Instant::now();
            let resp = served
                .client
                .call(&req)
                .expect("probe call over the socket");
            (req, resp, us(t))
        })
        .collect();
    let call_us: Vec<f64> = if cfg.trace {
        let client = Client::new(Arc::clone(&served.svc));
        probes
            .iter()
            .map(|(req, _, _)| {
                let t = Instant::now();
                std::hint::black_box(client.call(req.clone()));
                us(t)
            })
            .collect()
    } else {
        Vec::new()
    };
    let (coalesced_share, busy_rejections) = served.stop();

    // ---- Reference: the same world, bootstrapped uncontended. ------------
    let writes: Vec<&Write> = logs.iter().flat_map(|l| &l.writes).collect();
    let batches: Vec<Vec<Delta>> = writes.iter().map(|w| w.batch.clone()).collect();
    let mut verdicts = Verdicts::default();
    let world = build_world(scale, cfg.seed);
    let replay = cfg
        .trace
        .then(|| replay_setup(&world.universe, &world.pool));
    let (universe_build_ms, pool_build_ms, pool_instances) =
        (world.build_ms, world.pool_ms, world.pool.len());
    let mut pool_ops = if cfg.trace {
        replay_pool(&world.pool, &batches)
    } else {
        Default::default()
    };
    let t = Instant::now();
    let mut reference = {
        let _span = dex_telemetry::span("bench.incremental.bootstrap");
        IncrementalPipeline::bootstrap(world.universe, world.pool, svc_cfg.generation.clone())
    };
    let bootstrap_ms = ms(t);
    let mut apply_ms = Vec::new();
    let mut reports = Vec::new();
    for (i, w) in writes.iter().enumerate() {
        let t = Instant::now();
        let report = {
            let _span = dex_telemetry::span("bench.incremental.apply");
            reference.apply(&w.batch)
        };
        apply_ms.push(ms(t));
        verdicts.expect_eq(&format!("write batch {i}"), &w.report, &Some(report));
        reports.push(report);
    }
    let mut rows = Vec::new();
    for (i, (req, resp, socket_us)) in probes.iter().enumerate() {
        let t = Instant::now();
        let expected = if matches!(req, Request::Stats) {
            std::hint::black_box(reference.invocation_cache().stats());
            None
        } else {
            Some(expected_reply(&reference, req))
        };
        let handler_us = us(t);
        if let Some(expected) = expected {
            verdicts.expect_eq(&format!("{} answer {i}", req.endpoint()), resp, &expected);
            if cfg.smoke && i == 0 {
                verdicts.expect(
                    "a corrupted reference answer is detected",
                    corruption_is_detected(resp, &expected),
                );
            }
        }
        if cfg.trace {
            rows.push(ProbeRow {
                endpoint: req.endpoint(),
                socket_us: *socket_us,
                call_us: call_us[i],
                handler_us,
                codec: codec(req, resp),
            });
        }
    }
    let validate_us: Vec<f64> = workflows
        .iter()
        .map(|wf| {
            let t = Instant::now();
            let universe = reference.universe();
            std::hint::black_box(dex_workflow::validate(
                wf,
                &universe.catalog,
                &universe.ontology,
            ))
            .ok();
            us(t)
        })
        .collect();

    // `serve_read` sends no writes: measure its delta layers on batches of
    // the `serve_mixed` shape, applied to the reference after the checks.
    let mut delta_batches = batches;
    if cfg.trace && !mixed {
        let mut churner = Churner::new(
            cfg.seed ^ 0x9B0BE,
            reference.tracked_ids().to_vec(),
            concepts,
            BATCH_WITHDRAW,
            BATCH_POOL_CONCEPTS,
        );
        delta_batches = (0..PROBE_BATCHES).map(|_| churner.next_batch()).collect();
        pool_ops = replay_pool(reference.pool(), &delta_batches);
        for batch in &delta_batches {
            let t = Instant::now();
            reports.push(reference.apply(batch));
            apply_ms.push(ms(t));
        }
    }

    // ---- Metrics. --------------------------------------------------------
    let attempted: u64 = logs.iter().map(|l| l.attempted).sum::<u64>() + verdicts.compared;
    let failed: u64 = logs.iter().map(|l| l.failed).sum::<u64>() + verdicts.mismatches.len() as u64;
    let reads: Vec<&Read> = logs.iter().flat_map(|l| &l.reads).collect();
    let untraced: Vec<&Read> = reads.iter().copied().filter(|r| !r.traced).collect();
    let measured_s = if cfg.trace {
        cfg.measure.as_secs_f64() / 2.0
    } else {
        cfg.measure.as_secs_f64()
    };
    let mut windows = Windows::new(measured_s.round() as usize);
    let mut completions = Windows::new(measured_s.round() as usize);
    for r in &untraced {
        windows.record(r.at_s, r.latency_us);
        completions.record(r.done_s, 1.0);
    }
    let latencies: Vec<f64> = untraced.iter().map(|r| r.latency_us).collect();
    let op_p50_us = median(&latencies);
    // Each window's tail is the highest percentile with at least ten reads
    // beyond it in the sparsest window (p99 at every supported rate).
    let tail_q = tail_quantile(windows.min_count());
    let mut diagnostics = vec![
        Metric::new("op_p50_us", op_p50_us, "us", latencies.len()),
        Metric::new(
            "op_tail_us",
            windows.median_of_quantiles(tail_q),
            "us",
            latencies.len(),
        ),
        Metric::new(
            "throughput_ops",
            median(&completions.counts()),
            "1/s",
            completions.counts().len(),
        ),
        Metric::new(
            "read_slo_miss_pct",
            100.0
                * untraced
                    .iter()
                    .filter(|r| !r.ok || r.latency_us > READ_LIMIT_US)
                    .count() as f64
                / untraced.len().max(1) as f64,
            "%",
            untraced.len(),
        ),
        Metric::new("tail_percentile", 100.0 * tail_q, "%", windows.min_count()),
    ];
    let measured_writes: Vec<f64> = writes
        .iter()
        .filter(|w| w.measured)
        .map(|w| w.latency_ms)
        .collect();
    if mixed {
        let uncontended = median(&apply_ms);
        let delta_p50 = median(&measured_writes);
        diagnostics.push(Metric::new(
            "delta_p50_ms",
            delta_p50,
            "ms",
            measured_writes.len(),
        ));
        diagnostics.push(Metric::new(
            "service.lock_wait_ms",
            delta_p50 - uncontended,
            "ms",
            measured_writes.len(),
        ));
        let sent: u64 = logs.iter().map(|l| l.attempted).sum();
        diagnostics.push(Metric::new(
            "loadgen.max_late_ms",
            logs.iter().map(|l| l.max_late_ms).fold(0.0, f64::max),
            "ms",
            sent as usize,
        ));
        diagnostics.push(Metric::new(
            "loadgen.late_share",
            logs.iter().map(|l| l.late).sum::<u64>() as f64 / sent.max(1) as f64,
            "ratio",
            sent as usize,
        ));
    }

    let metrics = if cfg.trace {
        let traced: Vec<f64> = reads
            .iter()
            .filter(|r| r.traced)
            .map(|r| r.latency_us)
            .collect();
        let (remove_us, insert_us) = pool_ops;
        per_layer(&LayerInputs {
            universe_build_ms,
            pool_build_ms,
            pool_instances,
            bootstrap_ms,
            replay: replay.expect("traced runs replay the set-up"),
            apply_ms,
            reports,
            batches: delta_batches,
            pool_remove_us: remove_us,
            pool_insert_us: insert_us,
            validate_us,
            probe: rows,
            coalesced_share,
            busy_rejections,
            overhead_pct: 100.0 * (median(&traced) - op_p50_us) / op_p50_us,
        })
    } else {
        vec![
            Metric::new("setup_s", median(&setup_s), "s", setup_s.len()),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB", 1),
        ]
    };
    Outcome {
        workload,
        metrics,
        diagnostics,
        attempted,
        failed,
        mismatches: verdicts.mismatches,
    }
}

/// A launched service behind its Unix socket, with one client connected.
pub struct OnSocket {
    pub svc: Arc<Dexd>,
    pub client: SocketClient,
    pub socket: PathBuf,
    server: JoinHandle<io::Result<()>>,
}

impl OnSocket {
    /// Serves `svc` on `<work_dir>/<name>-<pid>.sock` and connects to it.
    pub fn start(svc: Arc<Dexd>, work_dir: &Path, name: &str) -> OnSocket {
        std::fs::create_dir_all(work_dir).expect("create the work directory");
        let socket = work_dir.join(format!("{name}-{}.sock", std::process::id()));
        let server = {
            let svc = Arc::clone(&svc);
            let socket = socket.clone();
            std::thread::spawn(move || serve_unix(svc, &socket))
        };
        OnSocket {
            client: connect(&socket),
            svc,
            socket,
            server,
        }
    }

    /// Reads the service's final counters, shuts it down over the socket,
    /// and waits for every thread it started. Returns the share of
    /// substitute lookups that shared a batch pass, and the busy
    /// rejections.
    pub fn stop(mut self) -> (f64, u64) {
        let counters = match self.client.call(&Request::Stats) {
            Ok(Response::Stats(s)) => (
                s.coalesced_lookups as f64 / (s.batch_passes + s.coalesced_lookups).max(1) as f64,
                s.busy_rejections,
            ),
            other => panic!("final Stats failed: {other:?}"),
        };
        let shut = self.client.call(&Request::Shutdown);
        assert!(
            matches!(shut, Ok(Response::ShuttingDown)),
            "shutdown answered {shut:?}"
        );
        self.server
            .join()
            .expect("server thread")
            .expect("serve_unix ends cleanly");
        self.svc.join();
        counters
    }
}

/// Connects to the daemon at `socket`, waiting for it to bind.
fn connect(socket: &Path) -> SocketClient {
    let started = Instant::now();
    loop {
        match SocketClient::connect(socket) {
            Ok(client) => return client,
            Err(e) => {
                assert!(
                    started.elapsed() < Duration::from_secs(10),
                    "daemon never bound {}: {e}",
                    socket.display()
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Sends `req`, with a `bench.server.call` span on sampled requests of the
/// traced half, and counts it.
fn call(client: &mut SocketClient, req: &Request, n: u64, traced: bool) -> Option<Response> {
    let _span = (traced && n.is_multiple_of(SAMPLE_EVERY))
        .then(|| dex_telemetry::span("bench.server.call"));
    if traced {
        dex_telemetry::counter_add("bench.requests", 1);
    }
    client.call(req).ok()
}

/// `serve_read`: each thread sends its next read as soon as the previous
/// one is answered.
fn closed_loop(mut client: SocketClient, mut mix: ReadMix, phases: Phases) -> ThreadLog {
    let mut log = ThreadLog::default();
    let mut n = 0u64;
    loop {
        let sent = Instant::now();
        if sent >= phases.end {
            return log;
        }
        let req = mix.next();
        let traced = sent >= phases.traced_from;
        let resp = call(&mut client, &req, n, traced);
        let done = Instant::now();
        n += 1;
        log.attempted += 1;
        let ok = resp.as_ref().is_some_and(|r| answered(&req, r));
        if !ok {
            log.failed += 1;
        }
        if sent >= phases.measure_start {
            log.reads.push(Read {
                at_s: phases.offset_s(sent),
                done_s: phases.offset_s(done),
                latency_us: (done - sent).as_secs_f64() * 1e6,
                ok,
                traced,
            });
        }
        if resp.is_none() {
            return log;
        }
    }
}

/// `serve_mixed`: thread `tid` offers reads every millisecond, the two
/// threads' schedules offset by half an interval; latency runs from the
/// due time. Thread 0 replaces every 250th read with a write batch.
fn open_loop(
    mut client: SocketClient,
    mut mix: ReadMix,
    mut writer: Option<Churner>,
    tid: usize,
    phases: Phases,
) -> ThreadLog {
    let mut log = ThreadLog::default();
    let interval = Duration::from_secs_f64(1.0 / RATE_PER_THREAD);
    let offset = interval.mul_f64(tid as f64 / CLIENT_THREADS as f64);
    for i in 0u64.. {
        let due = phases.start + offset + interval.mul_f64(i as f64);
        if due >= phases.end {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let late_ms = due.elapsed().as_secs_f64() * 1000.0;
        log.max_late_ms = log.max_late_ms.max(late_ms);
        if late_ms > interval.as_secs_f64() * 1000.0 {
            log.late += 1;
        }
        let traced = due >= phases.traced_from;
        log.attempted += 1;
        match writer.as_mut().filter(|_| i % WRITE_EVERY == 0) {
            Some(churner) => {
                let batch = churner.next_batch();
                let req = Request::ApplyDelta {
                    deltas: batch.clone(),
                };
                let resp = call(&mut client, &req, i, traced);
                let report = match &resp {
                    Some(Response::DeltaApplied(report)) => Some(*report),
                    _ => None,
                };
                if report.is_none() {
                    log.failed += 1;
                }
                log.writes.push(Write {
                    batch,
                    report,
                    latency_ms: due.elapsed().as_secs_f64() * 1000.0,
                    measured: due >= phases.measure_start,
                });
            }
            None => {
                let req = mix.next();
                let resp = call(&mut client, &req, i, traced);
                let ok = resp.as_ref().is_some_and(|r| answered(&req, r));
                if !ok {
                    log.failed += 1;
                }
                if due >= phases.measure_start {
                    log.reads.push(Read {
                        at_s: phases.offset_s(due),
                        done_s: phases.offset_s(Instant::now()),
                        latency_us: due.elapsed().as_secs_f64() * 1e6,
                        ok,
                        traced,
                    });
                }
            }
        }
    }
    log
}
