//! The resident service core: operating state built once, queried many
//! times.
//!
//! [`Dexd::launch`] constructs everything a registry query needs — catalog,
//! ontology interval index, concept-indexed pool, fingerprint index, and a
//! live [`IncrementalPipeline`] holding every module's data examples and
//! verdict row — exactly once, then answers requests from that state.
//! Per-request cost drops from "rebuild the pipeline" to a lookup in the
//! maintained state; a read invokes no module.
//!
//! # Concurrency model
//!
//! The service spawns no thread of its own: [`Dexd::call`] answers a
//! request on the thread that sends it — a socket connection thread, or the
//! caller of the in-process [`Client`]. The pipeline sits behind one
//! [`RwLock`]: read endpoints (`AnnotateModule`, `FindSubstitutes`,
//! `ValidateWorkflow`, `Stats`) share the read side; `ApplyDelta` takes the
//! write side, so readers already holding the lock keep serving the
//! previous snapshot while the writer waits, and new readers see the
//! mutated state only once the batch is fully absorbed. Lock acquisition
//! always rides through poisoning (`PoisonError::into_inner`): a contained
//! handler panic can never brick the service.
//!
//! # Admission control
//!
//! A request first takes an admission ticket from a counter capped at the
//! configured queue capacity; past the cap the caller gets
//! [`Response::Busy`] immediately, so the requests in flight — and the
//! memory they hold — are bounded by construction, never by luck. The
//! ticket's `Drop` releases the slot before `call` returns, on every path.
//!
//! Handlers run inside `catch_unwind`: a panic becomes a
//! [`Response::Error`] (counted in [`StatsReply::handler_panics`]), the
//! ticket is released, and the next request proceeds.
//!
//! # Shutdown
//!
//! [`Dexd::shutdown`] only sets a flag. `call` takes its ticket before it
//! reads the flag, and [`Dexd::join`] waits until no ticket is held; both
//! sides use `SeqCst`, so a caller racing shutdown either sees the flag
//! (and gets [`Response::ShuttingDown`]) or is counted in flight (and gets
//! a full answer before `join` returns).

use crate::proto::{
    AnnotationReply, BrokenStep, Request, Response, StatsReply, SubstitutesReply, ValidationReply,
};
use dex_core::delta::Delta;
use dex_core::GenerationConfig;
use dex_experiments::IncrementalPipeline;
use dex_modules::ModuleId;
use dex_pool::{build_synthetic_pool, build_text_pool, InstancePool};
use dex_universe::scale::{build_scaled, ScalePlan};
use dex_universe::Universe;
use dex_workflow::Workflow;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Knobs of one service instance.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Modules in the scaled universe; `0` builds the paper's byte-frozen
    /// 252-module profile instead.
    pub scale: usize,
    /// Master seed for the scaled world and pool.
    pub seed: u64,
    /// Per-concept instances in the backing pool.
    pub pool_depth: usize,
    /// Ignored: requests are answered on the thread that sends them, so the
    /// service has no worker threads to size.
    pub workers: usize,
    /// Admission limit: requests in flight before `Busy`.
    pub queue_capacity: usize,
    /// Generation knobs (retry policy included) for the pipeline.
    pub generation: GenerationConfig,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            scale: 0,
            seed: 42,
            pool_depth: 4,
            workers: 0,
            queue_capacity: 64,
            generation: GenerationConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// A service over a scaled world of `scale` modules.
    pub fn at_scale(scale: usize, seed: u64) -> ServiceConfig {
        ServiceConfig {
            scale,
            seed,
            ..ServiceConfig::default()
        }
    }
}

/// Admission slot, held while one request is answered. Its `Drop` releases
/// the slot on every path out of [`Dexd::call`].
struct Ticket<'a>(&'a AtomicUsize);

impl Drop for Ticket<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

#[derive(Default)]
struct Counters {
    served: AtomicU64,
    busy: AtomicU64,
    deltas: AtomicU64,
    panics: AtomicU64,
}

/// The resident annotation service.
pub struct Dexd {
    pipeline: RwLock<IncrementalPipeline>,
    bootstrap_ms: f64,
    started: Instant,
    active: AtomicUsize,
    capacity: usize,
    shutdown: AtomicBool,
    counters: Counters,
}

/// Builds the world the config describes (scaled or paper profile).
fn build_world(cfg: &ServiceConfig) -> (Universe, InstancePool) {
    if cfg.scale == 0 {
        let universe = dex_universe::build();
        let pool = build_synthetic_pool(&universe.ontology, cfg.pool_depth, cfg.seed);
        (universe, pool)
    } else {
        let world = build_scaled(&ScalePlan::new(cfg.scale, cfg.seed));
        let pool = build_text_pool(&world.universe.ontology, cfg.pool_depth, cfg.seed);
        (world.universe, pool)
    }
}

/// Best-effort rendering of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

impl Dexd {
    /// Builds the world described by `cfg` and launches the service over
    /// it.
    pub fn launch(cfg: &ServiceConfig) -> Arc<Dexd> {
        let (universe, pool) = build_world(cfg);
        Dexd::launch_with(universe, pool, cfg)
    }

    /// Launches the service over a caller-built world — the hook tests use
    /// to serve deterministic mini-universes.
    pub fn launch_with(universe: Universe, pool: InstancePool, cfg: &ServiceConfig) -> Arc<Dexd> {
        let _span = dex_telemetry::span("dexd.launch");
        let t = Instant::now();
        let pipeline = IncrementalPipeline::bootstrap(universe, pool, cfg.generation.clone());
        Arc::new(Dexd {
            pipeline: RwLock::new(pipeline),
            bootstrap_ms: t.elapsed().as_secs_f64() * 1000.0,
            started: Instant::now(),
            active: AtomicUsize::new(0),
            capacity: cfg.queue_capacity,
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
        })
    }

    /// Answers one request on the calling thread. This is the in-process
    /// path; the socket server calls it per decoded frame, and
    /// [`crate::Client`] wraps it for tests and embedding.
    pub fn call(&self, req: Request) -> Response {
        let Some(_ticket) = self.try_admit() else {
            self.counters.busy.fetch_add(1, Ordering::Relaxed);
            dex_telemetry::counter_add("dex.dexd.busy", 1);
            return Response::Busy;
        };
        // Read only once the ticket is held: `join` then either waits for
        // this request or this read sees the flag.
        if self.shutdown.load(Ordering::SeqCst) {
            return Response::ShuttingDown;
        }
        let admitted = Instant::now();
        let resp = self.handle(&req);
        dex_telemetry::observe_ns(endpoint_metric(&req), admitted.elapsed().as_nanos() as u64);
        self.counters.served.fetch_add(1, Ordering::Relaxed);
        dex_telemetry::counter_add("dex.dexd.requests", 1);
        resp
    }

    /// Whether the service has begun winding down.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Programmatic shutdown (the `Shutdown` request does the same): later
    /// calls are answered `ShuttingDown`.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Waits until no admitted request is in flight. Call after
    /// [`Dexd::shutdown`]; from then on no handler runs.
    pub fn join(&self) {
        while self.in_flight() != 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Wall time the one-off bootstrap took, milliseconds — the cost every
    /// cold batch run pays and the resident service amortizes away.
    pub fn bootstrap_ms(&self) -> f64 {
        self.bootstrap_ms
    }

    /// Requests admitted and not yet answered.
    pub fn in_flight(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Snapshot of every tracked module id (clients use it to aim queries).
    pub fn tracked_ids(&self) -> Vec<ModuleId> {
        self.read_pipeline().tracked_ids().to_vec()
    }

    fn try_admit(&self) -> Option<Ticket<'_>> {
        let mut cur = self.active.load(Ordering::Relaxed);
        loop {
            if cur >= self.capacity {
                return None;
            }
            match self.active.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::SeqCst,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(Ticket(&self.active)),
                Err(now) => cur = now,
            }
        }
    }

    fn read_pipeline(&self) -> RwLockReadGuard<'_, IncrementalPipeline> {
        self.pipeline.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_pipeline(&self) -> RwLockWriteGuard<'_, IncrementalPipeline> {
        self.pipeline
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn handle(&self, req: &Request) -> Response {
        match req {
            Request::AnnotateModule { id } => {
                let p = self.read_pipeline();
                self.run_handler(|| annotation_reply(&p, id))
            }
            Request::FindSubstitutes { id } => {
                let p = self.read_pipeline();
                self.run_handler(|| substitutes_reply(&p, id))
            }
            Request::ValidateWorkflow { workflow } => {
                let p = self.read_pipeline();
                self.run_handler(|| validation_reply(&p, workflow))
            }
            Request::ApplyDelta { deltas } => self.apply_delta(deltas),
            Request::Stats => {
                let p = self.read_pipeline();
                self.stats_reply(&p)
            }
            Request::Shutdown => {
                self.shutdown();
                Response::ShuttingDown
            }
            Request::Chaos { hold_write } => self.chaos(*hold_write),
        }
    }

    /// The write path: deltas precondition-checked under the read lock
    /// (the engine treats an untracked id as a programming error and
    /// asserts), then applied under the write lock while readers keep
    /// serving the previous snapshot.
    fn apply_delta(&self, deltas: &[Delta]) -> Response {
        {
            let p = self.read_pipeline();
            for d in deltas {
                if let Delta::ModuleWithdraw { id } | Delta::ModuleRestore { id } = d {
                    if p.availability(id).is_none() {
                        return Response::Error {
                            message: format!(
                                "delta references `{id}`, which is not tracked by this registry"
                            ),
                        };
                    }
                }
            }
        }
        let _span = dex_telemetry::span("dexd.apply_delta");
        let mut p = self.write_pipeline();
        let resp = self.run_handler(|| Response::DeltaApplied(p.apply(deltas)));
        if matches!(resp, Response::DeltaApplied(_)) {
            self.counters.deltas.fetch_add(1, Ordering::Relaxed);
            dex_telemetry::counter_add("dex.dexd.deltas", 1);
        }
        resp
    }

    /// Test-only: panic while *holding* the pipeline lock inside the
    /// handler, so the unwind drops the guard and (on the write side)
    /// poisons the `RwLock` — exactly the condition the poison-riding
    /// accessors must recover from.
    fn chaos(&self, hold_write: bool) -> Response {
        if hold_write {
            self.run_handler(|| {
                let _guard = self.write_pipeline();
                panic!("chaos: injected panic under the write lock");
            })
        } else {
            self.run_handler(|| {
                let _guard = self.read_pipeline();
                panic!("chaos: injected panic under the read lock");
            })
        }
    }

    /// Runs one handler with panic containment: a panic becomes an `Error`
    /// response instead of unwinding into the caller's thread.
    fn run_handler(&self, f: impl FnOnce() -> Response) -> Response {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(resp) => resp,
            Err(payload) => {
                self.counters.panics.fetch_add(1, Ordering::Relaxed);
                dex_telemetry::counter_add("dex.dexd.handler_panics", 1);
                Response::Error {
                    message: format!("handler panicked: {}", panic_message(payload.as_ref())),
                }
            }
        }
    }

    fn stats_reply(&self, p: &IncrementalPipeline) -> Response {
        Response::Stats(StatsReply {
            uptime_ms: self.started.elapsed().as_millis() as u64,
            modules_tracked: p.tracked_ids().len(),
            modules_available: p.available_count(),
            requests_served: self.counters.served.load(Ordering::Relaxed),
            busy_rejections: self.counters.busy.load(Ordering::Relaxed),
            queue_capacity: self.capacity,
            in_flight: self.in_flight(),
            batch_passes: 0,
            coalesced_lookups: 0,
            deltas_applied: self.counters.deltas.load(Ordering::Relaxed),
            handler_panics: self.counters.panics.load(Ordering::Relaxed),
        })
    }
}

/// Per-endpoint latency histogram name (static, no per-request allocation).
fn endpoint_metric(req: &Request) -> &'static str {
    match req {
        Request::AnnotateModule { .. } => "dex.dexd.annotate_ns",
        Request::FindSubstitutes { .. } => "dex.dexd.substitutes_ns",
        Request::ValidateWorkflow { .. } => "dex.dexd.validate_ns",
        Request::ApplyDelta { .. } => "dex.dexd.delta_ns",
        Request::Stats => "dex.dexd.stats_ns",
        Request::Shutdown => "dex.dexd.shutdown_ns",
        Request::Chaos { .. } => "dex.dexd.chaos_ns",
    }
}

fn annotation_reply(p: &IncrementalPipeline, id: &str) -> Response {
    let mid = ModuleId(id.to_string());
    match p.annotation(&mid) {
        None => Response::Error {
            message: format!("module `{id}` is not tracked by this registry"),
        },
        Some((available, outcome)) => Response::Annotation(AnnotationReply {
            id: id.to_string(),
            available,
            examples: outcome.as_ref().ok().map(|r| r.examples.clone()),
            error: outcome.as_ref().err().map(|e| e.to_string()),
            invocations: outcome.as_ref().map(|r| r.invocations).unwrap_or(0),
            transient_failures: outcome.as_ref().map(|r| r.transient_failures).unwrap_or(0),
        }),
    }
}

fn substitutes_reply(p: &IncrementalPipeline, id: &str) -> Response {
    let mid = ModuleId(id.to_string());
    match p.substitutes(&mid) {
        None => Response::Error {
            message: format!("module `{id}` is not tracked by this registry"),
        },
        Some(answer) => Response::Substitutes(SubstitutesReply {
            id: id.to_string(),
            available: answer.available,
            candidates_compared: answer.candidates_compared,
            ranked: answer.ranked.into_iter().map(|(m, v)| (m.0, v)).collect(),
        }),
    }
}

fn validation_reply(p: &IncrementalPipeline, workflow: &Workflow) -> Response {
    let structural_errors: Vec<String> =
        match dex_workflow::validate(workflow, &p.universe().catalog, &p.universe().ontology) {
            Ok(()) => Vec::new(),
            Err(errors) => errors.iter().map(|e| e.to_string()).collect(),
        };
    let broken_steps: Vec<BrokenStep> = workflow
        .steps
        .iter()
        .enumerate()
        .filter(|(_, s)| !p.universe().catalog.is_available(&s.module))
        .map(|(i, s)| BrokenStep {
            step: i,
            module: s.module.0.clone(),
            substitute: p
                .substitutes(&s.module)
                .and_then(|a| a.best().cloned())
                .map(|(m, v)| (m.0, v)),
        })
        .collect();
    let ok = structural_errors.is_empty() && broken_steps.is_empty();
    Response::Validation(ValidationReply {
        id: workflow.id.clone(),
        structural_errors,
        broken_steps,
        ok,
    })
}

/// Thin in-process client over a launched service — the same admission
/// and handler path as the socket server, minus the socket: the handler
/// runs on the thread that calls [`Client::call`].
#[derive(Clone)]
pub struct Client {
    svc: Arc<Dexd>,
}

impl Client {
    /// Wraps a launched service.
    pub fn new(svc: Arc<Dexd>) -> Client {
        Client { svc }
    }

    /// Answers one request on the calling thread.
    pub fn call(&self, req: Request) -> Response {
        self.svc.call(req)
    }

    /// The wrapped service.
    pub fn service(&self) -> &Arc<Dexd> {
        &self.svc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Admission at the cap, pinned without racing threads: tickets taken
    /// directly stand in for requests in flight.
    #[test]
    fn admission_refuses_at_the_cap_and_each_released_ticket_frees_a_slot() {
        let svc = Dexd::launch(&ServiceConfig {
            scale: 24,
            seed: 9,
            pool_depth: 1,
            queue_capacity: 2,
            ..ServiceConfig::default()
        });
        let first = svc.try_admit().expect("first slot");
        let second = svc.try_admit().expect("second slot");
        let resp = svc.call(Request::Stats);
        assert!(matches!(resp, Response::Busy), "at the cap: {resp:?}");
        assert_eq!(svc.counters.busy.load(Ordering::Relaxed), 1);

        drop(first);
        match svc.call(Request::Stats) {
            Response::Stats(s) => {
                assert_eq!(s.in_flight, 2, "the held ticket plus the Stats call: {s:?}")
            }
            other => panic!("a freed slot answered {other:?}"),
        }

        // `join` waits for the ticket still held, and returns once it drops.
        svc.shutdown();
        std::thread::scope(|scope| {
            let joiner = scope.spawn(|| svc.join());
            std::thread::sleep(Duration::from_millis(100));
            assert!(
                !joiner.is_finished(),
                "join returned while a ticket was held"
            );
            drop(second);
            joiner.join().expect("join returns");
        });
        assert_eq!(svc.in_flight(), 0);
    }
}
