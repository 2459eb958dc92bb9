//! The resident service core: operating state built once, queried many
//! times.
//!
//! [`Dexd::launch`] constructs everything a registry query needs — catalog,
//! ontology interval index, concept-indexed pool, fingerprint index, warm
//! [`dex_modules::InvocationCache`], live
//! [`IncrementalPipeline`] — exactly once, then answers requests from that
//! state. Per-request cost drops from "rebuild the pipeline" to
//! "cache-mostly lookup".
//!
//! # Concurrency model
//!
//! The pipeline sits behind one [`RwLock`] ([`ServiceState`]): read
//! endpoints (`AnnotateModule`, `FindSubstitutes`, `ValidateWorkflow`,
//! `Stats`) share the read side; `ApplyDelta` takes the write side, so
//! readers already holding the lock keep serving the previous snapshot
//! while the writer waits, and new readers see the mutated state only once
//! the batch is fully absorbed. Lock acquisition always rides through
//! poisoning (`PoisonError::into_inner`): a contained handler panic can
//! never brick the service.
//!
//! # Admission control and batching
//!
//! Requests pass an admission gate (a counter capped at the configured
//! queue capacity) before entering the bounded queue; past the cap the
//! caller gets [`Response::Busy`] immediately — memory is bounded by
//! construction, never by luck. Each admitted request carries a `Ticket`
//! whose `Drop` releases the slot, so a worker panic or a vanished client
//! cannot leak admission capacity. Worker threads drain the queue;
//! a `FindSubstitutes` at the head pulls every other queued substitute
//! lookup into one batch answered in queue order under a single read
//! acquisition. Each lookup still scans its own verdict row; the
//! acquisition is all a batch shares (`batch_passes` counts batches,
//! `coalesced_lookups` the lookups after the first of each).
//!
//! Handlers run inside `catch_unwind`: a panic becomes a
//! [`Response::Error`] (counted in [`StatsReply::handler_panics`]), the
//! ticket is released, and the next request proceeds.

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
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Most substitute lookups one batch may coalesce (the head request plus
/// queued peers). Bounds the time a single read acquisition is held.
const MAX_BATCH: usize = 64;

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
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Admission limit: requests queued or in service before `Busy`.
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
            workers: 4,
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

/// The operating state built once at launch: the live pipeline behind the
/// readers/writer lock, plus build metadata.
pub struct ServiceState {
    pipeline: RwLock<IncrementalPipeline>,
    /// Wall time of the one-off pipeline bootstrap, milliseconds — the cost
    /// every cold batch run pays and the resident service amortizes away.
    pub bootstrap_ms: f64,
    started: Instant,
}

/// Admission slot, held from enqueue to response. Dropping it — normally,
/// on a worker panic, or when a disconnected client's job is abandoned —
/// releases the slot, so the admission counter can never leak.
struct Ticket(Arc<AtomicUsize>);

impl Drop for Ticket {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One queued request with its reply channel and admission slot.
struct Job {
    req: Request,
    reply: mpsc::Sender<Response>,
    /// Held for its `Drop`: releases the admission slot when the job is
    /// answered or abandoned.
    #[allow(dead_code)]
    ticket: Ticket,
    enqueued: Instant,
}

#[derive(Default)]
struct Counters {
    served: AtomicU64,
    busy: AtomicU64,
    batch_passes: AtomicU64,
    coalesced: AtomicU64,
    deltas: AtomicU64,
    panics: AtomicU64,
}

/// The resident annotation service.
pub struct Dexd {
    state: ServiceState,
    queue: Mutex<VecDeque<Job>>,
    work_ready: Condvar,
    active: Arc<AtomicUsize>,
    capacity: usize,
    shutdown: AtomicBool,
    counters: Counters,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Builds the world the config describes (scaled or paper profile).
fn build_world(cfg: &ServiceConfig) -> (Universe, InstancePool) {
    if cfg.scale == 0 {
        let universe = dex_universe::build();
        let pool = build_synthetic_pool(&universe.ontology, cfg.pool_depth.max(1), cfg.seed);
        (universe, pool)
    } else {
        let world = build_scaled(&ScalePlan::new(cfg.scale, cfg.seed));
        let pool = build_text_pool(&world.universe.ontology, cfg.pool_depth.max(1), cfg.seed);
        (world.universe, pool)
    }
}

/// Rides a mutex through poisoning: state guarded here is kept consistent
/// by construction, not by the poison flag.
fn lock_mutex<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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
        let bootstrap_ms = t.elapsed().as_secs_f64() * 1000.0;

        let svc = Arc::new(Dexd {
            state: ServiceState {
                pipeline: RwLock::new(pipeline),
                bootstrap_ms,
                started: Instant::now(),
            },
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            active: Arc::new(AtomicUsize::new(0)),
            capacity: cfg.queue_capacity.max(1),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
            workers: Mutex::new(Vec::new()),
        });
        let handles: Vec<_> = (0..cfg.workers.max(1))
            .map(|w| {
                let svc = Arc::clone(&svc);
                std::thread::Builder::new()
                    .name(format!("dexd-worker-{w}"))
                    .spawn(move || svc.worker_loop())
                    .expect("spawn dexd worker")
            })
            .collect();
        *lock_mutex(&svc.workers) = handles;
        svc
    }

    /// Submits one request and blocks until its response. This is the
    /// in-process path; the socket server calls it per decoded frame, and
    /// [`crate::Client`] wraps it for tests and embedding.
    pub fn call(&self, req: Request) -> Response {
        if self.shutdown.load(Ordering::SeqCst) {
            return Response::ShuttingDown;
        }
        let Some(ticket) = self.try_admit() else {
            self.counters.busy.fetch_add(1, Ordering::Relaxed);
            dex_telemetry::counter_add("dex.dexd.busy", 1);
            return Response::Busy;
        };
        let (tx, rx) = mpsc::channel();
        {
            let mut q = lock_mutex(&self.queue);
            // Re-checked under the queue lock, where `shutdown` sets the
            // flag: a job pushed after the workers drained the queue and
            // exited would never be answered.
            if self.shutdown.load(Ordering::SeqCst) {
                return Response::ShuttingDown;
            }
            q.push_back(Job {
                req,
                reply: tx,
                ticket,
                enqueued: Instant::now(),
            });
            dex_telemetry::gauge_set("dex.dexd.queue_depth", q.len() as i64);
        }
        self.work_ready.notify_one();
        match rx.recv() {
            Ok(resp) => resp,
            Err(_) => Response::Error {
                message: "the service dropped the request during shutdown".to_string(),
            },
        }
    }

    /// Whether the service has begun winding down.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Programmatic shutdown (the `Shutdown` request does the same).
    pub fn shutdown(&self) {
        {
            // Set under the queue lock: a worker checks the flag and starts
            // waiting inside one critical section, so the store cannot fall
            // between the two and the wakeup below cannot be lost.
            let _queue = lock_mutex(&self.queue);
            self.shutdown.store(true, Ordering::SeqCst);
        }
        self.work_ready.notify_all();
    }

    /// Joins the worker threads. Call after [`Dexd::shutdown`].
    pub fn join(&self) {
        let handles = std::mem::take(&mut *lock_mutex(&self.workers));
        for h in handles {
            let _ = h.join();
        }
    }

    /// Wall time the one-off bootstrap took, milliseconds.
    pub fn bootstrap_ms(&self) -> f64 {
        self.state.bootstrap_ms
    }

    /// Requests admitted and not yet answered.
    pub fn in_flight(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Snapshot of every tracked module id (clients use it to aim queries).
    pub fn tracked_ids(&self) -> Vec<ModuleId> {
        self.read_pipeline().tracked_ids().to_vec()
    }

    fn try_admit(&self) -> Option<Ticket> {
        let mut cur = self.active.load(Ordering::Relaxed);
        loop {
            if cur >= self.capacity {
                return None;
            }
            match self.active.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(Ticket(Arc::clone(&self.active))),
                Err(now) => cur = now,
            }
        }
    }

    fn read_pipeline(&self) -> RwLockReadGuard<'_, IncrementalPipeline> {
        self.state
            .pipeline
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn write_pipeline(&self) -> RwLockWriteGuard<'_, IncrementalPipeline> {
        self.state
            .pipeline
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn worker_loop(&self) {
        loop {
            let batch = {
                let mut q = lock_mutex(&self.queue);
                loop {
                    if self.shutdown.load(Ordering::SeqCst) {
                        // Answer stragglers instead of stranding them.
                        while let Some(job) = q.pop_front() {
                            let _ = job.reply.send(Response::ShuttingDown);
                        }
                        return;
                    }
                    if let Some(first) = q.pop_front() {
                        break Self::drain_batch(&mut q, first);
                    }
                    q = self
                        .work_ready
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            self.handle_batch(batch);
        }
    }

    /// Pulls every queued substitute lookup behind a substitute-lookup head
    /// into one batch (other request kinds keep their queue position).
    fn drain_batch(q: &mut VecDeque<Job>, first: Job) -> Vec<Job> {
        let mut batch = vec![first];
        if matches!(batch[0].req, Request::FindSubstitutes { .. }) {
            let mut i = 0;
            while i < q.len() && batch.len() < MAX_BATCH {
                if matches!(q[i].req, Request::FindSubstitutes { .. }) {
                    batch.push(q.remove(i).expect("index bounded by len"));
                } else {
                    i += 1;
                }
            }
        }
        dex_telemetry::gauge_set("dex.dexd.queue_depth", q.len() as i64);
        batch
    }

    fn handle_batch(&self, batch: Vec<Job>) {
        if matches!(batch[0].req, Request::FindSubstitutes { .. }) {
            self.handle_substitutes_batch(batch);
        } else {
            for job in batch {
                self.handle_one(job);
            }
        }
    }

    /// Answers a batch of substitute lookups in queue order under one read
    /// acquisition. Each lookup scans its own verdict row; the acquisition
    /// is all the batch shares, so every lookup after the first counts as
    /// coalesced.
    fn handle_substitutes_batch(&self, batch: Vec<Job>) {
        let _span = dex_telemetry::span("dexd.substitutes_batch");
        let pipeline = self.read_pipeline();
        self.counters.batch_passes.fetch_add(1, Ordering::Relaxed);
        self.counters
            .coalesced
            .fetch_add(batch.len() as u64 - 1, Ordering::Relaxed);
        dex_telemetry::counter_add("dex.dexd.batch_passes", 1);
        for job in batch {
            let resp = self.run_handler(|| substitutes_reply(&pipeline, &job.req));
            self.finish(job, resp);
        }
    }

    fn handle_one(&self, job: Job) {
        let resp = match &job.req {
            Request::AnnotateModule { id } => {
                let p = self.read_pipeline();
                self.run_handler(|| annotation_reply(&p, id))
            }
            Request::FindSubstitutes { .. } => {
                unreachable!("substitute lookups route through the batch path")
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
        };
        self.finish(job, resp);
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
    /// response instead of killing the worker (and the admission ticket
    /// still releases via `Drop`).
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
        let cache = p.invocation_cache().stats();
        let queue_depth = lock_mutex(&self.queue).len();
        Response::Stats(StatsReply {
            uptime_ms: self.state.started.elapsed().as_millis() as u64,
            modules_tracked: p.tracked_ids().len(),
            modules_available: p.available_count(),
            requests_served: self.counters.served.load(Ordering::Relaxed),
            busy_rejections: self.counters.busy.load(Ordering::Relaxed),
            queue_depth,
            queue_capacity: self.capacity,
            in_flight: self.active.load(Ordering::Acquire),
            batch_passes: self.counters.batch_passes.load(Ordering::Relaxed),
            coalesced_lookups: self.counters.coalesced.load(Ordering::Relaxed),
            deltas_applied: self.counters.deltas.load(Ordering::Relaxed),
            handler_panics: self.counters.panics.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_hit_rate: cache.hit_rate(),
        })
    }

    fn finish(&self, job: Job, resp: Response) {
        let ns = job.enqueued.elapsed().as_nanos() as u64;
        dex_telemetry::observe_ns(endpoint_metric(&job.req), ns);
        self.counters.served.fetch_add(1, Ordering::Relaxed);
        dex_telemetry::counter_add("dex.dexd.requests", 1);
        // A vanished client (dropped receiver) is not an error: the ticket
        // still releases when `job` drops.
        let _ = job.reply.send(resp);
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

fn substitutes_reply(p: &IncrementalPipeline, req: &Request) -> Response {
    let Request::FindSubstitutes { id } = req else {
        unreachable!("batch path only carries substitute lookups");
    };
    let mid = ModuleId(id.clone());
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

/// Thin in-process client over a launched service — same admission, queue,
/// and worker path as the socket server, minus the socket.
#[derive(Clone)]
pub struct Client {
    svc: Arc<Dexd>,
}

impl Client {
    /// Wraps a launched service.
    pub fn new(svc: Arc<Dexd>) -> Client {
        Client { svc }
    }

    /// Submits one request and blocks for the response.
    pub fn call(&self, req: Request) -> Response {
        self.svc.call(req)
    }

    /// The wrapped service.
    pub fn service(&self) -> &Arc<Dexd> {
        &self.svc
    }
}
