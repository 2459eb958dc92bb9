//! Delta-driven incremental re-annotation (ROADMAP item 4): apply typed
//! [`Delta`] events to live pipeline state instead of re-running the whole
//! pipeline, keeping examples and the matching matrix *byte-identical* to a
//! cold full run on the resulting registry state.
//!
//! The engine owns the three layers a cold run builds from scratch and
//! maintains each one incrementally:
//!
//! 1. **Examples** — one generation report per tracked module. Each
//!    module the candidate stage ([`DependencyIndex`]) flags is regenerated
//!    once ([`generate_examples_memoized`]), with its own previous report
//!    as the memo: a data example is a recorded invocation, and the report
//!    also records the input vectors the module rejected, so an attempt on
//!    inputs the report already answers invokes nothing, and only the
//!    attempts whose picks moved invoke the module. A regenerated report
//!    equal to its predecessor is kept, so the reports that differ are the
//!    batch's stale set, observed rather than predicted. The reports are
//!    the engine's only record of past invocations.
//! 2. **Blocking** — an incrementally maintained [`FingerprintIndex`]
//!    (single-slot `insert`/`remove`, no rebuilds). A fingerprint reads
//!    the module's descriptor alone, so no ontology edit moves a slot
//!    between buckets: only a withdrawal or a restore does.
//! 3. **Verdicts** — the sparse matrix of compared pairs, one row per
//!    tracked slot holding 12-byte cells (candidate slot, agreeing and
//!    compared counts) sorted by candidate. Each pair goes through
//!    [`pair_outcome`] with the candidate's stored examples: a target
//!    example on the same inputs as one of them is decided by that
//!    example's outputs, and only the rest are replayed, through an
//!    [`InvocationCache`] that lives for one bootstrap or one batch and is
//!    emptied before either returns. A candidate's example is read only as
//!    a record of its deterministic behavior on those exact inputs, which
//!    is what a replay would return, so a verdict still depends on the
//!    target's examples and the candidate's behavior alone. A regenerated
//!    module whose examples changed therefore re-matches its *row* only
//!    (`(m, peer)`), and columns `(peer, m)` carry forward untouched. A
//!    withdrawn module's pairs are dropped, and a restored module's rows
//!    and columns are computed fresh.
//!
//! Withdrawn modules are left stale on purpose: their reports are frozen at
//! withdrawal (the catalog keeps descriptors but not invokable handles), and
//! a restore regenerates the module from its frozen report, which invokes
//! only the attempts whose picks moved while it was gone.
//!
//! At withdrawal the engine also feeds the repair layer: the module's
//! last-known row verdicts are ranked with the §6 study's own ordering
//! ([`substitute_rank`]) into a carried-forward substitute, exposed
//! via [`IncrementalPipeline::matching_study`] — the repair engine's
//! substitute search answered with zero replay invocations. A restore
//! drops the capture: an available module is answered from its live row.
//!
//! No store grows with history: after any sequence of batches the reports,
//! verdict rows, fingerprint index and carried substitutes have the sizes
//! a cold bootstrap over the final state gives them, and the replay cache
//! is empty (`tests/history_independence.rs`).

use dex_core::delta::{modules_with_input_subsuming, Delta, DeltaReport, DependencyIndex};
use dex_core::matching::{pair_outcome, ParamOrder};
use dex_core::{
    generate_examples_memoized, input_partition_plan, FingerprintIndex, GenerationConfig,
    GenerationError, GenerationReport, MatchOutcome, MatchReport, MatchVerdict,
};
use dex_modules::{BlackBox, InvocationCache, ModuleId, Retrier, RetryStats, SharedModule};
use dex_pool::InstancePool;
use dex_repair::{substitute_rank, LegacyMatch, MatchingStudy};
use dex_universe::Universe;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Live, incrementally maintained pipeline state over one universe.
pub struct IncrementalPipeline {
    universe: Universe,
    pool: InstancePool,
    config: GenerationConfig,
    /// The modules tracked by this engine: the universe's available modern
    /// modules at bootstrap, in sorted id order, so a module's slot is its
    /// `binary_search` position. Deltas may only reference these.
    ids: Vec<ModuleId>,
    /// Current availability per slot (kept in sync with the catalog).
    available: Vec<bool>,
    /// Each slot indexed under the partition plan of its report in force.
    deps: DependencyIndex,
    index: FingerprintIndex,
    /// Each slot's canonical parameter order, composed per pair into its
    /// strict mapping.
    orders: Vec<ParamOrder>,
    reports: Vec<Result<GenerationReport, GenerationError>>,
    /// Stored outcomes of every comparable ordered pair among available
    /// slots: `verdicts[t]` is target `t`'s row of [`Cell`]s, sorted by
    /// candidate. Comparability is symmetric, so `c` is in row `t` exactly
    /// when `t` is in row `c`. The `MatchReport` wrapper is reconstructed
    /// on demand: target and candidate ids are the key, and the `examples`
    /// count is derived from the target's current report, which by
    /// construction matches the report in force when the outcome was
    /// computed.
    verdicts: Vec<Vec<Cell>>,
    /// Replays of target examples that no candidate example answers, shared
    /// within one bootstrap or one batch and emptied before either returns.
    cache: InvocationCache,
    /// The one retrier of the engine's life: bootstrap, every apply and
    /// [`matrix`](IncrementalPipeline::matrix) retry through it, so its
    /// stats cover them all.
    retrier: Retrier,
    /// Carried-forward substitute per currently withdrawn module, captured
    /// from its last-known row verdicts at withdrawal time and dropped when
    /// the module is restored.
    substitutes: MatchingStudy,
}

impl IncrementalPipeline {
    /// Cold-bootstraps the engine: generates examples for every available
    /// modern module with no memo, builds the fingerprint index and
    /// dependency graph, and fills the full comparable-pair verdict matrix.
    ///
    /// Generation and the fill run on up to one thread per core and one per
    /// `MIN_MODULES_PER_THREAD` (2,500) tracked modules; the result is the
    /// same at every thread count.
    pub fn bootstrap(
        universe: Universe,
        pool: InstancePool,
        config: GenerationConfig,
    ) -> IncrementalPipeline {
        IncrementalPipeline::bootstrap_on(universe, pool, config, bootstrap_threads)
    }

    /// [`bootstrap`](IncrementalPipeline::bootstrap) on `threads(tracked
    /// modules)` threads, the calling thread taking one share.
    ///
    /// Generation splits the slots into contiguous ranges: a module's
    /// generation invokes that module alone. The fill deals whole
    /// fingerprint buckets (`deal_buckets`): a row holds only its own
    /// bucket's members, so a candidate is replayed only by targets of its
    /// bucket, and each share replays them in ascending target order, as
    /// one thread does. Every `(module, inputs)` key therefore sees the same
    /// sequence of attempts at any thread count, and so do fault bursts,
    /// cache hits and misses and retries, under every retry policy. Results
    /// are placed in slot order.
    fn bootstrap_on(
        universe: Universe,
        pool: InstancePool,
        config: GenerationConfig,
        threads: fn(usize) -> usize,
    ) -> IncrementalPipeline {
        let _span = dex_telemetry::span("incremental.bootstrap");
        let ids = universe.available_ids();
        let ids_len = ids.len();
        let threads = threads(ids_len);
        // Each slot's handle, resolved once for generation and the fill.
        let modules: Vec<SharedModule> = ids
            .iter()
            .map(|id| Arc::clone(universe.catalog.get(id).expect("bootstrap id is available")))
            .collect();
        let retrier = Retrier::new(config.retry);
        let reports: Vec<_> = {
            let _span = dex_telemetry::span("incremental.bootstrap.generate");
            let ranges = (0..threads).map(|k| k * ids_len / threads..(k + 1) * ids_len / threads);
            run_shares(
                "incremental.bootstrap.generate.worker",
                ranges.collect(),
                |range| {
                    modules[range]
                        .iter()
                        .map(|module| {
                            generate_examples_memoized(
                                module.as_ref(),
                                &universe.ontology,
                                &pool,
                                &config,
                                None,
                                &retrier,
                            )
                        })
                        .collect::<Vec<_>>()
                },
            )
            .into_iter()
            .flatten()
            .collect()
        };
        let (index, orders) = {
            let _span = dex_telemetry::span("incremental.bootstrap.fingerprints");
            let index = FingerprintIndex::build(
                modules.iter().map(|m| Some(m.descriptor())),
                &universe.ontology,
            );
            let orders = modules
                .iter()
                .map(|m| ParamOrder::of(m.descriptor()))
                .collect();
            (index, orders)
        };
        let mut engine = IncrementalPipeline {
            universe,
            pool,
            config,
            ids,
            available: vec![true; ids_len],
            deps: DependencyIndex::new(),
            index,
            orders,
            reports,
            verdicts: Vec::new(),
            cache: InvocationCache::new(),
            retrier,
            substitutes: MatchingStudy::default(),
        };
        {
            let _span = dex_telemetry::span("incremental.bootstrap.dependencies");
            for i in 0..ids_len {
                engine.index_dependencies(i);
            }
        }
        {
            let _span = dex_telemetry::span("incremental.bootstrap.fill");
            engine.verdicts = engine.fill(&modules, threads);
        }
        engine.cache.clear();
        engine
    }

    /// Every slot's verdict row over the bootstrap's `modules`, with the
    /// fingerprint buckets dealt to `threads` shares. Bucket member lists
    /// are kept ascending, so each row is born sorted and allocated at its
    /// exact size.
    fn fill(&self, modules: &[SharedModule], threads: usize) -> Vec<Vec<Cell>> {
        let shares = deal_buckets(self.index.buckets(), threads);
        let rows_of = |buckets: Vec<&[usize]>| {
            let mut rows = Vec::new();
            for bucket in buckets {
                for &t in bucket {
                    let mut row = Vec::with_capacity(bucket.len() - 1);
                    for &c in bucket.iter().filter(|&&c| c != t) {
                        let outcome = self.outcome(t, &*modules[t], c, &*modules[c]);
                        row.push(Cell::new(c, &outcome));
                    }
                    rows.push((t, row));
                }
            }
            rows
        };
        let mut verdicts = vec![Vec::new(); self.ids.len()];
        let rows = run_shares("incremental.bootstrap.fill.worker", shares, rows_of);
        for (t, row) in rows.into_iter().flatten() {
            verdicts[t] = row;
        }
        verdicts
    }

    /// Applies one batch of deltas and returns the batch's accounting.
    /// Each regenerated module reads its own previous report as its memo,
    /// and the batch's replay cache is emptied before this returns.
    ///
    /// After this returns, [`reports`](IncrementalPipeline::reports) and
    /// [`matrix`](IncrementalPipeline::matrix) are byte-identical to what a
    /// cold full run over the mutated universe/pool would produce (the
    /// equivalence proptests in `tests/incremental_equivalence.rs` pin
    /// this, with and without fault injection).
    pub fn apply(&mut self, deltas: &[Delta]) -> DeltaReport {
        let _span = dex_telemetry::span("incremental.apply");
        let mut stats = DeltaReport {
            events: deltas.len(),
            ..DeltaReport::default()
        };

        // Phase A — mutate primary state, accumulating the candidate dirty
        // sets (see dex_core::delta) and the slots whose availability a
        // delta names.
        let mut dirty_candidates: BTreeSet<usize> = BTreeSet::new();
        let mut availability_named: BTreeSet<usize> = BTreeSet::new();
        for delta in deltas {
            if dex_telemetry::is_enabled() {
                let (target, detail) = match delta {
                    Delta::PoolInsert { instance } => {
                        (instance.concept.as_str(), "pool insert".to_string())
                    }
                    Delta::PoolRemove {
                        concept,
                        occurrence,
                    } => (concept.as_str(), format!("pool remove #{occurrence}")),
                    Delta::ModuleWithdraw { id } => (id.as_str(), "module withdraw".to_string()),
                    Delta::ModuleRestore { id } => (id.as_str(), "module restore".to_string()),
                    Delta::OntologyEdgeAdd { parent, child } => {
                        (child.as_str(), format!("ontology edge under {parent}"))
                    }
                };
                dex_telemetry::flight(dex_telemetry::FlightKind::DeltaApplied, target, detail, 0);
            }
            match delta {
                Delta::PoolInsert { instance } => {
                    dirty_candidates.extend(self.dependents(&instance.concept));
                    self.pool.add(instance.clone());
                }
                Delta::PoolRemove {
                    concept,
                    occurrence,
                } => {
                    if self.pool.remove_realization(concept, *occurrence).is_some() {
                        dirty_candidates.extend(self.dependents(concept));
                    }
                }
                Delta::ModuleWithdraw { id } => {
                    availability_named.insert(self.tracked_slot(id));
                    self.universe.catalog.withdraw(id);
                }
                Delta::ModuleRestore { id } => {
                    availability_named.insert(self.tracked_slot(id));
                    self.universe.catalog.restore(id);
                }
                Delta::OntologyEdgeAdd { parent, child } => {
                    // A new leaf can only extend the partition sets of
                    // modules annotated at or above it, and make a module
                    // annotated with it plannable.
                    if let Ok(leaf) = self.universe.ontology.add_child(child.clone(), parent) {
                        let catalog = &self.universe.catalog;
                        dirty_candidates.extend(modules_with_input_subsuming(
                            self.ids.iter().map(|id| {
                                catalog
                                    .descriptor(id)
                                    .expect("descriptors survive withdrawal")
                            }),
                            leaf,
                            &self.universe.ontology,
                        ));
                    }
                }
            }
        }

        // Phase B — diff the availability of the slots the batch names
        // (the engine owns its universe, so no other slot's can move), and
        // maintain the fingerprint index incrementally. A fingerprint reads
        // the descriptor alone, so only a withdrawal or a restore moves a
        // slot's bucket membership.
        let mut to_withdrawn: Vec<usize> = Vec::new();
        let mut to_restored: Vec<usize> = Vec::new();
        for &i in &availability_named {
            let now = self.universe.catalog.is_available(&self.ids[i]);
            if now != self.available[i] {
                self.available[i] = now;
                if now {
                    to_restored.push(i);
                } else {
                    to_withdrawn.push(i);
                }
            }
        }
        // Substitute capture must see the pre-drop matrix.
        for &i in &to_withdrawn {
            self.capture_substitute(i);
            self.index.remove(i);
        }
        for &i in &to_restored {
            self.substitutes.matches.remove(&self.ids[i]);
            let descriptor = self
                .universe
                .catalog
                .descriptor(&self.ids[i])
                .expect("restored module has a descriptor");
            self.index.insert(i, descriptor);
        }

        // Phase C — regenerate each flagged candidate and each restored
        // module (whose frozen report may have gone stale while withdrawn)
        // once, from its own report. The report records every attempt's
        // outcome but a transient one, so an unchanged world invokes
        // nothing; a report equal to its predecessor is kept, and the rest
        // are the batch's stale set.
        dirty_candidates.extend(to_restored.iter().copied());
        dirty_candidates.retain(|&i| self.available[i]);
        let mut regenerated: Vec<usize> = Vec::new();
        let mut examples_changed: BTreeSet<usize> = BTreeSet::new();
        for &i in &dirty_candidates {
            let module = self
                .universe
                .catalog
                .get(&self.ids[i])
                .expect("regeneration targets available modules");
            let report = generate_examples_memoized(
                module.as_ref(),
                &self.universe.ontology,
                &self.pool,
                &self.config,
                self.reports[i].as_ref().ok(),
                &self.retrier,
            );
            if report == self.reports[i] {
                continue;
            }
            if generation_outcome_differs(&self.reports[i], &report) {
                examples_changed.insert(i);
            }
            self.reports[i] = report;
            self.index_dependencies(i);
            regenerated.push(i);
        }

        // Phase D — verdict maintenance. Withdrawn slots lose every stored
        // pair; restored slots then recompute rows and columns against
        // their bucket, while examples-changed slots recompute rows only (a
        // verdict reads the candidate's examples only as a record of its
        // behavior). A withdrawn slot's row names every peer whose row
        // holds it, so the drop touches only those rows; when two withdrawn
        // slots share a bucket, the second finds the first's row already
        // empty and the pair is counted once.
        for &i in &to_withdrawn {
            let row = std::mem::take(&mut self.verdicts[i]);
            stats.dropped_pairs += row.len();
            for cell in row {
                let peer_row = &mut self.verdicts[cell.slot()];
                if let Ok(pos) = peer_row.binary_search_by_key(&i, Cell::slot) {
                    peer_row.remove(pos);
                    stats.dropped_pairs += 1;
                }
            }
        }
        let mut pairs: BTreeSet<(usize, usize)> = BTreeSet::new();
        for &i in &to_restored {
            for &p in self.index.peers(i) {
                if p != i {
                    pairs.insert((i, p));
                    pairs.insert((p, i));
                }
            }
        }
        for &i in &examples_changed {
            for &p in self.index.peers(i) {
                if p != i {
                    pairs.insert((i, p));
                }
            }
        }
        let computed: Vec<(usize, Cell)> = pairs
            .iter()
            .map(|&(t, c)| (t, Cell::new(c, &self.pair_outcome(t, c))))
            .collect();
        for (t, cell) in computed {
            let row = &mut self.verdicts[t];
            match row.binary_search_by_key(&cell.slot(), Cell::slot) {
                Ok(pos) => row[pos] = cell,
                Err(pos) => row.insert(pos, cell),
            }
        }

        stats.dirty_candidates = dirty_candidates.len();
        stats.regenerated_modules = regenerated.len();
        stats.examples_changed = examples_changed.len();
        stats.recomputed_pairs = pairs.len();
        stats.carried_forward = self.verdicts.iter().map(Vec::len).sum::<usize>() - pairs.len();
        for i in 0..self.ids.len() {
            if self.available[i] {
                stats.cells_total += self.deps.cells(i);
            }
        }
        for &i in &regenerated {
            stats.cells_dirty += self.deps.cells(i);
        }
        self.cache.clear();
        stats.publish_telemetry();
        stats
    }

    /// The slot of a tracked module.
    fn slot(&self, id: &ModuleId) -> Option<usize> {
        self.ids.binary_search(id).ok()
    }

    /// The slot of a module a delta names, which must be tracked.
    fn tracked_slot(&self, id: &ModuleId) -> usize {
        self.slot(id).unwrap_or_else(|| {
            panic!("delta references `{id}`, which was not tracked at bootstrap")
        })
    }

    /// The tracked slots planning `concept` as a partition: the candidate
    /// dirty set of a pool delta on it. The name is resolved once; one the
    /// ontology lacks is no module's partition.
    fn dependents(&self, concept: &str) -> impl Iterator<Item = usize> + '_ {
        self.universe
            .ontology
            .id(concept)
            .into_iter()
            .flat_map(|concept| self.deps.modules_for_concept(concept))
    }

    /// Indexes slot `i`'s dependencies under the plan its report was
    /// generated against. A module whose generation failed is planned
    /// afresh (it may still have a plan, e.g. one over the combination cap).
    fn index_dependencies(&mut self, i: usize) {
        match &self.reports[i] {
            Ok(report) => self.deps.set_module(i, Some(&report.plan)),
            Err(_) => {
                let descriptor = self
                    .universe
                    .catalog
                    .descriptor(&self.ids[i])
                    .expect("descriptors survive withdrawal");
                let plan = input_partition_plan(descriptor, &self.universe.ontology).ok();
                self.deps.set_module(i, plan.as_ref());
            }
        }
    }

    /// One pair's outcome, resolving both slots' handles in the catalog.
    fn pair_outcome(&self, t: usize, c: usize) -> MatchOutcome {
        let module = |i: usize| {
            self.universe
                .catalog
                .get(&self.ids[i])
                .expect("matched pairs are available")
        };
        self.outcome(t, module(t).as_ref(), c, module(c).as_ref())
    }

    /// One pair's outcome by [`pair_outcome`], over the engine's stored
    /// reports and its strict mapping composed from the two slots'
    /// [`ParamOrder`]s, which allocates nothing for a mappable pair. The
    /// candidate's stored examples answer the target examples aligned with
    /// them: each records the candidate's outcome on its inputs, which is
    /// the precondition [`pair_outcome`] states. The other target examples
    /// are replayed through the batch's cache.
    fn outcome(
        &self,
        t: usize,
        target: &dyn BlackBox,
        c: usize,
        candidate: &dyn BlackBox,
    ) -> MatchOutcome {
        let own = match self.reports[c].as_ref() {
            Ok(report) => Some(&report.examples),
            Err(_) => None,
        };
        let mapping =
            self.orders[t].compose(target.descriptor(), &self.orders[c], candidate.descriptor());
        pair_outcome(
            &self.reports[t],
            mapping,
            candidate,
            own,
            &self.cache,
            &self.retrier,
        )
    }

    /// Slot `i`'s stored cells that carry a verdict, in ascending slot
    /// order.
    fn row_verdicts(&self, i: usize) -> impl Iterator<Item = (&ModuleId, MatchVerdict)> {
        self.verdicts[i]
            .iter()
            .filter_map(Cell::slot_verdict)
            .map(|(c, v)| (&self.ids[c], v))
    }

    /// Slot `i`'s verdict-bearing comparisons and its usable candidates,
    /// best first by [`substitute_rank`]; equal ranks keep ascending id
    /// order, so the first entry is the candidate the §6 study's
    /// first-found-wins scan would keep.
    fn ranked_row(&self, i: usize) -> (usize, Vec<(ModuleId, MatchVerdict)>) {
        let mut compared = 0usize;
        let mut ranked: Vec<(ModuleId, MatchVerdict)> = Vec::new();
        for (c, v) in self.row_verdicts(i) {
            compared += 1;
            if v.is_usable() {
                ranked.push((c.clone(), v));
            }
        }
        ranked.sort_by(|a, b| {
            substitute_rank(&b.1)
                .partial_cmp(&substitute_rank(&a.1))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.0.cmp(&b.0))
        });
        (compared, ranked)
    }

    /// Keeps slot `i`'s best current substitute as its carried-forward
    /// capture.
    fn capture_substitute(&mut self, i: usize) {
        let id = self.ids[i].clone();
        let (compared, ranked) = self.ranked_row(i);
        let examples = match self.reports[i].as_ref() {
            Ok(report) => report.examples.len(),
            Err(_) => 0,
        };
        self.substitutes.matches.insert(
            id.clone(),
            LegacyMatch {
                module: id,
                reconstructed_examples: examples,
                candidates_compared: compared,
                best: ranked.into_iter().next(),
            },
        );
    }

    /// The maintained universe (deltas applied).
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The maintained pool (deltas applied).
    pub fn pool(&self) -> &InstancePool {
        &self.pool
    }

    /// The tracked module ids, in slot order.
    pub fn tracked_ids(&self) -> &[ModuleId] {
        &self.ids
    }

    /// Successful generation reports of the currently available modules,
    /// in id order — the reports a cold serial `generate_examples` over the
    /// present state returns.
    pub fn reports(&self) -> impl Iterator<Item = (&ModuleId, &GenerationReport)> {
        self.ids
            .iter()
            .zip(&self.reports)
            .zip(&self.available)
            .filter_map(|((id, report), &available)| match report {
                Ok(report) if available => Some((id, report)),
                _ => None,
            })
    }

    /// Materializes the dense matching matrix over the currently available
    /// modules — byte-identical to the matrix of the test-only exhaustive
    /// oracle in `dex-oracle`, which replays every example of every ordered
    /// pair, over the present state. Verdicts come from the maintained
    /// verdict store. Every other pair goes through [`pair_outcome`], which
    /// reaches its reason before invoking anything: fingerprint-pruned pairs
    /// fail their strict mapping, and a stored incomparable cell failed on
    /// the target's generation error, its strict mapping or an empty example
    /// set.
    pub fn matrix(&self) -> BTreeMap<(ModuleId, ModuleId), MatchReport> {
        let slots: Vec<usize> = (0..self.ids.len()).filter(|&i| self.available[i]).collect();
        let mut out = BTreeMap::new();
        for &t in &slots {
            let examples = match self.reports[t].as_ref() {
                Ok(report) => report.examples.len(),
                Err(_) => 0,
            };
            for &c in &slots {
                if t == c {
                    continue;
                }
                let stored = if self.index.is_comparable(t, c) {
                    let row = &self.verdicts[t];
                    let pos = row
                        .binary_search_by_key(&c, Cell::slot)
                        .expect("comparable pairs are maintained");
                    row[pos].verdict()
                } else {
                    None
                };
                let outcome = match stored {
                    Some(verdict) => MatchOutcome::Verdict(verdict),
                    None => self.pair_outcome(t, c),
                };
                out.insert(
                    (self.ids[t].clone(), self.ids[c].clone()),
                    MatchReport {
                        target: self.ids[t].clone(),
                        candidate: self.ids[c].clone(),
                        outcome,
                        examples,
                    },
                );
            }
        }
        out
    }

    /// The repair-layer view of the modules withdrawn now: a
    /// [`MatchingStudy`] of carried-forward verdicts, zero replay
    /// invocations. It holds one entry per currently withdrawn tracked
    /// module.
    pub fn matching_study(&self) -> &MatchingStudy {
        &self.substitutes
    }

    /// The cache the engine's replays go through. It is reached only by
    /// target examples that no candidate example answers, and it is emptied
    /// before [`bootstrap`](IncrementalPipeline::bootstrap) and every
    /// [`apply`](IncrementalPipeline::apply) return, so between calls it
    /// holds no entries; its counters describe the engine's whole life.
    /// Nothing in the workspace reads it. It stays public because
    /// `dexbench`'s stats probes (`src/churn.rs`, `src/serve.rs`) call it;
    /// ROADMAP item 4(d) moves them off it, and then it can go.
    pub fn invocation_cache(&self) -> &InvocationCache {
        &self.cache
    }

    /// Retry accounting over the engine's life: bootstrap, every apply and
    /// every [`matrix`](IncrementalPipeline::matrix).
    pub fn retry_stats(&self) -> RetryStats {
        self.retrier.stats()
    }

    /// The stored cells of an available module's row that carry a verdict,
    /// in ascending slot order; `None` for a withdrawn or untracked id.
    /// Every ordered pair of available modules that yields nothing here,
    /// from either end, is incomparable.
    pub fn verdicts(
        &self,
        id: &ModuleId,
    ) -> Option<impl Iterator<Item = (&ModuleId, MatchVerdict)>> {
        let i = self.slot(id).filter(|&i| self.available[i])?;
        Some(self.row_verdicts(i))
    }

    /// Whether `id` is tracked, and if so whether it is currently
    /// available.
    pub fn availability(&self, id: &ModuleId) -> Option<bool> {
        self.slot(id).map(|i| self.available[i])
    }

    /// Tracked modules currently available.
    pub fn available_count(&self) -> usize {
        self.available.iter().filter(|&&a| a).count()
    }

    /// The maintained annotation of one tracked module: its availability
    /// plus the generation outcome in force (frozen at withdrawal time for
    /// withdrawn modules).
    pub fn annotation(
        &self,
        id: &ModuleId,
    ) -> Option<(bool, &Result<GenerationReport, GenerationError>)> {
        let i = self.slot(id)?;
        Some((self.available[i], &self.reports[i]))
    }

    /// Ranks the current substitutes for a tracked module, best first,
    /// using the §6 study's ordering ([`substitute_rank`]).
    /// Available modules are answered from their live row verdicts;
    /// withdrawn modules return their carried-forward capture (best only —
    /// that is all that is kept at withdrawal).
    pub fn substitutes(&self, id: &ModuleId) -> Option<SubstituteAnswer> {
        let i = self.slot(id)?;
        if !self.available[i] {
            let carried = self.substitutes.matches.get(id)?;
            return Some(SubstituteAnswer {
                module: id.clone(),
                available: false,
                candidates_compared: carried.candidates_compared,
                ranked: carried.best.clone().into_iter().collect(),
            });
        }
        let (compared, ranked) = self.ranked_row(i);
        Some(SubstituteAnswer {
            module: id.clone(),
            available: true,
            candidates_compared: compared,
            ranked,
        })
    }
}

/// One stored pair of a verdict row: the candidate's slot and the
/// verdict's two counts, from which [`MatchVerdict::from_counts`] recovers
/// the kind. `compared == 0` marks an incomparable pair; such a pair failed
/// before any invocation, so its reason is recomputed on demand rather
/// than stored.
#[derive(Clone, Copy)]
struct Cell {
    slot: u32,
    agreeing: u32,
    compared: u32,
}

const _: () = assert!(std::mem::size_of::<Cell>() <= 12);

impl Cell {
    fn new(slot: usize, outcome: &MatchOutcome) -> Cell {
        let (agreeing, compared) = match outcome {
            MatchOutcome::Verdict(MatchVerdict::Equivalent { compared }) => (*compared, *compared),
            MatchOutcome::Verdict(MatchVerdict::Overlapping { agreeing, compared }) => {
                (*agreeing, *compared)
            }
            MatchOutcome::Verdict(MatchVerdict::Disjoint { compared }) => (0, *compared),
            MatchOutcome::Incomparable(_) => (0, 0),
        };
        let count = |n: usize| u32::try_from(n).expect("example counts fit in u32");
        Cell {
            slot: u32::try_from(slot).expect("tracked slots fit in u32"),
            agreeing: count(agreeing),
            compared: count(compared),
        }
    }

    fn slot(&self) -> usize {
        self.slot as usize
    }

    /// The stored verdict, or `None` for an incomparable pair.
    fn verdict(&self) -> Option<MatchVerdict> {
        (self.compared > 0)
            .then(|| MatchVerdict::from_counts(self.agreeing as usize, self.compared as usize))
    }

    fn slot_verdict(&self) -> Option<(usize, MatchVerdict)> {
        Some((self.slot(), self.verdict()?))
    }
}

/// One substitute lookup, answered from live pipeline state with zero
/// replay invocations.
#[derive(Debug, Clone)]
pub struct SubstituteAnswer {
    /// The module the lookup targeted.
    pub module: ModuleId,
    /// Whether it is currently available (live row scan) or withdrawn
    /// (carried-forward capture).
    pub available: bool,
    /// Verdict-bearing comparisons behind the ranking.
    pub candidates_compared: usize,
    /// Usable candidates, best first.
    pub ranked: Vec<(ModuleId, MatchVerdict)>,
}

impl SubstituteAnswer {
    /// The top-ranked candidate, if any verdict was usable.
    pub fn best(&self) -> Option<&(ModuleId, MatchVerdict)> {
        self.ranked.first()
    }
}

/// Whether two generation outcomes differ in anything a strict-mapping
/// verdict can read: the example set, or the rendered generation error.
fn generation_outcome_differs(
    old: &Result<GenerationReport, GenerationError>,
    new: &Result<GenerationReport, GenerationError>,
) -> bool {
    match (old, new) {
        (Ok(a), Ok(b)) => a.examples != b.examples,
        (Err(a), Err(b)) => a.to_string() != b.to_string(),
        _ => true,
    }
}

/// Tracked modules per bootstrap thread, so a second thread starts at
/// 5,000. On a 2-vCPU host (seed 42, medians of 15 bootstraps) two threads
/// took 252 modules as long as one, 2,500 in 21–23 ms against 27–35 ms and
/// 10,000 in 88–95 ms against 143–148 ms (EXPERIMENTS.md, "Set-up on both
/// cores"). Below 5,000 a split saves under 15 ms and costs a second malloc
/// arena, so those worlds, the paper's 252 modules among them, keep one
/// thread.
const MIN_MODULES_PER_THREAD: usize = 2_500;

/// The bootstrap's thread count for `modules` tracked modules: one per
/// [`MIN_MODULES_PER_THREAD`], at most one per available core, and never
/// fewer than one. The core count is asked for only when a second thread
/// is possible.
fn bootstrap_threads(modules: usize) -> usize {
    let wanted = modules / MIN_MODULES_PER_THREAD;
    if wanted < 2 {
        return 1;
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    wanted.min(cores)
}

/// Deals whole buckets to `threads` shares, largest first, each to the
/// share with the fewest ordered pairs so far (the lowest share on a tie).
fn deal_buckets<'a>(
    buckets: impl Iterator<Item = &'a [usize]>,
    threads: usize,
) -> Vec<Vec<&'a [usize]>> {
    let mut buckets: Vec<&[usize]> = buckets.collect();
    buckets.sort_by_key(|bucket| std::cmp::Reverse(bucket.len()));
    let mut shares = vec![Vec::new(); threads];
    let mut pairs = vec![0usize; threads];
    for bucket in buckets {
        let k = (0..threads)
            .min_by_key(|&k| pairs[k])
            .expect("at least one share");
        pairs[k] += bucket.len() * (bucket.len() - 1);
        shares[k].push(bucket);
    }
    shares
}

/// Runs `work` on every share, the first on the calling thread and each
/// other on a scoped thread of its own, and returns the results in share
/// order. One share spawns nothing. A worker's panic is re-raised with its
/// payload.
///
/// Each worker runs its share under one root span named `worker`, so the
/// spans its share opens nest under it and reach the global span list in
/// one append when it closes, rather than one per span.
fn run_shares<S: Send, R: Send>(
    worker: &'static str,
    shares: Vec<S>,
    work: impl Fn(S) -> R + Sync,
) -> Vec<R> {
    let mut shares = shares.into_iter();
    let first = shares.next();
    std::thread::scope(|scope| {
        let work = &work;
        let workers: Vec<_> = shares
            .map(|share| {
                scope.spawn(move || {
                    let _span = dex_telemetry::span(worker);
                    work(share)
                })
            })
            .collect();
        let mut results: Vec<R> = first.map(work).into_iter().collect();
        for worker in workers {
            let result = worker
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            results.push(result);
        }
        results
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_modules::{FaultInjector, FaultPlan, RetryPolicy};
    use dex_oracle::fixture::{mini_module, world_of};

    /// Input shapes, as indices into the fixture's concept list: four
    /// fingerprint buckets, dealt unevenly over three threads.
    const SHAPES: [&[usize]; 4] = [&[0], &[1], &[2, 3], &[4]];

    /// A fixture world of 48 modules, 12 a bucket, that reject 30% of
    /// input vectors, with every module behind one injector faulting 40% of
    /// keys. Rejections are salted per slot, so bucket peers pick different
    /// values and the fill replays target examples through the cache.
    fn faulty_world() -> (Universe, InstancePool, FaultInjector) {
        let injector = FaultInjector::new(FaultPlan {
            seed: 11,
            fault_rate_millis: 400,
            max_consecutive: 2,
        });
        let (universe, pool) = world_of((0..48).map(|slot| {
            let module = mini_module(slot, SHAPES[slot % SHAPES.len()], 0x5eed, 30);
            injector.wrap(Arc::new(module))
        }));
        (universe, pool, injector)
    }

    #[test]
    fn the_thread_count_changes_no_answer() {
        for retry in [RetryPolicy::none(), RetryPolicy::transient(4)] {
            let config = GenerationConfig {
                retry,
                ..GenerationConfig::default()
            };
            let run = |threads: fn(usize) -> usize| {
                let (universe, pool, injector) = faulty_world();
                let engine =
                    IncrementalPipeline::bootstrap_on(universe, pool, config.clone(), threads);
                let counts = (
                    engine.retry_stats(),
                    engine.invocation_cache().stats(),
                    injector.stats(),
                );
                let reports: Vec<_> = engine
                    .reports()
                    .map(|(id, report)| (id.clone(), report.clone()))
                    .collect();
                (counts, reports, engine.matrix())
            };
            let one = run(|_| 1);
            let ((retries, cache, faults), reports, matrix) = &one;
            // The world reaches every path the split must keep in order.
            assert_eq!(reports.len(), 48, "{retry:?}");
            assert!(
                cache.misses > 0 && cache.transients > 0,
                "{retry:?}: {cache:?}"
            );
            assert!(faults.injected_faults > 0, "{retry:?}");
            assert_eq!(retries.retries > 0, retry.retries_enabled(), "{retry:?}");
            assert!(matrix.values().any(|r| matches!(
                r.outcome,
                MatchOutcome::Verdict(MatchVerdict::Equivalent { .. })
            )));
            // A split that let two threads replay one candidate would show
            // only when their shares overlap in time, so each count runs
            // more than once.
            for _ in 0..4 {
                assert_eq!(run(|_| 2), one, "2 threads, {retry:?}");
                assert_eq!(run(|_| 3), one, "3 threads, {retry:?}");
            }
        }
    }

    #[test]
    fn dealing_gives_each_bucket_to_one_share() {
        let (universe, _, _) = faulty_world();
        let ids = universe.available_ids();
        let index = FingerprintIndex::build(
            ids.iter().map(|id| universe.catalog.descriptor(id)),
            &universe.ontology,
        );
        let uneven: Vec<Vec<usize>> = [5, 1, 3, 3, 2, 7, 1]
            .iter()
            .scan(0, |next, &len| {
                *next += len;
                Some((*next - len..*next).collect())
            })
            .collect();
        for (buckets, slots) in [
            (index.buckets().collect::<Vec<_>>(), ids.len()),
            (uneven.iter().map(Vec::as_slice).collect(), 22),
        ] {
            for threads in 1..=9 {
                let shares = deal_buckets(buckets.iter().copied(), threads);
                assert_eq!(shares.len(), threads);
                for bucket in &buckets {
                    let holders = shares.iter().filter(|s| s.contains(bucket)).count();
                    assert_eq!(holders, 1, "{bucket:?} at {threads} threads");
                }
                // One row per member: each slot's row is produced once.
                let mut rows: Vec<usize> = shares
                    .iter()
                    .flatten()
                    .copied()
                    .flatten()
                    .copied()
                    .collect();
                rows.sort_unstable();
                assert_eq!(rows, (0..slots).collect::<Vec<_>>(), "{threads} threads");
            }
        }
    }

    #[test]
    fn a_share_runs_on_the_caller_and_a_worker_panic_keeps_its_payload() {
        let caller = std::thread::current().id();
        let ran = run_shares("test.worker", vec![0, 1, 2], |k| {
            (k, std::thread::current().id() == caller)
        });
        assert_eq!(ran, vec![(0, true), (1, false), (2, false)]);
        let panic = std::panic::catch_unwind(|| {
            run_shares("test.worker", vec![0, 1], |k| {
                if k == 1 {
                    std::panic::panic_any(format!("share {k} failed"));
                }
                k
            })
        })
        .expect_err("the worker's panic is re-raised");
        assert_eq!(
            panic.downcast_ref::<String>().map(String::as_str),
            Some("share 1 failed")
        );
    }

    #[test]
    fn small_registries_bootstrap_on_the_calling_thread() {
        assert_eq!(bootstrap_threads(0), 1);
        assert_eq!(bootstrap_threads(252), 1);
        assert_eq!(bootstrap_threads(2 * MIN_MODULES_PER_THREAD - 1), 1);
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(bootstrap_threads(2 * MIN_MODULES_PER_THREAD), cores.min(2));
        assert_eq!(
            bootstrap_threads(100 * MIN_MODULES_PER_THREAD),
            cores.min(100)
        );
    }
}
