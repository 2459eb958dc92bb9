//! Continuous decay-and-repair over scaled universes — §6's workflow-decay
//! study run as a *workload* instead of a one-shot experiment.
//!
//! [`ContinuousState::prepare`] stands up a scaled world
//! ([`dex_universe::scale::build_scaled`]), bootstraps the incremental
//! pipeline over it, and records the repository's pre-decay provenance with
//! the corpus walk ([`enact_repository`]), streaming each trace into a
//! [`HarvestSink`] and archiving it for repair. Each subsequent wave
//! ([`ContinuousState::decay_wave`], or [`ContinuousState::apply_wave`] for
//! a caller-chosen delta schedule):
//!
//! 1. routes its withdrawals/restores through [`Delta`] events so the
//!    incremental engine absorbs them — **zero** cold regenerations per
//!    withdraw-only wave, asserted against the delta accounting;
//! 2. the engine's carried-forward matching study (fingerprint-prefiltered
//!    ranked verdicts captured at withdrawal time) proposes substitutes;
//! 3. every *currently broken* workflow — hit by this wave **or carried
//!    over from an earlier one** — is repaired by trace-replay-verified
//!    substitution ([`repair_workflow`] against its archived trace) and
//!    healed in place. Carrying the broken set forward is
//!    what lets a workflow left unrepaired in wave N succeed in wave N+1
//!    once a viable substitute (re)appears; such recoveries are reported as
//!    [`WaveReport::re_repaired`].
//!
//! Per-workflow repair latency is recorded into the global
//! `dex.repair.workflow_ns` histogram and into a per-wave and a per-run
//! [`Histogram`] of the caller's own, so the reported p50/p95/p99 need no
//! enabled subscriber.
//!
//! `exp_repair --scale N --waves W` is a thin front-end over
//! [`run_continuous`], which drives seeded decay waves over one prepared
//! state.

use crate::incremental::IncrementalPipeline;
use dex_core::delta::{Delta, DeltaReport};
use dex_core::GenerationConfig;
use dex_modules::{InvocationCache, ModuleId, Retrier, RetryPolicy};
use dex_pool::build_text_pool;
use dex_provenance::HarvestSink;
use dex_repair::{
    enact_repository, generate_repository, repair_workflow, RepairSummary, RepositoryPlan,
    WorkflowRepository,
};
use dex_telemetry::{Histogram, HistogramSnapshot};
use dex_universe::scale::{build_scaled, FamilyInfo, ScalePlan};
use dex_values::classify::classify_concept;
use dex_workflow::EnactmentTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Knobs of one continuous decay-and-repair run.
#[derive(Debug, Clone)]
pub struct ContinuousConfig {
    /// Modules in the scaled universe.
    pub scale: usize,
    /// Stored workflows in the repository.
    pub workflows: usize,
    /// Decay waves to drive.
    pub waves: usize,
    /// Percent of the still-available modules withdrawn per wave.
    pub fault_pct: u32,
    /// Master seed (world, repository, and decay schedule all derive from
    /// it).
    pub seed: u64,
    /// Per-concept instances in the backing text pool.
    pub pool_depth: usize,
}

impl ContinuousConfig {
    /// A run at `scale` modules with the default workload shape: one stored
    /// workflow per ~5 modules (at least 50), 10% decay per wave.
    pub fn at_scale(scale: usize, waves: usize, seed: u64) -> ContinuousConfig {
        ContinuousConfig {
            scale,
            workflows: (scale / 5).max(50),
            waves,
            fault_pct: 10,
            seed,
            pool_depth: 4,
        }
    }
}

/// Setup-phase accounting: what was built and what it cost.
#[derive(Debug, Clone)]
pub struct PrepareStats {
    /// Modules in the world (equals the config's `scale`).
    pub modules: usize,
    /// Behavior families generated.
    pub families: usize,
    /// Concepts in the scaled ontology.
    pub concepts: usize,
    /// Stored workflows.
    pub workflows: usize,
    /// Wall time to build world + pool + repository, milliseconds.
    pub build_ms: f64,
    /// Wall time of the incremental pipeline bootstrap, milliseconds.
    pub bootstrap_ms: f64,
    /// Wall time of the streaming provenance harvest, milliseconds.
    pub harvest_ms: f64,
    /// Distinct instances the streaming harvest produced.
    pub harvested_instances: usize,
}

/// Accounting for one decay wave.
#[derive(Debug, Clone)]
pub struct WaveReport {
    /// Wave index, 0-based.
    pub wave: usize,
    /// Modules withdrawn this wave.
    pub withdrawals: usize,
    /// The incremental engine's delta accounting for the wave's batch.
    pub delta: DeltaReport,
    /// Repair attempts this wave: workflows broken by this wave's
    /// withdrawals plus still-broken carryover from earlier waves.
    pub affected_workflows: usize,
    /// Still-broken workflows carried into this wave from earlier ones.
    pub carried_broken: usize,
    /// Carried-over broken workflows that ended this wave fully healed —
    /// the re-repairs the pre-fix driver could never attempt.
    pub re_repaired: usize,
    /// Repair outcomes across the attempts.
    pub fully_repaired: usize,
    /// Workflows where only part of the broken steps could be fixed.
    pub partially_repaired: usize,
    /// Workflows where no broken step could be fixed.
    pub unrepaired: usize,
    /// Accepted (replay-verified) substitutions across all attempts.
    pub substitutions: usize,
    /// Workflows still referencing an unavailable module after repair.
    pub broken_after: usize,
    /// Wall time of the wave's repair phase, milliseconds.
    pub repair_ms: f64,
    /// Accepted substitutions per second of repair-phase wall time.
    pub repairs_per_sec: f64,
    /// Per-workflow repair latency distribution for this wave.
    pub latency: HistogramSnapshot,
}

/// Everything a continuous run produced.
#[derive(Debug, Clone)]
pub struct ContinuousReport {
    /// Setup-phase accounting.
    pub prepare: PrepareStats,
    /// Per-wave accounting, in order.
    pub waves: Vec<WaveReport>,
    /// Per-workflow repair latency across all waves.
    pub latency_overall: HistogramSnapshot,
}

impl ContinuousReport {
    /// Accepted substitutions across all waves.
    pub fn total_substitutions(&self) -> usize {
        self.waves.iter().map(|w| w.substitutions).sum()
    }

    /// Carried-over broken workflows healed across all waves.
    pub fn total_re_repaired(&self) -> usize {
        self.waves.iter().map(|w| w.re_repaired).sum()
    }
}

/// Live state of a continuous decay-and-repair workload: the prepared
/// world, the incremental pipeline, the workflow repository being healed in
/// place, and — crucially — the set of workflows still broken after
/// earlier waves, which every subsequent wave retries.
pub struct ContinuousState {
    cfg: ContinuousConfig,
    pipeline: IncrementalPipeline,
    repo: WorkflowRepository,
    archive: BTreeMap<String, EnactmentTrace>,
    families: Vec<FamilyInfo>,
    /// Indices of workflows currently referencing an unavailable module —
    /// the carryover each wave's repair pass must retry.
    broken: BTreeSet<usize>,
    prepare: PrepareStats,
    overall: Histogram,
    rng: StdRng,
    waves: Vec<WaveReport>,
}

impl ContinuousState {
    /// Builds the world, repository, pipeline bootstrap, and streaming
    /// provenance harvest — everything a wave needs.
    ///
    /// # Panics
    /// Panics if a pre-decay enactment fails (a bug in the scaled
    /// generator).
    pub fn prepare(cfg: &ContinuousConfig) -> ContinuousState {
        let _span = dex_telemetry::span("continuous.prepare");

        // ---- Build: world, pool, repository. -----------------------------
        let t = Instant::now();
        let world = build_scaled(&ScalePlan::new(cfg.scale, cfg.seed));
        let families = world.families;
        let concepts = world.universe.ontology.len();
        let pool = build_text_pool(&world.universe.ontology, cfg.pool_depth, cfg.seed);
        let plan = RepositoryPlan {
            healthy: cfg.workflows,
            equivalent_full: 0,
            equivalent_partial: 0,
            overlap_full: 0,
            overlap_partial: 0,
            overlap_odd: 0,
            none_only: 0,
            seed: cfg.seed,
        };
        let repo = generate_repository(&world.universe, &pool, &plan);
        let build_ms = t.elapsed().as_secs_f64() * 1000.0;

        // ---- Bootstrap the incremental pipeline. ----------------------------
        let t = Instant::now();
        let pipeline =
            IncrementalPipeline::bootstrap(world.universe, pool, GenerationConfig::default());
        let bootstrap_ms = t.elapsed().as_secs_f64() * 1000.0;

        // ---- Streaming harvest of the pre-decay provenance. --------------
        // The corpus walk enacts each workflow once, through an invocation
        // cache of its own that it drops when it returns, and hands each
        // trace to the sink: no corpus is ever materialized for the harvest,
        // and the engine keeps no record of these invocations. The scaled
        // world has no legacy modules, so the walk records no archive
        // invocations. The per-workflow trace is archived (that's the
        // provenance store repair verifies against), but harvest memory is
        // bounded by distinct data, not enactment volume.
        let t = Instant::now();
        let mut archive: BTreeMap<String, EnactmentTrace> = BTreeMap::new();
        let mut sink = HarvestSink::new(
            "scaled-harvest",
            &pipeline.universe().catalog,
            classify_concept,
        );
        enact_repository(
            pipeline.universe(),
            &repo,
            pipeline.pool(),
            RetryPolicy::none(),
            true,
            |trace| {
                sink.absorb(&trace);
                archive.insert(trace.workflow.clone(), trace);
            },
        );
        let harvested = sink.finish();
        let harvest_ms = t.elapsed().as_secs_f64() * 1000.0;

        let prepare = PrepareStats {
            modules: cfg.scale,
            families: families.len(),
            concepts,
            workflows: repo.len(),
            build_ms,
            bootstrap_ms,
            harvest_ms,
            harvested_instances: harvested.len(),
        };

        ContinuousState {
            cfg: cfg.clone(),
            pipeline,
            repo,
            archive,
            families,
            broken: BTreeSet::new(),
            prepare,
            overall: Histogram::default(),
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xDECA_F000_0000_0001),
            waves: Vec::new(),
        }
    }

    /// One seeded decay wave: withdraws `fault_pct`% of the still-available
    /// modules, at least one unless the rate is 0%, and repairs. `None` once
    /// nothing is left to withdraw.
    pub fn decay_wave(&mut self) -> Option<&WaveReport> {
        let mut alive: Vec<ModuleId> = self
            .pipeline
            .tracked_ids()
            .iter()
            .filter(|id| self.pipeline.universe().catalog.is_available(id))
            .cloned()
            .collect();
        if alive.is_empty() {
            return None;
        }
        let floor = usize::from(self.cfg.fault_pct > 0);
        let quota = ((alive.len() * self.cfg.fault_pct as usize) / 100)
            .max(floor)
            .min(alive.len());
        let mut victims = Vec::with_capacity(quota);
        for _ in 0..quota {
            let i = self.rng.gen_range(0..alive.len());
            victims.push(alive.swap_remove(i));
        }
        let deltas: Vec<Delta> = victims
            .into_iter()
            .map(|id| Delta::ModuleWithdraw { id })
            .collect();
        Some(self.apply_wave(deltas))
    }

    /// Applies one caller-chosen delta batch as a wave and repairs every
    /// currently broken workflow — the ones this batch broke *and* the
    /// still-broken carryover from earlier waves.
    ///
    /// # Panics
    /// Panics if a withdraw-only batch reports a cold regeneration (a
    /// violation of the incremental engine's contract).
    pub fn apply_wave(&mut self, deltas: Vec<Delta>) -> &WaveReport {
        let _wave_span = dex_telemetry::span("continuous.wave");
        let wave = self.waves.len();
        let withdrawn_ids: BTreeSet<ModuleId> = deltas
            .iter()
            .filter_map(|d| match d {
                Delta::ModuleWithdraw { id } => Some(id.clone()),
                _ => None,
            })
            .collect();
        let withdraw_only = withdrawn_ids.len() == deltas.len();

        let regen_before = dex_telemetry::counter_value("dex.delta.recomputed_modules");
        let delta = self.pipeline.apply(&deltas);
        if withdraw_only {
            assert_eq!(
                delta.regenerated_modules, 0,
                "withdraw-only wave {wave} must not cold-regenerate"
            );
            assert_eq!(
                dex_telemetry::counter_value("dex.delta.recomputed_modules"),
                regen_before,
                "dex.delta counters must confirm zero regenerations in wave {wave}"
            );
        }

        let study = self.pipeline.matching_study();
        let carried = std::mem::take(&mut self.broken);
        // Repair pass = workflows this batch broke ∪ carryover, narrowed to
        // the ones actually broken now (a restore in the batch may have
        // healed carryover outright).
        let catalog = &self.pipeline.universe().catalog;
        let attempts: Vec<usize> = self
            .repo
            .workflows
            .iter()
            .enumerate()
            .filter(|(i, s)| {
                let hit = s
                    .workflow
                    .steps
                    .iter()
                    .any(|step| withdrawn_ids.contains(&step.module));
                (hit || carried.contains(i))
                    && s.workflow
                        .steps
                        .iter()
                        .any(|step| !catalog.is_available(&step.module))
            })
            .map(|(i, _)| i)
            .collect();

        let wave_hist = Histogram::default();
        let mut summary = RepairSummary::default();
        let mut substitutions = 0usize;
        // One memo for the wave's replays, dropped when the wave ends.
        let invocations = InvocationCache::new();
        let no_retries = Retrier::none();
        let repair_t = Instant::now();
        for &i in &attempts {
            let workflow = &self.repo.workflows[i].workflow;
            let trace = self.archive.get(&workflow.id);
            let t = Instant::now();
            let outcome = repair_workflow(
                workflow,
                trace.as_slice(),
                &self.pipeline.universe().catalog,
                study,
                &self.pipeline.universe().ontology,
                &invocations,
                &no_retries,
            );
            let ns = t.elapsed().as_nanos() as u64;
            wave_hist.record(ns);
            self.overall.record(ns);
            dex_telemetry::observe_ns("dex.repair.workflow_ns", ns);

            summary.record(&outcome);
            substitutions += outcome.substitutions.len();
            // Heal in place: the archived trace keeps the pre-decay outputs,
            // which verified substitutes reproduce byte-for-byte, so it
            // stays the valid reference for future waves.
            for s in &outcome.substitutions {
                self.repo.workflows[i].workflow.steps[s.step].module = s.to.clone();
            }
        }
        let repair_secs = repair_t.elapsed().as_secs_f64();

        let catalog = &self.pipeline.universe().catalog;
        let broken_now: BTreeSet<usize> = self
            .repo
            .workflows
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.workflow
                    .steps
                    .iter()
                    .any(|step| !catalog.is_available(&step.module))
            })
            .map(|(i, _)| i)
            .collect();
        let re_repaired = carried.iter().filter(|i| !broken_now.contains(i)).count();
        let broken_after = broken_now.len();
        self.broken = broken_now;

        dex_telemetry::counter_add("dex.repair.waves", 1);
        dex_telemetry::counter_add("dex.repair.substitutions", substitutions as u64);
        dex_telemetry::counter_add("dex.repair.re_repaired", re_repaired as u64);
        self.waves.push(WaveReport {
            wave,
            withdrawals: withdrawn_ids.len(),
            delta,
            affected_workflows: attempts.len(),
            carried_broken: carried.len(),
            re_repaired,
            fully_repaired: summary.fully_repaired,
            partially_repaired: summary.partially_repaired,
            unrepaired: summary.unrepaired,
            substitutions,
            broken_after,
            repair_ms: repair_secs * 1000.0,
            repairs_per_sec: if repair_secs > 0.0 {
                substitutions as f64 / repair_secs
            } else {
                0.0
            },
            latency: wave_hist.snapshot(),
        });
        self.waves.last().expect("wave just pushed")
    }

    /// The live incremental pipeline.
    pub fn pipeline(&self) -> &IncrementalPipeline {
        &self.pipeline
    }

    /// The workflow repository, healed in place as waves run.
    pub fn repository(&self) -> &WorkflowRepository {
        &self.repo
    }

    /// Ground-truth behavior families of the scaled world.
    pub fn families(&self) -> &[FamilyInfo] {
        &self.families
    }

    /// Setup-phase accounting.
    pub fn prepare_stats(&self) -> &PrepareStats {
        &self.prepare
    }

    /// Finalizes the run into its report.
    pub fn finish(self) -> ContinuousReport {
        ContinuousReport {
            prepare: self.prepare,
            waves: self.waves,
            latency_overall: self.overall.snapshot(),
        }
    }
}

/// Drives one full continuous decay-and-repair run: prepare, then `waves`
/// seeded decay waves (stopping early if the registry empties out).
///
/// # Panics
/// Panics if a pre-decay enactment fails (a bug in the scaled generator) or
/// if a withdraw-only wave reports a cold regeneration (a violation of the
/// incremental engine's contract).
pub fn run_continuous(cfg: &ContinuousConfig) -> ContinuousReport {
    let _span = dex_telemetry::span("continuous.run");
    let mut state = ContinuousState::prepare(cfg);
    for _ in 0..cfg.waves {
        if state.decay_wave().is_none() {
            break;
        }
    }
    state.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::MatchVerdict;

    #[test]
    fn continuous_run_repairs_decayed_workflows_without_regeneration() {
        let cfg = ContinuousConfig {
            scale: 300,
            workflows: 120,
            waves: 3,
            fault_pct: 10,
            seed: 5,
            pool_depth: 4,
        };
        let report = run_continuous(&cfg);
        assert_eq!(report.prepare.modules, 300);
        assert_eq!(report.prepare.workflows, 120);
        assert_eq!(report.prepare.harvested_instances, 115);
        assert_eq!(report.waves.len(), 3);
        for wave in &report.waves {
            // Withdraw-only waves never cold-regenerate (also asserted
            // inside the driver against the dex.delta counters).
            assert_eq!(wave.delta.regenerated_modules, 0);
        }
        // The run is deterministic, so its counts are pinned: withdrawn,
        // affected, carried, re-repaired, full, partial, none and
        // substitutions per wave.
        let counts: Vec<[usize; 8]> = report
            .waves
            .iter()
            .map(|w| {
                [
                    w.withdrawals,
                    w.affected_workflows,
                    w.carried_broken,
                    w.re_repaired,
                    w.fully_repaired,
                    w.partially_repaired,
                    w.unrepaired,
                    w.substitutions,
                ]
            })
            .collect();
        assert_eq!(
            counts,
            [
                [30, 11, 0, 0, 4, 0, 7, 4],
                [27, 16, 7, 0, 9, 0, 7, 9],
                [24, 14, 7, 0, 1, 0, 13, 1],
            ]
        );
        // Families guarantee equivalent twins, so decay at 10% must yield
        // some verified substitutions across three waves.
        assert!(
            report.total_substitutions() > 0,
            "no repairs landed: {:?}",
            report.waves
        );
        assert_eq!(
            report.latency_overall.count,
            report
                .waves
                .iter()
                .map(|w| w.affected_workflows as u64)
                .sum::<u64>()
        );
    }

    /// A 0% rate withdraws nothing; a positive rate withdraws at least one
    /// module where its share of the alive modules rounds down to none.
    #[test]
    fn only_a_zero_rate_withdraws_nothing() {
        let cfg = |fault_pct| ContinuousConfig {
            scale: 8,
            workflows: 4,
            waves: 0,
            fault_pct,
            seed: 3,
            pool_depth: 4,
        };
        let mut still = ContinuousState::prepare(&cfg(0));
        let before = still.pipeline().universe().catalog.available_ids();
        let wave = still.decay_wave().expect("every module is alive");
        assert_eq!(wave.withdrawals, 0);
        assert_eq!(still.pipeline().universe().catalog.available_ids(), before);

        let mut decaying = ContinuousState::prepare(&cfg(10));
        let alive = decaying.pipeline().universe().catalog.available_ids().len();
        assert!(alive < 10, "10% of {alive} modules rounds down to none");
        let wave = decaying.decay_wave().expect("every module is alive");
        assert_eq!(wave.withdrawals, 1);
        assert_eq!(
            decaying.pipeline().universe().catalog.available_ids().len(),
            alive - 1
        );
    }

    #[test]
    fn wave_accounting_is_internally_consistent() {
        let cfg = ContinuousConfig {
            scale: 200,
            workflows: 80,
            waves: 2,
            fault_pct: 15,
            seed: 9,
            pool_depth: 4,
        };
        let report = run_continuous(&cfg);
        for wave in &report.waves {
            assert_eq!(
                wave.affected_workflows,
                wave.fully_repaired + wave.partially_repaired + wave.unrepaired,
                "every repair attempt gets exactly one outcome"
            );
            assert!(wave.latency.count == wave.affected_workflows as u64);
            // A wave can never re-repair more workflows than it carried in.
            assert!(wave.re_repaired <= wave.carried_broken);
        }
        // Wave 0 has nothing to carry.
        assert_eq!(report.waves[0].carried_broken, 0);
        assert_eq!(report.waves[0].re_repaired, 0);
    }

    /// Broken workflows must be *retried* in later waves, not forgotten:
    /// when both members of a two-member behavior family (anchor +
    /// equivalent twin) go down in one wave, every workflow using them is
    /// unrepairable — the captured best substitute is the twin, and the
    /// twin is down. When the twin comes back in a later wave, the
    /// carried-forward broken set must get it repaired (`re_repaired > 0`).
    /// The pre-fix driver only ever looked at workflows hit by the current
    /// wave's withdrawals, so these workflows stayed broken forever.
    #[test]
    fn carried_broken_workflows_re_repair_when_substitute_returns() {
        let cfg = ContinuousConfig {
            scale: 240,
            workflows: 120,
            waves: 0,
            fault_pct: 10,
            seed: 11,
            pool_depth: 4,
        };
        let mut state = ContinuousState::prepare(&cfg);

        // Two-member families: the anchor's only equivalent is its twin.
        let pairs: Vec<(ModuleId, ModuleId)> = state
            .families()
            .iter()
            .filter(|f| f.members.len() == 2)
            .map(|f| (f.members[0].clone(), f.members[1].clone()))
            .collect();
        let used: Vec<(ModuleId, ModuleId)> = pairs
            .into_iter()
            .filter(|(a, b)| {
                state.repository().workflows.iter().any(|s| {
                    s.workflow
                        .steps
                        .iter()
                        .any(|st| st.module == *a || st.module == *b)
                })
            })
            .collect();
        assert!(
            !used.is_empty(),
            "expected some two-member family to appear in a stored workflow"
        );

        // Wave 0: withdraw every used twin pair *entirely*. The captured
        // best substitute of each member is its equivalent twin — also
        // down — so replay verification cannot succeed for those steps.
        let mut deltas = Vec::new();
        for (a, b) in &used {
            deltas.push(Delta::ModuleWithdraw { id: a.clone() });
            deltas.push(Delta::ModuleWithdraw { id: b.clone() });
        }
        let w0 = state.apply_wave(deltas).clone();
        assert!(
            w0.broken_after > 0,
            "withdrawing whole twin families must leave workflows broken: {w0:?}"
        );
        assert_eq!(w0.re_repaired, 0);

        // Find a still-broken workflow whose broken steps all have a
        // captured Equivalent substitute that is itself withdrawn.
        let mut restore: Option<(usize, Vec<ModuleId>)> = None;
        'workflows: for &i in &state.broken {
            let mut twins = Vec::new();
            for step in &state.repository().workflows[i].workflow.steps {
                if state
                    .pipeline()
                    .universe()
                    .catalog
                    .is_available(&step.module)
                {
                    continue;
                }
                match state.pipeline().substitute_for(&step.module) {
                    Some((cand, MatchVerdict::Equivalent { .. }))
                        if !state.pipeline().universe().catalog.is_available(cand) =>
                    {
                        twins.push(cand.clone());
                    }
                    _ => continue 'workflows,
                }
            }
            if !twins.is_empty() {
                restore = Some((i, twins));
                break;
            }
        }
        let (target, twins) =
            restore.expect("a broken workflow whose equivalent substitutes are all withdrawn");

        // Wave 1: the substitute family comes back. No new withdrawals —
        // only the carried-forward broken set gives repair anything to do.
        let w1 = state
            .apply_wave(
                twins
                    .into_iter()
                    .map(|id| Delta::ModuleRestore { id })
                    .collect(),
            )
            .clone();
        assert!(
            w1.carried_broken > 0,
            "wave 1 must carry wave 0's broken workflows"
        );
        assert!(
            w1.re_repaired >= 1,
            "restoring the twin must re-repair a carried broken workflow: {w1:?}"
        );
        assert!(
            !state.broken.contains(&target),
            "the targeted workflow must be healed"
        );
        assert!(w1.broken_after < w0.broken_after);
    }
}
