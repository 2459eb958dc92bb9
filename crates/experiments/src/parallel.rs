//! Parallel data-example generation and the blocked all-pairs matching
//! sweep.
//!
//! Generation is embarrassingly parallel — modules are `Send + Sync` black
//! boxes and the pool/ontology are shared read-only — so [`generate_fleet`]
//! fans out over `std::thread::scope` without extra dependencies, and
//! returns its reports in module-id order regardless of scheduling.
//! [`match_pairs`] is one serial loop: fingerprint blocking leaves it few
//! pairs to replay (490 of the 63,252 ordered pairs of the paper's 252
//! modules).

use dex_core::matching::pair_outcome;
use dex_core::{
    generate_examples_retrying, BlockingStats, FingerprintIndex, GenerationConfig,
    GenerationReport, MatchOutcome, MatchReport, MatchSession, MatchVerdict,
};
use dex_modules::{InvocationCache, ModuleId, Retrier, SharedModule};
use dex_pool::InstancePool;
use dex_universe::Universe;
use std::cell::OnceCell;
use std::collections::BTreeMap;

/// The outcome of a degradation-tolerant fleet generation: per-module
/// reports for everything that generated, failure records for everything
/// that did not.
#[derive(Debug, Default)]
pub struct GenerationFleet {
    /// Reports for modules whose generation succeeded, in module-id order.
    pub reports: BTreeMap<ModuleId, GenerationReport>,
    /// `(module, rendered error)` for each module whose generation failed
    /// even after retries — the run degraded around them instead of dying.
    pub failures: Vec<(ModuleId, String)>,
}

/// Generates reports for every available module of the universe, fanning
/// out over `threads` workers (values below 1 are clamped to 1).
///
/// Each worker owns a disjoint `&mut` chunk of the results buffer, so
/// collection is lock-free — no per-slot mutex, no channel, no allocation
/// beyond the output itself.
///
/// Transiently failing invocations are retried through the shared
/// `retrier`, and a module whose generation still fails is *recorded and
/// skipped* (the paper pipeline keeps annotating the modules it can reach)
/// — unless `fail_fast` is set, which panics on the first failure, for
/// callers that expect the universe to be fully generable.
pub fn generate_fleet(
    universe: &Universe,
    pool: &InstancePool,
    config: &GenerationConfig,
    threads: usize,
    retrier: &Retrier,
    fail_fast: bool,
) -> GenerationFleet {
    let ids = universe.available_ids();
    let threads = threads.max(1).min(ids.len().max(1));
    let _span = dex_telemetry::span("parallel.generate_all");
    dex_telemetry::gauge_set("dex.parallel.threads", threads as i64);
    let chunk = ids.len().div_ceil(threads);

    let mut results: Vec<Option<(ModuleId, Result<GenerationReport, String>)>> = Vec::new();
    results.resize_with(ids.len(), || None);

    // One invocation memo across all workers: distinct modules never share a
    // key, but repeated experiment phases over the same universe do, and the
    // cache's stats land in TELEMETRY.json for every instrumented run.
    let invocations = InvocationCache::new();
    let ctx = dex_telemetry::current_context();
    std::thread::scope(|scope| {
        for (id_chunk, out_chunk) in ids.chunks(chunk).zip(results.chunks_mut(chunk)) {
            let invocations = &invocations;
            scope.spawn(move || {
                let _worker = ctx.span("parallel.generate_worker");
                for (id, slot) in id_chunk.iter().zip(out_chunk) {
                    let Some(module) = universe.catalog.get(id) else {
                        if fail_fast {
                            panic!("{id}: module withdrawn mid-run");
                        }
                        *slot = Some((id.clone(), Err("module withdrawn mid-run".to_string())));
                        continue;
                    };
                    let outcome = generate_examples_retrying(
                        module.as_ref(),
                        &universe.ontology,
                        pool,
                        config,
                        invocations,
                        retrier,
                    );
                    *slot = Some(match outcome {
                        Ok(report) => (id.clone(), Ok(report)),
                        Err(e) if fail_fast => panic!("{id}: {e}"),
                        Err(e) => (id.clone(), Err(e.to_string())),
                    });
                }
            });
        }
    });
    if dex_telemetry::is_enabled() {
        invocations.publish_telemetry();
    }

    let mut fleet = GenerationFleet::default();
    for (id, outcome) in results.into_iter().map(|slot| slot.expect("filled")) {
        match outcome {
            Ok(report) => {
                fleet.reports.insert(id, report);
            }
            Err(error) => {
                if dex_telemetry::is_enabled() {
                    dex_telemetry::counter_add("dex.parallel.generation_failures", 1);
                    dex_telemetry::flight(
                        dex_telemetry::FlightKind::ModuleWithdrawn,
                        id.as_str(),
                        error.clone(),
                        0,
                    );
                }
                fleet.failures.push((id, error));
            }
        }
    }
    if !fleet.failures.is_empty() {
        // Graceful degradation just withdrew module(s): capture the flight
        // window (fault injections, retries, exhaustion) as a post-mortem.
        dex_telemetry::dump_flight("module withdrawn");
    }
    fleet
}

/// What an all-pairs sweep materializes besides its tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairOutput {
    /// Every ordered pair's [`MatchReport`] — pruned and unavailable pairs
    /// included, so the matrix is indistinguishable from an exhaustive
    /// sweep.
    Dense,
    /// Verdict tallies only: constant memory in the pair count, the only
    /// feasible mode at 25k modules, where the dense matrix would hold 625M
    /// reports.
    Summary,
}

/// One blocked all-pairs run: verdict tallies and the blocking ledger
/// explaining how little of the sweep required invocation, plus the report
/// matrix under [`PairOutput::Dense`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockedMatch {
    /// Every ordered pair's report, keyed `(target, candidate)`, under
    /// [`PairOutput::Dense`]; empty under [`PairOutput::Summary`].
    pub reports: BTreeMap<(ModuleId, ModuleId), MatchReport>,
    /// Pairs judged equivalent.
    pub equivalent: usize,
    /// Pairs judged overlapping.
    pub overlapping: usize,
    /// Pairs judged disjoint.
    pub disjoint: usize,
    /// Incomparable pairs — compared-but-unmappable, fingerprint-pruned,
    /// and unavailable alike, so the four tallies always sum to
    /// `stats.pairs_total` and agree with an exhaustive sweep's tally.
    pub incomparable: usize,
    /// How the sweep was spent: compared vs pruned vs unavailable.
    pub stats: BlockingStats,
}

impl BlockedMatch {
    fn count(&mut self, outcome: &MatchOutcome) {
        match outcome {
            MatchOutcome::Verdict(MatchVerdict::Equivalent { .. }) => self.equivalent += 1,
            MatchOutcome::Verdict(MatchVerdict::Overlapping { .. }) => self.overlapping += 1,
            MatchOutcome::Verdict(MatchVerdict::Disjoint { .. }) => self.disjoint += 1,
            MatchOutcome::Incomparable(_) => self.incomparable += 1,
        }
    }

    /// `(equivalent, overlapping, disjoint, incomparable)` as one tuple.
    pub fn tallies(&self) -> (usize, usize, usize, usize) {
        (
            self.equivalent,
            self.overlapping,
            self.disjoint,
            self.incomparable,
        )
    }
}

/// Builds the blocking plan for `ids`: the fingerprint index and the stats
/// ledger. Withdrawn ids get no fingerprint and land in the
/// `pairs_unavailable` bucket.
fn blocked_plan(universe: &Universe, ids: &[ModuleId]) -> (FingerprintIndex, BlockingStats) {
    let index = FingerprintIndex::build(
        ids.iter()
            .map(|id| universe.catalog.get(id).map(|m| m.descriptor())),
        &universe.ontology,
    );
    let pairs_compared = index
        .buckets()
        .map(|b| b.len() * b.len().saturating_sub(1))
        .sum();
    let n = ids.len();
    let available = (0..n).filter(|&i| index.fingerprint(i).is_some()).count();
    let pairs_total = n * n.saturating_sub(1);
    let both_available = available * available.saturating_sub(1);
    let stats = BlockingStats {
        pairs_total,
        pairs_compared,
        pairs_pruned: both_available - pairs_compared,
        pairs_unavailable: pairs_total - both_available,
        buckets: index.bucket_count(),
        largest_bucket: index.largest_bucket(),
    };
    if dex_telemetry::is_enabled() {
        dex_telemetry::gauge_set("dex.match.buckets", stats.buckets as i64);
        dex_telemetry::gauge_set("dex.match.bucket_max", stats.largest_bucket as i64);
    }
    (index, stats)
}

fn unavailable_report(universe: &Universe, ids: &[ModuleId], t: usize, c: usize) -> MatchReport {
    // Target-side absence is reported first, matching the exhaustive sweep.
    let gone = if universe.catalog.get(&ids[t]).is_none() {
        &ids[t]
    } else {
        &ids[c]
    };
    MatchReport {
        target: ids[t].clone(),
        candidate: ids[c].clone(),
        outcome: MatchOutcome::Incomparable(format!("module `{gone}` is unavailable")),
        examples: 0,
    }
}

/// Blocked all-pairs matching over every ordered pair of distinct modules
/// in `ids`, through `session`: a warm session answers every invocation it
/// has seen from its invocation cache, a cold caller passes a fresh one.
///
/// One serial loop over targets. Fingerprint blocking prunes provably
/// incomparable pairs without invocation; each target runs
/// [`MatchSession::compare_report`] against its bucket peers only, with its
/// report generated once, on first use — so under [`PairOutput::Summary`] a
/// target with no peer generates nothing. Pruned and unavailable pairs are
/// incomparable by construction, so both outputs tally them — and count
/// them in the `dex.match.*` telemetry — arithmetically: `dex.match.pairs`
/// grows by `stats.pairs_total` either way. [`PairOutput::Dense`] also
/// materializes them, pruned pairs through [`pair_outcome`]
/// (invocation-free: their strict mapping fails first), so the matrix is
/// byte-identical to [`match_pairs_exhaustive`]'s.
pub fn match_pairs(
    session: &MatchSession,
    universe: &Universe,
    ids: &[ModuleId],
    output: PairOutput,
) -> BlockedMatch {
    let _span = dex_telemetry::span("parallel.match_pairs");
    let (index, stats) = blocked_plan(universe, ids);
    let handles: Vec<Option<&SharedModule>> =
        ids.iter().map(|id| universe.catalog.get(id)).collect();
    let dense = output == PairOutput::Dense;
    let retrier = Retrier::new(session.config().retry);
    let skipped = stats.pairs_pruned + stats.pairs_unavailable;
    let mut out = BlockedMatch {
        incomparable: skipped,
        stats,
        ..BlockedMatch::default()
    };
    for (t, &handle) in handles.iter().enumerate() {
        let Some(target) = handle else {
            if dense {
                for c in (0..ids.len()).filter(|&c| c != t) {
                    let report = unavailable_report(universe, ids, t, c);
                    out.reports.insert((ids[t].clone(), ids[c].clone()), report);
                }
            }
            continue;
        };
        let generation = OnceCell::new();
        let generation = || generation.get_or_init(|| session.report_for(target.as_ref()));
        for &c in index.peers(t).iter().filter(|&&c| c != t) {
            let candidate = handles[c].expect("bucketed ids are available");
            let report = session.compare_report(target.as_ref(), generation(), candidate.as_ref());
            out.count(&report.outcome);
            if dense {
                out.reports.insert((ids[t].clone(), ids[c].clone()), report);
            }
        }
        if !dense {
            continue;
        }
        for (c, &candidate) in handles.iter().enumerate() {
            if t == c || index.is_comparable(t, c) {
                continue;
            }
            let report = match candidate {
                Some(candidate) => MatchReport {
                    target: ids[t].clone(),
                    candidate: ids[c].clone(),
                    outcome: pair_outcome(
                        target.descriptor(),
                        generation(),
                        candidate.as_ref(),
                        None,
                        &universe.ontology,
                        session.invocation_cache(),
                        &retrier,
                    ),
                    examples: match generation().as_ref() {
                        Ok(report) => report.examples.len(),
                        Err(_) => 0,
                    },
                },
                None => unavailable_report(universe, ids, t, c),
            };
            out.reports.insert((ids[t].clone(), ids[c].clone()), report);
        }
    }
    if dex_telemetry::is_enabled() {
        dex_telemetry::counter_add("dex.match.pairs", skipped as u64);
        dex_telemetry::counter_add("dex.match.verdict.incomparable", skipped as u64);
        dex_telemetry::counter_add("dex.match.pairs_pruned", stats.pairs_pruned as u64);
        // Invocation-level cache effectiveness (hits/misses/entries) for the
        // whole all-pairs run.
        session.invocation_cache().publish_telemetry();
    }
    out
}

/// The exhaustive all-pairs oracle: every ordered pair runs the full
/// comparison through `session`, no blocking. This
/// is the semantics [`match_pairs`] must reproduce byte-for-byte; the
/// equivalence proptests in `tests/properties.rs` hold it to it. Each
/// available target's report is generated once, in the outer loop.
pub fn match_pairs_exhaustive(
    session: &MatchSession,
    universe: &Universe,
    ids: &[ModuleId],
) -> BTreeMap<(ModuleId, ModuleId), MatchReport> {
    let mut reports = BTreeMap::new();
    for t in 0..ids.len() {
        let target = universe.catalog.get(&ids[t]);
        let generation = target.map(|target| session.report_for(target.as_ref()));
        for c in 0..ids.len() {
            if t == c {
                continue;
            }
            let report = match (target, &generation, universe.catalog.get(&ids[c])) {
                (Some(target), Some(generation), Some(candidate)) => {
                    session.compare_report(target.as_ref(), generation, candidate.as_ref())
                }
                _ => unavailable_report(universe, ids, t, c),
            };
            reports.insert((ids[t].clone(), ids[c].clone()), report);
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::{compare_modules, generate_examples, MatchOutcome};
    use dex_pool::build_synthetic_pool;

    /// Every available module's report through a fail-fast fleet.
    fn fleet(
        universe: &Universe,
        pool: &InstancePool,
        threads: usize,
    ) -> BTreeMap<ModuleId, GenerationReport> {
        let config = GenerationConfig::default();
        generate_fleet(
            universe,
            pool,
            &config,
            threads,
            &Retrier::new(config.retry),
            true,
        )
        .reports
    }

    /// `match_pairs` through a fresh session under the default config.
    fn sweep(
        universe: &Universe,
        ids: &[ModuleId],
        pool: &InstancePool,
        output: PairOutput,
    ) -> BlockedMatch {
        let session = MatchSession::new(&universe.ontology, pool, GenerationConfig::default());
        match_pairs(&session, universe, ids, output)
    }

    #[test]
    fn parallel_equals_serial() {
        let universe = dex_universe::build();
        let pool = build_synthetic_pool(&universe.ontology, 4, 42);
        let config = GenerationConfig::default();

        let parallel = fleet(&universe, &pool, 8);
        assert_eq!(parallel.len(), 252);
        // Spot-check against serial generation for a sample of modules.
        for id in universe.available_ids().into_iter().step_by(17) {
            let module = universe.catalog.get(&id).unwrap();
            let serial =
                generate_examples(module.as_ref(), &universe.ontology, &pool, &config).unwrap();
            assert_eq!(parallel[&id].examples, serial.examples, "{id}");
        }
    }

    #[test]
    fn single_thread_also_works() {
        let universe = dex_universe::build();
        let pool = build_synthetic_pool(&universe.ontology, 2, 1);
        let reports = fleet(&universe, &pool, 1);
        assert_eq!(reports.len(), 252);
    }

    #[test]
    fn fleet_degrades_around_a_withdrawn_module_instead_of_dying() {
        let mut universe = dex_universe::build();
        let pool = build_synthetic_pool(&universe.ontology, 2, 5);
        let config = GenerationConfig::default();
        let victim = universe.available_ids()[0].clone();

        let baseline = fleet(&universe, &pool, 4);
        universe.catalog.withdraw(&victim);
        let retrier = Retrier::new(dex_modules::RetryPolicy::transient(2));
        let fleet = generate_fleet(&universe, &pool, &config, 4, &retrier, false);
        assert_eq!(fleet.reports.len(), baseline.len() - 1);
        assert!(!fleet.reports.contains_key(&victim));
        assert!(
            fleet.failures.is_empty(),
            "withdrawn ids drop out of available_ids(), so nothing failed"
        );
        for (id, report) in &fleet.reports {
            assert_eq!(report.examples, baseline[id].examples, "{id}");
        }

        // The matching sweep likewise records the withdrawn module as
        // incomparable instead of panicking.
        let ids = vec![victim.clone(), fleet.reports.keys().next().unwrap().clone()];
        let matrix = sweep(&universe, &ids, &pool, PairOutput::Dense).reports;
        assert_eq!(matrix.len(), 2);
        for report in matrix.values() {
            match &report.outcome {
                MatchOutcome::Incomparable(msg) => {
                    assert!(msg.contains("unavailable"), "{msg}")
                }
                other => panic!("expected incomparable, got {other:?}"),
            }
        }
    }

    #[test]
    fn all_pairs_matches_serial_comparisons() {
        let universe = dex_universe::build();
        let pool = build_synthetic_pool(&universe.ontology, 4, 42);
        let config = GenerationConfig::default();
        // A modest slice keeps the quadratic test quick; every 11th module
        // still crosses all five categories.
        let ids: Vec<ModuleId> = universe.available_ids().into_iter().step_by(11).collect();

        let matrix = sweep(&universe, &ids, &pool, PairOutput::Dense).reports;
        assert_eq!(matrix.len(), ids.len() * (ids.len() - 1));

        for ((t, c), report) in &matrix {
            assert_eq!(&report.target, t);
            assert_eq!(&report.candidate, c);
            let target = universe.catalog.get(t).unwrap();
            let candidate = universe.catalog.get(c).unwrap();
            let serial = compare_modules(
                target.as_ref(),
                candidate.as_ref(),
                &universe.ontology,
                &pool,
                &config,
            );
            match (&report.outcome, serial) {
                (MatchOutcome::Verdict(v), Ok(w)) => assert_eq!(*v, w, "{t} vs {c}"),
                (MatchOutcome::Incomparable(msg), Err(e)) => {
                    assert_eq!(msg, &e.to_string(), "{t} vs {c}")
                }
                (got, want) => panic!("{t} vs {c}: {got:?} but serial said {want:?}"),
            }
        }
    }

    #[test]
    fn blocked_matrix_is_byte_identical_to_exhaustive_oracle() {
        let universe = dex_universe::build();
        let pool = build_synthetic_pool(&universe.ontology, 4, 42);
        let config = GenerationConfig::default();
        let ids: Vec<ModuleId> = universe.available_ids().into_iter().step_by(13).collect();
        let session = MatchSession::new(&universe.ontology, &pool, config);
        let oracle = match_pairs_exhaustive(&session, &universe, &ids);
        let blocked = sweep(&universe, &ids, &pool, PairOutput::Dense);
        assert_eq!(oracle, blocked.reports);
        let s = blocked.stats;
        assert_eq!(s.pairs_total, ids.len() * (ids.len() - 1));
        assert_eq!(
            s.pairs_compared + s.pairs_pruned + s.pairs_unavailable,
            s.pairs_total
        );
        assert!(s.pairs_pruned > 0, "a mixed catalog must prune something");
        assert!(s.buckets > 1);
    }

    /// Both outputs tally the same sweep identically — unavailable pairs
    /// of a withdrawn id included — and only the dense one materializes.
    #[test]
    fn summary_tallies_agree_with_the_dense_matrix() {
        let mut universe = dex_universe::build();
        let pool = build_synthetic_pool(&universe.ontology, 3, 11);
        let ids: Vec<ModuleId> = universe.available_ids().into_iter().step_by(17).collect();
        universe.catalog.withdraw(&ids[0]);
        let dense = sweep(&universe, &ids, &pool, PairOutput::Dense);
        let summary = sweep(&universe, &ids, &pool, PairOutput::Summary);
        let mut want = (0usize, 0usize, 0usize, 0usize);
        for report in dense.reports.values() {
            match &report.outcome {
                MatchOutcome::Verdict(dex_core::MatchVerdict::Equivalent { .. }) => want.0 += 1,
                MatchOutcome::Verdict(dex_core::MatchVerdict::Overlapping { .. }) => want.1 += 1,
                MatchOutcome::Verdict(dex_core::MatchVerdict::Disjoint { .. }) => want.2 += 1,
                MatchOutcome::Incomparable(_) => want.3 += 1,
            }
        }
        assert_eq!(dense.tallies(), want);
        assert_eq!(summary.tallies(), want);
        assert_eq!(summary.stats, dense.stats);
        assert_eq!(summary.stats.pairs_unavailable, 2 * (ids.len() - 1));
        assert!(summary.reports.is_empty());
    }
}
