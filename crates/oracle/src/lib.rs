//! # dex-oracle
//!
//! Test-only reference code. Only `[dev-dependencies]` name this crate, and
//! CI checks that no normal or build edge reaches it, so nothing here can
//! become a production path.
//!
//! - [`match_pairs_exhaustive`] over a [`MatchSession`] is the exhaustive
//!   all-pairs matcher: every ordered pair of available modules runs the
//!   full comparison, with no fingerprint blocking and no aligned-example
//!   join, so every target example is replayed against the candidate, and
//!   its parameter mapping comes from `map_parameters`' search. The
//!   incremental engine's `matrix()` must equal it byte for byte.
//! - [`fixture`] holds the mini worlds the engine and service equivalence
//!   proptests drive.

pub mod fixture;

use dex_core::matching::{map_parameters, pair_outcome, MappingMode};
use dex_core::{
    generate_examples_retrying, GenerationConfig, GenerationError, GenerationReport, MatchReport,
};
use dex_modules::{BlackBox, InvocationCache, InvocationCacheStats, ModuleId, Retrier};
use dex_ontology::Ontology;
use dex_pool::InstancePool;
use dex_universe::Universe;
use std::collections::BTreeMap;

/// A matching context over fixed ontology, pool, and generation config.
///
/// Its one memo is a shared [`InvocationCache`]: every generation and
/// every candidate replay the session performs routes through it, so a
/// distinct `(module, input vector)` is invoked at most once per session —
/// aligned generation at offsets `0..k` shares the vectors the offsets have
/// in common, regenerating a report re-reads its outcomes instead of
/// invoking, and replaying a candidate against an aligned target hits the
/// vectors its own generation already produced. Reports themselves are not
/// memoized: [`match_pairs_exhaustive`] resolves each target's report once
/// and hands it to [`compare_report`](MatchSession::compare_report) for
/// every candidate.
pub struct MatchSession<'a> {
    ontology: &'a Ontology,
    pool: &'a InstancePool,
    config: GenerationConfig,
    invocations: InvocationCache,
    retrier: Retrier,
}

impl<'a> MatchSession<'a> {
    /// Creates a session over fixed ontology, pool, and generation config.
    /// The session owns one [`Retrier`] built from the config's
    /// [`retry`](GenerationConfig::retry) policy, shared by every generation
    /// and replay it performs — so its retry stats are session-wide.
    pub fn new(ontology: &'a Ontology, pool: &'a InstancePool, config: GenerationConfig) -> Self {
        let retrier = Retrier::new(config.retry);
        MatchSession {
            ontology,
            pool,
            config,
            invocations: InvocationCache::new(),
            retrier,
        }
    }

    /// The session-wide invocation memo.
    pub fn invocation_cache(&self) -> &InvocationCache {
        &self.invocations
    }

    /// Snapshot of the underlying invocation cache: how many module
    /// invocations the session actually performed vs. answered from memory.
    pub fn invocation_stats(&self) -> InvocationCacheStats {
        self.invocations.stats()
    }

    /// `module`'s generation result at the session's base value offset.
    pub fn report_for(&self, module: &dyn BlackBox) -> Result<GenerationReport, GenerationError> {
        self.report_at(module, self.config.value_offset)
    }

    /// `module`'s generation result at an explicit value offset. Every call
    /// generates, through the session's invocation cache and retrier, so a
    /// repeat re-invokes no vector whose outcome the cache holds.
    pub fn report_at(
        &self,
        module: &dyn BlackBox,
        value_offset: usize,
    ) -> Result<GenerationReport, GenerationError> {
        let config = GenerationConfig {
            value_offset,
            ..self.config.clone()
        };
        generate_examples_retrying(
            module,
            self.ontology,
            self.pool,
            &config,
            &self.invocations,
            &self.retrier,
        )
    }

    /// Compares `candidate` against `target`'s generation `report` (from
    /// [`report_for`](MatchSession::report_for) or
    /// [`report_at`](MatchSession::report_at)) by [`pair_outcome`], with the
    /// strict mapping [`map_parameters`] searches and no candidate examples,
    /// so every target example is replayed. Always yields a
    /// [`MatchReport`]: incomparability becomes data instead of an error.
    pub fn compare_report(
        &self,
        target: &dyn BlackBox,
        report: &Result<GenerationReport, GenerationError>,
        candidate: &dyn BlackBox,
    ) -> MatchReport {
        let mapping = map_parameters(
            target.descriptor(),
            candidate.descriptor(),
            self.ontology,
            MappingMode::Strict,
        );
        let outcome = pair_outcome(
            report,
            mapping,
            candidate,
            None,
            &self.invocations,
            &self.retrier,
        );
        let examples = report.as_ref().map_or(0, |report| report.examples.len());
        MatchReport {
            target: target.descriptor().id.clone(),
            candidate: candidate.descriptor().id.clone(),
            outcome,
            examples,
        }
    }
}

/// Every ordered pair of distinct modules in `universe.available_ids()` —
/// the set the incremental engine tracks and its `matrix()` spans — each
/// compared in full through `session`, keyed `(target, candidate)`. Each
/// target's report is generated once, in the outer loop.
pub fn match_pairs_exhaustive(
    session: &MatchSession,
    universe: &Universe,
) -> BTreeMap<(ModuleId, ModuleId), MatchReport> {
    let modules: Vec<_> = universe
        .available_ids()
        .iter()
        .map(|id| universe.catalog.get(id).expect("available"))
        .collect();
    let mut reports = BTreeMap::new();
    for (t, target) in modules.iter().enumerate() {
        let generation = session.report_for(target.as_ref());
        for (c, candidate) in modules.iter().enumerate() {
            if t != c {
                let report =
                    session.compare_report(target.as_ref(), &generation, candidate.as_ref());
                reports.insert((report.target.clone(), report.candidate.clone()), report);
            }
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::{compare_modules, MatchOutcome, MatchVerdict};
    use dex_modules::{FnModule, InvocationError, ModuleDescriptor, ModuleKind, Parameter};
    use dex_ontology::mygrid;
    use dex_pool::build_synthetic_pool;
    use dex_values::formats::sequence::{classify, SequenceKind};
    use dex_values::{StructuralType, Value};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn seq_echo(id: &str, semantic_in: &str, semantic_out: &str, upper_dna: bool) -> FnModule {
        FnModule::new(
            ModuleDescriptor::new(
                id,
                id,
                ModuleKind::SoapService,
                vec![Parameter::required(
                    "seq",
                    StructuralType::Text,
                    semantic_in,
                )],
                vec![Parameter::required(
                    "out",
                    StructuralType::Text,
                    semantic_out,
                )],
            ),
            move |inputs| {
                let s = inputs[0].as_text().unwrap();
                if classify(s).is_none() {
                    return Err(InvocationError::rejected("not a sequence"));
                }
                // Optionally behave differently on DNA to create overlap.
                if upper_dna && classify(s) == Some(SequenceKind::Dna) {
                    Ok(vec![Value::text(format!("DNA:{s}"))])
                } else {
                    Ok(vec![Value::text(s.to_string())])
                }
            },
        )
    }

    fn fixture() -> (Ontology, InstancePool) {
        let onto = mygrid::ontology();
        (onto.clone(), build_synthetic_pool(&onto, 4, 3))
    }

    /// A seq_echo clone whose invocations are counted, to observe caching.
    fn counted_echo(id: &str, semantic: &str) -> (FnModule, Arc<AtomicUsize>) {
        let count = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&count);
        let module = FnModule::new(
            ModuleDescriptor::new(
                id,
                id,
                ModuleKind::SoapService,
                vec![Parameter::required("seq", StructuralType::Text, semantic)],
                vec![Parameter::required("out", StructuralType::Text, semantic)],
            ),
            move |inputs| {
                seen.fetch_add(1, Ordering::Relaxed);
                let s = inputs[0].as_text().unwrap();
                if classify(s).is_none() {
                    return Err(InvocationError::rejected("not a sequence"));
                }
                Ok(vec![Value::text(s.to_string())])
            },
        );
        (module, count)
    }

    /// One session comparison with the target's report resolved through
    /// the session.
    fn session_outcome(s: &MatchSession, t: &dyn BlackBox, c: &dyn BlackBox) -> MatchOutcome {
        s.compare_report(t, &s.report_for(t), c).outcome
    }

    /// [`session_outcome`] for a pair that must be comparable.
    fn session_verdict(s: &MatchSession, t: &dyn BlackBox, c: &dyn BlackBox) -> MatchVerdict {
        match session_outcome(s, t, c) {
            MatchOutcome::Verdict(v) => v,
            MatchOutcome::Incomparable(e) => panic!("incomparable: {e}"),
        }
    }

    #[test]
    fn repeated_target_generation_invokes_each_vector_once() {
        let (onto, pool) = fixture();
        let (target, invocations) = counted_echo("t", "BiologicalSequence");
        let candidates: Vec<FnModule> = (0..4)
            .map(|i| {
                seq_echo(
                    &format!("c{i}"),
                    "BiologicalSequence",
                    "BiologicalSequence",
                    i % 2 == 0,
                )
            })
            .collect();
        let session = MatchSession::new(&onto, &pool, GenerationConfig::default());
        for c in &candidates {
            session_verdict(&session, &target, c);
        }
        // Four generations for four comparisons, but the 4 partition vectors
        // are each invoked once: the repeats read the invocation cache.
        assert_eq!(invocations.load(Ordering::Relaxed), 4);
    }

    /// Replaying a candidate against an aligned target hits the invocation
    /// cache: generation already fed the candidate the exact same vectors.
    #[test]
    fn session_shares_invocations_between_generation_and_replay() {
        let (onto, pool) = fixture();
        let (target, target_count) = counted_echo("t", "BiologicalSequence");
        let (candidate, candidate_count) = counted_echo("c", "BiologicalSequence");
        let session = MatchSession::new(&onto, &pool, GenerationConfig::default());

        // Generate both sides (as an all-pairs sweep would), then replay.
        let _ = session.report_for(&target);
        let _ = session.report_for(&candidate);
        let gen_t = target_count.load(Ordering::Relaxed);
        let gen_c = candidate_count.load(Ordering::Relaxed);
        assert_eq!((gen_t, gen_c), (4, 4));

        let v = session_verdict(&session, &target, &candidate);
        assert_eq!(v, MatchVerdict::Equivalent { compared: 4 });
        // The replay performed zero fresh invocations: all four vectors were
        // already in the session's invocation cache.
        assert_eq!(candidate_count.load(Ordering::Relaxed), gen_c);
        let stats = session.invocation_stats();
        assert_eq!(stats.misses, 8, "two generations of four vectors");
        assert!(stats.hits >= 4, "replay answered from the memo");
        // Repeating the comparison costs nothing at all.
        assert_eq!(session_verdict(&session, &target, &candidate), v);
        assert_eq!(candidate_count.load(Ordering::Relaxed), gen_c);
        assert_eq!(target_count.load(Ordering::Relaxed), gen_t);
    }

    #[test]
    fn session_compare_agrees_with_compare_modules() {
        let (onto, pool) = fixture();
        let config = GenerationConfig::default();
        let session = MatchSession::new(&onto, &pool, config.clone());
        let modules = [
            seq_echo("a", "BiologicalSequence", "BiologicalSequence", false),
            seq_echo("b", "BiologicalSequence", "BiologicalSequence", true),
            seq_echo("c", "ProteinSequence", "ProteinSequence", false),
        ];
        for t in &modules {
            for c in &modules {
                let direct = compare_modules(t, c, &onto, &pool, &config);
                let cached = session_outcome(&session, t, c);
                assert_eq!(
                    MatchOutcome::from(direct),
                    cached,
                    "{:?} vs {:?}",
                    t.descriptor().id,
                    c.descriptor().id
                );
            }
        }
    }

    #[test]
    fn compare_report_surfaces_incomparability_as_data() {
        let (onto, pool) = fixture();
        let session = MatchSession::new(&onto, &pool, GenerationConfig::default());
        let a = seq_echo("a", "BiologicalSequence", "BiologicalSequence", false);
        let b = seq_echo("b", "ProteinSequence", "ProteinSequence", false);
        let a_report = session.report_for(&a);
        let report = session.compare_report(&a, &a_report, &b);
        assert_eq!(report.target, ModuleId::from("a"));
        assert_eq!(report.candidate, ModuleId::from("b"));
        assert!(matches!(report.outcome, MatchOutcome::Incomparable(_)));
        assert_eq!(report.examples, 4);
        let same = session.compare_report(&a, &a_report, &a);
        assert!(matches!(
            same.outcome,
            MatchOutcome::Verdict(MatchVerdict::Equivalent { compared: 4 })
        ));
    }

    /// The oracle's matrix agrees pair by pair with `compare_modules`, which
    /// generates and replays without any shared cache. Every module outside
    /// a slice of every 11th is withdrawn, which keeps the quadratic check
    /// quick while the slice still crosses all five categories.
    #[test]
    fn all_pairs_matches_serial_comparisons() {
        let mut universe = dex_universe::build();
        let pool = build_synthetic_pool(&universe.ontology, 4, 42);
        let config = GenerationConfig::default();
        let kept: Vec<ModuleId> = universe.available_ids().into_iter().step_by(11).collect();
        for id in universe.available_ids() {
            if !kept.contains(&id) {
                universe.catalog.withdraw(&id);
            }
        }
        let n = universe.available_ids().len();

        let session = MatchSession::new(&universe.ontology, &pool, config.clone());
        let matrix = match_pairs_exhaustive(&session, &universe);
        assert_eq!(matrix.len(), n * (n - 1));

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
}
