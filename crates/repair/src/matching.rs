//! The §6 matching study (Figure 8): classify every withdrawn module
//! against the available population using provenance-reconstructed data
//! examples.

use dex_core::matching::{
    map_parameters, match_against_examples_retrying, MappingMode, MatchVerdict,
    PartitionFingerprint,
};
use dex_modules::{InvocationCache, ModuleCatalog, ModuleId, Retrier, RetryPolicy};
use dex_ontology::Ontology;
use dex_provenance::{reconstruct_examples, ProvenanceCorpus};
use std::collections::BTreeMap;

/// The matching outcome for one legacy module.
#[derive(Debug, Clone)]
pub struct LegacyMatch {
    /// The withdrawn module.
    pub module: ModuleId,
    /// How many data examples were reconstructed from provenance.
    pub reconstructed_examples: usize,
    /// How many available candidates were comparable at all.
    pub candidates_compared: usize,
    /// The best verdict found: the candidate and its verdict. `None` when
    /// nothing comparable exists or everything was disjoint.
    pub best: Option<(ModuleId, MatchVerdict)>,
}

impl LegacyMatch {
    /// Whether an equivalent substitute was found.
    pub fn has_equivalent(&self) -> bool {
        matches!(self.best, Some((_, MatchVerdict::Equivalent { .. })))
    }

    /// Whether the best finding is an overlapping substitute.
    pub fn has_overlap_only(&self) -> bool {
        matches!(self.best, Some((_, MatchVerdict::Overlapping { .. })))
    }
}

/// The full study result.
#[derive(Debug, Clone, Default)]
pub struct MatchingStudy {
    /// Per-legacy outcomes, in module-id order.
    pub matches: BTreeMap<ModuleId, LegacyMatch>,
}

impl MatchingStudy {
    /// `(equivalent, overlapping, none)` counts — the three bars of
    /// Figure 8.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut eq = 0;
        let mut ov = 0;
        let mut none = 0;
        for m in self.matches.values() {
            if m.has_equivalent() {
                eq += 1;
            } else if m.has_overlap_only() {
                ov += 1;
            } else {
                none += 1;
            }
        }
        (eq, ov, none)
    }

    /// The accepted substitute for a legacy module, if any.
    pub fn substitute_for(&self, legacy: &ModuleId) -> Option<&(ModuleId, MatchVerdict)> {
        self.matches.get(legacy).and_then(|m| m.best.as_ref())
    }
}

/// Runs the study: for every withdrawn module of `catalog`, reconstruct its
/// data examples from `corpus` and replay them against every available
/// module with a compatible interface (strict mapping first; the Figure 7
/// subsuming relaxation as a fallback for candidates that fail strict).
///
/// Candidate ranking: an `Equivalent` verdict wins outright; otherwise the
/// `Overlapping` candidate with the highest agreement ratio wins; `Disjoint`
/// candidates never count as substitutes.
///
/// Every candidate replay invocation goes through one study-wide
/// [`Retrier`] built from `retry`, so a momentarily flapping candidate is
/// re-attempted instead of silently classified from a failed replay; pass
/// [`RetryPolicy::none`] for no retries.
pub fn run_matching_study(
    catalog: &ModuleCatalog,
    corpus: &ProvenanceCorpus,
    ontology: &Ontology,
    retry: RetryPolicy,
) -> MatchingStudy {
    let mut study = MatchingStudy::default();
    let withdrawn = catalog.withdrawn_ids();
    // One memo across the whole study: legacy modules decayed from the same
    // template replay the same candidates on the same reconstructed values.
    let invocations = InvocationCache::new();
    let retrier = Retrier::new(retry);
    // Fingerprint every available candidate once for the whole study: the
    // substitute scan below is O(withdrawn × available) and most pairs die
    // on interface shape alone, without touching the mapping solver.
    let candidates: Vec<_> = catalog
        .iter_available()
        .map(|(id, module)| (id, module, PartitionFingerprint::of(module.descriptor())))
        .collect();

    for legacy in &withdrawn {
        let descriptor = catalog
            .descriptor(legacy)
            .expect("withdrawn modules keep descriptors")
            .clone();
        let examples = reconstruct_examples(corpus, legacy, &descriptor);
        let mut best: Option<(ModuleId, MatchVerdict)> = None;
        let mut compared = 0usize;

        if !examples.is_empty() {
            let legacy_fp = PartitionFingerprint::of(&descriptor);
            for (candidate_id, candidate, candidate_fp) in &candidates {
                // Fingerprint prefilter: an arity mismatch rules out every
                // mapping mode outright, and a fingerprint mismatch rules
                // out the strict mode (unequal label multisets admit no
                // 1-to-1 strict mapping), leaving only the subsuming
                // fallback to solve. Compatible fingerprints are merely an
                // admission ticket — the solver still confirms.
                if !legacy_fp.arity_compatible(candidate_fp) {
                    continue;
                }
                // Prefer strict mapping; fall back to the subsuming mode.
                let mode = if legacy_fp.compatible(candidate_fp)
                    && map_parameters(
                        &descriptor,
                        candidate.descriptor(),
                        ontology,
                        MappingMode::Strict,
                    )
                    .is_ok()
                {
                    MappingMode::Strict
                } else if map_parameters(
                    &descriptor,
                    candidate.descriptor(),
                    ontology,
                    MappingMode::Subsuming,
                )
                .is_ok()
                {
                    MappingMode::Subsuming
                } else {
                    continue;
                };
                let Ok(verdict) = match_against_examples_retrying(
                    &descriptor,
                    &examples,
                    candidate.as_ref(),
                    ontology,
                    mode,
                    &invocations,
                    &retrier,
                ) else {
                    continue;
                };
                compared += 1;
                best = pick_better_substitute(best, ((*candidate_id).clone(), verdict));
                if matches!(best, Some((_, MatchVerdict::Equivalent { .. }))) {
                    // Nothing beats an equivalent; stop scanning.
                    break;
                }
            }
        }

        study.matches.insert(
            legacy.clone(),
            LegacyMatch {
                module: legacy.clone(),
                reconstructed_examples: examples.len(),
                candidates_compared: compared,
                best: best.filter(|(_, v)| v.is_usable()),
            },
        );
    }
    study
}

/// The study's candidate ranking as a sort key, higher is better: an
/// `Equivalent` verdict outranks every other, then `Overlapping` by its
/// agreement ratio, and `Disjoint` ranks last. Callers that rank verdicts
/// they already hold (the incremental engine's substitute answers and
/// carried-forward captures) sort by it.
pub fn substitute_rank(v: &MatchVerdict) -> (u8, f64) {
    match v {
        MatchVerdict::Equivalent { .. } => (2, 1.0),
        MatchVerdict::Overlapping { agreeing, compared } => {
            (1, *agreeing as f64 / *compared as f64)
        }
        MatchVerdict::Disjoint { .. } => (0, 0.0),
    }
}

/// The study's fold over [`substitute_rank`]: the challenger replaces the
/// incumbent only when it ranks strictly higher, so on equal rank the
/// first-found candidate wins, matching the study's early-exit scan order.
/// `Disjoint` can be kept here; the study drops unusable verdicts after the
/// fold.
fn pick_better_substitute(
    current: Option<(ModuleId, MatchVerdict)>,
    challenger: (ModuleId, MatchVerdict),
) -> Option<(ModuleId, MatchVerdict)> {
    match current {
        None => Some(challenger),
        Some(current) => {
            if substitute_rank(&challenger.1) > substitute_rank(&current.1) {
                Some(challenger)
            } else {
                Some(current)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::build_corpus;
    use crate::repository::{generate_repository, RepositoryPlan};
    use dex_pool::build_synthetic_pool;
    use dex_universe::{build, ExpectedMatch};

    /// The Figure 8 headline: matching the withdrawn modules against the
    /// available 252 finds exactly the planted 16 equivalent and 23
    /// overlapping substitutes.
    #[test]
    fn figure8_counts_are_16_23_33() {
        let mut u = build();
        let pool = build_synthetic_pool(&u.ontology, 40, 77);
        let repo = generate_repository(&u, &pool, &RepositoryPlan::small(1));
        let (corpus, _) = build_corpus(&u, &repo, &pool, RetryPolicy::none(), true);
        u.decay();
        let study = run_matching_study(&u.catalog, &corpus, &u.ontology, RetryPolicy::none());
        assert_eq!(study.matches.len(), 72);

        // Per-module agreement with the planted ground truth.
        for (legacy, expected) in &u.expected_match {
            let m = &study.matches[legacy];
            match expected {
                ExpectedMatch::Equivalent(_) => {
                    assert!(
                        m.has_equivalent(),
                        "{legacy}: expected equivalent, got {:?}",
                        m.best
                    )
                }
                ExpectedMatch::Overlapping(_) => assert!(
                    m.has_overlap_only(),
                    "{legacy}: expected overlapping, got {:?}",
                    m.best
                ),
                ExpectedMatch::None => {
                    assert!(
                        m.best.is_none(),
                        "{legacy}: expected none, got {:?}",
                        m.best
                    )
                }
            }
        }
        assert_eq!(study.counts(), (16, 23, 33));
    }
}
