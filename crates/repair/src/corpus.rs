//! Provenance corpus construction: repository enactments + archive traces.

use crate::repository::WorkflowRepository;
use dex_modules::{InvocationCache, ModuleId, Retrier, RetryPolicy};
use dex_pool::InstancePool;
use dex_provenance::ProvenanceCorpus;
use dex_universe::Universe;
use dex_values::Value;
use dex_workflow::{enact, EnactmentTrace, StepRecord};

/// Failure accounting for a tolerant corpus build: which enactments and
/// archive invocations were skipped.
#[derive(Debug, Clone, Default)]
pub struct CorpusBuildReport {
    /// Repository workflows whose enactment failed even after retries, with
    /// the rendered error. Empty on a healthy (or fully recovered) build.
    pub failed_enactments: Vec<(String, String)>,
    /// Legacy archive invocations that failed permanently, per module.
    pub failed_archive_invocations: Vec<(ModuleId, String)>,
}

impl CorpusBuildReport {
    /// True when every enactment and archive invocation landed.
    pub fn is_clean(&self) -> bool {
        self.failed_enactments.is_empty() && self.failed_archive_invocations.is_empty()
    }
}

/// Builds the provenance corpus the §6 study trawls: every trace
/// [`enact_repository`] records, in walk order.
///
/// Transiently failing enactments and archive invocations are retried under
/// `retry`; anything that still fails is *skipped and accounted* in the
/// returned [`CorpusBuildReport`] instead of aborting the build, unless
/// `fail_fast` is set, which panics on the first failed enactment for
/// callers that treat one as a bug (a pre-decay universe with no faults).
pub fn build_corpus(
    universe: &Universe,
    repository: &WorkflowRepository,
    pool: &InstancePool,
    retry: RetryPolicy,
    fail_fast: bool,
) -> (ProvenanceCorpus, CorpusBuildReport) {
    let mut corpus = ProvenanceCorpus::new("simulated-taverna");
    let report = enact_repository(universe, repository, pool, retry, fail_fast, |trace| {
        corpus.add(trace)
    });
    (corpus, report)
}

/// Records the repository's pre-decay provenance, handing each trace to
/// `sink` as it lands, so no more than the one in-flight trace need exist.
///
/// Two sources, mirroring the paper:
///
/// 1. every repository workflow is enacted once with its published sample
///    inputs, **before** decay (all modules still supplied);
/// 2. "previous eScience project" archives (the paper's iSpider traces): a
///    handful of direct invocations per legacy module, with diverse inputs
///    drawn from the pool. These give every withdrawn module reconstruction
///    coverage beyond whatever the repository happened to exercise. A
///    universe with no legacy modules (a scaled world) has none.
///
/// Repository workflows are stamped out from shared templates over shared
/// pool values, so their step invocations repeat heavily: the walk enacts
/// them through one [`InvocationCache`] of its own, dropped when it returns,
/// which skips the duplicates without changing any trace. Failures that
/// survive the retrier are skipped and accounted; under `fail_fast` a
/// failed enactment panics instead.
pub fn enact_repository(
    universe: &Universe,
    repository: &WorkflowRepository,
    pool: &InstancePool,
    retry: RetryPolicy,
    fail_fast: bool,
    mut sink: impl FnMut(EnactmentTrace),
) -> CorpusBuildReport {
    let mut report = CorpusBuildReport::default();
    let invocations = InvocationCache::new();
    let retrier = Retrier::new(retry);

    for stored in &repository.workflows {
        match enact(
            &stored.workflow,
            &universe.catalog,
            &stored.sample_inputs,
            Some(&invocations),
            &retrier,
        ) {
            Ok(trace) => sink(trace),
            Err(e) if fail_fast => {
                panic!(
                    "pre-decay enactment of {} must succeed: {e}",
                    stored.workflow.id
                )
            }
            Err(e) => {
                if dex_telemetry::is_enabled() {
                    dex_telemetry::counter_add("dex.corpus.enact_failures", 1);
                }
                report
                    .failed_enactments
                    .push((stored.workflow.id.clone(), e.to_string()));
            }
        }
    }

    for legacy in &universe.legacy {
        for (k, inputs) in archive_inputs(universe, pool, legacy)
            .into_iter()
            .enumerate()
        {
            let Some(module) = universe.catalog.get(legacy) else {
                report
                    .failed_archive_invocations
                    .push((legacy.clone(), "module unavailable".to_string()));
                continue;
            };
            match retrier.invoke(module.as_ref(), &inputs, None).as_ref() {
                Ok(outputs) => sink(EnactmentTrace {
                    workflow: format!("ispider:{legacy}:{k}"),
                    inputs: inputs.clone(),
                    steps: vec![StepRecord {
                        step: 0,
                        step_name: "invoke".to_string(),
                        module: legacy.clone(),
                        inputs,
                        outputs: outputs.clone(),
                    }],
                    outputs: outputs.clone(),
                }),
                // Archive invocations were always best-effort (a rejected
                // input simply yields no trace), so permanent rejections are
                // not failures — but record them when telemetry is on so a
                // faulted run can be audited.
                Err(e) if e.is_transient() => {
                    if dex_telemetry::is_enabled() {
                        dex_telemetry::counter_add("dex.corpus.archive_failures", 1);
                    }
                    report
                        .failed_archive_invocations
                        .push((legacy.clone(), e.to_string()));
                }
                Err(_) => continue,
            }
        }
    }

    report
}

/// Picks archive inputs for one legacy module: up to six distinct pool
/// realizations per input slot, balanced across the divergence split for
/// overlapping modules (real archives are heterogeneous; this guarantees
/// the heterogeneity survives a small sample).
fn archive_inputs(universe: &Universe, pool: &InstancePool, legacy: &ModuleId) -> Vec<Vec<Value>> {
    let descriptor = universe
        .catalog
        .descriptor(legacy)
        .unwrap_or_else(|| panic!("legacy module {legacy} is not registered in the catalog"));
    assert_eq!(
        descriptor.inputs.len(),
        1,
        "archive generation assumes single-input legacy modules"
    );
    let p = &descriptor.inputs[0];

    let mut agreeing: Vec<Value> = Vec::new();
    let mut diverging: Vec<Value> = Vec::new();
    let mut plain: Vec<Value> = Vec::new();
    for skip in 0..48usize {
        let Some(inst) = pool.get_instance(&p.semantic, &p.structural, skip) else {
            break;
        };
        match crate::keys::diverges_on(legacy, &inst.value) {
            Some(false) => agreeing.push(inst.value.clone()),
            Some(true) => diverging.push(inst.value.clone()),
            None => plain.push(inst.value.clone()),
        }
    }
    let mut chosen: Vec<Value> = Vec::new();
    chosen.extend(agreeing.into_iter().take(3));
    chosen.extend(diverging.into_iter().take(3));
    if chosen.is_empty() {
        chosen.extend(plain.into_iter().take(6));
    }
    chosen.into_iter().map(|v| vec![v]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::diverges_on;
    use crate::repository::{generate_repository, RepositoryPlan};
    use dex_pool::build_synthetic_pool;
    use dex_universe::{build, ExpectedMatch};

    #[test]
    fn corpus_covers_every_legacy_module_with_diverse_inputs() {
        let u = build();
        let pool = build_synthetic_pool(&u.ontology, 40, 77);
        let repo = generate_repository(&u, &pool, &RepositoryPlan::small(1));
        let (corpus, _) = build_corpus(&u, &repo, &pool, RetryPolicy::none(), true);
        assert!(corpus.len() >= repo.len());

        for (legacy, expected) in &u.expected_match {
            let invocations: Vec<_> = corpus.invocations_of(legacy).collect();
            assert!(
                invocations.len() >= 2,
                "{legacy}: only {} invocations",
                invocations.len()
            );
            if matches!(expected, ExpectedMatch::Overlapping(_)) {
                let mut saw_agree = false;
                let mut saw_diverge = false;
                for record in &invocations {
                    match diverges_on(legacy, &record.inputs[0]) {
                        Some(true) => saw_diverge = true,
                        Some(false) => saw_agree = true,
                        None => {}
                    }
                }
                assert!(
                    saw_agree && saw_diverge,
                    "{legacy}: archive lacks parity diversity"
                );
            }
        }
    }

    #[test]
    fn tolerant_build_matches_the_panicking_build_when_healthy() {
        let u = build();
        let pool = build_synthetic_pool(&u.ontology, 40, 77);
        let repo = generate_repository(&u, &pool, &RepositoryPlan::small(1));
        let (strict, _) = build_corpus(&u, &repo, &pool, RetryPolicy::none(), true);
        let (tolerant, report) = build_corpus(&u, &repo, &pool, RetryPolicy::transient(3), false);
        assert!(report.is_clean());
        assert_eq!(strict.len(), tolerant.len());
    }

    #[test]
    fn tolerant_build_skips_and_accounts_failed_enactments() {
        let mut u = build();
        let pool = build_synthetic_pool(&u.ontology, 40, 77);
        let repo = generate_repository(&u, &pool, &RepositoryPlan::small(1));
        // Withdraw one workflow module pre-build: every workflow using it now
        // fails its enactment permanently, and the tolerant build must carry
        // on with the rest instead of panicking.
        let victim = repo.workflows[0].workflow.steps[0].module.clone();
        u.catalog.withdraw(&victim);
        let (corpus, report) = build_corpus(&u, &repo, &pool, RetryPolicy::transient(2), false);
        assert!(!report.is_clean());
        assert!(report
            .failed_enactments
            .iter()
            .any(|(id, _)| *id == repo.workflows[0].workflow.id));
        // Unaffected workflows still contributed traces.
        let affected = report.failed_enactments.len();
        assert!(corpus.len() >= repo.len() - affected);
    }
}
