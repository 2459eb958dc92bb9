//! Substitution-based repair of decayed workflows, with trace-replay
//! verification (§6's "we enacted those workflows … and verified … that
//! they deliver results comparable with those that the corresponding
//! missing unavailable modules would deliver").

use crate::matching::MatchingStudy;
use crate::repository::WorkflowRepository;
use dex_core::matching::{map_parameters, MappingMode, MatchVerdict};
use dex_modules::{InvocationCache, ModuleCatalog, ModuleId, Retrier, RetryPolicy};
use dex_ontology::Ontology;
use dex_provenance::ProvenanceCorpus;
use dex_values::Value;

/// One accepted substitution inside a workflow.
#[derive(Debug, Clone)]
pub struct Substitution {
    /// Step index repaired.
    pub step: usize,
    /// The withdrawn module.
    pub from: ModuleId,
    /// The substitute.
    pub to: ModuleId,
    /// The matcher's verdict that justified the substitution.
    pub verdict: MatchVerdict,
}

/// Repair status of one workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStatus {
    /// All referenced modules still supplied; nothing to do.
    Healthy,
    /// Every unavailable step received a verified substitute.
    FullyRepaired,
    /// Some, but not all, unavailable steps were fixed.
    PartiallyRepaired,
    /// No step could be fixed.
    Unrepaired,
}

/// The repair outcome of one workflow.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The workflow's id.
    pub workflow_id: String,
    /// Accepted (verified) substitutions.
    pub substitutions: Vec<Substitution>,
    /// Steps that stayed broken.
    pub unfixed_steps: Vec<(usize, ModuleId)>,
    /// Final status.
    pub status: RepairStatus,
}

/// Aggregate repair results — the §6 closing numbers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairSummary {
    pub healthy: usize,
    pub fully_repaired: usize,
    pub partially_repaired: usize,
    pub unrepaired: usize,
    /// Repaired workflows (full or partial) that used only equivalent
    /// substitutes.
    pub via_equivalent: usize,
    /// Repaired workflows where at least one overlapping substitute played
    /// the role.
    pub via_overlapping: usize,
}

impl RepairSummary {
    /// Total workflows repaired to some degree — the paper's "334".
    pub fn repaired(&self) -> usize {
        self.fully_repaired + self.partially_repaired
    }
}

/// Repairs every workflow of a repository against a post-decay catalog.
///
/// For each step whose module is withdrawn, the precomputed matching study
/// proposes a substitute. Each proposal is **verified by replay**: the
/// substitute is invoked on the exact inputs the original module received
/// in this workflow's own provenance trace, and its outputs must match the
/// recorded ones. This is what separates "an overlapping module exists"
/// from "the overlapping module plays the same role *in this workflow*"
/// (the paper found that held for only 13 workflows).
pub fn repair_repository(
    repository: &WorkflowRepository,
    catalog: &ModuleCatalog,
    study: &MatchingStudy,
    corpus: &ProvenanceCorpus,
    ontology: &Ontology,
) -> (Vec<RepairOutcome>, RepairSummary) {
    repair_repository_with(
        repository,
        catalog,
        study,
        corpus,
        ontology,
        RetryPolicy::none(),
    )
}

/// [`repair_repository`] with transient-fault tolerance: verification
/// replays go through one pass-wide [`Retrier`] built from `retry`, so a
/// flapping candidate is re-attempted instead of being rejected as a
/// substitute on the strength of a momentary outage.
pub fn repair_repository_with(
    repository: &WorkflowRepository,
    catalog: &ModuleCatalog,
    study: &MatchingStudy,
    corpus: &ProvenanceCorpus,
    ontology: &Ontology,
    retry: RetryPolicy,
) -> (Vec<RepairOutcome>, RepairSummary) {
    let mut outcomes = Vec::with_capacity(repository.len());
    let mut summary = RepairSummary::default();
    // One invocation memo for the whole repair pass: the same few candidates
    // are proposed for many workflows, and trace records frequently repeat
    // input vectors (same pool values feed many workflows), so verification
    // replays overlap heavily across outcomes.
    let invocations = InvocationCache::new();
    let retrier = Retrier::new(retry);

    for stored in &repository.workflows {
        let workflow = &stored.workflow;
        let broken: Vec<(usize, ModuleId)> = workflow
            .steps
            .iter()
            .enumerate()
            .filter(|(_, s)| !catalog.is_available(&s.module))
            .map(|(i, s)| (i, s.module.clone()))
            .collect();

        if broken.is_empty() {
            summary.healthy += 1;
            outcomes.push(RepairOutcome {
                workflow_id: workflow.id.clone(),
                substitutions: Vec::new(),
                unfixed_steps: Vec::new(),
                status: RepairStatus::Healthy,
            });
            continue;
        }

        let mut substitutions = Vec::new();
        let mut unfixed = Vec::new();
        for (step, module) in broken {
            match study.substitute_for(&module) {
                Some((candidate, verdict))
                    if verify_substitution(
                        workflow,
                        step,
                        &module,
                        candidate,
                        catalog,
                        corpus,
                        ontology,
                        &invocations,
                        &retrier,
                    ) =>
                {
                    substitutions.push(Substitution {
                        step,
                        from: module,
                        to: candidate.clone(),
                        verdict: *verdict,
                    });
                }
                _ => unfixed.push((step, module)),
            }
        }

        let status = match (substitutions.is_empty(), unfixed.is_empty()) {
            (false, true) => RepairStatus::FullyRepaired,
            (false, false) => RepairStatus::PartiallyRepaired,
            (true, _) => RepairStatus::Unrepaired,
        };
        match status {
            RepairStatus::FullyRepaired => summary.fully_repaired += 1,
            RepairStatus::PartiallyRepaired => summary.partially_repaired += 1,
            RepairStatus::Unrepaired => summary.unrepaired += 1,
            RepairStatus::Healthy => unreachable!("broken set was non-empty"),
        }
        if status != RepairStatus::Unrepaired {
            let any_overlap = substitutions
                .iter()
                .any(|s| matches!(s.verdict, MatchVerdict::Overlapping { .. }));
            if any_overlap {
                summary.via_overlapping += 1;
            } else {
                summary.via_equivalent += 1;
            }
        }
        outcomes.push(RepairOutcome {
            workflow_id: workflow.id.clone(),
            substitutions,
            unfixed_steps: unfixed,
            status,
        });
    }

    (outcomes, summary)
}

/// Replays the workflow's own recorded invocations of `step` against the
/// candidate; accepts only exact output agreement. Invocations route through
/// the repair pass's shared memo, so a candidate is fed each distinct trace
/// vector at most once across all workflows.
#[allow(clippy::too_many_arguments)]
fn verify_substitution(
    workflow: &dex_workflow::Workflow,
    step: usize,
    from: &ModuleId,
    candidate_id: &ModuleId,
    catalog: &ModuleCatalog,
    corpus: &ProvenanceCorpus,
    ontology: &Ontology,
    invocations: &InvocationCache,
    retrier: &Retrier,
) -> bool {
    let Some(candidate) = catalog.get(candidate_id) else {
        return false;
    };
    let Some(target_descriptor) = catalog.descriptor(from) else {
        return false;
    };
    let mode = if map_parameters(
        target_descriptor,
        candidate.descriptor(),
        ontology,
        MappingMode::Strict,
    )
    .is_ok()
    {
        MappingMode::Strict
    } else {
        MappingMode::Subsuming
    };
    let Ok(mapping) = map_parameters(target_descriptor, candidate.descriptor(), ontology, mode)
    else {
        return false;
    };

    let mut replayed = 0usize;
    for trace in corpus.traces_of(&workflow.id) {
        for record in trace.steps.iter().filter(|r| r.step == step) {
            let mut inputs: Vec<Value> = vec![Value::Null; candidate.descriptor().inputs.len()];
            for (t_idx, &c_idx) in mapping.inputs.iter().enumerate() {
                inputs[c_idx] = record.inputs[t_idx].clone();
            }
            match retrier
                .invoke(candidate.as_ref(), &inputs, Some(invocations))
                .as_ref()
            {
                Ok(outputs) => {
                    let all_equal = mapping
                        .outputs
                        .iter()
                        .enumerate()
                        .all(|(t_idx, &c_idx)| outputs[c_idx] == record.outputs[t_idx]);
                    if !all_equal {
                        return false;
                    }
                    replayed += 1;
                }
                Err(_) => return false,
            }
        }
    }
    replayed > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::build_corpus;
    use crate::matching::run_matching_study;
    use crate::repository::{generate_repository, PlanGroup, RepositoryPlan};
    use dex_pool::build_synthetic_pool;
    use dex_universe::build;

    #[test]
    fn repair_statuses_match_the_plan_groups() {
        let mut u = build();
        let pool = build_synthetic_pool(&u.ontology, 40, 77);
        let plan = RepositoryPlan::small(9);
        let repo = generate_repository(&u, &pool, &plan);
        let corpus = build_corpus(&u, &repo, &pool);
        u.decay();
        let study = run_matching_study(&u.catalog, &corpus, &u.ontology);
        let (outcomes, summary) =
            repair_repository(&repo, &u.catalog, &study, &corpus, &u.ontology);

        assert_eq!(outcomes.len(), plan.total());
        for (stored, outcome) in repo.workflows.iter().zip(&outcomes) {
            let expected = match stored.group {
                PlanGroup::Healthy => RepairStatus::Healthy,
                PlanGroup::EquivalentFull | PlanGroup::OverlapFull => RepairStatus::FullyRepaired,
                PlanGroup::EquivalentPartial | PlanGroup::OverlapPartial => {
                    RepairStatus::PartiallyRepaired
                }
                PlanGroup::OverlapOdd | PlanGroup::NoneOnly => RepairStatus::Unrepaired,
            };
            assert_eq!(
                outcome.status, expected,
                "{} ({:?})",
                outcome.workflow_id, stored.group
            );
        }

        assert_eq!(summary.healthy, plan.healthy);
        assert_eq!(
            summary.fully_repaired,
            plan.equivalent_full + plan.overlap_full
        );
        assert_eq!(
            summary.partially_repaired,
            plan.equivalent_partial + plan.overlap_partial
        );
        assert_eq!(
            summary.via_overlapping,
            plan.overlap_full + plan.overlap_partial
        );
        assert_eq!(
            summary.via_equivalent,
            plan.equivalent_full + plan.equivalent_partial
        );
        assert_eq!(
            summary.repaired(),
            plan.equivalent_full
                + plan.equivalent_partial
                + plan.overlap_full
                + plan.overlap_partial
        );
    }

    #[test]
    fn fully_repaired_workflows_reenact_successfully() {
        let mut u = build();
        let pool = build_synthetic_pool(&u.ontology, 40, 77);
        let plan = RepositoryPlan::small(11);
        let repo = generate_repository(&u, &pool, &plan);
        let corpus = build_corpus(&u, &repo, &pool);
        u.decay();
        let study = run_matching_study(&u.catalog, &corpus, &u.ontology);
        let (outcomes, _) = repair_repository(&repo, &u.catalog, &study, &corpus, &u.ontology);

        for (stored, outcome) in repo.workflows.iter().zip(&outcomes) {
            if outcome.status != RepairStatus::FullyRepaired {
                continue;
            }
            let mut repaired = stored.workflow.clone();
            for s in &outcome.substitutions {
                repaired.steps[s.step].module = s.to.clone();
            }
            let trace = dex_workflow::enact(&repaired, &u.catalog, &stored.sample_inputs)
                .unwrap_or_else(|e| panic!("{}: {e}", stored.workflow.id));
            // The repaired workflow must deliver the pre-decay results.
            let original = corpus.traces_of(&stored.workflow.id).next().unwrap();
            assert_eq!(
                trace.outputs, original.outputs,
                "{}: repaired outputs differ",
                stored.workflow.id
            );
        }
    }
}
