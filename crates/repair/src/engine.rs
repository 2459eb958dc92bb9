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
use dex_workflow::{EnactmentTrace, Workflow};
use std::collections::HashMap;

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

    /// Tallies one workflow's outcome.
    pub fn record(&mut self, outcome: &RepairOutcome) {
        match outcome.status {
            RepairStatus::Healthy => self.healthy += 1,
            RepairStatus::FullyRepaired => self.fully_repaired += 1,
            RepairStatus::PartiallyRepaired => self.partially_repaired += 1,
            RepairStatus::Unrepaired => self.unrepaired += 1,
        }
        if matches!(
            outcome.status,
            RepairStatus::FullyRepaired | RepairStatus::PartiallyRepaired
        ) {
            let any_overlap = outcome
                .substitutions
                .iter()
                .any(|s| matches!(s.verdict, MatchVerdict::Overlapping { .. }));
            if any_overlap {
                self.via_overlapping += 1;
            } else {
                self.via_equivalent += 1;
            }
        }
    }
}

/// Repairs every workflow of a repository against a post-decay catalog:
/// [`repair_workflow`] on each, with the workflow's traces from `corpus`.
///
/// Verification replays go through one pass-wide [`Retrier`] built from
/// `retry`, so a flapping candidate is re-attempted instead of being
/// rejected as a substitute on the strength of a momentary outage, and
/// through one pass-wide invocation memo: the same few candidates are
/// proposed for many workflows, and trace records frequently repeat input
/// vectors (same pool values feed many workflows), so replays overlap
/// heavily across outcomes.
pub fn repair_repository(
    repository: &WorkflowRepository,
    catalog: &ModuleCatalog,
    study: &MatchingStudy,
    corpus: &ProvenanceCorpus,
    ontology: &Ontology,
    retry: RetryPolicy,
) -> (Vec<RepairOutcome>, RepairSummary) {
    let mut traces: HashMap<&str, Vec<&EnactmentTrace>> = HashMap::new();
    for trace in corpus.traces() {
        traces.entry(&trace.workflow).or_default().push(trace);
    }
    let invocations = InvocationCache::new();
    let retrier = Retrier::new(retry);
    let mut summary = RepairSummary::default();
    let outcomes = repository
        .workflows
        .iter()
        .map(|stored| {
            let workflow = &stored.workflow;
            let outcome = repair_workflow(
                workflow,
                traces.get(workflow.id.as_str()).map_or(&[], Vec::as_slice),
                catalog,
                study,
                ontology,
                &invocations,
                &retrier,
            );
            summary.record(&outcome);
            outcome
        })
        .collect();
    (outcomes, summary)
}

/// Repairs one workflow against a post-decay catalog; `traces` are its own
/// recorded enactments.
///
/// For each step whose module is withdrawn, the matching study proposes a
/// substitute. Each proposal is **verified by replay**: the substitute is
/// invoked on the exact inputs the original module received in the
/// workflow's traces, and its outputs must match the recorded ones. This is
/// what separates "an overlapping module exists" from "the overlapping
/// module plays the same role *in this workflow*" (the paper found that held
/// for only 13 workflows). Replays go through `invocations` and `retrier`.
pub fn repair_workflow(
    workflow: &Workflow,
    traces: &[&EnactmentTrace],
    catalog: &ModuleCatalog,
    study: &MatchingStudy,
    ontology: &Ontology,
    invocations: &InvocationCache,
    retrier: &Retrier,
) -> RepairOutcome {
    let mut substitutions = Vec::new();
    let mut unfixed = Vec::new();
    for (step, s) in workflow.steps.iter().enumerate() {
        if catalog.is_available(&s.module) {
            continue;
        }
        let module = s.module.clone();
        match study.substitute_for(&module) {
            Some((candidate, verdict))
                if verify_substitution(
                    traces,
                    step,
                    &module,
                    candidate,
                    catalog,
                    ontology,
                    invocations,
                    retrier,
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
        (true, true) => RepairStatus::Healthy,
        (false, true) => RepairStatus::FullyRepaired,
        (false, false) => RepairStatus::PartiallyRepaired,
        (true, false) => RepairStatus::Unrepaired,
    };
    RepairOutcome {
        workflow_id: workflow.id.clone(),
        substitutions,
        unfixed_steps: unfixed,
        status,
    }
}

/// Replays the workflow's own recorded invocations of `step` against the
/// candidate; accepts only exact output agreement. Invocations route through
/// the caller's memo, so a candidate is fed each distinct trace vector at
/// most once across the workflows that share it.
#[allow(clippy::too_many_arguments)]
fn verify_substitution(
    traces: &[&EnactmentTrace],
    step: usize,
    from: &ModuleId,
    candidate_id: &ModuleId,
    catalog: &ModuleCatalog,
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
    for trace in traces {
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
        let (corpus, _) = build_corpus(&u, &repo, &pool, RetryPolicy::none(), true);
        u.decay();
        let study = run_matching_study(&u.catalog, &corpus, &u.ontology, RetryPolicy::none());
        let (outcomes, summary) = repair_repository(
            &repo,
            &u.catalog,
            &study,
            &corpus,
            &u.ontology,
            RetryPolicy::none(),
        );

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
        let (corpus, _) = build_corpus(&u, &repo, &pool, RetryPolicy::none(), true);
        u.decay();
        let study = run_matching_study(&u.catalog, &corpus, &u.ontology, RetryPolicy::none());
        let (outcomes, _) = repair_repository(
            &repo,
            &u.catalog,
            &study,
            &corpus,
            &u.ontology,
            RetryPolicy::none(),
        );

        for (stored, outcome) in repo.workflows.iter().zip(&outcomes) {
            if outcome.status != RepairStatus::FullyRepaired {
                continue;
            }
            let mut repaired = stored.workflow.clone();
            for s in &outcome.substitutions {
                repaired.steps[s.step].module = s.to.clone();
            }
            let trace = dex_workflow::enact(
                &repaired,
                &u.catalog,
                &stored.sample_inputs,
                None,
                &Retrier::none(),
            )
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
