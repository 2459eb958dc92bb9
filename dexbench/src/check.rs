//! The reference side of every correctness check: answers computed straight
//! from an [`IncrementalPipeline`], by the contract the `dexd` protocol
//! documents for each reply, and compared with what the system served.

use dex_experiments::IncrementalPipeline;
use dex_modules::ModuleId;
use dexd::{AnnotationReply, BrokenStep, Request, Response, SubstitutesReply, ValidationReply};
use std::fmt::Debug;

/// The reply the protocol promises for a read request against `p`'s state.
///
/// # Panics
/// On a request that is not one of the three state reads.
pub fn expected_reply(p: &IncrementalPipeline, req: &Request) -> Response {
    match req {
        Request::AnnotateModule { id } => match p.annotation(&ModuleId(id.clone())) {
            None => untracked(id),
            Some((available, outcome)) => Response::Annotation(AnnotationReply {
                id: id.clone(),
                available,
                examples: outcome.as_ref().ok().map(|r| r.examples.clone()),
                error: outcome.as_ref().err().map(|e| e.to_string()),
                invocations: outcome.as_ref().map_or(0, |r| r.invocations),
                transient_failures: outcome.as_ref().map_or(0, |r| r.transient_failures),
            }),
        },
        Request::FindSubstitutes { id } => match p.substitutes(&ModuleId(id.clone())) {
            None => untracked(id),
            Some(answer) => Response::Substitutes(SubstitutesReply {
                id: id.clone(),
                available: answer.available,
                candidates_compared: answer.candidates_compared,
                ranked: answer.ranked.into_iter().map(|(m, v)| (m.0, v)).collect(),
            }),
        },
        Request::ValidateWorkflow { workflow } => {
            let universe = p.universe();
            let structural_errors: Vec<String> =
                dex_workflow::validate(workflow, &universe.catalog, &universe.ontology)
                    .err()
                    .unwrap_or_default()
                    .iter()
                    .map(ToString::to_string)
                    .collect();
            let broken_steps: Vec<BrokenStep> = workflow
                .steps
                .iter()
                .enumerate()
                .filter(|(_, s)| !universe.catalog.is_available(&s.module))
                .map(|(step, s)| BrokenStep {
                    step,
                    module: s.module.0.clone(),
                    substitute: p
                        .substitutes(&s.module)
                        .and_then(|a| a.ranked.into_iter().next())
                        .map(|(m, v)| (m.0, v)),
                })
                .collect();
            Response::Validation(ValidationReply {
                id: workflow.id.clone(),
                ok: structural_errors.is_empty() && broken_steps.is_empty(),
                structural_errors,
                broken_steps,
            })
        }
        other => panic!("no reference answer for {}", other.endpoint()),
    }
}

fn untracked(id: &str) -> Response {
    Response::Error {
        message: format!("module `{id}` is not tracked by this registry"),
    }
}

/// Comparisons made and the ones that failed.
#[derive(Default)]
pub struct Verdicts {
    pub compared: u64,
    pub mismatches: Vec<String>,
}

impl Verdicts {
    /// Compares one served value with its reference.
    pub fn expect_eq<T: PartialEq + Debug>(&mut self, what: &str, served: &T, reference: &T) {
        self.compared += 1;
        if served != reference {
            let mut detail = format!("{what}: served {served:?}, reference {reference:?}");
            detail.truncate(400);
            self.mismatches.push(detail);
        }
    }

    /// Records a failed condition.
    pub fn expect(&mut self, what: &str, ok: bool) {
        self.compared += 1;
        if !ok {
            self.mismatches.push(what.to_string());
        }
    }
}

/// Whether a comparison against a deliberately corrupted copy of
/// `reference` fails, as it must for the check to mean anything.
pub fn corruption_is_detected(served: &Response, reference: &Response) -> bool {
    let mut corrupted = reference.clone();
    match &mut corrupted {
        Response::Annotation(r) => r.available = !r.available,
        Response::Substitutes(r) => r.candidates_compared += 1,
        Response::Validation(r) => r.ok = !r.ok,
        other => *other = Response::Busy,
    }
    let mut verdicts = Verdicts::default();
    verdicts.expect_eq("self-test", served, &corrupted);
    !verdicts.mismatches.is_empty()
}
