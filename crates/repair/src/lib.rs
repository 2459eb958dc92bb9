//! # dex-repair
//!
//! The workflow-decay-and-repair system of the paper's §6: a
//! myExperiment-like [`repository`] of ~3000 workflows, a provenance
//! [`corpus`] recorded while every module was still supplied, the
//! [`matching`] study that classifies the 72 withdrawn modules against the
//! available population (Figure 8), and the [`engine`] that substitutes
//! matched modules into broken workflows and verifies the repairs by
//! replaying the workflows' own traces.
//!
//! The repository generator is deliberately *planned*: the mix of healthy
//! workflows, workflows using substitutable legacy modules, and hopeless
//! ones is a [`RepositoryPlan`] whose defaults reproduce the populations
//! behind the paper's numbers (≈3000 workflows, ≈half broken, 334
//! repairable). The *outcomes*, however, are computed, not asserted — the
//! matcher and the repair verifier genuinely run.

pub mod corpus;
pub mod engine;
pub mod keys;
pub mod matching;
pub mod repository;

pub use corpus::{build_corpus, enact_repository, CorpusBuildReport};
pub use engine::{repair_repository, repair_workflow, RepairOutcome, RepairStatus, RepairSummary};
pub use matching::{run_matching_study, substitute_rank, LegacyMatch, MatchingStudy};
pub use repository::{generate_repository, RepositoryPlan, StoredWorkflow, WorkflowRepository};
