//! # dex-workflow
//!
//! Scientific workflows in the style of Taverna/Galaxy (paper §1, Figures 1,
//! 6 and 7): DAGs whose steps invoke scientific modules and whose edges are
//! data links.
//!
//! The crate provides:
//!
//! * [`model`] — the workflow structure: steps referencing modules by id,
//!   workflow-level inputs, data links and exported outputs;
//! * [`validate`](validate()) — structural/semantic well-formedness of the data links
//!   against an ontology and a module catalog (the "interoperability
//!   issues" check of the paper's §1);
//! * [`enact`](enact()) — a topological enactment engine that runs a workflow
//!   against a [`ModuleCatalog`](dex_modules::ModuleCatalog) and records a
//!   full [`EnactmentTrace`], the raw material of workflow provenance.
//!
//! Workflow decay (§6) falls out naturally: enactment fails with
//! [`EnactError::ModuleUnavailable`] once a provider withdraws a module the
//! workflow references.

pub mod enact;
pub mod model;
pub mod validate;

pub use enact::{enact, EnactError, EnactmentTrace, StepRecord};
pub use model::{Link, OutputBinding, Source, Step, Workflow};
pub use validate::{validate, ValidationError};
