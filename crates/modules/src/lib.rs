//! # dex-modules
//!
//! The scientific-module model of the paper's §2: a module `m = ⟨id, name⟩`
//! with ordered input and output parameters, each carrying a structural type
//! `str(i)` and a semantic type `sem(i)` (an ontology concept).
//!
//! Modules are **black boxes**: the only thing the rest of the system may do
//! with one is read its interface ([`ModuleDescriptor`]) and invoke it
//! ([`BlackBox::invoke`]). No code here exposes a module's implementation or
//! specification — that separation is the whole point of the paper, and the
//! evaluation crates enforce it by keeping ground-truth behavior specs in a
//! side table the generator never sees.
//!
//! [`ModuleCatalog`] models the (volatile!) population of available modules:
//! third-party providers can withdraw a module at any time, after which
//! invocations fail with [`InvocationError::Unavailable`] — the workflow
//! decay phenomenon of §6.
//!
//! ```
//! use dex_modules::{FnModule, ModuleDescriptor, ModuleKind, Parameter};
//! use dex_values::{StructuralType, Value};
//!
//! let echo = FnModule::new(
//!     ModuleDescriptor::new(
//!         "demo:echo",
//!         "Echo",
//!         ModuleKind::RestService,
//!         vec![Parameter::required("in", StructuralType::Text, "Document")],
//!         vec![Parameter::required("out", StructuralType::Text, "Document")],
//!     ),
//!     |inputs| Ok(vec![inputs[0].clone()]),
//! );
//! use dex_modules::BlackBox;
//! let out = echo.invoke(&[Value::text("hello")]).unwrap();
//! assert_eq!(out, vec![Value::text("hello")]);
//! ```

pub mod blackbox;
pub mod cache;
pub mod catalog;
pub mod fault;
pub mod invoke;
pub mod module;
pub mod param;
pub mod retry;

pub use blackbox::{BlackBox, FnModule, SharedModule};
pub use cache::{InvocationCache, InvocationCacheStats, InvocationOutcome};
pub use catalog::ModuleCatalog;
pub use fault::{FaultInjector, FaultPlan, FaultStats};
pub use invoke::InvocationError;
pub use module::{ModuleDescriptor, ModuleId, ModuleKind};
pub use param::Parameter;
pub use retry::{Retrier, RetryPolicy, RetryStats};
