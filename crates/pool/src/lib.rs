//! # dex-pool
//!
//! Pools of semantically annotated data instances — the "pool of annotated
//! instances `pl`" that §3.2 of the paper requires for fully automating
//! data-example construction.
//!
//! An [`AnnotatedInstance`] pairs a concrete [`Value`] with the name of the
//! *most specific* ontology concept it instantiates, plus where it came from
//! (harvested provenance, synthesis, or manual curation). The pool supports
//! the paper's `getInstance(c, pl)` with realization semantics: the instance
//! returned for a concept `c` is an instance of `c` that is *not* an instance
//! of any strict sub-concept of `c`.
//!
//! Pools are built two ways, mirroring the paper:
//! * [`build_synthetic_pool`] — synthesis per realizable ontology concept
//!   (what a curator would supply by hand);
//! * harvesting from a workflow provenance corpus (see `dex-provenance`),
//!   which is how the paper populated its pool from the Taverna corpus.
//!
//! ```
//! use dex_pool::{AnnotatedInstance, InstancePool};
//! use dex_values::{StructuralType, Value};
//!
//! let mut pool = InstancePool::new("demo");
//! pool.add(AnnotatedInstance::synthetic(Value::text("P12345"), "UniprotAccession"));
//! let inst = pool
//!     .get_instance("UniprotAccession", &StructuralType::Text, 0)
//!     .unwrap();
//! assert_eq!(inst.value, Value::text("P12345"));
//! ```

pub mod instance;
pub mod pool;
pub mod synthetic;

pub use instance::{AnnotatedInstance, InstanceSource};
pub use pool::InstancePool;
pub use synthetic::{build_synthetic_pool, build_text_pool, text_instance};

pub use dex_values::Value;
