//! # dex-ontology
//!
//! Concept hierarchies ("domain ontologies") used for the semantic annotation
//! of scientific-module parameters, in the style of the myGrid ontology the
//! paper uses for its 252 life-science modules.
//!
//! The paper's generation heuristic (its §3) only ever consumes three pieces
//! of ontological information, and this crate is organized around them:
//!
//! 1. **Subsumption** — `c < c'` ("c is a strict sub-concept of c'"), used to
//!    partition the domain of an annotated parameter into the sub-domains
//!    subsumed by its semantic type ([`Ontology::partitions_of`]).
//! 2. **Realization** — an instance *realizes* a concept `c` when it is an
//!    instance of `c` but of none of `c`'s strict sub-concepts; partition
//!    coverage is defined in terms of realizations
//!    ([`Ontology::can_be_realized`] and the pool crate).
//! 3. **Concept identity** — stable ids and human-readable names so that
//!    annotations, data examples and registries can refer to concepts.
//!
//! The crate provides an interned, arena-backed [`Ontology`] with cheap
//! [`ConceptId`] handles, a builder, subsumption queries, a small
//! line-oriented text format ([`text`]), and a generated myGrid-like
//! life-science ontology ([`mygrid`]).
//!
//! ```
//! use dex_ontology::Ontology;
//!
//! let mut builder = Ontology::builder("demo");
//! builder.root("Sequence").unwrap();
//! builder.child("DNA", "Sequence").unwrap();
//! builder.child("Protein", "Sequence").unwrap();
//! let onto = builder.build().unwrap();
//!
//! let sequence = onto.id("Sequence").unwrap();
//! let dna = onto.id("DNA").unwrap();
//! assert!(onto.subsumes(sequence, dna));
//! assert_eq!(onto.partitions_of(sequence).len(), 3);
//! ```

pub mod concept;
pub mod error;
pub mod mygrid;
pub mod ontology;
pub mod text;

pub use concept::{Concept, ConceptId};
pub use error::OntologyError;
pub use ontology::{Ontology, OntologyBuilder};
