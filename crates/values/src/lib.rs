//! # dex-values
//!
//! The structural side of module parameters: data values, structural types,
//! and the textual life-science formats (FASTA, Uniprot flat files,
//! accessions, reports, …) that the synthetic module universe manipulates.
//!
//! The paper's model (§2) characterizes a parameter by a *structural* type
//! (`str(i)`, e.g. `String` or `Integer`) and a *semantic* type (`sem(i)`, an
//! ontology concept). This crate owns the structural half:
//!
//! * [`StructuralType`] — the grounding of a parameter.
//! * [`Value`] — a concrete instance flowing through modules, workflows,
//!   provenance traces, instance pools and data examples. Text is
//!   reference-counted, so a clone shares its bytes instead of copying them.
//! * [`formats`] — parsers/printers/validators for the life-science text
//!   formats the simulated modules exchange. Shim modules (format
//!   transformation, the paper's biggest category) are literally format
//!   conversions between these.
//! * [`synth`] — deterministic, seeded generators producing realistic values
//!   for each myGrid-like concept, used to populate instance pools and the
//!   simulated databases behind retrieval modules.
//!
//! ```
//! use dex_values::classify::classify_concept;
//! use dex_values::Value;
//!
//! assert_eq!(classify_concept(&Value::text("P12345")), Some("UniprotAccession"));
//! assert_eq!(classify_concept(&Value::text("ACGTACGT")), Some("DNASequence"));
//! assert_eq!(classify_concept(&Value::text("GO:0008150")), Some("GOTerm"));
//! ```

pub mod classify;
pub mod formats;
pub mod structural;
pub mod synth;
pub mod value;

pub use structural::StructuralType;
pub use value::Value;
