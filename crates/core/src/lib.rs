//! # dex-core
//!
//! The paper's contribution: **annotating the behavior of black-box
//! scientific modules with automatically generated data examples**, plus the
//! two downstream uses the paper evaluates — understanding and matching.
//!
//! The pipeline mirrors §3 of the paper exactly:
//!
//! 1. [`partition`] — divide the domain of every annotated parameter into
//!    sub-domains using the subsumption hierarchy of the annotation ontology
//!    (ontology-based *equivalence partitioning*, adapted from software
//!    testing).
//! 2. [`generate`] — select values realizing each input partition from a
//!    pool of annotated instances, invoke the module on all combinations,
//!    and keep the combinations that terminate normally as
//!    [`DataExample`]s.
//! 3. [`coverage`] — measure which input *and output* partitions the
//!    examples cover (§3.3: output partitions are covered opportunistically
//!    by input-driven examples).
//! 4. [`metrics`] — score example sets for *completeness* and *conciseness*
//!    against a ground-truth behavior oracle (§4.2).
//! 5. [`matching`] — compare two modules by generating *aligned* examples
//!    (same input values) and classifying the pair as equivalent /
//!    overlapping / disjoint (§6).
//!
//! [`baseline`] implements the two comparison baselines used by the
//! ablations: random (non-partitioned) example selection, and the
//! provenance-trace similarity matching of the author's earlier work.
//!
//! Two modules implement the paper's §8 *future work*: [`dedupe`]
//! (record-linkage-style detection of redundant data examples) and
//! [`compose`] (data-example-guided module composition); [`inverse`]
//! implements the §3.3 inverse-module route to output-partition coverage.
//!
//! ```
//! use dex_core::{generate_examples, GenerationConfig};
//! use dex_modules::{FnModule, ModuleDescriptor, ModuleKind, Parameter};
//! use dex_ontology::Ontology;
//! use dex_pool::{AnnotatedInstance, InstancePool};
//! use dex_values::{StructuralType, Value};
//!
//! // A two-partition domain…
//! let mut builder = Ontology::builder("demo");
//! builder.root("Sequence").unwrap();
//! builder.child("DNA", "Sequence").unwrap();
//! let onto = builder.build().unwrap();
//!
//! // …a pool with one realization per partition…
//! let mut pool = InstancePool::new("demo");
//! pool.add(AnnotatedInstance::synthetic(Value::text("NNNN"), "Sequence"));
//! pool.add(AnnotatedInstance::synthetic(Value::text("ACGT"), "DNA"));
//!
//! // …and a black-box module annotated with the broad concept.
//! let module = FnModule::new(
//!     ModuleDescriptor::new(
//!         "demo:len",
//!         "SequenceLength",
//!         ModuleKind::LocalProgram,
//!         vec![Parameter::required("seq", StructuralType::Text, "Sequence")],
//!         vec![Parameter::required("len", StructuralType::Integer, "Sequence")],
//!     ),
//!     |inputs| Ok(vec![Value::Integer(inputs[0].as_text().unwrap().len() as i64)]),
//! );
//!
//! // One data example per partition of the input domain.
//! let report =
//!     generate_examples(&module, &onto, &pool, &GenerationConfig::default()).unwrap();
//! assert_eq!(report.examples.len(), 2);
//! ```

pub mod baseline;
pub mod compose;
pub mod coverage;
pub mod dedupe;
pub mod delta;
pub mod display;
pub mod error;
pub mod example;
pub mod generate;
pub mod inverse;
pub mod matching;
pub mod metrics;
pub mod partition;

pub use compose::{composition_score, suggest_downstream, CompositionScore};
pub use coverage::{CoverageReport, ValueClassifier};
pub use dedupe::{detect_redundant, DedupeConfig, DedupeReport};
pub use delta::{Delta, DeltaReport, DependencyIndex};
pub use display::to_markdown;
pub use error::GenerationError;
pub use example::{Binding, DataExample, ExampleSet};
pub use generate::{
    generate_examples, generate_examples_retrying, generation_signature, GenerationConfig,
    GenerationReport,
};
pub use inverse::{cover_output_partitions, InverseCoverageReport};
pub use matching::{
    compare_modules, match_against_examples, match_against_examples_retrying, BlockingStats,
    CachedGeneration, FingerprintIndex, MappingMode, MatchOutcome, MatchReport, MatchSession,
    MatchVerdict, PartitionFingerprint,
};
pub use metrics::{completeness, conciseness, BehaviorOracle, ModuleScore};
pub use partition::{input_partition_plan, partitions_for, PartitionPlan};
