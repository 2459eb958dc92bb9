//! The data-example generation heuristic (paper §3.2): partition → select →
//! invoke → construct — organized as **resolve, then execute**.
//!
//! Module invocation is the dominant cost of the paper's setting (remote,
//! metered SOAP/REST services), so the generator does not interleave pool
//! lookups with invocations. Instead it:
//!
//! 1. resolves every `(input, partition)`'s candidate values **once**
//!    (`resolve_candidates` — the pool is probed per partition, not per
//!    combination per attempt);
//! 2. executes combination by combination and keeps the first attempt that
//!    terminates normally. An attempt's input vector is built from the
//!    resolved picks only when the attempt runs, and a retry attempt that
//!    would feed the same pool instances as an earlier attempt of its
//!    combination is skipped (shallow pools used to make retries re-invoke
//!    the exact same inputs — pure waste). An attempt goes through
//!    [`Retrier::invoke`], directly or through a shared [`InvocationCache`]
//!    ([`generate_examples_retrying`]), unless the module's previous report
//!    already records its outcome, as an example or as a rejection
//!    ([`generate_examples_memoized`]). The report is the same with or
//!    without a memo, and whatever the memo holds.
//!
//! Nothing the report does not keep is copied: partition names stay
//! borrowed from the ontology until an example or a failed combination
//! keeps them, and each parameter name is created once per module and
//! shared by every example's bindings.

use crate::error::GenerationError;
use crate::example::{Binding, DataExample, ExampleSet};
use crate::partition::{input_partition_plan, PartitionPlan};
use dex_modules::{BlackBox, InvocationCache, Retrier, RetryPolicy};
use dex_ontology::Ontology;
use dex_pool::InstancePool;
use dex_values::Value;
use std::sync::Arc;

/// Tuning knobs for the generator.
#[derive(Debug, Clone)]
pub struct GenerationConfig {
    /// Hard cap on the cartesian product of input partitions; exceeding it
    /// aborts generation with [`GenerationError::TooManyCombinations`]
    /// rather than hammering a (in the paper's world: remote, metered)
    /// module with thousands of invocations.
    pub max_combinations: usize,
    /// How many alternative value selections to try for a combination whose
    /// invocation is rejected, before recording the combination as failed.
    /// Attempt `a` feeds every input the `a`-th conforming instance of its
    /// partition (the first when the partition has fewer), so two modules
    /// generated from one pool are fed the same values, which is what makes
    /// their examples *aligned* (§6: "we choose the same values for both i
    /// and i′").
    pub retries_per_combination: usize,
    /// How to retry *transient* invocation failures (`Unavailable`/`Fault`)
    /// within one attempt. Distinct from
    /// [`retries_per_combination`](GenerationConfig::retries_per_combination),
    /// which tries *different value vectors* after a deterministic rejection;
    /// this re-attempts the *same* vector when the failure was
    /// state-dependent. Defaults to [`RetryPolicy::none`].
    pub retry: RetryPolicy,
}

impl Default for GenerationConfig {
    fn default() -> Self {
        GenerationConfig {
            max_combinations: 4096,
            retries_per_combination: 3,
            retry: RetryPolicy::none(),
        }
    }
}

/// Everything the generator learned about a module.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationReport {
    /// The constructed data examples, `∆(m)`.
    pub examples: ExampleSet,
    /// The partition plan the examples were generated against.
    pub plan: PartitionPlan,
    /// Input partitions (input index, concept name) for which the pool held
    /// no structurally compatible realization.
    pub unvalued_partitions: Vec<(usize, String)>,
    /// Partition combinations whose every attempted invocation failed
    /// (concept names per input).
    pub failed_combinations: Vec<Vec<String>>,
    /// The input vectors of the attempts the module rejected permanently
    /// (an error that is not [`transient`](dex_modules::InvocationError::is_transient)),
    /// in attempt order. With the examples they record every attempt's
    /// outcome except a transient one, which is never recorded, so a
    /// regeneration from this report invokes only the attempts whose
    /// vectors moved and those whose outcome was transient.
    pub rejected: Vec<Vec<Value>>,
    /// Invocation attempts made (duplicate retry vectors are
    /// skipped, not counted — they cannot change a deterministic module's
    /// answer). An attempt answered by a memo counts too, so the number is
    /// the same with or without one: a shared [`InvocationCache`] (see its
    /// [`stats`](InvocationCache::stats)) or the module's previous report
    /// ([`generate_examples_memoized`]) can only lower the number of
    /// *actual* module invocations.
    pub invocations: usize,
    /// Attempts whose outcome was still a *transient* error after the retry
    /// policy gave up — state-dependent failures the run degraded through
    /// rather than aborting. `0` whenever every injected fault was retried
    /// to its true outcome (and always `0` on a healthy module population).
    pub transient_failures: usize,
}

impl GenerationReport {
    /// Fraction of input partitions covered by at least one example,
    /// in `[0, 1]`; `1.0` for a module with no partitions.
    pub fn input_partition_coverage(&self, ontology: &Ontology) -> f64 {
        let total = self.plan.partition_count();
        if total == 0 {
            return 1.0;
        }
        // Keyed by (input, ConceptId): ids are Copy, so counting coverage
        // allocates nothing per example.
        let mut covered = std::collections::HashSet::new();
        for example in self.examples.iter() {
            for (input_idx, concept) in example.input_partitions.iter().enumerate() {
                if let Some(id) = ontology.id(concept) {
                    covered.insert((input_idx, id));
                }
            }
        }
        covered.len() as f64 / total as f64
    }
}

/// Candidate values for one `(input, partition)` pair, resolved from the
/// pool exactly once per generation.
///
/// `picks[a]` is the value attempt `a` feeds this input: the partition's
/// `a`-th conforming realization, else its first — `None` for every attempt
/// exactly when the pool holds no structurally compatible realization at
/// all.
struct ResolvedPartition<'o, 'p> {
    concept: &'o str,
    picks: Vec<Option<&'p Value>>,
}

/// Phase 2, hoisted: resolve every `(input, partition)`'s candidates once.
///
/// The legacy generator probed `get_instance` for every partition in phase 2
/// and then repeated the identical lookups (plus two `or_else` fallbacks per
/// input per attempt) inside the phase-3 combination loop. Here each
/// `(input, partition)` costs `retries + 1` pool lookups total (one when it
/// is unvalued), shared by every combination that references it, and the
/// "unvalued" probe is attempt 0's pick.
fn resolve_candidates<'o, 'p>(
    plan: &PartitionPlan,
    descriptor: &dex_modules::ModuleDescriptor,
    ontology: &'o Ontology,
    pool: &'p InstancePool,
    config: &GenerationConfig,
) -> (Vec<Vec<ResolvedPartition<'o, 'p>>>, Vec<(usize, String)>) {
    let attempts = config.retries_per_combination + 1;
    let mut resolved: Vec<Vec<ResolvedPartition<'o, 'p>>> =
        Vec::with_capacity(plan.per_input.len());
    let mut unvalued: Vec<(usize, String)> = Vec::new();
    for (i, parts) in plan.per_input.iter().enumerate() {
        let structural = &descriptor.inputs[i].structural;
        let mut per_partition = Vec::with_capacity(parts.len());
        for &p in parts {
            let concept = ontology.concept_name(p);
            let first = pool.get_instance(concept, structural, 0).map(|x| &x.value);
            if first.is_none() {
                unvalued.push((i, concept.to_string()));
            }
            let picks = (0..attempts)
                .map(|attempt| {
                    first?;
                    if attempt == 0 {
                        return first;
                    }
                    pool.get_instance(concept, structural, attempt)
                        .map(|x| &x.value)
                        .or(first)
                })
                .collect();
            per_partition.push(ResolvedPartition { concept, picks });
        }
        resolved.push(per_partition);
    }
    (resolved, unvalued)
}

/// Runs the full §3.2 procedure for one module:
///
/// 1. partition the domain of every input using its semantic annotation;
/// 2. for each partition select a structurally compatible realization from
///    the annotated pool;
/// 3. invoke the module on every combination of selected values;
/// 4. keep combinations that terminate normally as data examples.
///
/// Deterministic: same module, ontology, pool and config always produce the
/// same report. This unmemoized path is also the reference the memoized
/// ones ([`generate_examples_retrying`], [`generate_examples_memoized`]) are
/// property-tested against.
pub fn generate_examples(
    module: &dyn BlackBox,
    ontology: &Ontology,
    pool: &InstancePool,
    config: &GenerationConfig,
) -> Result<GenerationReport, GenerationError> {
    generate_examples_memoized(
        module,
        ontology,
        pool,
        config,
        None,
        &Retrier::new(config.retry),
    )
}

/// [`generate_examples`] with the module's previous report as its memo. A
/// data example records one invocation, and modules are deterministic
/// (paper §2), so an attempt whose input vector equals a previous example's
/// inputs takes that example's outputs, and one whose vector is among the
/// previous [`rejected`](GenerationReport::rejected) is rejected again,
/// both without invoking the module. Every other attempt is invoked through
/// `retrier`, with no cache. The report is byte-identical to
/// [`generate_examples`]'s, whatever `memo` holds; only the module
/// invocations fall. `None` invokes every attempt.
///
/// The incremental engine regenerates a module from its own previous
/// report, so a pool change that moves one pick re-invokes only the
/// attempts that read it, and an unchanged world invokes nothing.
pub fn generate_examples_memoized(
    module: &dyn BlackBox,
    ontology: &Ontology,
    pool: &InstancePool,
    config: &GenerationConfig,
    memo: Option<&GenerationReport>,
    retrier: &Retrier,
) -> Result<GenerationReport, GenerationError> {
    generate_with(module, ontology, pool, config, None, memo, retrier)
}

/// [`generate_examples`] through a shared [`InvocationCache`] and
/// [`Retrier`]. Every distinct `(module, input vector)` across all callers
/// of the cache — other generations, matcher replays,
/// repair verification — is invoked at most once process-wide; the report
/// is byte-identical to the uncached path, only the number of *actual*
/// module invocations drops. Every transient invocation failure is
/// re-attempted under the retrier's policy before an attempt is recorded
/// as failed. A caller that shares one retrier across many generations, as
/// the test-only exhaustive oracle does, gets run-global retry accounting;
/// a caller with no retrier of its own passes `Retrier::new(config.retry)`.
/// A permanent error the cache answers is recorded in
/// [`rejected`](GenerationReport::rejected) as an invoked one would be. The
/// incremental engine keeps no such cache: it regenerates through
/// [`generate_examples_memoized`].
pub fn generate_examples_retrying(
    module: &dyn BlackBox,
    ontology: &Ontology,
    pool: &InstancePool,
    config: &GenerationConfig,
    cache: &InvocationCache,
    retrier: &Retrier,
) -> Result<GenerationReport, GenerationError> {
    generate_with(module, ontology, pool, config, Some(cache), None, retrier)
}

/// The one generation loop. An attempt whose outcome `memo` records takes
/// the recorded example or rejection; any other goes through `retrier`, and
/// through `cache` when one is given.
fn generate_with(
    module: &dyn BlackBox,
    ontology: &Ontology,
    pool: &InstancePool,
    config: &GenerationConfig,
    cache: Option<&InvocationCache>,
    memo: Option<&GenerationReport>,
    retrier: &Retrier,
) -> Result<GenerationReport, GenerationError> {
    let _timer = {
        static MODULE_NS: std::sync::OnceLock<dex_telemetry::Histo> = std::sync::OnceLock::new();
        MODULE_NS
            .get_or_init(|| dex_telemetry::histogram("dex.generate.module_ns"))
            .start()
    };
    let _span = dex_telemetry::span("generate.module");
    let descriptor = module.descriptor();
    let plan = input_partition_plan(descriptor, ontology)?;

    let combos = plan.combination_count();
    if combos > config.max_combinations {
        return Err(GenerationError::TooManyCombinations {
            combinations: combos,
            cap: config.max_combinations,
        });
    }

    let (resolved, unvalued) = resolve_candidates(&plan, descriptor, ontology, pool, config);
    let attempts = config.retries_per_combination + 1;

    // Telemetry-only coverage tracking, kept on the combination indices so
    // reporting needs no ontology lookups after the loop. `covered_flags`
    // is indexed by `input_offsets[input] + partition index`.
    let telemetry_on = dex_telemetry::is_enabled();
    let mut input_offsets: Vec<usize> = Vec::new();
    let mut covered_flags: Vec<bool> = Vec::new();
    if telemetry_on {
        let mut offset = 0;
        for parts in &plan.per_input {
            input_offsets.push(offset);
            offset += parts.len();
        }
        covered_flags = vec![false; offset];
    }

    let names = |params: &[dex_modules::Parameter]| -> Vec<Arc<str>> {
        params.iter().map(|p| Arc::from(p.name.as_str())).collect()
    };
    let (input_names, output_names) = (names(&descriptor.inputs), names(&descriptor.outputs));

    // Each combination's attempts are invoked in order until one terminates
    // normally; a combination with no success is recorded failed.
    let mut examples = ExampleSet::new(descriptor.id.clone());
    let mut failed: Vec<Vec<String>> = Vec::new();
    let mut rejected: Vec<Vec<Value>> = Vec::new();
    let mut invocations = 0usize;
    let mut transient_failures = 0usize;
    'combos: for combo in plan.combinations() {
        let parts = || combo.iter().enumerate().map(|(i, &pi)| &resolved[i][pi]);
        let concept_names = || parts().map(|part| part.concept.to_string()).collect();
        // Some input partition has no realization: the combination can
        // never be fed.
        if parts().any(|part| part.picks[0].is_none()) {
            failed.push(concept_names());
            continue;
        }
        let picks = |attempt: usize| {
            parts().map(move |part| part.picks[attempt].expect("every partition is realized"))
        };
        for attempt in 0..attempts {
            // Retry dedup: an attempt feeding the same pool instances as an
            // earlier attempt of this combination is skipped — the module is
            // deterministic, so re-invoking cannot change the outcome.
            let same_instances = |earlier| {
                picks(attempt)
                    .zip(picks(earlier))
                    .all(|(a, b)| std::ptr::eq(a, b))
            };
            if (0..attempt).any(same_instances) {
                continue;
            }
            invocations += 1;
            let recorded = memo.and_then(|memo| {
                memo.examples
                    .iter()
                    .find(|e| same_vector(e.inputs.iter().map(|b| &b.value), picks(attempt)))
            });
            let (inputs, outputs) = match recorded {
                Some(previous) => (previous.inputs.clone(), previous.outputs.clone()),
                None => {
                    let values: Vec<Value> = picks(attempt).cloned().collect();
                    if memo.is_some_and(|memo| {
                        memo.rejected
                            .iter()
                            .any(|r| same_vector(r.iter(), picks(attempt)))
                    }) {
                        rejected.push(values);
                        continue;
                    }
                    let outcome = retrier.invoke(module, &values, cache);
                    let outputs = match outcome.as_ref() {
                        Ok(outputs) => outputs,
                        Err(e) => {
                            if e.is_transient() {
                                transient_failures += 1;
                            } else {
                                rejected.push(values);
                            }
                            continue;
                        }
                    };
                    let inputs = input_names
                        .iter()
                        .zip(values)
                        .map(|(name, v)| Binding::new(Arc::clone(name), v))
                        .collect();
                    let outputs = output_names
                        .iter()
                        .zip(outputs)
                        .map(|(name, v)| Binding::new(Arc::clone(name), v.clone()))
                        .collect();
                    (inputs, outputs)
                }
            };
            if telemetry_on {
                for (i, &pi) in combo.iter().enumerate() {
                    covered_flags[input_offsets[i] + pi] = true;
                }
            }
            examples
                .examples
                .push(DataExample::new(inputs, outputs, concept_names()));
            continue 'combos;
        }
        failed.push(concept_names());
    }

    let report = GenerationReport {
        examples,
        plan,
        unvalued_partitions: unvalued,
        failed_combinations: failed,
        rejected,
        invocations,
        transient_failures,
    };
    record_generation_telemetry(&report, telemetry_on, &covered_flags);
    Ok(report)
}

/// Whether a recorded input vector equals an attempt's picks.
fn same_vector<'a>(
    recorded: impl ExactSizeIterator<Item = &'a Value>,
    picks: impl ExactSizeIterator<Item = &'a Value>,
) -> bool {
    recorded.len() == picks.len() && recorded.zip(picks).all(|(r, p)| r == p)
}

/// Folds one finished generation into the process-global counters. Gated on
/// the loop-time flag so covered/total stay consistent even if telemetry was
/// toggled mid-generation.
fn record_generation_telemetry(
    report: &GenerationReport,
    telemetry_on: bool,
    covered_flags: &[bool],
) {
    if !telemetry_on {
        return;
    }
    let counters = generate_counters();
    counters.modules.add(1);
    counters.candidates_tried.add(report.invocations as u64);
    counters.examples_accepted.add(report.examples.len() as u64);
    counters
        .failed_combinations
        .add(report.failed_combinations.len() as u64);
    counters
        .unvalued_partitions
        .add(report.unvalued_partitions.len() as u64);
    // Partition-coverage progress: fraction covered is derivable from
    // these two monotonic counters at any point of a run.
    counters
        .partitions_total
        .add(report.plan.partition_count() as u64);
    counters
        .partitions_covered
        .add(covered_flags.iter().filter(|&&c| c).count() as u64);
}

/// Generation telemetry counters, interned once per process.
struct GenerateCounters {
    modules: dex_telemetry::Counter,
    candidates_tried: dex_telemetry::Counter,
    examples_accepted: dex_telemetry::Counter,
    failed_combinations: dex_telemetry::Counter,
    unvalued_partitions: dex_telemetry::Counter,
    partitions_total: dex_telemetry::Counter,
    partitions_covered: dex_telemetry::Counter,
}

fn generate_counters() -> &'static GenerateCounters {
    static COUNTERS: std::sync::OnceLock<GenerateCounters> = std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| GenerateCounters {
        modules: dex_telemetry::counter("dex.generate.modules"),
        candidates_tried: dex_telemetry::counter("dex.generate.candidates_tried"),
        examples_accepted: dex_telemetry::counter("dex.generate.examples_accepted"),
        failed_combinations: dex_telemetry::counter("dex.generate.failed_combinations"),
        unvalued_partitions: dex_telemetry::counter("dex.generate.unvalued_partitions"),
        partitions_total: dex_telemetry::counter("dex.generate.partitions_total"),
        partitions_covered: dex_telemetry::counter("dex.generate.partitions_covered"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_modules::{FnModule, InvocationError, ModuleDescriptor, ModuleKind, Parameter};
    use dex_ontology::mygrid;
    use dex_pool::{build_synthetic_pool, AnnotatedInstance};
    use dex_values::formats::sequence::{classify, SequenceKind};
    use dex_values::StructuralType;

    fn fixture() -> (Ontology, InstancePool) {
        let onto = mygrid::ontology();
        let pool = build_synthetic_pool(&onto, 5, 11);
        (onto, pool)
    }

    /// A module that reports the kind of the sequence it was given.
    fn seq_kind_module() -> FnModule {
        FnModule::new(
            ModuleDescriptor::new(
                "op:seqkind",
                "SeqKind",
                ModuleKind::LocalProgram,
                vec![Parameter::required(
                    "seq",
                    StructuralType::Text,
                    "BiologicalSequence",
                )],
                vec![Parameter::required(
                    "kind",
                    StructuralType::Text,
                    "Document",
                )],
            ),
            |inputs| {
                let s = inputs[0].as_text().expect("validated text");
                let kind =
                    classify(s).ok_or_else(|| InvocationError::rejected("not a sequence"))?;
                Ok(vec![Value::text(format!("{kind:?}"))])
            },
        )
    }

    #[test]
    fn generates_one_example_per_partition() {
        let (onto, pool) = fixture();
        let m = seq_kind_module();
        let report = generate_examples(&m, &onto, &pool, &GenerationConfig::default()).unwrap();
        assert_eq!(report.examples.len(), 4, "one per partition");
        assert!(report.failed_combinations.is_empty());
        assert!(report.unvalued_partitions.is_empty());
        assert_eq!(report.input_partition_coverage(&onto), 1.0);
        // Each example records the partition it covers.
        let partitions: Vec<&str> = report
            .examples
            .iter()
            .map(|e| e.input_partitions[0].as_str())
            .collect();
        assert_eq!(
            partitions,
            vec![
                "BiologicalSequence",
                "DNASequence",
                "RNASequence",
                "ProteinSequence"
            ]
        );
    }

    #[test]
    fn outputs_reflect_module_behavior() {
        let (onto, pool) = fixture();
        let m = seq_kind_module();
        let report = generate_examples(&m, &onto, &pool, &GenerationConfig::default()).unwrap();
        let by_partition: std::collections::HashMap<&str, &str> = report
            .examples
            .iter()
            .map(|e| {
                (
                    e.input_partitions[0].as_str(),
                    e.outputs[0].value.as_text().unwrap(),
                )
            })
            .collect();
        assert_eq!(by_partition["DNASequence"], "Dna");
        assert_eq!(by_partition["ProteinSequence"], "Protein");
        assert_eq!(by_partition["BiologicalSequence"], "Generic");
    }

    /// A module that rejects protein sequences: the protein partition must
    /// appear in `failed_combinations`, not as an example.
    #[test]
    fn rejected_combinations_are_recorded_not_exampled() {
        let (onto, pool) = fixture();
        let m = FnModule::new(
            ModuleDescriptor::new(
                "op:nuconly",
                "NucleotideOnly",
                ModuleKind::RestService,
                vec![Parameter::required(
                    "seq",
                    StructuralType::Text,
                    "BiologicalSequence",
                )],
                vec![Parameter::required("out", StructuralType::Text, "Document")],
            ),
            |inputs| {
                let s = inputs[0].as_text().unwrap();
                match classify(s) {
                    Some(SequenceKind::Protein) | None => {
                        Err(InvocationError::rejected("nucleotides only"))
                    }
                    Some(_) => Ok(vec![Value::text("ok")]),
                }
            },
        );
        let config = GenerationConfig::default();
        let report = generate_examples(&m, &onto, &pool, &config).unwrap();
        assert_eq!(report.examples.len(), 3);
        assert_eq!(report.failed_combinations.len(), 1);
        assert_eq!(report.failed_combinations[0], vec!["ProteinSequence"]);
        // Retries were attempted for the failing combination.
        assert!(report.invocations > 4);
        // Every protein vector it tried is recorded as rejected, and so is
        // every other attempt that made no example.
        for attempt in 0..=config.retries_per_combination {
            let protein = pool
                .get_instance("ProteinSequence", &StructuralType::Text, attempt)
                .expect("the pool realizes ProteinSequence")
                .value
                .clone();
            assert!(
                report.rejected.contains(&vec![protein]),
                "attempt {attempt}"
            );
        }
        assert_eq!(
            report.rejected.len(),
            report.invocations - report.examples.len()
        );
    }

    /// With a depth-1 pool every retry re-selects the same instance, so only
    /// the first attempt may be invoked (and counted). Duplicates are found
    /// by instance, not by value: two distinct instances with equal text are
    /// two attempts, both invoked, counted and recorded as rejected.
    #[test]
    fn duplicate_retry_vectors_are_skipped_not_reinvoked() {
        let onto = mygrid::ontology();
        let text = || Value::text("not-a-sequence!");
        let pool_of = |instances: usize| {
            let mut pool = InstancePool::new("shallow");
            for _ in 0..instances {
                pool.add(AnnotatedInstance::synthetic(text(), "BiologicalSequence"));
            }
            pool
        };
        let invoked = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let seen = std::sync::Arc::clone(&invoked);
        let m = FnModule::new(
            ModuleDescriptor::new(
                "op:reject",
                "RejectAll",
                ModuleKind::RestService,
                vec![Parameter::required(
                    "seq",
                    StructuralType::Text,
                    "BiologicalSequence",
                )],
                vec![Parameter::required("out", StructuralType::Text, "Document")],
            ),
            move |_| {
                seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Err(InvocationError::rejected("always"))
            },
        );
        let config = GenerationConfig {
            retries_per_combination: 3,
            ..GenerationConfig::default()
        };
        // The synthetic ontology gives BiologicalSequence four partitions;
        // only the root one is valued with these pools. One instance: every
        // attempt feeds it. Two equal-text instances: attempt 1 feeds the
        // second, attempts 2 and 3 fall back to the first.
        for (instances, attempts) in [(1, 1), (2, 2)] {
            invoked.store(0, std::sync::atomic::Ordering::Relaxed);
            let report = generate_examples(&m, &onto, &pool_of(instances), &config).unwrap();
            assert_eq!(
                report.invocations, attempts,
                "{instances} instance(s): duplicate retries must not be re-invoked or counted"
            );
            assert_eq!(
                invoked.load(std::sync::atomic::Ordering::Relaxed),
                attempts,
                "{instances} instance(s): the module saw each distinct attempt once"
            );
            assert_eq!(report.rejected, vec![vec![text()]; attempts]);
        }
    }

    #[test]
    fn combination_cap_enforced() {
        let (onto, pool) = fixture();
        let m = seq_kind_module();
        let config = GenerationConfig {
            max_combinations: 2,
            ..GenerationConfig::default()
        };
        assert!(matches!(
            generate_examples(&m, &onto, &pool, &config),
            Err(GenerationError::TooManyCombinations {
                combinations: 4,
                cap: 2
            })
        ));
    }

    #[test]
    fn generation_is_deterministic() {
        let (onto, pool) = fixture();
        let m = seq_kind_module();
        let a = generate_examples(&m, &onto, &pool, &GenerationConfig::default()).unwrap();
        let b = generate_examples(&m, &onto, &pool, &GenerationConfig::default()).unwrap();
        assert_eq!(a.examples, b.examples);
    }

    #[test]
    fn cached_generation_matches_uncached_and_hits_on_regeneration() {
        let (onto, pool) = fixture();
        let m = seq_kind_module();
        let cache = InvocationCache::new();
        let config = GenerationConfig::default();
        let retrier = Retrier::new(config.retry);
        let plain = generate_examples(&m, &onto, &pool, &config).unwrap();
        let cached =
            generate_examples_retrying(&m, &onto, &pool, &config, &cache, &retrier).unwrap();
        assert_eq!(plain.examples, cached.examples);
        assert_eq!(plain.invocations, cached.invocations);
        let first = cache.stats();
        assert_eq!(first.hits, 0);
        assert_eq!(first.misses as usize, plain.invocations);
        // Regenerating is answered entirely from the cache.
        let again =
            generate_examples_retrying(&m, &onto, &pool, &config, &cache, &retrier).unwrap();
        assert_eq!(plain.examples, again.examples);
        let second = cache.stats();
        assert_eq!(second.misses, first.misses, "no new module invocations");
        assert_eq!(second.hits as usize, plain.invocations);
    }

    /// Multi-input module with an invalid combination (blastn × protein).
    #[test]
    fn multi_input_validity_filtering() {
        let (onto, pool) = fixture();
        let m = FnModule::new(
            ModuleDescriptor::new(
                "op:align",
                "Align",
                ModuleKind::SoapService,
                vec![
                    Parameter::required("seq", StructuralType::Text, "ProteinSequence"),
                    Parameter::required("program", StructuralType::Text, "AlgorithmName"),
                ],
                vec![Parameter::required(
                    "report",
                    StructuralType::Text,
                    "AlignmentReport",
                )],
            ),
            |inputs| {
                let program = inputs[1].as_text().unwrap();
                if program == "blastn" {
                    // Nucleotide program fed a protein: invalid combination.
                    return Err(InvocationError::rejected("blastn needs nucleotides"));
                }
                Ok(vec![Value::text(format!(
                    "PROGRAM  {program}\nDATABASE d\nQUERY    q\nHITS     0\n"
                ))])
            },
        );
        let report = generate_examples(&m, &onto, &pool, &GenerationConfig::default()).unwrap();
        // 1 × 1 partitions; whether it survives depends on the pooled
        // algorithm name value — with seed 11 and retries, a non-blastn pick
        // must eventually be found (pool holds 5 AlgorithmName values).
        assert_eq!(report.plan.combination_count(), 1);
        assert_eq!(report.examples.len() + report.failed_combinations.len(), 1);
    }

    #[test]
    fn unknown_annotation_surfaces_as_error() {
        let (onto, pool) = fixture();
        let m = FnModule::new(
            ModuleDescriptor::new(
                "op:ghost",
                "Ghost",
                ModuleKind::RestService,
                vec![Parameter::required(
                    "x",
                    StructuralType::Text,
                    "GhostConcept",
                )],
                vec![Parameter::required("y", StructuralType::Text, "Document")],
            ),
            |_| Ok(vec![Value::text("y")]),
        );
        assert!(matches!(
            generate_examples(&m, &onto, &pool, &GenerationConfig::default()),
            Err(GenerationError::UnknownConcept { .. })
        ));
    }
}
