//! The data-example generation heuristic (paper §3.2): partition → select →
//! invoke → construct — organized as **resolve, plan, execute**.
//!
//! Module invocation is the dominant cost of the paper's setting (remote,
//! metered SOAP/REST services), so the generator does not interleave pool
//! lookups with invocations. Instead it:
//!
//! 1. resolves every `(input, partition)`'s candidate values **once**
//!    (`resolve_candidates` — the pool is probed per partition, not per
//!    combination per attempt);
//! 2. plans each combination's attempt vectors up front, dropping retry
//!    attempts whose value vector is identical to an earlier attempt of the
//!    same combination (shallow pools used to make retries re-invoke the
//!    exact same inputs — pure waste);
//! 3. executes the plan combination by combination, each attempt through
//!    [`Retrier::invoke`] — directly, or through a shared
//!    [`InvocationCache`] ([`generate_examples_retrying`]) — and keeps the
//!    first attempt that terminates normally. The report is the same with
//!    or without a cache, and whatever the cache already holds.

use crate::error::GenerationError;
use crate::example::{Binding, DataExample, ExampleSet};
use crate::partition::{input_partition_plan, PartitionPlan};
use dex_modules::{BlackBox, InvocationCache, Retrier, RetryPolicy};
use dex_ontology::Ontology;
use dex_pool::InstancePool;
use dex_values::Value;

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
    /// Each retry advances every input's pool pick by one.
    pub retries_per_combination: usize,
    /// Base offset into each partition's realization list. `0` picks the
    /// first conforming instance; the matcher uses identical offsets for two
    /// modules to obtain *aligned* examples (§6: "we choose the same values
    /// for both i and i′").
    pub value_offset: usize,
    /// How to retry *transient* invocation failures (`Unavailable`/`Fault`)
    /// within one planned attempt. Distinct from
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
            value_offset: 0,
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
    /// Planned invocation attempts consumed (duplicate retry vectors are
    /// skipped, not counted — they cannot change a deterministic module's
    /// answer). When a shared [`InvocationCache`] is in play the number of
    /// *actual* module invocations can be lower still; see the cache's
    /// [`stats`](InvocationCache::stats).
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
/// `picks[a]` is the value attempt `a` feeds this input, after the fallback
/// chain (requested depth → base offset → first pick) — `None` for every
/// attempt exactly when the pool holds no structurally compatible
/// realization at all.
struct ResolvedPartition<'p> {
    concept: String,
    picks: Vec<Option<&'p Value>>,
}

/// Phase 2, hoisted: resolve every `(input, partition)`'s candidates once.
///
/// The legacy generator probed `get_instance` for every partition in phase 2
/// and then repeated the identical lookups (plus two `or_else` fallbacks per
/// input per attempt) inside the phase-3 combination loop. Here each
/// `(input, partition)` costs `retries + 2` pool lookups total, shared by
/// every combination that references it, and the "unvalued" probe is the
/// same lookup as the attempt-0 fallback.
fn resolve_candidates<'p>(
    plan: &PartitionPlan,
    descriptor: &dex_modules::ModuleDescriptor,
    ontology: &Ontology,
    pool: &'p InstancePool,
    config: &GenerationConfig,
) -> (Vec<Vec<ResolvedPartition<'p>>>, Vec<(usize, String)>) {
    let attempts = config.retries_per_combination + 1;
    let mut resolved: Vec<Vec<ResolvedPartition<'p>>> = Vec::with_capacity(plan.per_input.len());
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
            let base = if config.value_offset == 0 {
                first
            } else {
                pool.get_instance(concept, structural, config.value_offset)
                    .map(|x| &x.value)
                    .or(first)
            };
            let picks = (0..attempts)
                .map(|attempt| {
                    first?;
                    if attempt == 0 {
                        // skip == value_offset: exactly the `base` lookup.
                        return base;
                    }
                    pool.get_instance(concept, structural, config.value_offset + attempt)
                        .map(|x| &x.value)
                        .or(base)
                })
                .collect();
            per_partition.push(ResolvedPartition {
                concept: concept.to_string(),
                picks,
            });
        }
        resolved.push(per_partition);
    }
    (resolved, unvalued)
}

/// A stable digest of everything generation reads from the ontology and the
/// pool for one module: the partition plan (concept names per input, in
/// plan order) and every resolved pool pick per `(input, partition,
/// attempt)` — i.e. the full output of `resolve_candidates`, computed by
/// the very same code path.
///
/// Because the report of [`generate_examples`] is a pure function of
/// (module behavior, plan, resolved picks, config), an unchanged signature
/// guarantees an unchanged report for an unchanged module — the staleness
/// check the incremental layer (`crate::delta`) uses to decide whether a
/// pool or ontology delta actually dirties a module, instead of assuming
/// every delta touching a referenced concept does. Total: planning errors
/// are folded into the digest rather than returned, so the signature is
/// defined for every module.
pub fn generation_signature(
    descriptor: &dex_modules::ModuleDescriptor,
    ontology: &Ontology,
    pool: &InstancePool,
    config: &GenerationConfig,
) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x100_0000_01b3;
    fn fold(hash: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(FNV_PRIME);
        }
        // Length-prefix framing so concatenations cannot collide.
        *hash ^= bytes.len() as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }

    let mut hash = FNV_OFFSET;
    let plan = match input_partition_plan(descriptor, ontology) {
        Ok(plan) => plan,
        Err(e) => {
            fold(&mut hash, b"plan-error");
            fold(&mut hash, e.to_string().as_bytes());
            return hash;
        }
    };
    if plan.combination_count() > config.max_combinations {
        // Generation would abort before touching the pool; the cap and the
        // combination count are all it depends on.
        fold(&mut hash, b"too-many-combinations");
        fold(&mut hash, &plan.combination_count().to_le_bytes());
        fold(&mut hash, &config.max_combinations.to_le_bytes());
        return hash;
    }
    let (resolved, unvalued) = resolve_candidates(&plan, descriptor, ontology, pool, config);
    for per_input in &resolved {
        fold(&mut hash, b"input");
        for partition in per_input {
            fold(&mut hash, partition.concept.as_bytes());
            for pick in &partition.picks {
                match pick {
                    Some(value) => fold(&mut hash, format!("{value:?}").as_bytes()),
                    None => fold(&mut hash, b"\0none"),
                }
            }
        }
    }
    for (input, concept) in &unvalued {
        fold(&mut hash, b"unvalued");
        fold(&mut hash, &input.to_le_bytes());
        fold(&mut hash, concept.as_bytes());
    }
    hash
}

/// One combination's planned invocations: which attempts actually need an
/// invocation (duplicate vectors dropped), with borrowed picks per input.
struct PlannedCombo<'p> {
    /// Partition index per input (combination coordinates).
    combo: Vec<usize>,
    /// Concept names per input, in input order.
    concept_names: Vec<String>,
    /// Deduplicated attempt vectors, in attempt order. Empty when some input
    /// partition has no realization (the combination can never be fed).
    attempts: Vec<Vec<&'p Value>>,
}

/// The whole generation's invocation plan: every `(combination, attempt)`
/// candidate vector, enumerated up front.
fn plan_invocations<'p>(
    plan: &PartitionPlan,
    resolved: &'p [Vec<ResolvedPartition<'p>>],
) -> Vec<PlannedCombo<'p>> {
    let mut combos = Vec::new();
    for combo in plan.combinations() {
        let concept_names: Vec<String> = combo
            .iter()
            .enumerate()
            .map(|(i, &pi)| resolved[i][pi].concept.clone())
            .collect();
        let complete = combo
            .iter()
            .enumerate()
            .all(|(i, &pi)| resolved[i][pi].picks[0].is_some());
        let mut attempts: Vec<Vec<&'p Value>> = Vec::new();
        if complete {
            let total = resolved
                .first()
                .and_then(|r| r.first())
                .map_or(1, |r| r.picks.len());
            for a in 0..total {
                let vector: Vec<&'p Value> = combo
                    .iter()
                    .enumerate()
                    .map(|(i, &pi)| resolved[i][pi].picks[a].expect("complete combination"))
                    .collect();
                // Retry dedup: a vector identical (same pool instances) to an
                // earlier attempt of this combination is skipped — the module
                // is deterministic, so re-invoking cannot change the outcome.
                let duplicate = attempts
                    .iter()
                    .any(|prev| prev.iter().zip(&vector).all(|(a, b)| std::ptr::eq(*a, *b)));
                if !duplicate {
                    attempts.push(vector);
                }
            }
        }
        combos.push(PlannedCombo {
            combo,
            concept_names,
            attempts,
        });
    }
    combos
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
/// same report. This uncached path is also the reference the cached path
/// ([`generate_examples_retrying`]) is property-tested against.
pub fn generate_examples(
    module: &dyn BlackBox,
    ontology: &Ontology,
    pool: &InstancePool,
    config: &GenerationConfig,
) -> Result<GenerationReport, GenerationError> {
    let retrier = Retrier::new(config.retry);
    generate_with(module, ontology, pool, config, None, &retrier)
}

/// [`generate_examples`] through a shared [`InvocationCache`] and
/// [`Retrier`]. Every distinct `(module, input vector)` across all callers
/// of the cache — other generations, other value offsets, matcher replays,
/// repair verification — is invoked at most once process-wide; the report
/// is byte-identical to the uncached path, only the number of *actual*
/// module invocations drops. Every transient invocation failure is
/// re-attempted under the retrier's policy (and against its run-wide
/// budget) before an attempt is recorded as failed. Callers that share one
/// retrier across many generations — the experiment fleet, a
/// `MatchSession` — get run-global retry accounting; a caller with no
/// retrier of its own passes `Retrier::new(config.retry)`.
pub fn generate_examples_retrying(
    module: &dyn BlackBox,
    ontology: &Ontology,
    pool: &InstancePool,
    config: &GenerationConfig,
    cache: &InvocationCache,
    retrier: &Retrier,
) -> Result<GenerationReport, GenerationError> {
    generate_with(module, ontology, pool, config, Some(cache), retrier)
}

fn generate_with(
    module: &dyn BlackBox,
    ontology: &Ontology,
    pool: &InstancePool,
    config: &GenerationConfig,
    cache: Option<&InvocationCache>,
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
    let planned = plan_invocations(&plan, &resolved);

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

    // Each combination's planned attempts are invoked in order until one
    // terminates normally; a combination with no success is recorded failed.
    let mut examples = ExampleSet::new(descriptor.id.clone());
    let mut failed: Vec<Vec<String>> = Vec::new();
    let mut invocations = 0usize;
    let mut transient_failures = 0usize;
    'combos: for combo in planned {
        for picks in &combo.attempts {
            let values: Vec<Value> = picks.iter().map(|&v| v.clone()).collect();
            invocations += 1;
            let outcome = retrier.invoke(module, &values, cache);
            let outputs = match outcome.as_ref() {
                Ok(outputs) => outputs,
                Err(e) => {
                    if e.is_transient() {
                        transient_failures += 1;
                    }
                    continue;
                }
            };
            if telemetry_on {
                for (i, &pi) in combo.combo.iter().enumerate() {
                    covered_flags[input_offsets[i] + pi] = true;
                }
            }
            let inputs = descriptor
                .inputs
                .iter()
                .zip(values)
                .map(|(p, v)| Binding::new(p.name.clone(), v))
                .collect();
            let outputs = descriptor
                .outputs
                .iter()
                .zip(outputs)
                .map(|(p, v)| Binding::new(p.name.clone(), v.clone()))
                .collect();
            examples
                .examples
                .push(DataExample::new(inputs, outputs, combo.concept_names));
            continue 'combos;
        }
        failed.push(combo.concept_names);
    }

    let report = GenerationReport {
        examples,
        plan,
        unvalued_partitions: unvalued,
        failed_combinations: failed,
        invocations,
        transient_failures,
    };
    record_generation_telemetry(&report, telemetry_on, &covered_flags);
    Ok(report)
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
        let report = generate_examples(&m, &onto, &pool, &GenerationConfig::default()).unwrap();
        assert_eq!(report.examples.len(), 3);
        assert_eq!(report.failed_combinations.len(), 1);
        assert_eq!(report.failed_combinations[0], vec!["ProteinSequence"]);
        // Retries were attempted for the failing combination.
        assert!(report.invocations > 4);
    }

    /// Satellite regression: with a depth-1 pool every retry re-selects the
    /// same instance, so only the first attempt may be invoked (and counted).
    #[test]
    fn duplicate_retry_vectors_are_skipped_not_reinvoked() {
        let onto = mygrid::ontology();
        let mut pool = InstancePool::new("depth1");
        // Exactly one realization for the one partition in play.
        pool.add(AnnotatedInstance::synthetic(
            Value::text("not-a-sequence!"),
            "BiologicalSequence",
        ));
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
        // Restrict to the root partition: the synthetic ontology gives
        // BiologicalSequence four partitions, three of which are unvalued
        // with this pool.
        let report = generate_examples(&m, &onto, &pool, &config).unwrap();
        let valued_combos = 1;
        assert_eq!(
            report.invocations, valued_combos,
            "duplicate retries must not be re-invoked or counted"
        );
        assert_eq!(
            invoked.load(std::sync::atomic::Ordering::Relaxed),
            valued_combos,
            "the module saw exactly one invocation"
        );
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
    fn value_offset_changes_selected_values() {
        let (onto, pool) = fixture();
        let m = seq_kind_module();
        let a = generate_examples(&m, &onto, &pool, &GenerationConfig::default()).unwrap();
        let b = generate_examples(
            &m,
            &onto,
            &pool,
            &GenerationConfig {
                value_offset: 1,
                ..GenerationConfig::default()
            },
        )
        .unwrap();
        assert_eq!(a.examples.len(), b.examples.len());
        assert_ne!(
            a.examples.examples[0].inputs[0].value,
            b.examples.examples[0].inputs[0].value
        );
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
