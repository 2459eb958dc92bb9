//! Comparing module behavior through aligned data examples (paper §6).

use crate::error::GenerationError;
use crate::example::ExampleSet;
use crate::generate::{
    generate_examples, generate_examples_retrying, GenerationConfig, GenerationReport,
};
use dex_modules::{
    BlackBox, InvocationCache, InvocationCacheStats, ModuleDescriptor, ModuleId, Retrier,
    RetryStats,
};
use dex_ontology::Ontology;
use dex_pool::InstancePool;
use dex_values::Value;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// How strictly parameters must correspond for two modules to be compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MappingMode {
    /// The paper's base requirement: a 1-to-1 mapping between parameters
    /// "that have the same semantic domain and structure".
    Strict,
    /// The relaxation behind the paper's Figure 7: a candidate may be usable
    /// even when its parameters are *not* semantically identical — its input
    /// concept must **subsume** the target's (it accepts everything the
    /// target accepted) and its output concept must be subsumption-related
    /// to the target's (the delivered values may simply be annotated more
    /// broadly, as with `GetBiologicalSequence` replacing
    /// `GetProteinSequence`).
    Subsuming,
}

/// A 1-to-1 correspondence between a target module's parameters and a
/// candidate's: `inputs[i]` is the candidate input index receiving the
/// target's input `i`; `outputs[o]` the candidate output compared against
/// the target's output `o`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamMapping {
    pub inputs: Vec<usize>,
    pub outputs: Vec<usize>,
}

/// The §6 classification of a module pair's behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatchVerdict {
    /// All mapped data examples produce the same outputs ("eventually
    /// equivalent" — the heuristic may have missed corner cases).
    Equivalent { compared: usize },
    /// Some but not all mapped examples agree.
    Overlapping { agreeing: usize, compared: usize },
    /// No mapped example agrees.
    Disjoint { compared: usize },
}

impl MatchVerdict {
    /// Whether the verdict suggests the candidate can replace the target in
    /// at least part of the target's domain.
    pub fn is_usable(&self) -> bool {
        matches!(
            self,
            MatchVerdict::Equivalent { .. } | MatchVerdict::Overlapping { .. }
        )
    }
}

impl fmt::Display for MatchVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchVerdict::Equivalent { compared } => {
                write!(f, "equivalent ({compared} examples agree)")
            }
            MatchVerdict::Overlapping { agreeing, compared } => {
                write!(f, "overlapping ({agreeing}/{compared} examples agree)")
            }
            MatchVerdict::Disjoint { compared } => {
                write!(f, "disjoint (0/{compared} examples agree)")
            }
        }
    }
}

/// Finds a 1-to-1 parameter mapping from `target` to `candidate`, greedily
/// in declaration order, or explains why none exists.
pub fn map_parameters(
    target: &ModuleDescriptor,
    candidate: &ModuleDescriptor,
    ontology: &Ontology,
    mode: MappingMode,
) -> Result<ParamMapping, GenerationError> {
    if target.inputs.len() != candidate.inputs.len()
        || target.outputs.len() != candidate.outputs.len()
    {
        return Err(GenerationError::Incomparable(format!(
            "arity mismatch: {}×{} vs {}×{}",
            target.inputs.len(),
            target.outputs.len(),
            candidate.inputs.len(),
            candidate.outputs.len()
        )));
    }

    let input_ok = |t: &dex_modules::Parameter, c: &dex_modules::Parameter| match mode {
        MappingMode::Strict => t.compatible(c),
        MappingMode::Subsuming => {
            // The candidate must structurally accept the target's values and
            // semantically accept at least the target's domain.
            c.structural.accepts(&t.structural)
                && match (ontology.id(&c.semantic), ontology.id(&t.semantic)) {
                    (Some(cs), Some(ts)) => ontology.subsumes(cs, ts),
                    _ => false,
                }
        }
    };
    let output_ok = |t: &dex_modules::Parameter, c: &dex_modules::Parameter| match mode {
        MappingMode::Strict => t.compatible(c),
        MappingMode::Subsuming => {
            t.structural == c.structural
                && match (ontology.id(&c.semantic), ontology.id(&t.semantic)) {
                    (Some(cs), Some(ts)) => ontology.subsumes(cs, ts) || ontology.subsumes(ts, cs),
                    _ => false,
                }
        }
    };

    let inputs = greedy_assign(&target.inputs, &candidate.inputs, input_ok).ok_or_else(|| {
        GenerationError::Incomparable("no 1-to-1 input parameter mapping".to_string())
    })?;
    let outputs =
        greedy_assign(&target.outputs, &candidate.outputs, output_ok).ok_or_else(|| {
            GenerationError::Incomparable("no 1-to-1 output parameter mapping".to_string())
        })?;
    Ok(ParamMapping { inputs, outputs })
}

/// Greedy bipartite assignment with backtracking (parameter lists are tiny,
/// so the worst case is irrelevant in practice).
fn greedy_assign<T>(
    targets: &[T],
    candidates: &[T],
    compatible: impl Fn(&T, &T) -> bool,
) -> Option<Vec<usize>> {
    fn go<T>(
        i: usize,
        targets: &[T],
        candidates: &[T],
        used: &mut Vec<bool>,
        out: &mut Vec<usize>,
        compatible: &impl Fn(&T, &T) -> bool,
    ) -> bool {
        if i == targets.len() {
            return true;
        }
        for (j, cand) in candidates.iter().enumerate() {
            if !used[j] && compatible(&targets[i], cand) {
                used[j] = true;
                out.push(j);
                if go(i + 1, targets, candidates, used, out, compatible) {
                    return true;
                }
                out.pop();
                used[j] = false;
            }
        }
        false
    }
    let mut used = vec![false; candidates.len()];
    let mut out = Vec::with_capacity(targets.len());
    if go(0, targets, candidates, &mut used, &mut out, &compatible) {
        Some(out)
    } else {
        None
    }
}

/// Replays a set of data examples of a target module against a candidate:
/// the candidate is invoked on each example's input values (reordered by the
/// parameter mapping) and its outputs compared with the recorded ones.
///
/// This is exactly how decayed workflows are repaired in §6 — the target is
/// gone, only its (provenance-reconstructed) examples remain.
///
/// Returns an error if no parameter mapping exists or the example set is
/// empty (nothing to compare — no verdict can be honest).
pub fn match_against_examples(
    target: &ModuleDescriptor,
    examples: &ExampleSet,
    candidate: &dyn BlackBox,
    ontology: &Ontology,
    mode: MappingMode,
) -> Result<MatchVerdict, GenerationError> {
    match_with(
        target,
        examples,
        candidate,
        ontology,
        mode,
        None,
        &Retrier::none(),
    )
}

/// [`match_against_examples`] through a shared [`InvocationCache`] and
/// [`Retrier`]. Each distinct candidate input vector is invoked at most once
/// across every replay (and generation) sharing the cache — the replay
/// vectors of an aligned comparison are exactly the vectors generation
/// already fed the candidate. A replay invocation that fails *transiently*
/// is re-attempted under the retrier's policy before it is scored as a
/// behavioral disagreement — a flaky candidate must not look behaviorally
/// different from a healthy one. Permanent errors still count as
/// disagreements immediately; pass [`Retrier::none`] for no retries.
pub fn match_against_examples_retrying(
    target: &ModuleDescriptor,
    examples: &ExampleSet,
    candidate: &dyn BlackBox,
    ontology: &Ontology,
    mode: MappingMode,
    cache: &InvocationCache,
    retrier: &Retrier,
) -> Result<MatchVerdict, GenerationError> {
    match_with(
        target,
        examples,
        candidate,
        ontology,
        mode,
        Some(cache),
        retrier,
    )
}

fn match_with(
    target: &ModuleDescriptor,
    examples: &ExampleSet,
    candidate: &dyn BlackBox,
    ontology: &Ontology,
    mode: MappingMode,
    cache: Option<&InvocationCache>,
    retrier: &Retrier,
) -> Result<MatchVerdict, GenerationError> {
    let mapping = map_parameters(target, candidate.descriptor(), ontology, mode)?;
    if examples.is_empty() {
        return Err(GenerationError::Incomparable(
            "no data examples to compare against".to_string(),
        ));
    }
    let mut compared = 0usize;
    let mut agreeing = 0usize;
    for example in examples.iter() {
        compared += 1;
        // Build the candidate's input vector.
        let mut inputs: Vec<Value> = vec![Value::Null; candidate.descriptor().inputs.len()];
        for (t_idx, &c_idx) in mapping.inputs.iter().enumerate() {
            inputs[c_idx] = example.inputs[t_idx].value.clone();
        }
        let all_equal = |outputs: &[Value]| {
            mapping
                .outputs
                .iter()
                .enumerate()
                .all(|(t_idx, &c_idx)| outputs[c_idx] == example.outputs[t_idx].value)
        };
        // A failed invocation on inputs the target handled is a behavioral
        // disagreement on that example.
        let agreed = matches!(
            retrier.invoke(candidate, &inputs, cache).as_ref(),
            Ok(outputs) if all_equal(outputs)
        );
        if agreed {
            agreeing += 1;
        }
    }
    Ok(if agreeing == compared {
        MatchVerdict::Equivalent { compared }
    } else if agreeing == 0 {
        MatchVerdict::Disjoint { compared }
    } else {
        MatchVerdict::Overlapping { agreeing, compared }
    })
}

/// Compares two live modules by generating *aligned* data examples for the
/// target (same pool, same value offsets — §6 requires "the same values for
/// both i and i′") and replaying them against the candidate.
///
/// For repeated comparisons over the same ontology/pool/config, build one
/// [`MatchSession`] instead: its invocation cache invokes each distinct
/// input vector once per session rather than once per pair.
pub fn compare_modules(
    target: &dyn BlackBox,
    candidate: &dyn BlackBox,
    ontology: &Ontology,
    pool: &InstancePool,
    config: &GenerationConfig,
) -> Result<MatchVerdict, GenerationError> {
    let report = generate_examples(target, ontology, pool, config)?;
    match_against_examples(
        target.descriptor(),
        &report.examples,
        candidate,
        ontology,
        MappingMode::Strict,
    )
}

/// How one pair in an all-pairs matching run concluded: a behavioral verdict,
/// or the reason the pair could not be compared at all (no parameter mapping,
/// target generation failure).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MatchOutcome {
    /// The pair was compared over the target's data examples.
    Verdict(MatchVerdict),
    /// The pair admits no honest verdict; the string is the
    /// [`GenerationError`] rendering.
    Incomparable(String),
}

impl From<Result<MatchVerdict, GenerationError>> for MatchOutcome {
    fn from(result: Result<MatchVerdict, GenerationError>) -> MatchOutcome {
        match result {
            Ok(verdict) => MatchOutcome::Verdict(verdict),
            Err(e) => MatchOutcome::Incomparable(e.to_string()),
        }
    }
}

/// The outcome of one ordered pair: the single rule every all-pairs path
/// (session sweeps, fingerprint-pruned pairs, the incremental engine)
/// reduces a pair to. The target's generation error comes first, then the
/// strict parameter-mapping error, then the aligned replay verdict.
///
/// The mapping is checked before any candidate invocation, so a pair whose
/// [`PartitionFingerprint`]s are incompatible costs no invocation here —
/// which is what lets blocking materialize pruned pairs through this same
/// function. Records no telemetry.
pub fn pair_outcome(
    target: &ModuleDescriptor,
    generation: &Result<GenerationReport, GenerationError>,
    candidate: &dyn BlackBox,
    ontology: &Ontology,
    cache: &InvocationCache,
    retrier: &Retrier,
) -> MatchOutcome {
    match generation {
        Err(e) => MatchOutcome::Incomparable(e.to_string()),
        Ok(report) => match_against_examples_retrying(
            target,
            &report.examples,
            candidate,
            ontology,
            MappingMode::Strict,
            cache,
            retrier,
        )
        .into(),
    }
}

/// One entry of an all-pairs matching run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchReport {
    /// The module whose data examples were replayed.
    pub target: ModuleId,
    /// The module the examples were replayed against.
    pub candidate: ModuleId,
    /// How the comparison concluded.
    pub outcome: MatchOutcome,
    /// Number of data examples the target side contributed (0 when
    /// incomparable before replay).
    pub examples: usize,
}

// ---------------------------------------------------------------------------
// Partition fingerprints: the blocking layer over all-pairs matching.
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a — a tiny, dependency-free, *stable* hash. `DefaultHasher`'s
/// algorithm is explicitly unspecified and may change between std releases;
/// fingerprints are compared across runs (bench trajectories, serialized
/// reports), so they must be bit-identical forever.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fnv1a_u64(state: u64, v: u64) -> u64 {
    fnv1a(state, &v.to_le_bytes())
}

/// A structural summary of a module's interface that *provably* decides
/// strict comparability without invoking anything: two modules admit a
/// 1-to-1 [`MappingMode::Strict`] parameter mapping **iff** their input
/// (resp. output) parameter *multisets* of `(structural, semantic)` labels
/// are equal — strict compatibility is label equality, so a perfect matching
/// in the compatibility bipartite graph exists exactly when every label
/// class has the same cardinality on both sides.
///
/// The fingerprint hashes, per direction, the sorted label multiset, plus
/// the multiset of input *partition sets* (the §3.1 sub-domain partitions of
/// each input's annotation concept) — the partition component is implied by
/// the semantic labels under a fixed ontology, but keeping it explicit makes
/// the fingerprint the unit of bucketing for partition-aligned workloads
/// and catches ontology drift between index build and use.
///
/// Soundness is one-directional by construction: equal multisets always
/// produce equal fingerprints (the encoding is canonical — sorted, length
/// prefixed, separator-delimited), so *unequal* fingerprints prove the
/// multisets differ and therefore that `map_parameters` must fail. A hash
/// collision can only make two differing interfaces look compatible, which
/// costs a wasted full comparison but never a wrong verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PartitionFingerprint {
    /// Number of input parameters.
    pub inputs: usize,
    /// Number of output parameters.
    pub outputs: usize,
    /// FNV-1a over the sorted input `(structural, semantic)` label multiset.
    pub inputs_sig: u64,
    /// FNV-1a over the sorted output `(structural, semantic)` label multiset.
    pub outputs_sig: u64,
    /// FNV-1a over the multiset of per-input partition sets.
    pub partitions_sig: u64,
}

/// Canonical multiset signature of a parameter list: sort the rendered
/// labels, then fold them (length-prefixed) into FNV-1a.
fn param_multiset_sig(params: &[dex_modules::Parameter]) -> u64 {
    let mut labels: Vec<String> = params
        .iter()
        .map(|p| format!("{}\u{1f}{}", p.structural, p.semantic))
        .collect();
    labels.sort_unstable();
    let mut sig = fnv1a_u64(FNV_OFFSET, labels.len() as u64);
    for label in &labels {
        sig = fnv1a_u64(sig, label.len() as u64);
        sig = fnv1a(sig, label.as_bytes());
    }
    sig
}

impl PartitionFingerprint {
    /// Fingerprints a module interface against `ontology`.
    pub fn of(descriptor: &ModuleDescriptor, ontology: &Ontology) -> PartitionFingerprint {
        // Per-input partition-set hashes, combined as a sorted multiset so
        // parameter declaration order is irrelevant (mappings are 1-to-1,
        // not positional).
        let mut partition_sets: Vec<u64> = descriptor
            .inputs
            .iter()
            .map(|p| match ontology.id(&p.semantic) {
                Some(concept) => {
                    let mut h = fnv1a(FNV_OFFSET, b"partitions");
                    for part in ontology.partitions_of(concept) {
                        let name = ontology.concept_name(part);
                        h = fnv1a_u64(h, name.len() as u64);
                        h = fnv1a(h, name.as_bytes());
                    }
                    h
                }
                // Unknown concept: no partitions exist; key by the raw name
                // so two unknown-but-different annotations stay distinct.
                None => fnv1a(fnv1a(FNV_OFFSET, b"unknown"), p.semantic.as_bytes()),
            })
            .collect();
        partition_sets.sort_unstable();
        let partitions_sig = partition_sets
            .iter()
            .fold(FNV_OFFSET, |acc, &h| fnv1a_u64(acc, h));
        PartitionFingerprint {
            inputs: descriptor.inputs.len(),
            outputs: descriptor.outputs.len(),
            inputs_sig: param_multiset_sig(&descriptor.inputs),
            outputs_sig: param_multiset_sig(&descriptor.outputs),
            partitions_sig,
        }
    }

    /// Whether a strict 1-to-1 parameter mapping can exist between two
    /// modules carrying these fingerprints (in either direction — the
    /// relation is reflexive and symmetric). `false` is a *proof* of
    /// incomparability; `true` merely admits the full comparison.
    pub fn compatible(&self, other: &PartitionFingerprint) -> bool {
        self == other
    }

    /// Whether the two interfaces have the same arity. Arity mismatch is
    /// the one incomparability proof that holds for **every**
    /// [`MappingMode`] (the mapping is 1-to-1 in all of them), so this is
    /// the correct prefilter where the subsuming relaxation may apply.
    pub fn arity_compatible(&self, other: &PartitionFingerprint) -> bool {
        self.inputs == other.inputs && self.outputs == other.outputs
    }

    /// A single stable 64-bit digest of the whole fingerprint (for compact
    /// logging and cross-run comparison).
    pub fn stable_hash(&self) -> u64 {
        let mut h = fnv1a_u64(FNV_OFFSET, self.inputs as u64);
        h = fnv1a_u64(h, self.outputs as u64);
        h = fnv1a_u64(h, self.inputs_sig);
        h = fnv1a_u64(h, self.outputs_sig);
        fnv1a_u64(h, self.partitions_sig)
    }
}

/// Aggregate accounting of one blocked all-pairs run, serialized into
/// `BENCH_blocking.json` and telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockingStats {
    /// Ordered module pairs in the sweep (`n·(n−1)`).
    pub pairs_total: usize,
    /// Pairs whose fingerprints were compatible — the full aligned-example
    /// comparison ran on exactly these.
    pub pairs_compared: usize,
    /// Pairs proven incomparable by fingerprints alone (no invocation).
    pub pairs_pruned: usize,
    /// Pairs skipped because a module was unavailable (withdrawn ids).
    pub pairs_unavailable: usize,
    /// Distinct fingerprint buckets among the available modules.
    pub buckets: usize,
    /// Largest bucket's module count (the worst-case comparison hotspot).
    pub largest_bucket: usize,
}

impl BlockingStats {
    /// Fraction of pairs pruned without comparison, in `[0, 1]`.
    pub fn prune_ratio(&self) -> f64 {
        if self.pairs_total == 0 {
            0.0
        } else {
            (self.pairs_total - self.pairs_compared) as f64 / self.pairs_total as f64
        }
    }
}

/// Fingerprint buckets over a module list: index `i` of the constructed
/// slice corresponds to the `i`-th descriptor handed to [`build`].
///
/// The index is *incrementally maintainable*: [`insert`] and [`remove`]
/// update a single slot without re-fingerprinting the rest of the
/// population, and the resulting bucket map is identical to a fresh
/// [`build`] over the equivalent descriptor list (property-tested in
/// `tests/matching_properties.rs`). The canonical bucket order is
/// ascending-by-smallest-member-index, which coincides with `build`'s
/// first-seen order because a bucket's first-seen member *is* its smallest
/// index during the ascending build scan.
///
/// [`build`]: FingerprintIndex::build
/// [`insert`]: FingerprintIndex::insert
/// [`remove`]: FingerprintIndex::remove
#[derive(Debug, Clone)]
pub struct FingerprintIndex {
    /// One fingerprint per module, `None` where no descriptor was available.
    fingerprints: Vec<Option<PartitionFingerprint>>,
    /// Bucket membership per fingerprint, each member list kept sorted
    /// ascending (the canonical form shared by built and mutated indexes).
    members: HashMap<PartitionFingerprint, Vec<usize>>,
}

impl FingerprintIndex {
    /// Builds the index from per-module descriptors (a `None` descriptor —
    /// e.g. a withdrawn module — lands in no bucket and compares with
    /// nothing).
    pub fn build<'d>(
        descriptors: impl IntoIterator<Item = Option<&'d ModuleDescriptor>>,
        ontology: &Ontology,
    ) -> FingerprintIndex {
        let fingerprints: Vec<Option<PartitionFingerprint>> = descriptors
            .into_iter()
            .map(|d| d.map(|d| PartitionFingerprint::of(d, ontology)))
            .collect();
        let mut members: HashMap<PartitionFingerprint, Vec<usize>> = HashMap::new();
        for (idx, fp) in fingerprints.iter().enumerate() {
            let Some(fp) = fp else { continue };
            // Ascending scan: pushes keep every member list sorted.
            members.entry(*fp).or_default().push(idx);
        }
        FingerprintIndex {
            fingerprints,
            members,
        }
    }

    /// Number of module slots the index spans (bucketed or not).
    pub fn len(&self) -> usize {
        self.fingerprints.len()
    }

    /// Whether the index spans no module slots.
    pub fn is_empty(&self) -> bool {
        self.fingerprints.is_empty()
    }

    /// The fingerprint of module `idx`, if it had a descriptor.
    pub fn fingerprint(&self, idx: usize) -> Option<&PartitionFingerprint> {
        self.fingerprints.get(idx).and_then(|fp| fp.as_ref())
    }

    /// Sets slot `idx` to `descriptor`'s fingerprint, moving it between
    /// buckets as needed (growing the index when `idx` is past the end).
    /// This is the single-slot analogue of rebuilding with the descriptor
    /// list changed at `idx` — a provider re-registering a module, or an
    /// ontology edit changing one module's partition sets.
    pub fn insert(&mut self, idx: usize, descriptor: &ModuleDescriptor, ontology: &Ontology) {
        self.set(idx, Some(PartitionFingerprint::of(descriptor, ontology)));
    }

    /// Clears slot `idx` (a withdrawn module): it leaves its bucket and
    /// compares with nothing until re-inserted. No-op past the end.
    pub fn remove(&mut self, idx: usize) {
        if idx < self.fingerprints.len() {
            self.set(idx, None);
        }
    }

    fn set(&mut self, idx: usize, fp: Option<PartitionFingerprint>) {
        if idx >= self.fingerprints.len() {
            self.fingerprints.resize(idx + 1, None);
        }
        let old = self.fingerprints[idx];
        if old == fp {
            return;
        }
        if let Some(old) = old {
            if let Some(bucket) = self.members.get_mut(&old) {
                if let Ok(pos) = bucket.binary_search(&idx) {
                    bucket.remove(pos);
                }
                if bucket.is_empty() {
                    self.members.remove(&old);
                }
            }
        }
        if let Some(new) = fp {
            let bucket = self.members.entry(new).or_default();
            if let Err(pos) = bucket.binary_search(&idx) {
                bucket.insert(pos, idx);
            }
        }
        self.fingerprints[idx] = fp;
    }

    /// The member lists in canonical order: ascending by smallest member
    /// index (== first-seen order for a freshly built index).
    fn ordered_buckets(&self) -> Vec<&[usize]> {
        let mut buckets: Vec<&[usize]> = self.members.values().map(Vec::as_slice).collect();
        buckets.sort_unstable_by_key(|b| b[0]);
        buckets
    }

    /// The fingerprint buckets, each a set of mutually comparable module
    /// indices, in canonical (first-seen) order.
    pub fn buckets(&self) -> impl Iterator<Item = &[usize]> {
        self.ordered_buckets().into_iter()
    }

    /// The bucket containing `idx` — every module it is mutually comparable
    /// with (including `idx` itself). Empty when the slot is vacant.
    pub fn peers(&self, idx: usize) -> &[usize] {
        self.fingerprint(idx)
            .and_then(|fp| self.members.get(fp))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of distinct fingerprints observed.
    pub fn bucket_count(&self) -> usize {
        self.members.len()
    }

    /// Size of the largest bucket (`0` for an empty index).
    pub fn largest_bucket(&self) -> usize {
        self.members.values().map(Vec::len).max().unwrap_or(0)
    }

    /// Every ordered pair `(t, c)`, `t ≠ c`, whose fingerprints are
    /// compatible — exactly the pairs the full comparison must run on, in
    /// deterministic bucket-major order.
    pub fn comparable_pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for bucket in self.ordered_buckets() {
            for &t in bucket {
                for &c in bucket {
                    if t != c {
                        pairs.push((t, c));
                    }
                }
            }
        }
        pairs
    }

    /// [`comparable_pairs`](FingerprintIndex::comparable_pairs) interleaved
    /// round-robin across buckets: consecutive pairs come from *different*
    /// buckets wherever possible, so a fixed-size chunk of the worklist
    /// spans many buckets instead of sitting inside one giant one. The pair
    /// *set* is identical to `comparable_pairs` — only the order differs —
    /// and the order is deterministic.
    ///
    /// This is the worklist order the batched executor wants: with
    /// bucket-major order, one oversized bucket (the 25k sweep has a
    /// 391-module bucket, ~152k consecutive pairs) occupies a long run of
    /// consecutive chunks whose claims all replay the same few targets'
    /// reports, while interleaving spreads every bucket's pairs evenly
    /// across the sweep.
    pub fn comparable_pairs_interleaved(&self) -> Vec<(usize, usize)> {
        let buckets = self.ordered_buckets();
        let mut per_bucket: Vec<std::iter::Peekable<PairIter>> = buckets
            .iter()
            .map(|b| PairIter::new(b).peekable())
            .collect();
        let total: usize = buckets
            .iter()
            .map(|b| b.len() * b.len().saturating_sub(1))
            .sum();
        let mut pairs = Vec::with_capacity(total);
        while pairs.len() < total {
            for it in &mut per_bucket {
                if let Some(pair) = it.next() {
                    pairs.push(pair);
                }
            }
        }
        pairs
    }

    /// Whether the ordered pair `(t, c)` survives blocking (both modules
    /// present and fingerprint-compatible).
    pub fn is_comparable(&self, t: usize, c: usize) -> bool {
        match (self.fingerprint(t), self.fingerprint(c)) {
            (Some(a), Some(b)) => a.compatible(b),
            _ => false,
        }
    }
}

/// Ordered `(t, c)` pairs of one bucket, `t ≠ c`, in the same nested order
/// `comparable_pairs` emits them.
struct PairIter<'b> {
    bucket: &'b [usize],
    t: usize,
    c: usize,
}

impl<'b> PairIter<'b> {
    fn new(bucket: &'b [usize]) -> PairIter<'b> {
        PairIter { bucket, t: 0, c: 0 }
    }
}

impl Iterator for PairIter<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        while self.t < self.bucket.len() {
            if self.c >= self.bucket.len() {
                self.t += 1;
                self.c = 0;
                continue;
            }
            let (t, c) = (self.bucket[self.t], self.bucket[self.c]);
            self.c += 1;
            if t != c {
                return Some((t, c));
            }
        }
        None
    }
}

/// One target's generation result behind an `Arc`. An all-pairs sweep
/// resolves each target's report once and hands it to
/// [`MatchSession::compare_report`] for every candidate, across threads.
pub type CachedGeneration = Arc<Result<GenerationReport, GenerationError>>;

/// Matching telemetry counters, interned once per process.
struct MatchCounters {
    pairs: dex_telemetry::Counter,
    equivalent: dex_telemetry::Counter,
    overlapping: dex_telemetry::Counter,
    disjoint: dex_telemetry::Counter,
    incomparable: dex_telemetry::Counter,
}

fn match_counters() -> &'static MatchCounters {
    static COUNTERS: std::sync::OnceLock<MatchCounters> = std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| MatchCounters {
        pairs: dex_telemetry::counter("dex.match.pairs"),
        equivalent: dex_telemetry::counter("dex.match.verdict.equivalent"),
        overlapping: dex_telemetry::counter("dex.match.verdict.overlapping"),
        disjoint: dex_telemetry::counter("dex.match.verdict.disjoint"),
        incomparable: dex_telemetry::counter("dex.match.verdict.incomparable"),
    })
}

/// A matching context over fixed ontology, pool, and generation config.
///
/// Its one memo is a shared [`InvocationCache`]: every generation and
/// every candidate replay the session performs routes through it, so a
/// distinct `(module, input vector)` is invoked at most once per session —
/// aligned generation at offsets `0..k` shares the vectors the offsets have
/// in common, regenerating a report re-reads its outcomes instead of
/// invoking, and replaying a candidate against an aligned target hits the
/// vectors its own generation already produced. Reports themselves are not
/// memoized: an all-pairs sweep resolves each target's report once and
/// hands it to [`compare_report`](MatchSession::compare_report) for every
/// candidate. The session is internally synchronized, so it can be shared
/// by reference across the threads of a parallel sweep.
pub struct MatchSession<'a> {
    ontology: &'a Ontology,
    pool: &'a InstancePool,
    config: GenerationConfig,
    invocations: InvocationCache,
    retrier: Retrier,
}

impl<'a> MatchSession<'a> {
    /// Creates a session over fixed ontology, pool, and generation config.
    /// The session owns one [`Retrier`] built from the config's
    /// [`retry`](GenerationConfig::retry) policy, shared by every generation
    /// and replay it performs — so the retry budget is session-wide.
    pub fn new(ontology: &'a Ontology, pool: &'a InstancePool, config: GenerationConfig) -> Self {
        let retrier = Retrier::new(config.retry);
        MatchSession {
            ontology,
            pool,
            config,
            invocations: InvocationCache::new(),
            retrier,
        }
    }

    /// The generation config this session aligns examples with.
    pub fn config(&self) -> &GenerationConfig {
        &self.config
    }

    /// The session-wide invocation memo. Exposed so callers that mix session
    /// comparisons with their own invocations (repair verification, ad-hoc
    /// replays) can share the same memo.
    pub fn invocation_cache(&self) -> &InvocationCache {
        &self.invocations
    }

    /// Snapshot of the underlying invocation cache: how many module
    /// invocations the session actually performed vs. answered from memory.
    pub fn invocation_stats(&self) -> InvocationCacheStats {
        self.invocations.stats()
    }

    /// Snapshot of the session's transient-retry accounting (zero everywhere
    /// unless the config enabled a retry policy and transients occurred).
    pub fn retry_stats(&self) -> RetryStats {
        self.retrier.stats()
    }

    /// `module`'s generation result at the session's base value offset.
    pub fn report_for(&self, module: &dyn BlackBox) -> CachedGeneration {
        self.report_at(module, self.config.value_offset)
    }

    /// `module`'s generation result at an explicit value offset (ablations
    /// vary the offset to probe value sensitivity). Every call generates,
    /// through the session's invocation cache and retrier, so a repeat
    /// re-invokes no vector whose outcome the cache holds.
    pub fn report_at(&self, module: &dyn BlackBox, value_offset: usize) -> CachedGeneration {
        let config = GenerationConfig {
            value_offset,
            ..self.config.clone()
        };
        Arc::new(generate_examples_retrying(
            module,
            self.ontology,
            self.pool,
            &config,
            &self.invocations,
            &self.retrier,
        ))
    }

    /// Compares `candidate` against `target`'s generation `report` (from
    /// [`report_for`](MatchSession::report_for) or
    /// [`report_at`](MatchSession::report_at)) by [`pair_outcome`], always
    /// yielding a [`MatchReport`] — incomparability becomes data instead of
    /// an error, which is what an all-pairs sweep wants.
    ///
    /// Taking the report rather than generating it keeps the per-pair cost
    /// at the candidate replay itself, which is what lets an all-pairs
    /// executor resolve each target's report once and fan candidates out
    /// across threads. Counts the pair and its verdict in the `dex.match.*`
    /// telemetry.
    pub fn compare_report(
        &self,
        target: &dyn BlackBox,
        report: &CachedGeneration,
        candidate: &dyn BlackBox,
    ) -> MatchReport {
        let _timer = {
            static PAIR_NS: std::sync::OnceLock<dex_telemetry::Histo> = std::sync::OnceLock::new();
            PAIR_NS
                .get_or_init(|| dex_telemetry::histogram("dex.match.pair_ns"))
                .start()
        };
        let outcome = pair_outcome(
            target.descriptor(),
            report,
            candidate,
            self.ontology,
            &self.invocations,
            &self.retrier,
        );
        let examples = match report.as_ref() {
            Ok(report) => report.examples.len(),
            Err(_) => 0,
        };
        if dex_telemetry::is_enabled() {
            let counters = match_counters();
            counters.pairs.add(1);
            let verdict = match &outcome {
                MatchOutcome::Verdict(MatchVerdict::Equivalent { .. }) => &counters.equivalent,
                MatchOutcome::Verdict(MatchVerdict::Overlapping { .. }) => &counters.overlapping,
                MatchOutcome::Verdict(MatchVerdict::Disjoint { .. }) => &counters.disjoint,
                MatchOutcome::Incomparable(_) => &counters.incomparable,
            };
            verdict.add(1);
        }
        MatchReport {
            target: target.descriptor().id.clone(),
            candidate: candidate.descriptor().id.clone(),
            outcome,
            examples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_modules::{FnModule, InvocationError, ModuleKind, Parameter};
    use dex_ontology::mygrid;
    use dex_pool::build_synthetic_pool;
    use dex_values::formats::sequence::{classify, SequenceKind};
    use dex_values::StructuralType;

    fn seq_echo(id: &str, semantic_in: &str, semantic_out: &str, upper_dna: bool) -> FnModule {
        FnModule::new(
            ModuleDescriptor::new(
                id,
                id,
                ModuleKind::SoapService,
                vec![Parameter::required(
                    "seq",
                    StructuralType::Text,
                    semantic_in,
                )],
                vec![Parameter::required(
                    "out",
                    StructuralType::Text,
                    semantic_out,
                )],
            ),
            move |inputs| {
                let s = inputs[0].as_text().unwrap();
                if classify(s).is_none() {
                    return Err(InvocationError::rejected("not a sequence"));
                }
                // Optionally behave differently on DNA to create overlap.
                if upper_dna && classify(s) == Some(SequenceKind::Dna) {
                    Ok(vec![Value::text(format!("DNA:{s}"))])
                } else {
                    Ok(vec![Value::text(s.to_string())])
                }
            },
        )
    }

    fn fixture() -> (Ontology, InstancePool) {
        let onto = mygrid::ontology();
        (onto.clone(), build_synthetic_pool(&onto, 4, 3))
    }

    #[test]
    fn identical_modules_are_equivalent() {
        let (onto, pool) = fixture();
        let a = seq_echo("a", "BiologicalSequence", "BiologicalSequence", false);
        let b = seq_echo("b", "BiologicalSequence", "BiologicalSequence", false);
        let v = compare_modules(&a, &b, &onto, &pool, &GenerationConfig::default()).unwrap();
        assert_eq!(v, MatchVerdict::Equivalent { compared: 4 });
        assert!(v.is_usable());
    }

    #[test]
    fn partially_differing_modules_overlap() {
        let (onto, pool) = fixture();
        let a = seq_echo("a", "BiologicalSequence", "BiologicalSequence", false);
        let b = seq_echo("b", "BiologicalSequence", "BiologicalSequence", true);
        let v = compare_modules(&a, &b, &onto, &pool, &GenerationConfig::default()).unwrap();
        assert_eq!(
            v,
            MatchVerdict::Overlapping {
                agreeing: 3,
                compared: 4
            }
        );
    }

    #[test]
    fn totally_different_modules_are_disjoint() {
        let (onto, pool) = fixture();
        let a = seq_echo("a", "ProteinSequence", "ProteinSequence", false);
        let b = FnModule::new(
            ModuleDescriptor::new(
                "b",
                "Constant",
                ModuleKind::RestService,
                vec![Parameter::required(
                    "seq",
                    StructuralType::Text,
                    "ProteinSequence",
                )],
                vec![Parameter::required(
                    "out",
                    StructuralType::Text,
                    "ProteinSequence",
                )],
            ),
            |_| Ok(vec![Value::text("MKVLHHH")]),
        );
        let v = compare_modules(&a, &b, &onto, &pool, &GenerationConfig::default()).unwrap();
        assert!(matches!(v, MatchVerdict::Disjoint { compared: 1 }));
        assert!(!v.is_usable());
    }

    #[test]
    fn strict_mapping_requires_same_concepts() {
        let (onto, _) = fixture();
        let a = seq_echo("a", "ProteinSequence", "ProteinSequence", false);
        let b = seq_echo("b", "BiologicalSequence", "BiologicalSequence", false);
        assert!(
            map_parameters(a.descriptor(), b.descriptor(), &onto, MappingMode::Strict).is_err()
        );
    }

    /// The Figure 7 scenario: GetBiologicalSequence substitutes
    /// GetProteinSequence under the subsuming mode.
    #[test]
    fn subsuming_mapping_accepts_figure7_shape() {
        let (onto, _) = fixture();
        let target = seq_echo("t", "ProteinSequence", "ProteinSequence", false);
        let candidate = seq_echo("c", "BiologicalSequence", "BiologicalSequence", false);
        let mapping = map_parameters(
            target.descriptor(),
            candidate.descriptor(),
            &onto,
            MappingMode::Subsuming,
        )
        .unwrap();
        assert_eq!(mapping.inputs, vec![0]);
        // The reverse direction must fail: a protein-only candidate does not
        // accept the full biological-sequence domain.
        assert!(map_parameters(
            candidate.descriptor(),
            target.descriptor(),
            &onto,
            MappingMode::Subsuming
        )
        .is_err());
    }

    #[test]
    fn subsuming_replay_detects_equivalence_on_subdomain() {
        let (onto, pool) = fixture();
        let target = seq_echo("t", "ProteinSequence", "ProteinSequence", false);
        let candidate = seq_echo("c", "BiologicalSequence", "BiologicalSequence", false);
        let report =
            generate_examples(&target, &onto, &pool, &GenerationConfig::default()).unwrap();
        let v = match_against_examples(
            target.descriptor(),
            &report.examples,
            &candidate,
            &onto,
            MappingMode::Subsuming,
        )
        .unwrap();
        assert_eq!(v, MatchVerdict::Equivalent { compared: 1 });
    }

    #[test]
    fn arity_mismatch_is_incomparable() {
        let (onto, _) = fixture();
        let a = seq_echo("a", "ProteinSequence", "ProteinSequence", false);
        let b = FnModule::new(
            ModuleDescriptor::new(
                "b",
                "TwoIn",
                ModuleKind::RestService,
                vec![
                    Parameter::required("x", StructuralType::Text, "ProteinSequence"),
                    Parameter::required("y", StructuralType::Text, "ProteinSequence"),
                ],
                vec![Parameter::required(
                    "out",
                    StructuralType::Text,
                    "ProteinSequence",
                )],
            ),
            |i| Ok(vec![i[0].clone()]),
        );
        assert!(matches!(
            map_parameters(a.descriptor(), b.descriptor(), &onto, MappingMode::Strict),
            Err(GenerationError::Incomparable(_))
        ));
    }

    #[test]
    fn empty_example_set_cannot_conclude() {
        let (onto, _) = fixture();
        let a = seq_echo("a", "ProteinSequence", "ProteinSequence", false);
        let b = seq_echo("b", "ProteinSequence", "ProteinSequence", false);
        let empty = ExampleSet::new(dex_modules::ModuleId::from("a"));
        assert!(
            match_against_examples(a.descriptor(), &empty, &b, &onto, MappingMode::Strict).is_err()
        );
    }

    /// A seq_echo clone whose invocations are counted, to observe caching.
    fn counted_echo(
        id: &str,
        semantic: &str,
    ) -> (FnModule, std::sync::Arc<std::sync::atomic::AtomicUsize>) {
        let count = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let seen = std::sync::Arc::clone(&count);
        let module = FnModule::new(
            ModuleDescriptor::new(
                id,
                id,
                ModuleKind::SoapService,
                vec![Parameter::required("seq", StructuralType::Text, semantic)],
                vec![Parameter::required("out", StructuralType::Text, semantic)],
            ),
            move |inputs| {
                seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let s = inputs[0].as_text().unwrap();
                if classify(s).is_none() {
                    return Err(InvocationError::rejected("not a sequence"));
                }
                Ok(vec![Value::text(s.to_string())])
            },
        );
        (module, count)
    }

    /// One session comparison with the target's report resolved through
    /// the session.
    fn session_outcome(s: &MatchSession, t: &dyn BlackBox, c: &dyn BlackBox) -> MatchOutcome {
        s.compare_report(t, &s.report_for(t), c).outcome
    }

    /// [`session_outcome`] for a pair that must be comparable.
    fn session_verdict(s: &MatchSession, t: &dyn BlackBox, c: &dyn BlackBox) -> MatchVerdict {
        match session_outcome(s, t, c) {
            MatchOutcome::Verdict(v) => v,
            MatchOutcome::Incomparable(e) => panic!("incomparable: {e}"),
        }
    }

    #[test]
    fn repeated_target_generation_invokes_each_vector_once() {
        let (onto, pool) = fixture();
        let (target, invocations) = counted_echo("t", "BiologicalSequence");
        let candidates: Vec<FnModule> = (0..4)
            .map(|i| {
                seq_echo(
                    &format!("c{i}"),
                    "BiologicalSequence",
                    "BiologicalSequence",
                    i % 2 == 0,
                )
            })
            .collect();
        let session = MatchSession::new(&onto, &pool, GenerationConfig::default());
        for c in &candidates {
            session_verdict(&session, &target, c);
        }
        // Four generations for four comparisons, but the 4 partition vectors
        // are each invoked once: the repeats read the invocation cache.
        assert_eq!(invocations.load(std::sync::atomic::Ordering::Relaxed), 4);
    }

    /// Replaying a candidate against an aligned target hits the invocation
    /// cache: generation already fed the candidate the exact same vectors.
    #[test]
    fn session_shares_invocations_between_generation_and_replay() {
        let (onto, pool) = fixture();
        let (target, target_count) = counted_echo("t", "BiologicalSequence");
        let (candidate, candidate_count) = counted_echo("c", "BiologicalSequence");
        let session = MatchSession::new(&onto, &pool, GenerationConfig::default());

        // Generate both sides (as an all-pairs sweep would), then replay.
        session.report_for(&target);
        session.report_for(&candidate);
        let gen_t = target_count.load(std::sync::atomic::Ordering::Relaxed);
        let gen_c = candidate_count.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!((gen_t, gen_c), (4, 4));

        let v = session_verdict(&session, &target, &candidate);
        assert_eq!(v, MatchVerdict::Equivalent { compared: 4 });
        // The replay performed zero fresh invocations: all four vectors were
        // already in the session's invocation cache.
        assert_eq!(
            candidate_count.load(std::sync::atomic::Ordering::Relaxed),
            gen_c
        );
        let stats = session.invocation_stats();
        assert_eq!(stats.misses, 8, "two generations of four vectors");
        assert!(stats.hits >= 4, "replay answered from the memo");
        // Repeating the comparison costs nothing at all.
        assert_eq!(session_verdict(&session, &target, &candidate), v);
        assert_eq!(
            candidate_count.load(std::sync::atomic::Ordering::Relaxed),
            gen_c
        );
        assert_eq!(
            target_count.load(std::sync::atomic::Ordering::Relaxed),
            gen_t
        );
    }

    #[test]
    fn session_compare_agrees_with_compare_modules() {
        let (onto, pool) = fixture();
        let config = GenerationConfig::default();
        let session = MatchSession::new(&onto, &pool, config.clone());
        let modules = [
            seq_echo("a", "BiologicalSequence", "BiologicalSequence", false),
            seq_echo("b", "BiologicalSequence", "BiologicalSequence", true),
            seq_echo("c", "ProteinSequence", "ProteinSequence", false),
        ];
        for t in &modules {
            for c in &modules {
                let direct = compare_modules(t, c, &onto, &pool, &config);
                let cached = session_outcome(&session, t, c);
                assert_eq!(
                    MatchOutcome::from(direct),
                    cached,
                    "{:?} vs {:?}",
                    t.descriptor().id,
                    c.descriptor().id
                );
            }
        }
    }

    #[test]
    fn compare_report_surfaces_incomparability_as_data() {
        let (onto, pool) = fixture();
        let session = MatchSession::new(&onto, &pool, GenerationConfig::default());
        let a = seq_echo("a", "BiologicalSequence", "BiologicalSequence", false);
        let b = seq_echo("b", "ProteinSequence", "ProteinSequence", false);
        let a_report = session.report_for(&a);
        let report = session.compare_report(&a, &a_report, &b);
        assert_eq!(report.target, dex_modules::ModuleId::from("a"));
        assert_eq!(report.candidate, dex_modules::ModuleId::from("b"));
        assert!(matches!(report.outcome, MatchOutcome::Incomparable(_)));
        assert_eq!(report.examples, 4);
        let same = session.compare_report(&a, &a_report, &a);
        assert!(matches!(
            same.outcome,
            MatchOutcome::Verdict(MatchVerdict::Equivalent { compared: 4 })
        ));
    }

    fn descriptor_with(
        id: &str,
        inputs: Vec<(&str, StructuralType, &str)>,
        outputs: Vec<(&str, StructuralType, &str)>,
    ) -> ModuleDescriptor {
        ModuleDescriptor::new(
            id,
            id,
            ModuleKind::SoapService,
            inputs
                .into_iter()
                .map(|(n, s, c)| Parameter::required(n, s, c))
                .collect(),
            outputs
                .into_iter()
                .map(|(n, s, c)| Parameter::required(n, s, c))
                .collect(),
        )
    }

    #[test]
    fn fingerprint_compatibility_is_reflexive_and_symmetric() {
        let onto = mygrid::ontology();
        let descriptors = [
            descriptor_with(
                "a",
                vec![("s", StructuralType::Text, "ProteinSequence")],
                vec![("o", StructuralType::Text, "ProteinSequence")],
            ),
            descriptor_with(
                "b",
                vec![
                    ("x", StructuralType::Text, "DNASequence"),
                    ("y", StructuralType::Integer, "ScoreThreshold"),
                ],
                vec![("o", StructuralType::Text, "BlastReport")],
            ),
            descriptor_with(
                "c",
                vec![("acc", StructuralType::Text, "UniprotAccession")],
                vec![("rec", StructuralType::Text, "UniprotRecord")],
            ),
        ];
        let fps: Vec<_> = descriptors
            .iter()
            .map(|d| PartitionFingerprint::of(d, &onto))
            .collect();
        for (i, a) in fps.iter().enumerate() {
            assert!(a.compatible(a), "reflexive");
            assert!(a.arity_compatible(a));
            for b in &fps {
                assert_eq!(a.compatible(b), b.compatible(a), "symmetric");
                assert_eq!(a.arity_compatible(b), b.arity_compatible(a));
            }
            for (j, b) in fps.iter().enumerate() {
                if i != j {
                    assert!(!a.compatible(b), "distinct interfaces stay apart");
                }
            }
        }
    }

    /// The fingerprint digest is pinned to an exact value: the hash is
    /// hand-rolled FNV-1a precisely so it can never drift with a std
    /// `DefaultHasher` change, and this test is the tripwire. Computing the
    /// same descriptor twice (fresh allocations, fresh ontology) must land
    /// on the same bits every run, on every platform.
    #[test]
    fn fingerprint_hash_is_stable_across_constructions() {
        let d = || {
            descriptor_with(
                "m",
                vec![("seq", StructuralType::Text, "ProteinSequence")],
                vec![("out", StructuralType::Text, "ProteinSequence")],
            )
        };
        let a = PartitionFingerprint::of(&d(), &mygrid::ontology());
        let b = PartitionFingerprint::of(&d(), &mygrid::ontology());
        assert_eq!(a, b);
        assert_eq!(a.stable_hash(), b.stable_hash());
        // Pinned digest: fails loudly if the encoding ever changes. Update
        // deliberately (it invalidates cross-run fingerprint comparisons).
        assert_eq!(
            a.stable_hash(),
            0xe3dc_f42d_716e_5c91,
            "{:#x}",
            a.stable_hash()
        );
        // Parameter *names* must not affect the fingerprint (mappings are
        // name-blind), but order-insensitivity must hold too.
        let renamed = descriptor_with(
            "other",
            vec![("sequence_in", StructuralType::Text, "ProteinSequence")],
            vec![("result", StructuralType::Text, "ProteinSequence")],
        );
        assert_eq!(PartitionFingerprint::of(&renamed, &mygrid::ontology()), a);
    }

    #[test]
    fn fingerprint_ignores_parameter_declaration_order() {
        let onto = mygrid::ontology();
        let ab = descriptor_with(
            "ab",
            vec![
                ("a", StructuralType::Text, "DNASequence"),
                ("b", StructuralType::Integer, "ScoreThreshold"),
            ],
            vec![("o", StructuralType::Text, "BlastReport")],
        );
        let ba = descriptor_with(
            "ba",
            vec![
                ("b", StructuralType::Integer, "ScoreThreshold"),
                ("a", StructuralType::Text, "DNASequence"),
            ],
            vec![("o", StructuralType::Text, "BlastReport")],
        );
        let fa = PartitionFingerprint::of(&ab, &onto);
        let fb = PartitionFingerprint::of(&ba, &onto);
        assert!(fa.compatible(&fb), "permuted parameters still map 1-to-1");
        assert!(
            map_parameters(&ab, &ba, &onto, MappingMode::Strict).is_ok(),
            "and the mapping indeed exists"
        );
    }

    /// Adversarial pairs: wherever fingerprints rule a pair *out*, the
    /// strict mapping must actually be impossible — a pruned pair may never
    /// be one the matcher could have compared. (The converse is allowed:
    /// a compatible fingerprint is only an admission ticket.)
    #[test]
    fn incompatible_fingerprints_imply_no_strict_mapping() {
        let onto = mygrid::ontology();
        let adversarial = [
            // Same arity, same structurals, one semantic differs.
            descriptor_with(
                "p1",
                vec![("s", StructuralType::Text, "ProteinSequence")],
                vec![("o", StructuralType::Text, "ProteinSequence")],
            ),
            descriptor_with(
                "p2",
                vec![("s", StructuralType::Text, "DNASequence")],
                vec![("o", StructuralType::Text, "ProteinSequence")],
            ),
            // Duplicate-concept counts differ: {A,A,B} vs {A,B,B}.
            descriptor_with(
                "p3",
                vec![
                    ("x", StructuralType::Text, "DNASequence"),
                    ("y", StructuralType::Text, "DNASequence"),
                    ("z", StructuralType::Text, "ProteinSequence"),
                ],
                vec![("o", StructuralType::Text, "BlastReport")],
            ),
            descriptor_with(
                "p4",
                vec![
                    ("x", StructuralType::Text, "DNASequence"),
                    ("y", StructuralType::Text, "ProteinSequence"),
                    ("z", StructuralType::Text, "ProteinSequence"),
                ],
                vec![("o", StructuralType::Text, "BlastReport")],
            ),
            // Same semantics, structural type differs.
            descriptor_with(
                "p5",
                vec![("s", StructuralType::Integer, "ScoreThreshold")],
                vec![("o", StructuralType::Text, "BlastReport")],
            ),
            descriptor_with(
                "p6",
                vec![("s", StructuralType::Float, "ScoreThreshold")],
                vec![("o", StructuralType::Text, "BlastReport")],
            ),
            // Outputs differ, inputs identical.
            descriptor_with(
                "p7",
                vec![("s", StructuralType::Text, "ProteinSequence")],
                vec![("o", StructuralType::Text, "FastaRecord")],
            ),
            // Arity differs.
            descriptor_with(
                "p8",
                vec![
                    ("s", StructuralType::Text, "ProteinSequence"),
                    ("t", StructuralType::Text, "ProteinSequence"),
                ],
                vec![("o", StructuralType::Text, "FastaRecord")],
            ),
            // Concept unknown to the ontology.
            descriptor_with(
                "p9",
                vec![("s", StructuralType::Text, "NotAConcept")],
                vec![("o", StructuralType::Text, "ProteinSequence")],
            ),
        ];
        for t in &adversarial {
            for c in &adversarial {
                let ft = PartitionFingerprint::of(t, &onto);
                let fc = PartitionFingerprint::of(c, &onto);
                if !ft.compatible(&fc) {
                    assert!(
                        map_parameters(t, c, &onto, MappingMode::Strict).is_err(),
                        "{} vs {}: pruned but strict-mappable",
                        t.id,
                        c.id
                    );
                }
                if !ft.arity_compatible(&fc) {
                    for mode in [MappingMode::Strict, MappingMode::Subsuming] {
                        assert!(
                            map_parameters(t, c, &onto, mode).is_err(),
                            "{} vs {}: arity-pruned but mappable under {mode:?}",
                            t.id,
                            c.id
                        );
                    }
                }
                // And the mirror obligation: whenever a mapping exists, the
                // fingerprints must admit it.
                if map_parameters(t, c, &onto, MappingMode::Strict).is_ok() {
                    assert!(
                        ft.compatible(&fc),
                        "{} vs {}: mappable but pruned",
                        t.id,
                        c.id
                    );
                }
            }
        }
    }

    #[test]
    fn fingerprint_index_buckets_deterministically() {
        let onto = mygrid::ontology();
        let descriptors = [
            descriptor_with(
                "a",
                vec![("s", StructuralType::Text, "ProteinSequence")],
                vec![("o", StructuralType::Text, "ProteinSequence")],
            ),
            descriptor_with(
                "b",
                vec![("s", StructuralType::Text, "DNASequence")],
                vec![("o", StructuralType::Text, "DNASequence")],
            ),
            descriptor_with(
                "c",
                vec![("in", StructuralType::Text, "ProteinSequence")],
                vec![("out", StructuralType::Text, "ProteinSequence")],
            ),
        ];
        let index = FingerprintIndex::build(
            [
                Some(&descriptors[0]),
                Some(&descriptors[1]),
                None,
                Some(&descriptors[2]),
            ],
            &onto,
        );
        assert_eq!(index.bucket_count(), 2);
        assert_eq!(index.largest_bucket(), 2);
        assert!(index.fingerprint(2).is_none(), "withdrawn slot");
        let buckets: Vec<&[usize]> = index.buckets().collect();
        assert_eq!(buckets, vec![&[0usize, 3][..], &[1usize][..]]);
        assert_eq!(index.comparable_pairs(), vec![(0, 3), (3, 0)]);
        assert!(index.is_comparable(0, 3) && index.is_comparable(3, 0));
        assert!(!index.is_comparable(0, 1));
        assert!(!index.is_comparable(0, 2), "no descriptor, no comparison");
    }

    /// Blocking's invariant: `compare_report` on a fingerprint-incompatible
    /// pair fails the strict mapping before replaying anything, so it never
    /// invokes the candidate — which is what lets pruned pairs be
    /// materialized through the same `pair_outcome` as compared ones.
    #[test]
    fn incompatible_pairs_compare_without_invoking_the_candidate() {
        let (onto, pool) = fixture();
        let a = seq_echo("a", "BiologicalSequence", "BiologicalSequence", false);
        let b = seq_echo("b", "ProteinSequence", "ProteinSequence", false);
        let (c, c_count) = counted_echo("c", "DNASequence");
        let session = MatchSession::new(&onto, &pool, GenerationConfig::default());
        let modules: [&dyn BlackBox; 3] = [&a, &b, &c];
        // Generate every target up front, so only replays could move the
        // count below.
        for m in modules {
            session.report_for(m);
        }
        let generated = c_count.load(std::sync::atomic::Ordering::Relaxed);
        let mut incompatible = 0;
        for t in modules {
            let report = session.report_for(t);
            for cand in modules {
                let ft = PartitionFingerprint::of(t.descriptor(), &onto);
                let fc = PartitionFingerprint::of(cand.descriptor(), &onto);
                if ft.compatible(&fc) {
                    continue;
                }
                incompatible += 1;
                let outcome = session.compare_report(t, &report, cand).outcome;
                assert!(
                    matches!(outcome, MatchOutcome::Incomparable(_)),
                    "{outcome:?}"
                );
            }
        }
        assert_eq!(incompatible, 6, "every cross pair of three interfaces");
        assert_eq!(
            c_count.load(std::sync::atomic::Ordering::Relaxed),
            generated,
            "an incompatible pair invoked the candidate"
        );
    }

    #[test]
    fn blocking_stats_prune_ratio() {
        let stats = BlockingStats {
            pairs_total: 100,
            pairs_compared: 25,
            pairs_pruned: 70,
            pairs_unavailable: 5,
            buckets: 4,
            largest_bucket: 5,
        };
        assert!((stats.prune_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(BlockingStats::default().prune_ratio(), 0.0);
    }

    #[test]
    fn failing_candidate_counts_as_disagreement() {
        let (onto, pool) = fixture();
        let target = seq_echo("t", "BiologicalSequence", "BiologicalSequence", false);
        // Candidate rejects proteins entirely.
        let candidate = FnModule::new(
            ModuleDescriptor::new(
                "c",
                "NucOnly",
                ModuleKind::SoapService,
                vec![Parameter::required(
                    "seq",
                    StructuralType::Text,
                    "BiologicalSequence",
                )],
                vec![Parameter::required(
                    "out",
                    StructuralType::Text,
                    "BiologicalSequence",
                )],
            ),
            |inputs| {
                let s = inputs[0].as_text().unwrap();
                if classify(s) == Some(SequenceKind::Protein) {
                    Err(InvocationError::rejected("no proteins"))
                } else {
                    Ok(vec![Value::text(s.to_string())])
                }
            },
        );
        let v = compare_modules(
            &target,
            &candidate,
            &onto,
            &pool,
            &GenerationConfig::default(),
        )
        .unwrap();
        assert_eq!(
            v,
            MatchVerdict::Overlapping {
                agreeing: 3,
                compared: 4
            }
        );
    }
}
