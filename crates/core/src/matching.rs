//! Comparing module behavior through aligned data examples (paper §6).

use crate::error::GenerationError;
use crate::example::{DataExample, ExampleSet};
use crate::generate::{generate_examples, GenerationConfig, GenerationReport};
use dex_modules::{BlackBox, InvocationCache, ModuleDescriptor, ModuleId, Parameter, Retrier};
use dex_ontology::Ontology;
use dex_pool::InstancePool;
use dex_values::{StructuralType, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

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

/// Where a 1-to-1 parameter mapping sends each target parameter: all a
/// replay reads of a mapping. [`ParamMapping`] stores it;
/// [`ComposedMapping`] computes it from two [`ParamOrder`]s.
pub trait Correspondence {
    /// The candidate input that receives target input `t`.
    fn input(&self, t: usize) -> usize;
    /// The candidate output compared against target output `t`.
    fn output(&self, t: usize) -> usize;
}

impl Correspondence for ParamMapping {
    fn input(&self, t: usize) -> usize {
        self.inputs[t]
    }

    fn output(&self, t: usize) -> usize {
        self.outputs[t]
    }
}

/// One module's parameters in canonical label order: per direction, the
/// declaration indices stably sorted by `(structural, semantic)` label, so
/// parameters with equal labels keep their declaration order.
///
/// Strict compatibility is label equality, an equivalence, so a
/// [`MappingMode::Strict`] mapping exists exactly when two modules' sorted
/// label lists are equal, and [`map_parameters`]' first-fit search then
/// sends the `k`-th target parameter with a label to the `k`-th candidate
/// parameter with it: the one at the same canonical position. Computed
/// once per module, an order is composed per pair by
/// [`ParamOrder::compose`], which allocates nothing unless it fails.
#[derive(Debug, Clone, Default)]
pub struct ParamOrder {
    /// The input declaration indices in canonical order, then the output
    /// ones; empty when both directions are declared in canonical order.
    sorted: Box<[usize]>,
}

impl ParamOrder {
    /// The canonical order of `descriptor`'s parameters.
    pub fn of(descriptor: &ModuleDescriptor) -> ParamOrder {
        fn label(p: &Parameter) -> (&StructuralType, &str) {
            (&p.structural, &p.semantic)
        }
        let canonical =
            |params: &[Parameter]| params.windows(2).all(|w| label(&w[0]) <= label(&w[1]));
        if canonical(&descriptor.inputs) && canonical(&descriptor.outputs) {
            return ParamOrder::default();
        }
        let mut sorted = Vec::with_capacity(descriptor.inputs.len() + descriptor.outputs.len());
        for params in [&descriptor.inputs, &descriptor.outputs] {
            let start = sorted.len();
            sorted.extend(0..params.len());
            // A stable sort: equal labels keep their declaration order.
            sorted[start..].sort_by(|&a, &b| label(&params[a]).cmp(&label(&params[b])));
        }
        ParamOrder {
            sorted: sorted.into_boxed_slice(),
        }
    }

    /// The input and output halves of the order (both empty when it is the
    /// declaration order); `inputs` is the module's input count.
    fn split(&self, inputs: usize) -> (&[usize], &[usize]) {
        if self.sorted.is_empty() {
            (&[], &[])
        } else {
            self.sorted.split_at(inputs)
        }
    }

    /// The strict mapping from `target`, whose order this is, to
    /// `candidate`, whose order is `candidate_order`: what
    /// [`map_parameters`] returns in [`MappingMode::Strict`], errors
    /// included, composed from the two orders.
    pub fn compose<'a>(
        &'a self,
        target: &ModuleDescriptor,
        candidate_order: &'a ParamOrder,
        candidate: &ModuleDescriptor,
    ) -> Result<ComposedMapping<'a>, GenerationError> {
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
        let (t_in, t_out) = self.split(target.inputs.len());
        let (c_in, c_out) = candidate_order.split(candidate.inputs.len());
        let labels_equal =
            |t_sorted: &[usize], t: &[Parameter], c_sorted: &[usize], c: &[Parameter]| {
                (0..t.len()).all(|p| t[at(t_sorted, p)].compatible(&c[at(c_sorted, p)]))
            };
        if !labels_equal(t_in, &target.inputs, c_in, &candidate.inputs) {
            return Err(GenerationError::Incomparable(
                "no 1-to-1 input parameter mapping".to_string(),
            ));
        }
        if !labels_equal(t_out, &target.outputs, c_out, &candidate.outputs) {
            return Err(GenerationError::Incomparable(
                "no 1-to-1 output parameter mapping".to_string(),
            ));
        }
        Ok(ComposedMapping {
            target: (t_in, t_out),
            candidate: (c_in, c_out),
        })
    }
}

/// The declaration index at canonical position `p` of one direction's
/// order (`p` itself when the order is the declaration order).
fn at(sorted: &[usize], p: usize) -> usize {
    sorted.get(p).copied().unwrap_or(p)
}

/// The canonical position of declaration index `i` in one direction's
/// order (`i` itself when the order is the declaration order).
fn position(sorted: &[usize], i: usize) -> usize {
    sorted.iter().position(|&d| d == i).unwrap_or(i)
}

/// A strict mapping composed from two [`ParamOrder`]s by
/// [`ParamOrder::compose`]: target parameter `t` goes to the candidate
/// parameter at `t`'s canonical position. It borrows the orders and owns
/// nothing.
#[derive(Debug, Clone, Copy)]
pub struct ComposedMapping<'a> {
    /// The target's input and output orders.
    target: (&'a [usize], &'a [usize]),
    /// The candidate's input and output orders.
    candidate: (&'a [usize], &'a [usize]),
}

impl Correspondence for ComposedMapping<'_> {
    fn input(&self, t: usize) -> usize {
        at(self.candidate.0, position(self.target.0, t))
    }

    fn output(&self, t: usize) -> usize {
        at(self.candidate.1, position(self.target.1, t))
    }
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
    /// The verdict for `agreeing` of `compared` replayed examples (at least
    /// one): all agreeing is Equivalent, none Disjoint, anything else
    /// Overlapping.
    pub fn from_counts(agreeing: usize, compared: usize) -> MatchVerdict {
        if agreeing == compared {
            MatchVerdict::Equivalent { compared }
        } else if agreeing == 0 {
            MatchVerdict::Disjoint { compared }
        } else {
            MatchVerdict::Overlapping { agreeing, compared }
        }
    }

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
    let mapping = map_parameters(target, candidate.descriptor(), ontology, mode)?;
    replay(&mapping, examples, candidate, None, None, &Retrier::none())
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
///
/// Every example is replayed through the cache here, aligned or not. The
/// incremental engine instead answers an aligned replay from the
/// candidate's own example on the same inputs, without a lookup (see
/// [`pair_outcome`]).
pub fn match_against_examples_retrying(
    target: &ModuleDescriptor,
    examples: &ExampleSet,
    candidate: &dyn BlackBox,
    ontology: &Ontology,
    mode: MappingMode,
    cache: &InvocationCache,
    retrier: &Retrier,
) -> Result<MatchVerdict, GenerationError> {
    let mapping = map_parameters(target, candidate.descriptor(), ontology, mode)?;
    replay(&mapping, examples, candidate, None, Some(cache), retrier)
}

/// Replays `examples` against `candidate` under `mapping`. With `own`, the
/// candidate's own examples, a target example whose mapped inputs equal
/// those of one of `own` is decided by that example's outputs instead of
/// by a replay (the §6 join); see [`pair_outcome`] for when that is sound.
/// Fails only on an empty example set.
fn replay(
    mapping: &impl Correspondence,
    examples: &ExampleSet,
    candidate: &dyn BlackBox,
    own: Option<&ExampleSet>,
    cache: Option<&InvocationCache>,
    retrier: &Retrier,
) -> Result<MatchVerdict, GenerationError> {
    if examples.is_empty() {
        return Err(GenerationError::Incomparable(
            "no data examples to compare against".to_string(),
        ));
    }
    let mut compared = 0usize;
    let mut agreeing = 0usize;
    for example in examples.iter() {
        compared += 1;
        // The §6 join: the candidate's own example on exactly these inputs.
        let aligned = own.into_iter().flat_map(ExampleSet::iter).find(|mine| {
            (0..example.inputs.len())
                .all(|t| mine.inputs[mapping.input(t)].value == example.inputs[t].value)
        });
        let agreed = match aligned {
            Some(mine) => outputs_agree(mapping, example, |c_idx| &mine.outputs[c_idx].value),
            None => {
                // Build the candidate's input vector.
                let mut inputs: Vec<Value> = vec![Value::Null; candidate.descriptor().inputs.len()];
                for (t, binding) in example.inputs.iter().enumerate() {
                    inputs[mapping.input(t)] = binding.value.clone();
                }
                // A failed invocation on inputs the target handled is a
                // behavioral disagreement on that example.
                matches!(
                    retrier.invoke(candidate, &inputs, cache).as_ref(),
                    Ok(outputs) if outputs_agree(mapping, example, |c_idx| &outputs[c_idx])
                )
            }
        };
        if agreed {
            agreeing += 1;
        }
    }
    Ok(MatchVerdict::from_counts(agreeing, compared))
}

/// Whether the candidate's outputs, `output(c_idx)` for its output `c_idx`,
/// equal the target `example`'s recorded outputs at every mapped position.
fn outputs_agree<'v>(
    mapping: &impl Correspondence,
    example: &DataExample,
    output: impl Fn(usize) -> &'v Value,
) -> bool {
    example
        .outputs
        .iter()
        .enumerate()
        .all(|(t, binding)| *output(mapping.output(t)) == binding.value)
}

/// Compares two live modules by generating *aligned* data examples for the
/// target (same pool, same value offsets — §6 requires "the same values for
/// both i and i′") and replaying them against the candidate, without a
/// cache: every call generates and invokes afresh.
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

/// The outcome of one ordered pair: the single rule the incremental engine
/// (stored pairs and the fingerprint-pruned pairs its matrix fills in) and
/// the test-only exhaustive oracle reduce a pair to. The target's
/// generation error comes first, then the strict parameter-mapping error,
/// then the aligned replay verdict.
///
/// `mapping` is the pair's [`MappingMode::Strict`] mapping, resolved by the
/// caller: the oracle searches it with [`map_parameters`], the engine
/// composes it from the two modules' [`ParamOrder`]s. Either way it fails
/// before any candidate invocation, so a pair whose
/// [`PartitionFingerprint`]s are incompatible costs no invocation here —
/// which is what lets blocking materialize pruned pairs through this same
/// function. Records no telemetry.
///
/// `own` is the candidate's own example set, or `None` to replay every
/// target example. With it, a target example whose mapped input values
/// equal those of one of the candidate's examples is decided by that
/// example's outputs, compared at the mapped output positions, and only the
/// others are replayed through `cache` (the §6 join of aligned examples).
///
/// **Precondition:** `own` must be examples of `candidate` itself, as
/// generated. Modules are deterministic (paper §2), so an example records
/// the outcome of its inputs: an aligned example's outputs are exactly
/// what a replay would return. The verdict is the same as with `None`;
/// only the replays, and so the module invocations, fall.
pub fn pair_outcome(
    generation: &Result<GenerationReport, GenerationError>,
    mapping: Result<impl Correspondence, GenerationError>,
    candidate: &dyn BlackBox,
    own: Option<&ExampleSet>,
    cache: &InvocationCache,
    retrier: &Retrier,
) -> MatchOutcome {
    let report = match generation {
        Ok(report) => report,
        Err(e) => return MatchOutcome::Incomparable(e.to_string()),
    };
    let mapping = match mapping {
        Ok(mapping) => mapping,
        Err(e) => return MatchOutcome::Incomparable(e.to_string()),
    };
    replay(
        &mapping,
        &report.examples,
        candidate,
        own,
        Some(cache),
        retrier,
    )
    .into()
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

/// A structural summary of a module's interface that *provably* decides
/// strict comparability without invoking anything: two modules admit a
/// 1-to-1 [`MappingMode::Strict`] parameter mapping **iff** their input
/// (resp. output) parameter *multisets* of `(structural, semantic)` labels
/// are equal — strict compatibility is label equality, so a perfect matching
/// in the compatibility bipartite graph exists exactly when every label
/// class has the same cardinality on both sides.
///
/// The fingerprint reads the descriptor alone. Per direction it hashes the
/// labels in the module's canonical [`ParamOrder`], which lists equal
/// multisets as equal sequences, through a prefix-free byte encoding: one
/// tag byte per [`StructuralType`] variant (a `List` followed by its
/// element type's encoding), then the semantic name, length-prefixed. No
/// ontology is consulted: the §3.1 partitions of an input follow from its
/// semantic label under any ontology, so two modules with equal labels have
/// equal partition sets, and an ontology edit moves no module between
/// buckets.
///
/// Soundness is one-directional by construction: equal multisets always
/// produce equal fingerprints, so *unequal* fingerprints prove the
/// multisets differ and therefore that `map_parameters` must fail. A hash
/// collision can only make two differing interfaces look compatible, which
/// costs a wasted full comparison but never a wrong verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PartitionFingerprint {
    /// Number of input parameters.
    pub inputs: usize,
    /// Number of output parameters.
    pub outputs: usize,
    /// FNV-1a over the input labels in canonical order.
    pub inputs_sig: u64,
    /// FNV-1a over the output labels in canonical order.
    pub outputs_sig: u64,
}

/// FNV-1a over one direction's labels, read in canonical order through
/// `sorted` (that direction's half of a [`ParamOrder`]).
fn labels_sig(sorted: &[usize], params: &[Parameter]) -> u64 {
    let mut sig = FNV_OFFSET;
    for p in 0..params.len() {
        let param = &params[at(sorted, p)];
        sig = structural_sig(sig, &param.structural);
        sig = fnv1a(sig, &(param.semantic.len() as u64).to_le_bytes());
        sig = fnv1a(sig, param.semantic.as_bytes());
    }
    sig
}

/// Folds a structural type's prefix-free encoding into `sig`: one tag byte
/// per variant, a `List`'s tag followed by its element type's encoding.
fn structural_sig(sig: u64, structural: &StructuralType) -> u64 {
    let tag = match structural {
        StructuralType::Text => 0,
        StructuralType::Integer => 1,
        StructuralType::Float => 2,
        StructuralType::Boolean => 3,
        StructuralType::List(element) => return structural_sig(fnv1a(sig, &[4]), element),
    };
    fnv1a(sig, &[tag])
}

impl PartitionFingerprint {
    /// Fingerprints a module interface. Allocates nothing when both
    /// directions are declared in canonical order.
    pub fn of(descriptor: &ModuleDescriptor) -> PartitionFingerprint {
        let order = ParamOrder::of(descriptor);
        let (inputs, outputs) = order.split(descriptor.inputs.len());
        PartitionFingerprint {
            inputs: descriptor.inputs.len(),
            outputs: descriptor.outputs.len(),
            inputs_sig: labels_sig(inputs, &descriptor.inputs),
            outputs_sig: labels_sig(outputs, &descriptor.outputs),
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
    ///
    /// `_ontology` is unused, since a fingerprint reads the descriptor
    /// alone; the parameter stays only because `dexbench`'s set-up replay
    /// passes it.
    pub fn build<'d>(
        descriptors: impl IntoIterator<Item = Option<&'d ModuleDescriptor>>,
        _ontology: &Ontology,
    ) -> FingerprintIndex {
        let fingerprints: Vec<Option<PartitionFingerprint>> = descriptors
            .into_iter()
            .map(|d| d.map(PartitionFingerprint::of))
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
    /// list changed at `idx`: a restored module rejoining its bucket, or a
    /// provider re-registering a module.
    pub fn insert(&mut self, idx: usize, descriptor: &ModuleDescriptor) {
        self.set(idx, Some(PartitionFingerprint::of(descriptor)));
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

    /// Whether the ordered pair `(t, c)` survives blocking (both modules
    /// present and fingerprint-compatible).
    pub fn is_comparable(&self, t: usize, c: usize) -> bool {
        match (self.fingerprint(t), self.fingerprint(c)) {
            (Some(a), Some(b)) => a.compatible(b),
            _ => false,
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
        let fps: Vec<_> = descriptors.iter().map(PartitionFingerprint::of).collect();
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

    /// The fingerprint is pinned to an exact value: the hash is hand-rolled
    /// FNV-1a precisely so it can never drift with a std `DefaultHasher`
    /// change, and this test is the tripwire. Computing the same descriptor
    /// twice (fresh allocations) must land on the same bits every run, on
    /// every platform.
    #[test]
    fn fingerprint_hash_is_stable_across_constructions() {
        let d = || {
            descriptor_with(
                "m",
                vec![("seq", StructuralType::Text, "ProteinSequence")],
                vec![("out", StructuralType::Text, "ProteinSequence")],
            )
        };
        let a = PartitionFingerprint::of(&d());
        let b = PartitionFingerprint::of(&d());
        assert_eq!(a, b);
        // Pinned fingerprint: fails loudly if the encoding ever changes.
        // Update deliberately (it invalidates cross-run fingerprint
        // comparisons).
        assert_eq!(
            a,
            PartitionFingerprint {
                inputs: 1,
                outputs: 1,
                inputs_sig: 0xaf7b_5fba_46cb_573e,
                outputs_sig: 0xaf7b_5fba_46cb_573e,
            },
            "{:#x} {:#x}",
            a.inputs_sig,
            a.outputs_sig
        );
        // Parameter *names* must not affect the fingerprint (mappings are
        // name-blind), but order-insensitivity must hold too.
        let renamed = descriptor_with(
            "other",
            vec![("sequence_in", StructuralType::Text, "ProteinSequence")],
            vec![("result", StructuralType::Text, "ProteinSequence")],
        );
        assert_eq!(PartitionFingerprint::of(&renamed), a);
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
        let fa = PartitionFingerprint::of(&ab);
        let fb = PartitionFingerprint::of(&ba);
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
            // A list of p1's input type.
            descriptor_with(
                "p10",
                vec![(
                    "s",
                    StructuralType::list_of(StructuralType::Text),
                    "ProteinSequence",
                )],
                vec![("o", StructuralType::Text, "ProteinSequence")],
            ),
        ];
        for t in &adversarial {
            for c in &adversarial {
                let ft = PartitionFingerprint::of(t);
                let fc = PartitionFingerprint::of(c);
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

    /// Blocking's invariant: `pair_outcome` on a fingerprint-incompatible
    /// pair fails the strict mapping before replaying anything, so it never
    /// invokes the candidate — which is what lets pruned pairs be
    /// materialized through the same `pair_outcome` as compared ones.
    #[test]
    fn incompatible_pairs_compare_without_invoking_the_candidate() {
        let (onto, pool) = fixture();
        let a = seq_echo("a", "BiologicalSequence", "BiologicalSequence", false);
        let b = seq_echo("b", "ProteinSequence", "ProteinSequence", false);
        let (c, c_count) = counted_echo("c", "DNASequence");
        let config = GenerationConfig::default();
        let modules: [&dyn BlackBox; 3] = [&a, &b, &c];
        // Generate every target up front, so only replays could move the
        // count below.
        let reports: Vec<_> = modules
            .iter()
            .map(|m| generate_examples(*m, &onto, &pool, &config))
            .collect();
        let generated = c_count.load(std::sync::atomic::Ordering::Relaxed);
        let cache = InvocationCache::new();
        let mut incompatible = 0;
        for (t, report) in modules.iter().zip(&reports) {
            for cand in modules {
                let ft = PartitionFingerprint::of(t.descriptor());
                let fc = PartitionFingerprint::of(cand.descriptor());
                if ft.compatible(&fc) {
                    continue;
                }
                incompatible += 1;
                let outcome = pair_outcome(
                    report,
                    map_parameters(
                        t.descriptor(),
                        cand.descriptor(),
                        &onto,
                        MappingMode::Strict,
                    ),
                    cand,
                    None,
                    &cache,
                    &Retrier::none(),
                );
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
