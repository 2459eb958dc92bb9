//! The mini worlds of the equivalence proptests: eight deterministic text
//! modules over the mygrid ontology and a depth-3 synthetic pool, built
//! identically for the system under test and for its oracle.
//!
//! Slots fall into input-shape classes (`slot % 3`, concepts drawn from a
//! shape salt), so fingerprint buckets collide, and into behaviour classes
//! (`slot % 2`), so modules sharing a bucket and a behaviour class agree.
//! Slots 6 and 7 diverge from their class on part of the inputs, so some
//! pairs overlap. Rejections are salted per slot: class members reject
//! different values and so pick different realizations, which leaves
//! agreeing pairs with target examples that no candidate example is aligned
//! with, and those must be replayed.

use dex_core::delta::Delta;
use dex_modules::{
    FaultInjector, FaultPlan, FnModule, InvocationError, ModuleCatalog, ModuleDescriptor, ModuleId,
    ModuleKind, Parameter, SharedModule,
};
use dex_pool::{build_synthetic_pool, AnnotatedInstance, InstancePool};
use dex_universe::Universe;
use dex_values::{StructuralType, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Text-valued concepts the synthetic pool realizes; inputs and deltas are
/// drawn from these.
const CONCEPTS: &[&str] = &[
    "BiologicalSequence",
    "DNASequence",
    "RNASequence",
    "ProteinSequence",
    "AlgorithmName",
];

/// Modules per mini world.
pub const MODULES: usize = 8;

/// The id of the module in `slot`.
pub fn module_id(slot: usize) -> ModuleId {
    ModuleId::from(format!("mini:m{slot}"))
}

/// FNV-style fold of the text inputs into `seed`.
fn digest(seed: u64, values: &[Value]) -> u64 {
    let mut acc = seed;
    for v in values {
        if let Some(t) = v.as_text() {
            for b in t.bytes() {
                acc = acc.wrapping_mul(1099511628211).wrapping_add(u64::from(b));
            }
        }
    }
    acc
}

/// The module in `slot`, taking one text input per index into the
/// fixture's concept list in `inputs` and returning a digest of them under
/// the world's `salt`.
///
/// The digest is salted by the behaviour class, `slot % 2`; slots 6 and 7
/// invert it when the first input's text has even length. The module
/// rejects `reject_pct`% of input vectors, chosen by a hash salted by the
/// slot itself.
pub fn mini_module(slot: usize, inputs: &[usize], salt: u64, reject_pct: u64) -> FnModule {
    let params: Vec<Parameter> = inputs
        .iter()
        .enumerate()
        .map(|(i, &c)| Parameter::required(format!("in{i}"), StructuralType::Text, CONCEPTS[c]))
        .collect();
    let behavior_seed = salt ^ (slot as u64 % 2).wrapping_mul(0x9e37_79b9);
    let reject_seed = salt.rotate_left(32) ^ (slot as u64 + 1).wrapping_mul(0x85eb_ca6b);
    let diverges = slot >= 6;
    FnModule::new(
        ModuleDescriptor::new(
            module_id(slot),
            format!("MiniModule{slot}"),
            ModuleKind::RestService,
            params,
            vec![Parameter::required(
                "digest",
                StructuralType::Text,
                "Document",
            )],
        ),
        move |values| {
            if digest(reject_seed, values) % 100 < reject_pct {
                return Err(InvocationError::rejected("salted rejection"));
            }
            let mut acc = digest(behavior_seed, values);
            let even = values
                .first()
                .and_then(Value::as_text)
                .is_some_and(|t| t.len() % 2 == 0);
            if diverges && even {
                acc = !acc;
            }
            Ok(vec![Value::text(format!("{acc:016x}"))])
        },
    )
}

/// Input shape of `slot`: three shape classes so fingerprint buckets
/// collide, with per-class concepts decoded from `shape_salt`.
fn shape_for(slot: usize, shape_salt: u64) -> Vec<usize> {
    let class = slot % 3;
    let pick = |k: u32| ((shape_salt >> (8 * k)) as usize) % CONCEPTS.len();
    match class {
        0 => vec![pick(0)],
        1 => vec![pick(1), pick(2)],
        _ => vec![pick(3)],
    }
}

/// The mini world: [`MODULES`] modules (optionally each wrapped in seeded
/// transient fault injection, `faults = (seed, rate %)`) plus the pool.
/// Call it once for the system under test and once, identically, for the
/// oracle.
pub fn mini_world(
    shape_salt: u64,
    behavior_salt: u64,
    reject_pct: u64,
    faults: Option<(u64, u32)>,
) -> (Universe, InstancePool) {
    world_of((0..MODULES).map(|slot| {
        let module = mini_module(
            slot,
            &shape_for(slot, shape_salt),
            behavior_salt,
            reject_pct,
        );
        let shared: SharedModule = match faults {
            None => Arc::new(module),
            Some((fault_seed, fault_rate_pct)) => FaultInjector::new(FaultPlan {
                seed: fault_seed ^ slot as u64,
                fault_rate_millis: fault_rate_pct * 10,
                max_consecutive: 2,
            })
            .wrap(Arc::new(module)),
        };
        shared
    }))
}

/// `modules` over the mygrid ontology, plus a depth-3 synthetic pool.
pub fn world_of(modules: impl Iterator<Item = SharedModule>) -> (Universe, InstancePool) {
    let ontology = dex_ontology::mygrid::ontology();
    let mut catalog = ModuleCatalog::new();
    for module in modules {
        catalog.register(module);
    }
    let pool = build_synthetic_pool(&ontology, 3, 7);
    let universe = Universe {
        catalog,
        ontology,
        categories: BTreeMap::new(),
        specs: BTreeMap::new(),
        legacy: Vec::new(),
        expected_match: BTreeMap::new(),
        popular: BTreeSet::new(),
        unfamiliar_output: BTreeSet::new(),
        partial_output: BTreeSet::new(),
    };
    (universe, pool)
}

/// Decodes the `i`-th op word into a delta. Every module id it names is a
/// mini-world slot. Ops may be no-ops at apply time (removing a missing
/// realization, withdrawing an already-withdrawn module), and both sides of
/// a comparison must agree on those too.
pub fn decode_delta(i: usize, word: u64) -> Delta {
    let concept = CONCEPTS[(word >> 8) as usize % CONCEPTS.len()];
    match word % 5 {
        0 => Delta::PoolInsert {
            instance: AnnotatedInstance::synthetic(
                Value::text(format!("ZX{:04x}", word >> 16 & 0xffff)),
                concept,
            ),
        },
        1 => Delta::PoolRemove {
            concept: concept.to_string(),
            occurrence: (word >> 16) as usize % 4,
        },
        2 => Delta::ModuleWithdraw {
            id: module_id((word >> 16) as usize % MODULES),
        },
        3 => Delta::ModuleRestore {
            id: module_id((word >> 16) as usize % MODULES),
        },
        _ => Delta::OntologyEdgeAdd {
            parent: concept.to_string(),
            child: format!("GrownConcept{i}"),
        },
    }
}
