//! The invocation cache on the aligned-matching workload of paper §6:
//! generation over a sample of lookalike modules, then every ordered pair's
//! example replay.
//!
//! The uncached side is the pipeline without sharing: `generate_examples`,
//! and `match_against_examples` invoking the candidate afresh on every
//! replay. The cached side is one [`MatchSession`], whose generations
//! (`report_for`) and replays (`compare_report`) share one invocation
//! cache. Modules are deterministic, so every count is exact.

use dex_core::{generate_examples, match_against_examples, GenerationConfig, MappingMode};
use dex_experiments::{POOL_PER_CONCEPT, POOL_SEED};
use dex_modules::{BlackBox, InvocationError, ModuleDescriptor, ModuleId, SharedModule};
use dex_oracle::MatchSession;
use dex_pool::build_synthetic_pool;
use dex_values::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Wraps a catalog module, counting every invocation that reaches the black
/// box (cache hits never get here).
struct Counted {
    inner: SharedModule,
    invocations: Arc<AtomicU64>,
}

impl BlackBox for Counted {
    fn descriptor(&self) -> &ModuleDescriptor {
        self.inner.descriptor()
    }

    fn invoke(&self, inputs: &[Value]) -> Result<Vec<Value>, InvocationError> {
        self.invocations.fetch_add(1, Ordering::Relaxed);
        self.inner.invoke(inputs)
    }
}

/// The first 16 modules of the lookalike families — modules sharing an
/// input-concept signature, largest family first. Those are the pairs
/// aligned matching actually replays against each other; a uniformly
/// thinned sample is almost entirely incomparable pairs.
fn lookalikes(universe: &dex_universe::Universe) -> Vec<ModuleId> {
    let mut families: BTreeMap<Vec<String>, Vec<ModuleId>> = BTreeMap::new();
    for id in universe.available_ids() {
        let module = universe.catalog.get(&id).expect("available");
        let mut signature: Vec<String> = module
            .descriptor()
            .inputs
            .iter()
            .map(|p| p.semantic.clone())
            .collect();
        signature.sort();
        families.entry(signature).or_default().push(id);
    }
    let mut families: Vec<Vec<ModuleId>> = families
        .into_values()
        .filter(|members| members.len() >= 2)
        .collect();
    families.sort_by_key(|members| std::cmp::Reverse(members.len()));
    families.into_iter().flatten().take(16).collect()
}

#[test]
fn aligned_matching_invocation_counts() {
    let universe = dex_universe::build();
    let pool = build_synthetic_pool(&universe.ontology, POOL_PER_CONCEPT, POOL_SEED);
    let config = GenerationConfig::default();
    let counter = Arc::new(AtomicU64::new(0));
    let ids = lookalikes(&universe);
    let modules: Vec<Counted> = ids
        .iter()
        .map(|id| Counted {
            inner: universe.catalog.get(id).expect("available").clone(),
            invocations: Arc::clone(&counter),
        })
        .collect();
    assert_eq!(modules.len(), 16);

    // Uncached: every generation and every replay invokes.
    let reports: Vec<_> = modules
        .iter()
        .zip(&ids)
        .map(|(module, id)| {
            generate_examples(module, &universe.ontology, &pool, &config)
                .unwrap_or_else(|e| panic!("{id}: {e}"))
        })
        .collect();
    for (t, target) in modules.iter().enumerate() {
        for (c, candidate) in modules.iter().enumerate() {
            if t != c {
                let _ = match_against_examples(
                    target.descriptor(),
                    &reports[t].examples,
                    candidate,
                    &universe.ontology,
                    MappingMode::Strict,
                );
            }
        }
    }
    let uncached = counter.swap(0, Ordering::Relaxed);

    // Cached: one session shares its invocations across generations and
    // pairs.
    let session = MatchSession::new(&universe.ontology, &pool, config);
    for (t, target) in modules.iter().enumerate() {
        let report = session.report_for(target);
        assert!(report.is_ok(), "{}: generation failed", ids[t]);
        for (c, candidate) in modules.iter().enumerate() {
            if t != c {
                session.compare_report(target, &report, candidate);
            }
        }
    }
    let cached = counter.load(Ordering::Relaxed);
    let stats = session.invocation_stats();

    assert_eq!(uncached, 34, "uncached module invocations");
    assert_eq!(cached, 16, "cached module invocations");
    assert_eq!(stats.hits, 18, "cache hits");
    assert_eq!(stats.misses, 16, "cache misses");
    assert_eq!(stats.entries, 16, "cache entries");
}
