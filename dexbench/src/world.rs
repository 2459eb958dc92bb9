//! Inputs every workload derives from its seed: the scaled world, the stored
//! workflows, and the registry churn stream.

use dex_core::delta::Delta;
use dex_modules::ModuleId;
use dex_pool::{build_text_pool, text_instance, AnnotatedInstance, InstancePool};
use dex_repair::{generate_repository, RepositoryPlan};
use dex_universe::scale::{build_scaled, ScalePlan};
use dex_universe::Universe;
use dex_workflow::Workflow;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::time::Instant;

/// Per-concept instances in every pool the benchmark builds.
pub const POOL_DEPTH: usize = 4;

/// A scaled world and its text pool, with what each took to build.
pub struct World {
    pub universe: Universe,
    pub pool: InstancePool,
    pub build_ms: f64,
    pub pool_ms: f64,
}

/// Builds the world of `scale` modules for `seed`, timing each layer.
pub fn build_world(scale: usize, seed: u64) -> World {
    let t = Instant::now();
    let world = {
        let _span = dex_telemetry::span("bench.universe.build_scaled");
        build_scaled(&ScalePlan::new(scale, seed))
    };
    let build_ms = ms(t);
    let t = Instant::now();
    let pool = {
        let _span = dex_telemetry::span("bench.pool.build_text_pool");
        build_text_pool(&world.universe.ontology, POOL_DEPTH, seed)
    };
    World {
        universe: world.universe,
        pool,
        build_ms,
        pool_ms: ms(t),
    }
}

/// The `count` healthy stored workflows the read mix validates.
pub fn workflows(
    universe: &Universe,
    pool: &InstancePool,
    seed: u64,
    count: usize,
) -> Vec<Workflow> {
    let plan = RepositoryPlan {
        healthy: count,
        equivalent_full: 0,
        equivalent_partial: 0,
        overlap_full: 0,
        overlap_partial: 0,
        overlap_odd: 0,
        none_only: 0,
        seed,
    };
    generate_repository(universe, pool, &plan)
        .workflows
        .into_iter()
        .map(|s| s.workflow)
        .collect()
}

/// The churn stream: each batch restores the previous batch's withdrawals,
/// withdraws fresh modules, and replaces the first instance of some pool
/// concepts with a new value. Every batch has the same shape, so the work it
/// causes has a single mode.
pub struct Churner {
    rng: StdRng,
    seed: u64,
    ids: Vec<ModuleId>,
    concepts: Vec<String>,
    withdrawn: Vec<ModuleId>,
    /// Next fresh instance number per concept index.
    next_k: Vec<usize>,
    withdraw: usize,
    pool_concepts: usize,
}

impl Churner {
    /// A stream over `ids` (all initially available, and withdrawn by no one
    /// else) and the pool's `concepts`.
    pub fn new(
        seed: u64,
        ids: Vec<ModuleId>,
        concepts: Vec<String>,
        withdraw: usize,
        pool_concepts: usize,
    ) -> Churner {
        let next_k = vec![POOL_DEPTH; concepts.len()];
        Churner {
            rng: StdRng::seed_from_u64(seed ^ 0xC4A2_0000_0000_0001),
            seed,
            ids,
            concepts,
            withdrawn: Vec::new(),
            next_k,
            withdraw,
            pool_concepts,
        }
    }

    /// The next batch.
    pub fn next_batch(&mut self) -> Vec<Delta> {
        let mut deltas: Vec<Delta> = self
            .withdrawn
            .drain(..)
            .map(|id| Delta::ModuleRestore { id })
            .collect();
        let restored: BTreeSet<ModuleId> = deltas
            .iter()
            .filter_map(|d| match d {
                Delta::ModuleRestore { id } => Some(id.clone()),
                _ => None,
            })
            .collect();
        let mut picked: BTreeSet<usize> = BTreeSet::new();
        while picked.len() < self.withdraw.min(self.ids.len() - restored.len()) {
            let i = self.rng.gen_range(0..self.ids.len());
            if !restored.contains(&self.ids[i]) {
                picked.insert(i);
            }
        }
        for i in picked {
            let id = self.ids[i].clone();
            self.withdrawn.push(id.clone());
            deltas.push(Delta::ModuleWithdraw { id });
        }
        let mut churned: BTreeSet<usize> = BTreeSet::new();
        while churned.len() < self.pool_concepts.min(self.concepts.len()) {
            churned.insert(self.rng.gen_range(0..self.concepts.len()));
        }
        for c in churned {
            let concept = self.concepts[c].clone();
            let k = self.next_k[c];
            self.next_k[c] += 1;
            deltas.push(Delta::PoolRemove {
                concept: concept.clone(),
                occurrence: 0,
            });
            deltas.push(Delta::PoolInsert {
                instance: AnnotatedInstance::synthetic(
                    text_instance(&concept, k, self.seed),
                    concept,
                ),
            });
        }
        deltas
    }

    /// Modules withdrawn by the last batch (still withdrawn).
    pub fn withdrawn(&self) -> &[ModuleId] {
        &self.withdrawn
    }
}

/// The pool `initial` becomes after the pool deltas of `batches`, built
/// afresh in final insertion order — the state a cold rebuild starts from,
/// reached without the delta engine or the pool's own mutation methods.
pub fn final_pool(initial: &InstancePool, batches: &[Vec<Delta>]) -> InstancePool {
    let mut slots: Vec<Option<AnnotatedInstance>> = initial.iter().cloned().map(Some).collect();
    let mut by_concept: HashMap<String, VecDeque<usize>> = HashMap::new();
    for (i, inst) in initial.iter().enumerate() {
        by_concept
            .entry(inst.concept.clone())
            .or_default()
            .push_back(i);
    }
    for delta in batches.iter().flatten() {
        match delta {
            Delta::PoolRemove {
                concept,
                occurrence,
            } => {
                if let Some(positions) = by_concept.get_mut(concept) {
                    if let Some(slot) = positions.remove(*occurrence) {
                        slots[slot] = None;
                    }
                }
            }
            Delta::PoolInsert { instance } => {
                by_concept
                    .entry(instance.concept.clone())
                    .or_default()
                    .push_back(slots.len());
                slots.push(Some(instance.clone()));
            }
            _ => {}
        }
    }
    let mut pool = InstancePool::new(initial.name());
    for inst in slots.into_iter().flatten() {
        pool.add(inst);
    }
    pool
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1000.0
}

/// Microseconds since `t`.
pub fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_world() -> World {
        build_world(300, 7)
    }

    fn churner(world: &World, withdraw: usize, pool_concepts: usize) -> Churner {
        Churner::new(
            7,
            world.universe.available_ids(),
            world
                .pool
                .covered_concepts()
                .into_iter()
                .map(str::to_string)
                .collect(),
            withdraw,
            pool_concepts,
        )
    }

    #[test]
    fn churn_batches_restore_then_withdraw_fresh_modules() {
        let world = small_world();
        let mut churn = churner(&world, 5, 3);
        let mut previous: Vec<ModuleId> = Vec::new();
        for _ in 0..6 {
            let batch = churn.next_batch();
            let restored: Vec<ModuleId> = batch
                .iter()
                .filter_map(|d| match d {
                    Delta::ModuleRestore { id } => Some(id.clone()),
                    _ => None,
                })
                .collect();
            let withdrawn: BTreeSet<ModuleId> = batch
                .iter()
                .filter_map(|d| match d {
                    Delta::ModuleWithdraw { id } => Some(id.clone()),
                    _ => None,
                })
                .collect();
            assert_eq!(restored, previous);
            assert_eq!(withdrawn.len(), 5);
            assert!(restored.iter().all(|id| !withdrawn.contains(id)));
            let removed: BTreeSet<&str> = batch
                .iter()
                .filter_map(|d| match d {
                    Delta::PoolRemove { concept, .. } => Some(concept.as_str()),
                    _ => None,
                })
                .collect();
            assert_eq!(removed.len(), 3);
            assert_eq!(churn.withdrawn().len(), 5);
            previous = churn.withdrawn().to_vec();
        }
    }

    #[test]
    fn final_pool_equals_the_pools_own_mutations() {
        let world = small_world();
        let mut churn = churner(&world, 2, 8);
        let batches: Vec<Vec<Delta>> = (0..12).map(|_| churn.next_batch()).collect();
        let mut mutated = world.pool.clone();
        for delta in batches.iter().flatten() {
            match delta {
                Delta::PoolRemove {
                    concept,
                    occurrence,
                } => {
                    mutated.remove_realization(concept, *occurrence);
                }
                Delta::PoolInsert { instance } => mutated.add(instance.clone()),
                _ => {}
            }
        }
        let rebuilt = final_pool(&world.pool, &batches);
        assert_eq!(rebuilt.len(), world.pool.len());
        assert_eq!(
            rebuilt.iter().collect::<Vec<_>>(),
            mutated.iter().collect::<Vec<_>>()
        );
        assert_eq!(rebuilt.covered_concepts(), mutated.covered_concepts());
    }
}
