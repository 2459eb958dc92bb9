//! The delta model of the incremental re-annotation layer (ROADMAP item 4).
//!
//! Real registries change continuously — curators contribute pool
//! instances, providers withdraw and restore modules, the annotation
//! ontology grows new leaves — and the paper's pipeline answers every such
//! change with a full re-run. This module provides the *vocabulary* of
//! incremental recomputation: typed [`Delta`] events, the
//! [`DependencyIndex`] that maps an event to the set of modules whose
//! `(input, partition)` cells it can possibly dirty, and the accounting
//! ([`DeltaReport`], `dex.delta.*` telemetry) that makes the savings
//! auditable. The engine that applies deltas to live pipeline state lives
//! in `dex-experiments::incremental`; its equivalence tests compare it
//! against a cold serial generation and the test-only exhaustive matcher.
//!
//! The [`DependencyIndex`] is the *candidate stage*, and it is sound: a
//! pool mutation on concept `c` can only affect modules with `c` among
//! their planned input partitions (the pool is probed per `(input,
//! partition)`, never scanned); an ontology leaf added under `p` can only
//! affect modules with an input annotated by an ancestor-or-self of `p`
//! (only their partition sets can change). Everything else is provably
//! clean without looking at it. The engine regenerates each candidate from
//! its own previous report, which records the outcome of every attempt but
//! a transient one, so a candidate whose picks did not move — e.g. one
//! behind whose probe window an instance was appended — invokes nothing and
//! regenerates an equal report. The candidates whose report differs are
//! the stale set.

use crate::partition::input_partition_plan;
use dex_modules::{ModuleDescriptor, ModuleId};
use dex_ontology::Ontology;
use dex_pool::AnnotatedInstance;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// One registry change, as observed by the incremental layer.
///
/// The variants mirror the three change sources the paper's setting
/// exhibits: the curated instance pool (§4.1), module availability
/// (§6's withdrawn and restored services), and the annotation ontology
/// itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Delta {
    /// A curator contributed a new annotated instance to the pool.
    PoolInsert {
        /// The instance, annotation included.
        instance: AnnotatedInstance,
    },
    /// The `occurrence`-th instance annotated exactly `concept` (in
    /// insertion order) left the pool. A no-op when no such occurrence
    /// exists.
    PoolRemove {
        /// The exact annotation of the instance to remove.
        concept: String,
        /// Which of the concept's realizations, in insertion order.
        occurrence: usize,
    },
    /// A module became unavailable (its provider withdrew it).
    ModuleWithdraw {
        /// The withdrawn module.
        id: ModuleId,
    },
    /// A previously withdrawn module came back.
    ModuleRestore {
        /// The restored module.
        id: ModuleId,
    },
    /// The ontology grew a new concrete leaf concept under an existing
    /// parent.
    OntologyEdgeAdd {
        /// Name of the existing parent concept.
        parent: String,
        /// Name of the new leaf concept.
        child: String,
    },
}

/// What one batch of deltas cost, against what a cold run would have.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaReport {
    /// Delta events applied.
    pub events: usize,
    /// Available modules the candidate stage flagged, or restored, each
    /// counted once: every one is regenerated from its own previous report.
    pub dirty_candidates: usize,
    /// Checked modules whose regenerated report differs from the previous
    /// one, and so replaced it: the stale set.
    pub regenerated_modules: usize,
    /// Total `(input, partition)` cells across available modules after the
    /// batch.
    pub cells_total: usize,
    /// Cells belonging to the modules whose report changed
    /// ([`regenerated_modules`](DeltaReport::regenerated_modules)) — the
    /// dirty fraction a cold run would have recomputed anyway, everything
    /// else being pure waste.
    pub cells_dirty: usize,
    /// Regenerated modules whose example set (or generation error) really
    /// differed from the previous state.
    pub examples_changed: usize,
    /// Modules whose partition fingerprint changed (bucket migration).
    pub fingerprints_changed: usize,
    /// Module pairs re-matched this batch.
    pub recomputed_pairs: usize,
    /// Verdicts carried forward unchanged from the previous matrix.
    pub carried_forward: usize,
    /// Stored verdicts dropped without replacement (withdrawn or migrated
    /// modules).
    pub dropped_pairs: usize,
}

impl DeltaReport {
    /// Dirty fraction of the cell population, in `[0, 1]` (`0` for an
    /// empty registry).
    pub fn dirty_cell_ratio(&self) -> f64 {
        if self.cells_total == 0 {
            0.0
        } else {
            self.cells_dirty as f64 / self.cells_total as f64
        }
    }

    /// Folds this batch's accounting into the process-wide `dex.delta.*`
    /// counters (no-op unless telemetry is enabled).
    pub fn publish_telemetry(&self) {
        if !dex_telemetry::is_enabled() {
            return;
        }
        let counters = delta_counters();
        counters.events.add(self.events as u64);
        counters.dirty_cells.add(self.cells_dirty as u64);
        counters.carried_forward.add(self.carried_forward as u64);
        counters.recomputed_pairs.add(self.recomputed_pairs as u64);
        counters
            .recomputed_modules
            .add(self.regenerated_modules as u64);
    }
}

/// The candidate-stage dependency graph: which tracked modules can a delta
/// on a given concept possibly affect.
///
/// Maintained per module (a module's entry is refreshed whenever its plan
/// may have changed), so ontology deltas cost one plan recomputation per
/// *affected* module, not a full rebuild.
#[derive(Debug, Clone, Default)]
pub struct DependencyIndex {
    /// Partition concept name → tracked module slots planning it.
    by_partition: HashMap<String, BTreeSet<usize>>,
    /// Per slot: the partition concept names currently indexed for it
    /// (needed to unindex before refreshing).
    planned: Vec<Vec<String>>,
    /// Per slot: the input annotation concept names of the descriptor.
    input_concepts: Vec<Vec<String>>,
    /// Per slot: `(input, partition)` cell count of the current plan (`0`
    /// when planning fails — a cold run would generate nothing either).
    cells: Vec<usize>,
}

impl DependencyIndex {
    /// An empty index.
    pub fn new() -> DependencyIndex {
        DependencyIndex::default()
    }

    /// (Re)indexes slot `idx` for `descriptor` under the current ontology,
    /// growing the index as needed. Call again after any ontology delta
    /// that may have changed the module's partition sets.
    pub fn set_module(&mut self, idx: usize, descriptor: &ModuleDescriptor, ontology: &Ontology) {
        if idx >= self.planned.len() {
            self.planned.resize_with(idx + 1, Vec::new);
            self.input_concepts.resize_with(idx + 1, Vec::new);
            self.cells.resize(idx + 1, 0);
        }
        for concept in self.planned[idx].drain(..) {
            if let Some(slots) = self.by_partition.get_mut(&concept) {
                slots.remove(&idx);
                if slots.is_empty() {
                    self.by_partition.remove(&concept);
                }
            }
        }
        self.input_concepts[idx] = descriptor
            .inputs
            .iter()
            .map(|p| p.semantic.clone())
            .collect();
        match input_partition_plan(descriptor, ontology) {
            Ok(plan) => {
                let mut planned = Vec::new();
                for parts in &plan.per_input {
                    for &p in parts {
                        let name = ontology.concept_name(p).to_string();
                        self.by_partition
                            .entry(name.clone())
                            .or_default()
                            .insert(idx);
                        planned.push(name);
                    }
                }
                self.cells[idx] = plan.partition_count();
                self.planned[idx] = planned;
            }
            Err(_) => {
                self.cells[idx] = 0;
            }
        }
    }

    /// Tracked slots whose plan references partition `concept` — the
    /// candidate dirty set of a pool delta on that concept.
    pub fn modules_for_concept(&self, concept: &str) -> Vec<usize> {
        self.by_partition
            .get(concept)
            .map(|slots| slots.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Tracked slots with an input annotated by an ancestor-or-self of
    /// `parent` — the candidate dirty set of a new ontology leaf under
    /// `parent`: only those modules' partition sets can gain the leaf.
    pub fn modules_with_input_subsuming(&self, parent: &str, ontology: &Ontology) -> Vec<usize> {
        let Some(parent_id) = ontology.id(parent) else {
            return Vec::new();
        };
        self.input_concepts
            .iter()
            .enumerate()
            .filter(|(_, concepts)| {
                concepts.iter().any(|c| {
                    ontology
                        .id(c)
                        .is_some_and(|cid| ontology.subsumes(cid, parent_id))
                })
            })
            .map(|(idx, _)| idx)
            .collect()
    }

    /// `(input, partition)` cell count of slot `idx`'s current plan.
    pub fn cells(&self, idx: usize) -> usize {
        self.cells.get(idx).copied().unwrap_or(0)
    }
}

/// The `dex.delta.*` telemetry counters, interned once per process and
/// surfaced generically by `RunReport::collect`.
pub struct DeltaCounters {
    /// `dex.delta.events` — delta events applied.
    pub events: dex_telemetry::Counter,
    /// `dex.delta.dirty_cells` — cells of changed reports across all
    /// batches.
    pub dirty_cells: dex_telemetry::Counter,
    /// `dex.delta.carried_forward` — verdicts reused without re-matching.
    pub carried_forward: dex_telemetry::Counter,
    /// `dex.delta.recomputed_pairs` — pairs re-matched.
    pub recomputed_pairs: dex_telemetry::Counter,
    /// `dex.delta.recomputed_modules` — modules whose report changed.
    pub recomputed_modules: dex_telemetry::Counter,
}

/// The interned [`DeltaCounters`] singleton.
pub fn delta_counters() -> &'static DeltaCounters {
    static COUNTERS: std::sync::OnceLock<DeltaCounters> = std::sync::OnceLock::new();
    COUNTERS.get_or_init(|| DeltaCounters {
        events: dex_telemetry::counter("dex.delta.events"),
        dirty_cells: dex_telemetry::counter("dex.delta.dirty_cells"),
        carried_forward: dex_telemetry::counter("dex.delta.carried_forward"),
        recomputed_pairs: dex_telemetry::counter("dex.delta.recomputed_pairs"),
        recomputed_modules: dex_telemetry::counter("dex.delta.recomputed_modules"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_modules::{ModuleKind, Parameter};
    use dex_ontology::mygrid;
    use dex_values::StructuralType;

    fn descriptor(id: &str, input_concept: &str) -> ModuleDescriptor {
        ModuleDescriptor::new(
            id,
            id,
            ModuleKind::LocalProgram,
            vec![Parameter::required(
                "x",
                StructuralType::Text,
                input_concept,
            )],
            vec![Parameter::required("y", StructuralType::Text, "Document")],
        )
    }

    #[test]
    fn pool_deltas_hit_only_modules_planning_the_concept() {
        let onto = mygrid::ontology();
        let mut deps = DependencyIndex::new();
        deps.set_module(0, &descriptor("m0", "BiologicalSequence"), &onto);
        deps.set_module(1, &descriptor("m1", "AlgorithmName"), &onto);
        // BiologicalSequence partitions into itself + DNA/RNA/Protein.
        assert_eq!(deps.modules_for_concept("DNASequence"), vec![0]);
        assert_eq!(deps.modules_for_concept("AlgorithmName"), vec![1]);
        assert!(deps.modules_for_concept("Document").is_empty());
        assert_eq!(deps.cells(0), 4);
        assert_eq!(deps.cells(1), 1);
    }

    #[test]
    fn ontology_deltas_hit_only_modules_annotated_above_the_parent() {
        let onto = mygrid::ontology();
        let mut deps = DependencyIndex::new();
        deps.set_module(0, &descriptor("m0", "BiologicalSequence"), &onto);
        deps.set_module(1, &descriptor("m1", "AlgorithmName"), &onto);
        // A new leaf under DNASequence can only change m0's partitions.
        assert_eq!(deps.modules_with_input_subsuming("DNASequence", &onto), [0]);
        assert!(deps
            .modules_with_input_subsuming("AlignmentReport", &onto)
            .is_empty());
    }

    #[test]
    fn reindexing_a_module_unindexes_its_old_plan() {
        let onto = mygrid::ontology();
        let mut deps = DependencyIndex::new();
        deps.set_module(0, &descriptor("m0", "BiologicalSequence"), &onto);
        deps.set_module(0, &descriptor("m0", "AlgorithmName"), &onto);
        assert!(deps.modules_for_concept("DNASequence").is_empty());
        assert_eq!(deps.modules_for_concept("AlgorithmName"), vec![0]);
    }
}
