//! The delta model of the incremental re-annotation layer (ROADMAP item 4).
//!
//! Real registries change continuously — curators contribute pool
//! instances, providers withdraw and restore modules, the annotation
//! ontology grows new leaves — and the paper's pipeline answers every such
//! change with a full re-run. This module provides the *vocabulary* of
//! incremental recomputation: typed [`Delta`] events, the
//! [`DependencyIndex`] that maps a pool event to the set of modules whose
//! `(input, partition)` cells it can possibly dirty, and the accounting
//! ([`DeltaReport`], `dex.delta.*` telemetry) that makes the savings
//! auditable. The engine that applies deltas to live pipeline state lives
//! in `dex-experiments::incremental`; its equivalence tests compare it
//! against a cold serial generation and the test-only exhaustive matcher.
//!
//! The [`DependencyIndex`] and [`modules_with_input_subsuming`] are the
//! *candidate stage*, and it is sound: a pool mutation on concept `c` can
//! only affect modules with `c` among their planned input partitions (the
//! pool is probed per `(input, partition)`, never scanned), and a concept
//! the ontology lacks is no module's partition; a new ontology leaf `l` can
//! only affect modules with an input annotated by an ancestor-or-self of
//! `l` (only their partition sets can change, and a module annotated `l`
//! itself becomes plannable). Everything else is provably clean without
//! looking at it. The engine regenerates each candidate from
//! its own previous report, which records the outcome of every attempt but
//! a transient one, so a candidate whose picks did not move — e.g. one
//! behind whose probe window an instance was appended — invokes nothing and
//! regenerates an equal report. The candidates whose report differs are
//! the stale set.

use crate::partition::PartitionPlan;
use dex_modules::{ModuleDescriptor, ModuleId};
use dex_ontology::{ConceptId, Ontology};
use dex_pool::AnnotatedInstance;
use serde::{Deserialize, Serialize};

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
    /// Module pairs re-matched this batch.
    pub recomputed_pairs: usize,
    /// Verdicts carried forward unchanged from the previous matrix.
    pub carried_forward: usize,
    /// Stored verdicts dropped without replacement: every stored pair of
    /// a withdrawn module. A fingerprint reads the descriptor alone, so no
    /// other event moves a module out of its bucket.
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

/// The candidate-stage dependency graph: which tracked modules can a pool
/// delta on a given concept possibly affect.
///
/// Keyed by [`ConceptId`] and maintained per slot: a slot is (re)indexed
/// under the partition plan of its generation report in force, so an
/// ontology delta costs one re-index per *regenerated* module, not a full
/// rebuild. The ontology-edge query needs no index: see
/// [`modules_with_input_subsuming`].
#[derive(Debug, Clone, Default)]
pub struct DependencyIndex {
    /// Concept id → the tracked slots whose plan holds it as a partition,
    /// ascending.
    by_partition: Vec<Vec<u32>>,
    /// Per slot: the partition ids of its current plan, input by input
    /// (needed to unindex before refreshing). Empty when planning fails: a
    /// cold run would generate nothing either.
    planned: Vec<Box<[ConceptId]>>,
}

impl DependencyIndex {
    /// An empty index.
    pub fn new() -> DependencyIndex {
        DependencyIndex::default()
    }

    /// (Re)indexes slot `idx` under `plan`, the module's current partition
    /// plan (`None` when it cannot be planned), growing the index as
    /// needed. Call again whenever the plan may have changed.
    pub fn set_module(&mut self, idx: usize, plan: Option<&PartitionPlan>) {
        if idx >= self.planned.len() {
            self.planned.resize_with(idx + 1, Box::default);
        }
        let slot = u32::try_from(idx).expect("tracked slots fit in u32");
        for concept in self.planned[idx].iter() {
            let slots = &mut self.by_partition[concept.index()];
            if let Ok(pos) = slots.binary_search(&slot) {
                slots.remove(pos);
            }
        }
        let planned: Box<[ConceptId]> = plan
            .map(|plan| plan.per_input.iter().flatten().copied().collect())
            .unwrap_or_default();
        for concept in planned.iter() {
            if concept.index() >= self.by_partition.len() {
                self.by_partition.resize_with(concept.index() + 1, Vec::new);
            }
            let slots = &mut self.by_partition[concept.index()];
            if let Err(pos) = slots.binary_search(&slot) {
                slots.insert(pos, slot);
            }
        }
        self.planned[idx] = planned;
    }

    /// Tracked slots whose plan holds partition `concept`, ascending — the
    /// candidate dirty set of a pool delta on that concept.
    pub fn modules_for_concept(&self, concept: ConceptId) -> impl Iterator<Item = usize> + '_ {
        self.by_partition
            .get(concept.index())
            .into_iter()
            .flatten()
            .map(|&slot| slot as usize)
    }

    /// `(input, partition)` cell count of slot `idx`'s current plan.
    pub fn cells(&self, idx: usize) -> usize {
        self.planned.get(idx).map_or(0, |planned| planned.len())
    }
}

/// The slots, in `descriptors` order, with an input annotated by an
/// ancestor-or-self of `concept` — the candidate dirty set of `concept`
/// joining the ontology as a new leaf. Only those modules' partition sets
/// can gain it, and a module annotated with `concept` itself, unknown until
/// now, can be planned at all.
pub fn modules_with_input_subsuming<'d>(
    descriptors: impl IntoIterator<Item = &'d ModuleDescriptor>,
    concept: ConceptId,
    ontology: &Ontology,
) -> Vec<usize> {
    descriptors
        .into_iter()
        .enumerate()
        .filter(|(_, descriptor)| {
            descriptor.inputs.iter().any(|p| {
                ontology
                    .id(&p.semantic)
                    .is_some_and(|annotated| ontology.subsumes(annotated, concept))
            })
        })
        .map(|(idx, _)| idx)
        .collect()
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
    use crate::partition::input_partition_plan;
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

    /// Indexes slot `idx` under `input_concept`'s plan, as the engine does
    /// for a module whose generation failed.
    fn index(deps: &mut DependencyIndex, idx: usize, input_concept: &str, onto: &Ontology) {
        let plan = input_partition_plan(&descriptor("m", input_concept), onto).ok();
        deps.set_module(idx, plan.as_ref());
    }

    fn slots(deps: &DependencyIndex, concept: &str, onto: &Ontology) -> Vec<usize> {
        deps.modules_for_concept(onto.require(concept).unwrap())
            .collect()
    }

    #[test]
    fn pool_deltas_hit_only_modules_planning_the_concept() {
        let onto = mygrid::ontology();
        let mut deps = DependencyIndex::new();
        index(&mut deps, 0, "BiologicalSequence", &onto);
        index(&mut deps, 1, "AlgorithmName", &onto);
        // BiologicalSequence partitions into itself + DNA/RNA/Protein.
        assert_eq!(slots(&deps, "DNASequence", &onto), [0]);
        assert_eq!(slots(&deps, "AlgorithmName", &onto), [1]);
        assert!(slots(&deps, "Document", &onto).is_empty());
        assert_eq!(deps.cells(0), 4);
        assert_eq!(deps.cells(1), 1);
        assert_eq!(deps.cells(2), 0, "an untracked slot has no cells");
    }

    #[test]
    fn slot_lists_stay_ascending_and_an_unplannable_module_plans_nothing() {
        let onto = mygrid::ontology();
        let mut deps = DependencyIndex::new();
        index(&mut deps, 2, "DNASequence", &onto);
        index(&mut deps, 0, "BiologicalSequence", &onto);
        index(&mut deps, 1, "NotAConcept", &onto);
        assert_eq!(slots(&deps, "DNASequence", &onto), [0, 2]);
        assert_eq!(deps.cells(1), 0);
        // A concept past every indexed id, as a fresh ontology leaf is,
        // flags nothing.
        let mut grown = onto.clone();
        let leaf = grown.add_child("GrownSequence", "DNASequence").unwrap();
        assert_eq!(deps.modules_for_concept(leaf).count(), 0);
    }

    #[test]
    fn ontology_deltas_hit_only_modules_annotated_above_the_leaf() {
        let mut onto = mygrid::ontology();
        let descriptors = [
            descriptor("m0", "BiologicalSequence"),
            descriptor("m1", "AlgorithmName"),
            descriptor("m2", "GrownSequence"),
        ];
        // A new leaf under DNASequence can only change m0's partitions, and
        // it makes m2, annotated with the leaf before it existed, plannable.
        let leaf = onto.add_child("GrownSequence", "DNASequence").unwrap();
        assert_eq!(
            modules_with_input_subsuming(&descriptors, leaf, &onto),
            [0, 2]
        );
        let report = onto.require("AlignmentReport").unwrap();
        assert!(modules_with_input_subsuming(&descriptors, report, &onto).is_empty());
    }

    #[test]
    fn reindexing_a_module_unindexes_its_old_plan() {
        let onto = mygrid::ontology();
        let mut deps = DependencyIndex::new();
        index(&mut deps, 0, "BiologicalSequence", &onto);
        index(&mut deps, 0, "AlgorithmName", &onto);
        assert!(slots(&deps, "DNASequence", &onto).is_empty());
        assert_eq!(slots(&deps, "AlgorithmName", &onto), [0]);
        assert_eq!(deps.cells(0), 1);
        deps.set_module(0, None);
        assert!(slots(&deps, "AlgorithmName", &onto).is_empty());
        assert_eq!(deps.cells(0), 0);
    }
}
