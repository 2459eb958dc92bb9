//! The instance pool and its `getInstance` lookups.

use crate::instance::AnnotatedInstance;
use dex_ontology::{ConceptId, Ontology};
use dex_values::{StructuralType, Value};
use serde::{Content, DeError, Deserialize, Serialize};
use std::collections::HashMap;

/// Structural conformance of one pool instance, precomputed at index time.
///
/// `get_instance` must test every realization candidate against the
/// parameter's structural type; caching the verdict-determining shape here
/// turns that test into an enum match + [`StructuralType::accepts`] instead
/// of a recursive walk over the value on every query.
#[derive(Debug, Clone)]
enum CachedShape {
    /// `Null`: conforms to every structural type.
    Any,
    /// A value whose conformance is exactly `query.accepts(shape)` — scalars,
    /// and lists whose non-null elements all share one structural type.
    Exact(StructuralType),
    /// Mixed or empty lists: conformance needs the full recursive
    /// [`Value::conforms_to`] walk.
    Opaque,
}

/// Pool-lookup counters, interned once — `get_instance` is the hottest
/// instrumented path in the generator.
fn pool_counters() -> &'static (
    dex_telemetry::Counter,
    dex_telemetry::Counter,
    dex_telemetry::Counter,
) {
    use std::sync::OnceLock;
    static COUNTERS: OnceLock<(
        dex_telemetry::Counter,
        dex_telemetry::Counter,
        dex_telemetry::Counter,
    )> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        (
            dex_telemetry::counter("dex.pool.lookups"),
            dex_telemetry::counter("dex.pool.lookup_misses"),
            dex_telemetry::counter("dex.pool.subtree_merges"),
        )
    })
}

impl CachedShape {
    fn of(value: &Value) -> CachedShape {
        match value {
            Value::Null => CachedShape::Any,
            Value::List(items) => {
                let mut inner: Option<StructuralType> = None;
                for item in items {
                    match CachedShape::of(item) {
                        CachedShape::Any => {}
                        CachedShape::Exact(t) => match &inner {
                            None => inner = Some(t),
                            Some(prev) if *prev == t => {}
                            Some(_) => return CachedShape::Opaque,
                        },
                        CachedShape::Opaque => return CachedShape::Opaque,
                    }
                }
                match inner {
                    Some(t) => CachedShape::Exact(StructuralType::list_of(t)),
                    // Empty / all-null lists conform to every list type but
                    // no scalar type; leave those to the full walk.
                    None => CachedShape::Opaque,
                }
            }
            scalar => match scalar.structural_type() {
                Some(t) => CachedShape::Exact(t),
                None => CachedShape::Opaque,
            },
        }
    }
}

/// Realizations of one exact concept: instance indices in insertion order,
/// each with its cached structural shape.
#[derive(Debug, Clone, Default)]
struct Bucket {
    entries: Vec<(usize, CachedShape)>,
}

/// Derived lookup structures, skipped by serde and rebuilt when a pool is
/// deserialized.
#[derive(Debug, Clone, Default)]
struct PoolIndex {
    /// concept name → slot in `buckets`.
    slot_by_name: HashMap<String, usize>,
    buckets: Vec<Bucket>,
}

impl PoolIndex {
    fn add(&mut self, instance_idx: usize, instance: &AnnotatedInstance) {
        let slot = match self.slot_by_name.get(&instance.concept) {
            Some(&slot) => slot,
            None => {
                let slot = self.buckets.len();
                self.slot_by_name.insert(instance.concept.clone(), slot);
                self.buckets.push(Bucket::default());
                slot
            }
        };
        self.buckets[slot]
            .entries
            .push((instance_idx, CachedShape::of(&instance.value)));
    }

    fn bucket(&self, concept: &str) -> &[(usize, CachedShape)] {
        self.slot_by_name
            .get(concept)
            .map(|&slot| self.buckets[slot].entries.as_slice())
            .unwrap_or(&[])
    }
}

/// A pool of annotated instances with concept-indexed lookup.
///
/// Instances are kept in insertion order; all lookups return instances in
/// that order, so a fixed pool gives fully deterministic data-example
/// generation.
#[derive(Debug, Clone, Default, Serialize)]
pub struct InstancePool {
    name: String,
    instances: Vec<AnnotatedInstance>,
    #[serde(skip)]
    index: PoolIndex,
}

impl InstancePool {
    /// An empty pool.
    pub fn new(name: impl Into<String>) -> Self {
        InstancePool::with_capacity(name, 0)
    }

    /// An empty pool with room for `instances` instances.
    pub(crate) fn with_capacity(name: impl Into<String>, instances: usize) -> Self {
        InstancePool {
            name: name.into(),
            instances: Vec::with_capacity(instances),
            index: PoolIndex::default(),
        }
    }

    /// The pool's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the pool has no instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Adds an instance.
    pub fn add(&mut self, instance: AnnotatedInstance) {
        let idx = self.instances.len();
        self.index.add(idx, &instance);
        self.instances.push(instance);
    }

    /// Iterates all instances in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &AnnotatedInstance> {
        self.instances.iter()
    }

    /// Instances that *realize* `concept` — annotated with exactly it.
    pub fn realizations_of(&self, concept: &str) -> impl Iterator<Item = &AnnotatedInstance> {
        self.index
            .bucket(concept)
            .iter()
            .map(|&(i, _)| &self.instances[i])
    }

    /// The paper's `getInstance(c, pl)`: the first instance realizing
    /// `concept` whose structure is accepted by `structural`; `skip` selects
    /// later candidates deterministically (used by the matcher to pick the
    /// *same* values for two modules, and by ablations to vary values).
    ///
    /// An indexed lookup: candidates come from the concept's bucket and the
    /// structural test uses the shape cached at index time, so no value is
    /// re-walked per query.
    pub fn get_instance(
        &self,
        concept: &str,
        structural: &StructuralType,
        skip: usize,
    ) -> Option<&AnnotatedInstance> {
        pool_counters().0.add(1);
        let mut remaining = skip;
        for (i, shape) in self.index.bucket(concept) {
            let conforms = match shape {
                CachedShape::Any => true,
                CachedShape::Exact(actual) => structural.accepts(actual),
                CachedShape::Opaque => self.instances[*i].value.conforms_to(structural),
            };
            if conforms {
                if remaining == 0 {
                    return Some(&self.instances[*i]);
                }
                remaining -= 1;
            }
        }
        pool_counters().1.add(1);
        None
    }

    /// Instances of `concept` under instance-of semantics: annotated with
    /// `concept` or any concept subsumed by it. Requires the ontology to
    /// resolve subsumption; instances annotated with names the ontology does
    /// not know are skipped.
    ///
    /// Subtree-aware: enumerates the concept's descendants (a contiguous
    /// pre-order slice under the ontology's interval labels) and merges
    /// their realization buckets, instead of scanning every instance and
    /// walking parent chains. Cost is O(descendants + hits·log hits) rather
    /// than O(pool size × depth).
    pub fn instances_of<'a>(
        &'a self,
        concept: &str,
        ontology: &'a Ontology,
    ) -> impl Iterator<Item = &'a AnnotatedInstance> {
        let indices = match ontology.id(concept) {
            Some(target) => self.subtree_indices(target, ontology),
            None => Vec::new(),
        };
        indices.into_iter().map(move |i| &self.instances[i])
    }

    /// Pool indices of all instances-of `concept`, in insertion order.
    fn subtree_indices(&self, concept: ConceptId, ontology: &Ontology) -> Vec<usize> {
        pool_counters().2.add(1);
        let mut indices: Vec<usize> = Vec::new();
        for c in ontology.descendants(concept) {
            indices.extend(
                self.index
                    .bucket(ontology.concept_name(c))
                    .iter()
                    .map(|&(i, _)| i),
            );
        }
        // Buckets are per-concept runs; sorting restores global insertion
        // order across the merged subtree.
        indices.sort_unstable();
        indices
    }

    /// Concepts that have at least one realization in the pool, sorted.
    pub fn covered_concepts(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .index
            .slot_by_name
            .iter()
            .filter(|(_, &slot)| !self.index.buckets[slot].entries.is_empty())
            .map(|(k, _)| k.as_str())
            .collect();
        names.sort_unstable();
        names
    }

    /// Rebuilds the concept index from the instance list.
    fn rebuild_index(&mut self) {
        self.index = PoolIndex::default();
        for (idx, inst) in self.instances.iter().enumerate() {
            self.index.add(idx, inst);
        }
    }

    /// Serializes the pool to JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Loads a pool from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<InstancePool> {
        serde_json::from_str(json)
    }

    /// Retains only instances satisfying the predicate (used by pool-size
    /// ablations). Rebuilds the index.
    pub fn retain(&mut self, predicate: impl FnMut(&AnnotatedInstance) -> bool) {
        self.instances.retain(predicate);
        self.rebuild_index();
    }

    /// Removes the `occurrence`-th instance annotated exactly `concept`
    /// (in insertion order, the order [`realizations_of`] iterates) and
    /// returns it; `None` — and no change — when the concept has fewer
    /// occurrences. The single-instance mutation behind the incremental
    /// layer's `Delta::PoolRemove` event.
    ///
    /// The index is updated in place: the concept's bucket entry names the
    /// instance's position, that entry is removed, and every stored position
    /// above it shifts down by one — no shape is recomputed and no name is
    /// re-hashed.
    ///
    /// [`realizations_of`]: InstancePool::realizations_of
    pub fn remove_realization(
        &mut self,
        concept: &str,
        occurrence: usize,
    ) -> Option<AnnotatedInstance> {
        let &slot = self.index.slot_by_name.get(concept)?;
        let entries = &mut self.index.buckets[slot].entries;
        if occurrence >= entries.len() {
            return None;
        }
        let (pos, _) = entries.remove(occurrence);
        for bucket in &mut self.index.buckets {
            for (idx, _) in &mut bucket.entries {
                if *idx > pos {
                    *idx -= 1;
                }
            }
        }
        Some(self.instances.remove(pos))
    }
}

/// The stored fields of an [`InstancePool`], as serialized.
#[derive(Deserialize)]
struct StoredPool {
    name: String,
    instances: Vec<AnnotatedInstance>,
}

/// Rebuilds the concept index, so a deserialized pool answers lookups.
impl Deserialize for InstancePool {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let stored = StoredPool::from_content(content)?;
        let mut pool = InstancePool {
            name: stored.name,
            instances: stored.instances,
            index: PoolIndex::default(),
        };
        pool.rebuild_index();
        Ok(pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::AnnotatedInstance;
    use dex_values::Value;

    fn sample_ontology() -> Ontology {
        dex_ontology::text::parse(
            "ontology t\nBioData\n  Sequence\n    DNA\n    Protein\n  Accession\n",
        )
        .unwrap()
    }

    fn pool() -> InstancePool {
        let mut p = InstancePool::new("test");
        p.add(AnnotatedInstance::synthetic(Value::text("ACGT"), "DNA"));
        p.add(AnnotatedInstance::synthetic(Value::text("MKVL"), "Protein"));
        p.add(AnnotatedInstance::synthetic(
            Value::text("NNNN"),
            "Sequence",
        ));
        p.add(AnnotatedInstance::synthetic(Value::text("TTTT"), "DNA"));
        p.add(AnnotatedInstance::synthetic(Value::Integer(7), "Accession"));
        p
    }

    #[test]
    fn realizations_are_exact_matches_in_order() {
        let p = pool();
        let dna: Vec<String> = p
            .realizations_of("DNA")
            .map(|i| i.value.to_string())
            .collect();
        assert_eq!(dna, vec!["ACGT", "TTTT"]);
        assert_eq!(p.realizations_of("Nope").count(), 0);
    }

    #[test]
    fn get_instance_respects_structure_and_skip() {
        let p = pool();
        let first = p.get_instance("DNA", &StructuralType::Text, 0).unwrap();
        assert_eq!(first.value, Value::text("ACGT"));
        let second = p.get_instance("DNA", &StructuralType::Text, 1).unwrap();
        assert_eq!(second.value, Value::text("TTTT"));
        assert!(p.get_instance("DNA", &StructuralType::Text, 2).is_none());
        // Structural filter: the Accession instance is an Integer.
        assert!(p
            .get_instance("Accession", &StructuralType::Text, 0)
            .is_none());
        assert!(p
            .get_instance("Accession", &StructuralType::Integer, 0)
            .is_some());
    }

    #[test]
    fn instance_of_semantics_includes_descendants() {
        let p = pool();
        let o = sample_ontology();
        let seqs: Vec<String> = p
            .instances_of("Sequence", &o)
            .map(|i| i.value.to_string())
            .collect();
        // DNA + Protein + Sequence realization + DNA again, in pool order.
        assert_eq!(seqs, vec!["ACGT", "MKVL", "NNNN", "TTTT"]);
        assert_eq!(p.instances_of("DNA", &o).count(), 2);
        assert_eq!(p.instances_of("Unknown", &o).count(), 0);
    }

    #[test]
    fn covered_concepts_sorted() {
        let p = pool();
        assert_eq!(
            p.covered_concepts(),
            vec!["Accession", "DNA", "Protein", "Sequence"]
        );
    }

    #[test]
    fn retain_rebuilds_index() {
        let mut p = pool();
        p.retain(|i| i.concept != "DNA");
        assert_eq!(p.len(), 3);
        assert_eq!(p.realizations_of("DNA").count(), 0);
        assert_eq!(p.realizations_of("Protein").count(), 1);
    }

    #[test]
    fn remove_realization_targets_nth_occurrence() {
        let mut p = pool();
        // Occurrence index counts within the concept, not the whole pool.
        let removed = p.remove_realization("DNA", 1).unwrap();
        assert_eq!(removed.value, Value::text("TTTT"));
        assert_eq!(p.len(), 4);
        let dna: Vec<String> = p
            .realizations_of("DNA")
            .map(|i| i.value.to_string())
            .collect();
        assert_eq!(dna, vec!["ACGT"]);
        // Other buckets keep their order after the index rebuild.
        assert!(p
            .get_instance("Accession", &StructuralType::Integer, 0)
            .is_some());
        // Out-of-range occurrence and unknown concept are no-ops.
        assert!(p.remove_realization("DNA", 1).is_none());
        assert!(p.remove_realization("Nope", 0).is_none());
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn serde_round_trip_with_reindex() {
        let p = pool();
        // Plain serde, not `from_json`: deserializing must rebuild the index.
        let back: InstancePool = serde_json::from_str(&p.to_json().unwrap()).unwrap();
        assert_eq!(back.len(), p.len());
        assert_eq!(back.covered_concepts(), p.covered_concepts());
        let values = |pool: &InstancePool, name: &str| -> Vec<Value> {
            pool.realizations_of(name)
                .map(|i| i.value.clone())
                .collect()
        };
        for name in ["BioData", "Sequence", "DNA", "Protein", "Accession"] {
            assert_eq!(values(&back, name), values(&p, name), "{name}");
            for structural in [StructuralType::Text, StructuralType::Integer] {
                for skip in 0..3 {
                    assert_eq!(
                        back.get_instance(name, &structural, skip).map(|i| &i.value),
                        p.get_instance(name, &structural, skip).map(|i| &i.value),
                        "{name} {structural:?} skip {skip}"
                    );
                }
            }
        }
    }

    #[test]
    fn cached_shapes_preserve_conformance_semantics() {
        let mut p = InstancePool::new("shapes");
        p.add(AnnotatedInstance::synthetic(Value::Null, "C"));
        p.add(AnnotatedInstance::synthetic(Value::Integer(1), "C"));
        p.add(AnnotatedInstance::synthetic(
            Value::from(vec![1i64, 2]),
            "C",
        ));
        p.add(AnnotatedInstance::synthetic(Value::List(vec![]), "C"));
        p.add(AnnotatedInstance::synthetic(
            Value::List(vec![Value::Integer(1), Value::text("x")]),
            "C",
        ));
        let queries = [
            StructuralType::Text,
            StructuralType::Integer,
            StructuralType::Float,
            StructuralType::list_of(StructuralType::Integer),
            StructuralType::list_of(StructuralType::Float),
            StructuralType::list_of(StructuralType::Text),
        ];
        // Oracle: the unindexed per-value conformance walk.
        for q in &queries {
            let expected: Vec<&AnnotatedInstance> =
                p.iter().filter(|i| i.value.conforms_to(q)).collect();
            for (skip, want) in expected.iter().enumerate() {
                let got = p.get_instance("C", q, skip).unwrap();
                assert_eq!(got.value, want.value, "query {q:?} skip {skip}");
            }
            assert!(p.get_instance("C", q, expected.len()).is_none());
        }
    }

    #[test]
    fn rebuild_index_matches_fresh_scan_after_retain_and_serde() {
        let assert_consistent = |p: &InstancePool| {
            // Every concept's bucket must list exactly the pool indices a
            // fresh scan finds, in insertion order.
            for name in p.covered_concepts() {
                let scanned: Vec<&AnnotatedInstance> =
                    p.iter().filter(|i| i.concept == name).collect();
                let indexed: Vec<&AnnotatedInstance> = p.realizations_of(name).collect();
                assert_eq!(indexed.len(), scanned.len(), "{name}");
                for (a, b) in indexed.iter().zip(&scanned) {
                    assert_eq!(a.value, b.value, "{name}");
                }
            }
            let total: usize = p
                .covered_concepts()
                .iter()
                .map(|n| p.realizations_of(n).count())
                .sum();
            assert_eq!(total, p.len(), "index covers every instance");
        };

        // The index as a value: each non-empty bucket's concept with its
        // positions and cached shapes, in name order.
        let index_of = |p: &InstancePool| -> Vec<(String, String)> {
            let mut rows: Vec<(String, String)> = p
                .index
                .slot_by_name
                .iter()
                .filter(|(_, &slot)| !p.index.buckets[slot].entries.is_empty())
                .map(|(name, &slot)| (name.clone(), format!("{:?}", p.index.buckets[slot].entries)))
                .collect();
            rows.sort();
            rows
        };
        let assert_matches_rebuild = |p: &InstancePool| {
            assert_consistent(p);
            let mut rebuilt = p.clone();
            rebuilt.rebuild_index();
            assert_eq!(index_of(p), index_of(&rebuilt));
            assert_eq!(p.covered_concepts(), rebuilt.covered_concepts());
        };

        let mut p = pool();
        assert_consistent(&p);
        p.retain(|i| i.concept != "DNA");
        assert_consistent(&p);
        let back = InstancePool::from_json(&p.to_json().unwrap()).unwrap();
        assert_consistent(&back);
        assert_eq!(back.covered_concepts(), p.covered_concepts());

        // Seeded remove/add sequences: the in-place index maintenance of
        // `remove_realization` and `add` must leave exactly the index a
        // rebuild produces, including buckets emptied and refilled.
        let concepts = ["DNA", "Protein", "Sequence", "Accession", "RNA"];
        for seed in 0..8u64 {
            let mut p = pool();
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            for step in 0..40 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let concept = concepts[(state >> 8) as usize % concepts.len()];
                if state % 3 == 0 {
                    let value = if state % 2 == 0 {
                        Value::text(format!("V{step}"))
                    } else {
                        Value::Integer(step)
                    };
                    p.add(AnnotatedInstance::synthetic(value, concept));
                } else {
                    let occurrence = (state >> 16) as usize % 3;
                    let expected = p
                        .iter()
                        .filter(|i| i.concept == concept)
                        .nth(occurrence)
                        .map(|i| i.value.clone());
                    let before = p.len();
                    let removed = p.remove_realization(concept, occurrence);
                    assert_eq!(removed.map(|i| i.value), expected, "step {step}");
                    assert_eq!(p.len(), before - usize::from(expected.is_some()));
                }
                assert_matches_rebuild(&p);
            }
        }
    }
}
