//! The arena-backed concept hierarchy and its subsumption queries.

use crate::concept::{Concept, ConceptId};
use crate::error::OntologyError;
use serde::{Content, DeError, Deserialize, Serialize};
use std::collections::HashMap;

/// A domain ontology: a forest of named concepts related by subsumption.
///
/// The paper models an ontology as "a hierarchy of concepts" connected by the
/// subsumption relationship (`ProteinSequence < BiologicalSequence`). This
/// type stores that hierarchy in a flat arena with parent/child adjacency and
/// a name index, so every query the generation heuristic needs —
/// [`partitions_of`](Ontology::partitions_of), [`subsumes`](Ontology::subsumes),
/// realization checks — is an index walk without hashing or allocation on the
/// hot path.
///
/// # Invariants
///
/// * Concept names are unique.
/// * The parent relation is acyclic (enforced at build time: a parent must
///   already exist when its child is added).
/// * `children[p]` lists exactly the concepts whose `parent == Some(p)`, in
///   insertion order (deterministic partition enumeration depends on this).
/// * A concept marked *abstract* (its domain is fully covered by its
///   sub-concepts' domains, so no instance can realize it) is never a leaf.
///
/// Deserialization rejects stored tables that disagree with the concepts'
/// parent links and rebuilds the name index and interval labels, so a
/// deserialized ontology answers every query exactly as the one that was
/// serialized.
#[derive(Debug, Clone, Serialize)]
pub struct Ontology {
    name: String,
    concepts: Vec<Concept>,
    children: Vec<Vec<ConceptId>>,
    /// `true` for concepts whose domain is covered by their sub-concepts;
    /// such concepts cannot be realized and get no data example of their own.
    abstract_flags: Vec<bool>,
    depths: Vec<u32>,
    /// DFS entry time of each concept (its position in [`preorder`]).
    ///
    /// Together with [`last`], this labels every concept with the interval
    /// `entry[c]..=last[c]` covering exactly its subtree, so subsumption is
    /// an O(1) interval containment test instead of a parent walk. Derived
    /// state: skipped by serde and rebuilt on deserialization.
    #[serde(skip)]
    entry: Vec<u32>,
    /// Largest DFS entry time within each concept's subtree.
    #[serde(skip)]
    last: Vec<u32>,
    /// Concepts in DFS pre-order (roots and children in insertion order):
    /// any subtree is the contiguous slice `preorder[entry[c]..=last[c]]`.
    #[serde(skip)]
    preorder: Vec<ConceptId>,
    #[serde(skip)]
    by_name: HashMap<String, ConceptId>,
}

impl Ontology {
    /// Starts building an ontology with the given name.
    pub fn builder(name: impl Into<String>) -> OntologyBuilder {
        OntologyBuilder::new(name)
    }

    /// The ontology's name (e.g. `"mygrid"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of concepts.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// Whether the ontology holds no concepts.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// Looks up a concept id by its unique name.
    pub fn id(&self, name: &str) -> Option<ConceptId> {
        self.by_name.get(name).copied()
    }

    /// Like [`id`](Ontology::id) but returns an error naming the missing concept.
    pub fn require(&self, name: &str) -> Result<ConceptId, OntologyError> {
        self.id(name)
            .ok_or_else(|| OntologyError::UnknownConcept(name.to_string()))
    }

    /// The concept metadata behind an id.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this ontology.
    pub fn concept(&self, id: ConceptId) -> &Concept {
        &self.concepts[id.index()]
    }

    /// Fallible variant of [`concept`](Ontology::concept).
    pub fn get(&self, id: ConceptId) -> Option<&Concept> {
        self.concepts.get(id.index())
    }

    /// The unique machine name of a concept.
    pub fn concept_name(&self, id: ConceptId) -> &str {
        &self.concepts[id.index()].name
    }

    /// Direct super-concept, or `None` for roots.
    pub fn parent(&self, id: ConceptId) -> Option<ConceptId> {
        self.concepts[id.index()].parent
    }

    /// Direct sub-concepts, in insertion order.
    pub fn children(&self, id: ConceptId) -> &[ConceptId] {
        &self.children[id.index()]
    }

    /// Whether the concept has no sub-concepts.
    pub fn is_leaf(&self, id: ConceptId) -> bool {
        self.children[id.index()].is_empty()
    }

    /// Whether instances can *realize* this concept — i.e. be an instance of
    /// it without being an instance of any strict sub-concept.
    ///
    /// The paper (§3.2): "if it is not possible to have an instance that is a
    /// realization of a concept because its domain is covered by the domains
    /// of its subconcepts, then we do not create a data example for such a
    /// concept". Abstract concepts are exactly those.
    pub fn can_be_realized(&self, id: ConceptId) -> bool {
        !self.abstract_flags[id.index()]
    }

    /// All root concepts (no parent), in insertion order.
    pub fn roots(&self) -> impl Iterator<Item = ConceptId> + '_ {
        self.concepts
            .iter()
            .enumerate()
            .filter(|(_, c)| c.parent.is_none())
            .map(|(i, _)| ConceptId::from_index(i))
    }

    /// Iterates every concept id in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = ConceptId> + '_ {
        (0..self.concepts.len()).map(ConceptId::from_index)
    }

    /// Depth of a concept: 0 for roots, parent depth + 1 otherwise.
    pub fn depth(&self, id: ConceptId) -> u32 {
        self.depths[id.index()]
    }

    /// Iterates `id`, its parent, grand-parent, … up to the root.
    pub fn ancestors(&self, id: ConceptId) -> Ancestors<'_> {
        Ancestors {
            ontology: self,
            next: Some(id),
        }
    }

    /// Non-strict subsumption: does `general` subsume `specific`
    /// (`specific <= general`)?
    ///
    /// Runs in O(1) via DFS interval containment: `general`'s subtree is
    /// exactly the entry-time interval `entry[general]..=last[general]`, so
    /// membership is two integer comparisons.
    #[inline]
    pub fn subsumes(&self, general: ConceptId, specific: ConceptId) -> bool {
        let e = self.entry[specific.index()];
        self.entry[general.index()] <= e && e <= self.last[general.index()]
    }

    /// Strict subsumption: `specific < general`.
    #[inline]
    pub fn strictly_subsumes(&self, general: ConceptId, specific: ConceptId) -> bool {
        general != specific && self.subsumes(general, specific)
    }

    /// All concepts subsumed by `root` (including `root` itself), in
    /// deterministic pre-order.
    ///
    /// This is a copy of the contiguous pre-order slice covering `root`'s
    /// subtree — O(k) for k descendants, no stack and no per-node child
    /// iteration.
    pub fn descendants(&self, root: ConceptId) -> Vec<ConceptId> {
        let lo = self.entry[root.index()] as usize;
        let hi = self.last[root.index()] as usize;
        self.preorder[lo..=hi].to_vec()
    }

    /// The sub-domain partitions of the domain of a parameter annotated with
    /// `concept` (the paper's §3.1).
    ///
    /// These are every concept subsumed by `concept` — the annotation concept
    /// itself plus all of its descendants — *minus* abstract concepts, whose
    /// domains are covered by their sub-concepts and therefore are already
    /// represented by the sub-concepts' partitions.
    pub fn partitions_of(&self, concept: ConceptId) -> Vec<ConceptId> {
        self.descendants(concept)
            .into_iter()
            .filter(|&c| self.can_be_realized(c))
            .collect()
    }

    /// Lowest common ancestor of two concepts, or `None` when they live in
    /// different trees of the forest.
    ///
    /// The answer is the first concept on `a`'s root-ward ancestor chain
    /// (`a` itself included) whose interval contains `b` — one O(1) test per
    /// climbed edge.
    pub fn lca(&self, a: ConceptId, b: ConceptId) -> Option<ConceptId> {
        let mut cur = a;
        while !self.subsumes(cur, b) {
            cur = self.concepts[cur.index()].parent?;
        }
        Some(cur)
    }

    /// Semantic distance: number of subsumption edges on the path between two
    /// concepts through their LCA, or `None` if they are unrelated.
    pub fn distance(&self, a: ConceptId, b: ConceptId) -> Option<u32> {
        let l = self.lca(a, b)?;
        Some(self.depths[a.index()] + self.depths[b.index()] - 2 * self.depths[l.index()])
    }

    /// Validates an id against this ontology.
    pub fn check_id(&self, id: ConceptId) -> Result<ConceptId, OntologyError> {
        if id.index() < self.concepts.len() {
            Ok(id)
        } else {
            Err(OntologyError::ForeignId(id.0))
        }
    }

    /// Rebuilds the derived state skipped by serde: the name index and the
    /// DFS interval labels backing the O(1) subsumption / O(k) descendants
    /// queries.
    fn rebuild_index(&mut self) {
        self.by_name = self
            .concepts
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), ConceptId::from_index(i)))
            .collect();
        let (entry, last, preorder) = compute_intervals(&self.concepts, &self.children);
        self.entry = entry;
        self.last = last;
        self.preorder = preorder;
    }

    /// Appends a new *concrete* leaf concept named `name` under `parent` —
    /// the `OntologyEdgeAdd` mutation of the incremental layer's delta
    /// model. The arena is append-only, so every existing [`ConceptId`]
    /// stays valid; only the derived indexes are recomputed. Errors on a
    /// duplicate name or an unknown parent, leaving the ontology untouched.
    pub fn add_child(
        &mut self,
        name: impl Into<String>,
        parent: &str,
    ) -> Result<ConceptId, OntologyError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(OntologyError::DuplicateConcept(name));
        }
        let parent_id = self.require(parent)?;
        let id = ConceptId::from_index(self.concepts.len());
        self.concepts.push(Concept::named(name, Some(parent_id)));
        self.children.push(Vec::new());
        self.children[parent_id.index()].push(id);
        self.abstract_flags.push(false);
        self.depths.push(self.depths[parent_id.index()] + 1);
        self.rebuild_index();
        Ok(id)
    }
}

/// The stored fields of an [`Ontology`], as serialized.
#[derive(Deserialize)]
struct StoredOntology {
    name: String,
    concepts: Vec<Concept>,
    children: Vec<Vec<ConceptId>>,
    abstract_flags: Vec<bool>,
    depths: Vec<u32>,
}

/// Rejects the stored tables a query could panic or loop on — a table whose
/// length differs from the concept arena, a parent that does not precede
/// its child, child lists or depths that disagree with the parent links —
/// and rebuilds the derived indexes.
impl Deserialize for Ontology {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let stored = StoredOntology::from_content(content)?;
        let malformed =
            |what: String| DeError::custom(format!("ontology `{}`: {what}", stored.name));
        let n = stored.concepts.len();
        for (table, len) in [
            ("children", stored.children.len()),
            ("abstract_flags", stored.abstract_flags.len()),
            ("depths", stored.depths.len()),
        ] {
            if len != n {
                return Err(malformed(format!(
                    "{table} has {len} rows for {n} concepts"
                )));
            }
        }
        // A parent preceding its child in the arena rules out cycles.
        for (i, concept) in stored.concepts.iter().enumerate() {
            if let Some(parent) = concept.parent.filter(|p| p.index() >= i) {
                return Err(malformed(format!(
                    "concept {i} names parent {parent}, which does not precede it"
                )));
            }
        }
        let (children, depths) = parent_links(&stored.concepts);
        if children != stored.children || depths != stored.depths {
            return Err(malformed(
                "children or depths disagree with the parent links".to_string(),
            ));
        }
        let mut ontology = Ontology {
            name: stored.name,
            concepts: stored.concepts,
            children,
            abstract_flags: stored.abstract_flags,
            depths,
            entry: Vec::new(),
            last: Vec::new(),
            preorder: Vec::new(),
            by_name: HashMap::new(),
        };
        ontology.rebuild_index();
        Ok(ontology)
    }
}

/// The child lists (in arena order) and depths the concepts' parent links
/// imply. Parents precede their children in the arena, so one pass suffices.
fn parent_links(concepts: &[Concept]) -> (Vec<Vec<ConceptId>>, Vec<u32>) {
    let mut children: Vec<Vec<ConceptId>> = vec![Vec::new(); concepts.len()];
    let mut depths = vec![0u32; concepts.len()];
    for (i, c) in concepts.iter().enumerate() {
        if let Some(p) = c.parent {
            children[p.index()].push(ConceptId::from_index(i));
            depths[i] = depths[p.index()] + 1;
        }
    }
    (children, depths)
}

/// Labels every concept with its DFS entry time and the largest entry time in
/// its subtree, visiting roots and children in insertion order. One global
/// counter runs across the whole forest, so intervals of disjoint trees never
/// overlap and `preorder` matches the historical explicit-stack DFS order.
fn compute_intervals(
    concepts: &[Concept],
    children: &[Vec<ConceptId>],
) -> (Vec<u32>, Vec<u32>, Vec<ConceptId>) {
    let n = concepts.len();
    let mut entry = vec![0u32; n];
    let mut last = vec![0u32; n];
    let mut preorder = Vec::with_capacity(n);
    let mut clock = 0u32;
    let mut stack: Vec<ConceptId> = Vec::new();
    for (i, c) in concepts.iter().enumerate() {
        if c.parent.is_some() {
            continue;
        }
        stack.push(ConceptId::from_index(i));
        while let Some(c) = stack.pop() {
            entry[c.index()] = clock;
            preorder.push(c);
            clock += 1;
            for &child in children[c.index()].iter().rev() {
                stack.push(child);
            }
        }
    }
    // `last[c]` is the max entry time in c's subtree: seed with own entry,
    // then fold children into parents in reverse arena order (children always
    // follow their parents in the arena, so each child's value is final).
    for (i, e) in entry.iter().enumerate() {
        last[i] = *e;
    }
    for i in (0..n).rev() {
        if let Some(p) = concepts[i].parent {
            let li = last[i];
            let lp = &mut last[p.index()];
            if li > *lp {
                *lp = li;
            }
        }
    }
    (entry, last, preorder)
}

/// Iterator over a concept and its ancestors, root-ward.
pub struct Ancestors<'a> {
    ontology: &'a Ontology,
    next: Option<ConceptId>,
}

impl Iterator for Ancestors<'_> {
    type Item = ConceptId;

    fn next(&mut self) -> Option<ConceptId> {
        let cur = self.next?;
        self.next = self.ontology.parent(cur);
        Some(cur)
    }
}

/// Incremental construction of an [`Ontology`].
///
/// Parents must be added before their children, which makes cycles
/// unrepresentable by construction.
#[derive(Debug, Clone)]
pub struct OntologyBuilder {
    name: String,
    concepts: Vec<Concept>,
    abstract_flags: Vec<bool>,
    by_name: HashMap<String, ConceptId>,
}

impl OntologyBuilder {
    /// Creates an empty builder for an ontology with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        OntologyBuilder {
            name: name.into(),
            concepts: Vec::new(),
            abstract_flags: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Adds a root concept.
    pub fn root(&mut self, name: &str) -> Result<ConceptId, OntologyError> {
        self.insert(Concept::named(name, None), false)
    }

    /// Adds a concept under an existing parent.
    pub fn child(&mut self, name: &str, parent: &str) -> Result<ConceptId, OntologyError> {
        let parent_id = self
            .by_name
            .get(parent)
            .copied()
            .ok_or_else(|| OntologyError::UnknownConcept(parent.to_string()))?;
        self.insert(Concept::named(name, Some(parent_id)), false)
    }

    /// Adds a concept under an existing parent and marks it *abstract*: its
    /// domain is fully covered by its (future) sub-concepts, so it cannot be
    /// realized and receives no partition of its own.
    pub fn abstract_child(&mut self, name: &str, parent: &str) -> Result<ConceptId, OntologyError> {
        let parent_id = self
            .by_name
            .get(parent)
            .copied()
            .ok_or_else(|| OntologyError::UnknownConcept(parent.to_string()))?;
        self.insert(Concept::named(name, Some(parent_id)), true)
    }

    /// Adds an abstract root concept.
    pub fn abstract_root(&mut self, name: &str) -> Result<ConceptId, OntologyError> {
        self.insert(Concept::named(name, None), true)
    }

    /// Sets the description of an already-added concept.
    pub fn describe(&mut self, name: &str, description: &str) -> Result<(), OntologyError> {
        let id = self
            .by_name
            .get(name)
            .copied()
            .ok_or_else(|| OntologyError::UnknownConcept(name.to_string()))?;
        self.concepts[id.index()].description = description.to_string();
        Ok(())
    }

    fn insert(&mut self, concept: Concept, is_abstract: bool) -> Result<ConceptId, OntologyError> {
        if self.by_name.contains_key(&concept.name) {
            return Err(OntologyError::DuplicateConcept(concept.name));
        }
        let id = ConceptId::from_index(self.concepts.len());
        self.by_name.insert(concept.name.clone(), id);
        self.concepts.push(concept);
        self.abstract_flags.push(is_abstract);
        Ok(id)
    }

    /// Finalizes the ontology.
    ///
    /// Fails if any abstract concept ended up a leaf (an abstract leaf would
    /// denote an empty domain, which the paper's model has no use for).
    pub fn build(self) -> Result<Ontology, OntologyError> {
        let (children, depths) = parent_links(&self.concepts);
        for (i, &is_abstract) in self.abstract_flags.iter().enumerate() {
            if is_abstract && children[i].is_empty() {
                return Err(OntologyError::UnknownConcept(format!(
                    "abstract concept `{}` has no sub-concepts (its domain would be empty)",
                    self.concepts[i].name
                )));
            }
        }
        let (entry, last, preorder) = compute_intervals(&self.concepts, &children);
        Ok(Ontology {
            name: self.name,
            concepts: self.concepts,
            children,
            abstract_flags: self.abstract_flags,
            depths,
            entry,
            last,
            preorder,
            by_name: self.by_name,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BioData > {BiologicalSequence > {NucleotideSequence > {DNA, RNA},
    /// ProteinSequence}, Accession}
    fn sample() -> Ontology {
        let mut b = Ontology::builder("test");
        b.root("BioData").unwrap();
        b.child("BiologicalSequence", "BioData").unwrap();
        b.abstract_child("NucleotideSequence", "BiologicalSequence")
            .unwrap();
        b.child("DNASequence", "NucleotideSequence").unwrap();
        b.child("RNASequence", "NucleotideSequence").unwrap();
        b.child("ProteinSequence", "BiologicalSequence").unwrap();
        b.child("Accession", "BioData").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn name_lookup_round_trips() {
        let o = sample();
        for id in o.iter() {
            assert_eq!(o.id(o.concept_name(id)), Some(id));
        }
        assert_eq!(o.id("Nope"), None);
        assert!(o.require("Nope").is_err());
    }

    #[test]
    fn subsumption_is_reflexive_and_follows_edges() {
        let o = sample();
        let bio = o.id("BiologicalSequence").unwrap();
        let dna = o.id("DNASequence").unwrap();
        let prot = o.id("ProteinSequence").unwrap();
        assert!(o.subsumes(bio, bio));
        assert!(o.subsumes(bio, dna));
        assert!(!o.subsumes(dna, bio));
        assert!(!o.subsumes(prot, dna));
        assert!(o.strictly_subsumes(bio, dna));
        assert!(!o.strictly_subsumes(bio, bio));
    }

    #[test]
    fn partitions_exclude_abstract_concepts() {
        let o = sample();
        let bio = o.id("BiologicalSequence").unwrap();
        let parts: Vec<&str> = o
            .partitions_of(bio)
            .into_iter()
            .map(|c| o.concept_name(c))
            .collect();
        // NucleotideSequence is abstract, covered by DNA + RNA.
        assert_eq!(
            parts,
            vec![
                "BiologicalSequence",
                "DNASequence",
                "RNASequence",
                "ProteinSequence"
            ]
        );
    }

    #[test]
    fn descendants_are_preorder_and_complete() {
        let o = sample();
        let root = o.id("BioData").unwrap();
        let d = o.descendants(root);
        assert_eq!(d.len(), o.len());
        assert_eq!(d[0], root);
        // Every descendant is subsumed by the root.
        assert!(d.iter().all(|&c| o.subsumes(root, c)));
    }

    #[test]
    fn add_child_matches_builder_built_ontology() {
        // Growing the sample with a live edge must be observationally
        // identical to having built the larger ontology from scratch.
        let mut grown = sample();
        let id = grown
            .add_child("XNASequence", "NucleotideSequence")
            .unwrap();
        assert_eq!(grown.concept_name(id), "XNASequence");

        let mut b = Ontology::builder("test");
        b.root("BioData").unwrap();
        b.child("BiologicalSequence", "BioData").unwrap();
        b.abstract_child("NucleotideSequence", "BiologicalSequence")
            .unwrap();
        b.child("DNASequence", "NucleotideSequence").unwrap();
        b.child("RNASequence", "NucleotideSequence").unwrap();
        b.child("ProteinSequence", "BiologicalSequence").unwrap();
        b.child("Accession", "BioData").unwrap();
        b.child("XNASequence", "NucleotideSequence").unwrap();
        let fresh = b.build().unwrap();

        assert_eq!(grown.len(), fresh.len());
        for a in grown.iter() {
            let fa = fresh.id(grown.concept_name(a)).unwrap();
            assert_eq!(grown.depth(a), fresh.depth(fa));
            let gp: Vec<&str> = grown
                .partitions_of(a)
                .into_iter()
                .map(|c| grown.concept_name(c))
                .collect();
            let fp: Vec<&str> = fresh
                .partitions_of(fa)
                .into_iter()
                .map(|c| fresh.concept_name(c))
                .collect();
            assert_eq!(gp, fp);
            for b in grown.iter() {
                let fb = fresh.id(grown.concept_name(b)).unwrap();
                assert_eq!(grown.subsumes(a, b), fresh.subsumes(fa, fb));
            }
        }

        // Error paths: duplicate names and unknown parents are rejected.
        assert!(matches!(
            grown.add_child("DNASequence", "BioData"),
            Err(OntologyError::DuplicateConcept(_))
        ));
        assert!(grown.add_child("YNASequence", "Nope").is_err());
    }

    #[test]
    fn depth_and_ancestors_agree() {
        let o = sample();
        let dna = o.id("DNASequence").unwrap();
        assert_eq!(o.depth(dna), 3);
        let chain: Vec<&str> = o.ancestors(dna).map(|c| o.concept_name(c)).collect();
        assert_eq!(
            chain,
            vec![
                "DNASequence",
                "NucleotideSequence",
                "BiologicalSequence",
                "BioData"
            ]
        );
    }

    #[test]
    fn lca_and_distance() {
        let o = sample();
        let dna = o.id("DNASequence").unwrap();
        let rna = o.id("RNASequence").unwrap();
        let prot = o.id("ProteinSequence").unwrap();
        let acc = o.id("Accession").unwrap();
        assert_eq!(o.lca(dna, rna), o.id("NucleotideSequence"));
        assert_eq!(o.lca(dna, prot), o.id("BiologicalSequence"));
        assert_eq!(o.lca(dna, acc), o.id("BioData"));
        assert_eq!(o.distance(dna, rna), Some(2));
        assert_eq!(o.distance(dna, dna), Some(0));
        assert_eq!(o.distance(dna, prot), Some(3));
    }

    #[test]
    fn lca_in_disjoint_trees_is_none() {
        let mut b = Ontology::builder("forest");
        b.root("A").unwrap();
        b.root("B").unwrap();
        let o = b.build().unwrap();
        let a = o.id("A").unwrap();
        let bb = o.id("B").unwrap();
        assert_eq!(o.lca(a, bb), None);
        assert_eq!(o.distance(a, bb), None);
        assert!(!o.subsumes(a, bb));
        assert_eq!(o.roots().count(), 2);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = Ontology::builder("t");
        b.root("A").unwrap();
        assert_eq!(
            b.root("A"),
            Err(OntologyError::DuplicateConcept("A".into()))
        );
    }

    #[test]
    fn unknown_parent_rejected() {
        let mut b = Ontology::builder("t");
        assert!(matches!(
            b.child("X", "Missing"),
            Err(OntologyError::UnknownConcept(_))
        ));
    }

    #[test]
    fn abstract_leaf_rejected_at_build() {
        let mut b = Ontology::builder("t");
        b.abstract_root("A").unwrap();
        assert!(b.build().is_err());
    }

    #[test]
    fn foreign_id_detected() {
        let o = sample();
        assert!(o.check_id(ConceptId::from_index(999)).is_err());
        assert!(o.check_id(ConceptId::from_index(0)).is_ok());
    }

    #[test]
    fn describe_attaches_description() {
        let mut b = Ontology::builder("t");
        b.root("A").unwrap();
        b.describe("A", "the root of everything").unwrap();
        assert!(b.describe("Z", "nope").is_err());
        let o = b.build().unwrap();
        let a = o.id("A").unwrap();
        assert_eq!(o.concept(a).description, "the root of everything");
    }

    #[test]
    fn serde_round_trip_preserves_queries_after_reindex() {
        let o = sample();
        let json = serde_json::to_string(&o).unwrap();
        let back: Ontology = serde_json::from_str(&json).unwrap();
        let bio = back.id("BiologicalSequence").unwrap();
        let dna = back.id("DNASequence").unwrap();
        assert!(back.subsumes(bio, dna));
        assert_eq!(back.len(), o.len());
    }

    #[test]
    fn malformed_tables_fail_to_deserialize() {
        let mut b = Ontology::builder("pair");
        b.root("A").unwrap();
        b.child("B", "A").unwrap();
        let json = serde_json::to_string(&b.build().unwrap()).unwrap();
        for (good, bad) in [
            ("\"depths\":[0,1]", "\"depths\":[0]"),
            ("\"children\":[[1],[]]", "\"children\":[[999],[]]"),
        ] {
            assert!(json.contains(good), "{json}");
            let broken = json.replace(good, bad);
            assert!(
                serde_json::from_str::<Ontology>(&broken).is_err(),
                "{broken}"
            );
        }
    }

    #[test]
    fn intervals_cover_forest_disjointly() {
        let mut b = Ontology::builder("forest");
        b.root("A").unwrap();
        b.child("A1", "A").unwrap();
        b.root("B").unwrap();
        b.child("B1", "B").unwrap();
        b.child("B2", "B").unwrap();
        let o = b.build().unwrap();
        let a = o.id("A").unwrap();
        let bb = o.id("B").unwrap();
        // One global clock across trees: every concept has a unique entry
        // time and the two root intervals do not overlap.
        assert_eq!(o.descendants(a).len(), 2);
        assert_eq!(o.descendants(bb).len(), 3);
        assert!(!o.subsumes(a, bb) && !o.subsumes(bb, a));
        for x in o.descendants(a) {
            for y in o.descendants(bb) {
                assert!(!o.subsumes(x, y) && !o.subsumes(y, x));
            }
        }
    }
}
