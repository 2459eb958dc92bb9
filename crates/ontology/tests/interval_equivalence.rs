//! Property test: the interval-labelled fast paths (`subsumes`,
//! `descendants`) agree with naive public-API oracles on random forests,
//! both freshly built and after a serde round trip.

use dex_ontology::{ConceptId, Ontology, OntologyBuilder};
use proptest::prelude::*;
use std::collections::HashSet;

/// A random forest description: a list of (name index, parent slot).
/// Parent slot `None` makes a root; `Some(k)` attaches under the `k`-th
/// previously added concept (guaranteeing acyclicity by construction).
fn arb_forest() -> impl Strategy<Value = Vec<Option<prop::sample::Index>>> {
    proptest::collection::vec(proptest::option::of(any::<prop::sample::Index>()), 1..50)
}

fn build(forest: &[Option<prop::sample::Index>]) -> Ontology {
    let mut builder = OntologyBuilder::new("prop");
    let mut names: Vec<String> = Vec::new();
    for (i, parent) in forest.iter().enumerate() {
        let name = format!("C{i}");
        match parent {
            None => {
                builder.root(&name).unwrap();
            }
            Some(index) => {
                let parent_name = &names[index.index(names.len())];
                builder.child(&name, parent_name).unwrap();
            }
        }
        names.push(name);
    }
    builder.build().unwrap()
}

/// Oracle built from the `ancestors` iterator only: `a` subsumes `b` iff `a`
/// appears on `b`'s root-ward ancestor chain.
fn subsumes_oracle(o: &Ontology, a: ConceptId, b: ConceptId) -> bool {
    o.ancestors(b).any(|c| c == a)
}

proptest! {
    #[test]
    fn fast_paths_match_oracles(forest in arb_forest()) {
        // The first entry is always a root (no previous concepts exist).
        prop_assume!(forest[0].is_none());
        let ontology = build(&forest);
        let ids: Vec<ConceptId> = ontology.iter().collect();
        for &a in &ids {
            let expected: Vec<ConceptId> = ids
                .iter()
                .copied()
                .filter(|&b| subsumes_oracle(&ontology, a, b))
                .collect();
            let fast = ontology.descendants(a);
            // Same set of concepts...
            let fast_set: HashSet<ConceptId> = fast.iter().copied().collect();
            prop_assert_eq!(fast_set, expected.into_iter().collect::<HashSet<_>>());
            // ...starting at the root of the subtree, each preceded by its
            // parent (the definition of pre-order).
            prop_assert_eq!(fast[0], a);
            for &d in &fast[1..] {
                let p = ontology.parent(d).unwrap();
                prop_assert!(fast.contains(&p));
            }
            for &b in &ids {
                prop_assert_eq!(
                    ontology.subsumes(a, b),
                    subsumes_oracle(&ontology, a, b),
                    "subsumes({:?}, {:?})", a, b
                );
            }
        }
    }

    #[test]
    fn reindex_restores_fast_paths(forest in arb_forest()) {
        prop_assume!(forest[0].is_none());
        let ontology = build(&forest);
        let json = serde_json::to_string(&ontology).unwrap();
        let back: Ontology = serde_json::from_str(&json).unwrap();
        for a in ontology.iter() {
            prop_assert_eq!(back.descendants(a), ontology.descendants(a));
            for b in ontology.iter() {
                prop_assert_eq!(back.subsumes(a, b), ontology.subsumes(a, b));
            }
        }
    }
}
