//! Property test: arbitrary concept forests survive render → parse.

use dex_ontology::{text, Ontology, OntologyBuilder};
use proptest::prelude::*;

/// A random forest description: a list of (name index, parent slot).
/// Parent slot `None` makes a root; `Some(k)` attaches under the `k`-th
/// previously added concept (guaranteeing acyclicity by construction).
fn arb_forest() -> impl Strategy<Value = Vec<Option<prop::sample::Index>>> {
    proptest::collection::vec(proptest::option::of(any::<prop::sample::Index>()), 1..40)
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

proptest! {
    #[test]
    fn render_parse_round_trip(forest in arb_forest()) {
        // The first entry is always a root (no previous concepts exist).
        prop_assume!(forest[0].is_none());
        let ontology = build(&forest);
        let rendered = text::render(&ontology);
        let parsed = text::parse(&rendered).unwrap();
        prop_assert_eq!(parsed.len(), ontology.len());
        for id in ontology.iter() {
            let name = ontology.concept_name(id);
            let pid = parsed.id(name).unwrap();
            prop_assert_eq!(
                ontology.parent(id).map(|p| ontology.concept_name(p)),
                parsed.parent(pid).map(|p| parsed.concept_name(p))
            );
            prop_assert_eq!(ontology.depth(id), parsed.depth(pid));
        }
    }

    #[test]
    fn partitions_subset_descendants(forest in arb_forest()) {
        prop_assume!(forest[0].is_none());
        let ontology = build(&forest);
        for c in ontology.iter() {
            let descendants = ontology.descendants(c);
            for p in ontology.partitions_of(c) {
                prop_assert!(descendants.contains(&p));
            }
        }
    }
}
