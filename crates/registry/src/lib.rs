//! # dex-registry
//!
//! Registry exploration: the "Explore and Understand Modules" face of the
//! paper's architecture (Figure 3, step 3). The registry itself is the
//! `ModuleCatalog`, which holds every module's annotated interface, plus the
//! incremental engine (`dex_experiments::IncrementalPipeline`, served by
//! `dexd`), which holds their data examples and verdicts. This crate holds
//! the one search over the catalog; `dexctl search` and the
//! `module_explorer` example call it.

use dex_modules::{ModuleCatalog, ModuleDescriptor, Parameter};
use dex_ontology::{ConceptId, Ontology};
use std::fmt;

/// A conjunctive search over a catalog's available modules. Every filter
/// left `None` matches everything.
#[derive(Debug, Clone, Default)]
pub struct SearchQuery {
    /// Case-insensitive substring of the module name.
    pub name_contains: Option<String>,
    /// Some input parameter's concept must be subsumed by this concept.
    pub consumes: Option<String>,
    /// Some output parameter's concept must be subsumed by this concept.
    pub produces: Option<String>,
}

/// A concept filter names a concept the ontology does not define.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownConcept(pub String);

impl fmt::Display for UnknownConcept {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown concept `{}`", self.0)
    }
}

impl std::error::Error for UnknownConcept {}

impl SearchQuery {
    /// Matches everything.
    pub fn any() -> Self {
        SearchQuery::default()
    }

    /// Name filter.
    pub fn named(mut self, fragment: impl Into<String>) -> Self {
        self.name_contains = Some(fragment.into());
        self
    }

    /// Input-concept filter.
    pub fn consuming(mut self, concept: impl Into<String>) -> Self {
        self.consumes = Some(concept.into());
        self
    }

    /// Output-concept filter.
    pub fn producing(mut self, concept: impl Into<String>) -> Self {
        self.produces = Some(concept.into());
        self
    }

    /// The interfaces of `catalog`'s available modules that pass every
    /// filter, in id order. A concept filter naming a concept `ontology`
    /// does not define is an error, not a filter that matches nothing; a
    /// parameter annotated with an undefined concept passes no concept
    /// filter.
    pub fn run<'c>(
        &self,
        catalog: &'c ModuleCatalog,
        ontology: &Ontology,
    ) -> Result<Vec<&'c ModuleDescriptor>, UnknownConcept> {
        let resolve = |concept: &Option<String>| {
            concept
                .as_deref()
                .map(|name| ontology.id(name).ok_or_else(|| UnknownConcept(name.into())))
                .transpose()
        };
        let (consumes, produces) = (resolve(&self.consumes)?, resolve(&self.produces)?);
        let fragment = self.name_contains.as_deref().map(str::to_lowercase);
        let passes = |filter: Option<ConceptId>, params: &[Parameter]| {
            filter.is_none_or(|f| {
                params.iter().any(|p| {
                    ontology
                        .id(&p.semantic)
                        .is_some_and(|p| ontology.subsumes(f, p))
                })
            })
        };
        Ok(catalog
            .iter_available()
            .map(|(_, module)| module.descriptor())
            .filter(|d| {
                fragment
                    .as_ref()
                    .is_none_or(|f| d.name.to_lowercase().contains(f))
                    && passes(consumes, &d.inputs)
                    && passes(produces, &d.outputs)
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_modules::{FnModule, ModuleId, ModuleKind};
    use dex_ontology::mygrid;
    use dex_values::StructuralType;
    use std::sync::Arc;

    fn module(id: &str, name: &str, input: &str, output: &str) -> Arc<FnModule> {
        let descriptor = ModuleDescriptor::new(
            id,
            name,
            ModuleKind::SoapService,
            vec![Parameter::required("in", StructuralType::Text, input)],
            vec![Parameter::required("out", StructuralType::Text, output)],
        );
        Arc::new(FnModule::new(descriptor, |inputs| Ok(inputs.to_vec())))
    }

    fn catalog() -> ModuleCatalog {
        let mut catalog = ModuleCatalog::new();
        for m in [
            module("a", "GetRecord", "UniprotAccession", "UniprotRecord"),
            module("b", "GetSequence", "UniprotAccession", "ProteinSequence"),
            module(
                "c",
                "GetAnySequence",
                "DatabaseAccession",
                "BiologicalSequence",
            ),
            module("d", "TranslateSequence", "DNASequence", "ProteinSequence"),
        ] {
            catalog.register(m);
        }
        catalog
    }

    fn ids(hits: &[&ModuleDescriptor]) -> Vec<String> {
        hits.iter().map(|d| d.id.to_string()).collect()
    }

    #[test]
    fn name_search_is_case_insensitive() {
        let onto = mygrid::ontology();
        let catalog = catalog();
        for fragment in ["getrec", "GETREC", "GetRec"] {
            let hits = SearchQuery::any().named(fragment).run(&catalog, &onto);
            assert_eq!(ids(&hits.unwrap()), ["a"], "{fragment}");
        }
        let hits = SearchQuery::any().named("SEQUENCE").run(&catalog, &onto);
        assert_eq!(ids(&hits.unwrap()), ["b", "c", "d"]);
    }

    #[test]
    fn concept_filters_use_subsumption() {
        let onto = mygrid::ontology();
        let catalog = catalog();
        // Every accession is an Identifier; a DNA sequence is not.
        let hits = SearchQuery::any()
            .consuming("Identifier")
            .run(&catalog, &onto);
        assert_eq!(ids(&hits.unwrap()), ["a", "b", "c"]);
        // Protein sequences and BiologicalSequence itself are biological
        // sequences; a record is not.
        let hits = SearchQuery::any()
            .producing("BiologicalSequence")
            .run(&catalog, &onto);
        assert_eq!(ids(&hits.unwrap()), ["b", "c", "d"]);
        // Subsumption runs one way: a narrower filter misses the broader
        // annotation.
        let hits = SearchQuery::any()
            .producing("ProteinSequence")
            .run(&catalog, &onto);
        assert_eq!(ids(&hits.unwrap()), ["b", "d"]);
    }

    #[test]
    fn filters_combine_as_a_conjunction() {
        let onto = mygrid::ontology();
        let catalog = catalog();
        let query = SearchQuery::any()
            .consuming("Identifier")
            .producing("BiologicalSequence");
        assert_eq!(ids(&query.run(&catalog, &onto).unwrap()), ["b", "c"]);
        let query = query.named("any");
        assert_eq!(ids(&query.run(&catalog, &onto).unwrap()), ["c"]);
        let query = query.consuming("DNASequence");
        assert!(query.run(&catalog, &onto).unwrap().is_empty());
    }

    #[test]
    fn only_available_modules_are_listed() {
        let onto = mygrid::ontology();
        let mut catalog = catalog();
        catalog.withdraw(&ModuleId::from("b"));
        let hits = SearchQuery::any().run(&catalog, &onto);
        assert_eq!(ids(&hits.unwrap()), ["a", "c", "d"]);
        catalog.restore(&ModuleId::from("b"));
        let hits = SearchQuery::any().run(&catalog, &onto);
        assert_eq!(ids(&hits.unwrap()), ["a", "b", "c", "d"]);
    }

    #[test]
    fn legacy_modules_are_listed_until_they_decay() {
        let mut universe = dex_universe::build();
        let legacy = ModuleId::from("legacy:get_protein_sequence");
        assert!(universe.legacy.contains(&legacy));
        let query = SearchQuery::any()
            .consuming("UniprotAccession")
            .producing("ProteinSequence");
        let hits = query.run(&universe.catalog, &universe.ontology).unwrap();
        assert_eq!(
            ids(&hits),
            [
                "dr:get_protein_sequence_ddbj",
                "dr:get_protein_sequence_ebi",
                "legacy:get_protein_sequence",
            ]
        );
        universe.catalog.withdraw(&legacy);
        let hits = query.run(&universe.catalog, &universe.ontology).unwrap();
        assert_eq!(
            ids(&hits),
            [
                "dr:get_protein_sequence_ddbj",
                "dr:get_protein_sequence_ebi"
            ]
        );
    }

    #[test]
    fn an_unknown_concept_is_an_error_that_names_it() {
        let onto = mygrid::ontology();
        let catalog = catalog();
        for query in [
            SearchQuery::any().consuming("ProteinSequenc"),
            SearchQuery::any().producing("ProteinSequenc"),
            SearchQuery::any()
                .consuming("Identifier")
                .producing("ProteinSequenc"),
        ] {
            let error = query.run(&catalog, &onto).unwrap_err();
            assert_eq!(error, UnknownConcept("ProteinSequenc".into()));
            assert_eq!(error.to_string(), "unknown concept `ProteinSequenc`");
        }
        // A name fragment is not a concept: no match is not an error.
        let hits = SearchQuery::any()
            .named("ProteinSequenc")
            .run(&catalog, &onto);
        assert!(hits.unwrap().is_empty());
    }
}
