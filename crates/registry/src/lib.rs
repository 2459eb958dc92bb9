//! # dex-registry
//!
//! The scientific module registry of the paper's architecture (Figure 3):
//! the durable store that holds, for every known module, its annotated
//! interface and the data examples generated to characterize its behavior.
//! Curators write to it (steps 1–2 of the figure); experiment designers
//! explore it and compare modules through it (steps 3–4).
//!
//! The registry is deliberately independent of live module handles — it
//! keeps descriptors for modules whose providers have long withdrawn them,
//! which is exactly what makes §6-style repair possible.

pub mod registry;
pub mod search;

pub use registry::{ModuleRegistry, RegistryEntry};
pub use search::SearchQuery;

use dex_core::{generate_examples, GenerationConfig, GenerationError};
use dex_modules::ModuleCatalog;
use dex_ontology::Ontology;
use dex_pool::InstancePool;

/// Runs the full annotation pipeline of Figure 3 over every available
/// module of a catalog: register its (already curated) parameter
/// annotations, generate its data examples, store both.
///
/// Modules whose generation fails outright (unknown concepts, combination
/// explosion) are registered without examples and reported.
pub fn annotate_catalog(
    catalog: &ModuleCatalog,
    ontology: &Ontology,
    pool: &InstancePool,
    config: &GenerationConfig,
) -> (
    ModuleRegistry,
    Vec<(dex_modules::ModuleId, GenerationError)>,
) {
    let mut registry = ModuleRegistry::new("registry");
    let mut failures = Vec::new();
    for (id, module) in catalog.iter_available() {
        registry.register(module.descriptor().clone());
        match generate_examples(module.as_ref(), ontology, pool, config) {
            Ok(report) => registry
                .attach_examples(id, report.examples)
                .expect("just registered"),
            Err(e) => failures.push((id.clone(), e)),
        }
    }
    (registry, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_ontology::mygrid;
    use dex_pool::build_synthetic_pool;

    #[test]
    fn annotate_catalog_registers_and_examples_everything() {
        let universe = dex_universe::build();
        let onto = mygrid::ontology();
        let pool = build_synthetic_pool(&onto, 4, 9);
        let (registry, failures) = annotate_catalog(
            &universe.catalog,
            &onto,
            &pool,
            &GenerationConfig::default(),
        );
        assert!(failures.is_empty(), "{failures:?}");
        // All 324 modules are currently available (decay not yet run).
        assert_eq!(registry.len(), 324);
        assert!(registry
            .entries()
            .all(|(_, e)| e.examples.as_ref().is_some_and(|x| !x.is_empty())));
    }
}
