//! Cross-crate integration tests: the full annotate → understand → match →
//! repair pipeline through the public facade.

use data_examples::core::matching::MappingMode;
use data_examples::core::{
    compare_modules, generate_examples, match_against_examples, GenerationConfig, MatchVerdict,
};
use data_examples::modules::RetryPolicy;
use data_examples::pool::build_synthetic_pool;
use data_examples::provenance::{harvest_pool, reconstruct_examples};
use data_examples::registry::{annotate_catalog, SearchQuery};
use data_examples::repair::{
    build_corpus, generate_repository, repair_repository, run_matching_study, RepositoryPlan,
};
use data_examples::universe::SpecOracle;
use data_examples::values::classify::classify_concept;

#[test]
fn figure2_get_record_example_reads_like_the_paper() {
    // The paper's Figure 2: one data example fully conveys GetRecord's
    // behavior — accession in, the corresponding record out.
    let universe = data_examples::universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 3, 1);
    let module = universe
        .catalog
        .get(&"dr:get_uniprot_record".into())
        .unwrap();
    let report = generate_examples(
        module.as_ref(),
        &universe.ontology,
        &pool,
        &GenerationConfig::default(),
    )
    .unwrap();
    assert_eq!(report.examples.len(), 1);
    let example = &report.examples.examples[0];
    let accession = example.inputs[0].value.as_text().unwrap();
    let record = example.outputs[0].value.as_text().unwrap();
    assert!(record.contains(accession), "record echoes the accession");
}

#[test]
fn generation_never_reads_the_oracle_but_scores_against_it() {
    // Evaluation-only use of specs: the same report scores identically no
    // matter how often it is generated, and the score is derived purely
    // from invocation results.
    let universe = data_examples::universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 4, 3);
    let id = "da:analyze_record_v0".into();
    let module = universe.catalog.get(&id).unwrap();
    let report = generate_examples(
        module.as_ref(),
        &universe.ontology,
        &pool,
        &GenerationConfig::default(),
    )
    .unwrap();
    let oracle = SpecOracle::new(&universe.specs[&id]);
    let s = data_examples::core::metrics::score(&report.examples, &oracle);
    // Planted shape: completeness 3/4, conciseness 3/6.
    assert!((s.completeness - 0.75).abs() < 1e-9);
    assert!((s.conciseness - 0.5).abs() < 1e-9);
}

#[test]
fn provenance_harvested_pool_supports_generation() {
    // §4.1 end-to-end: enact workflows, harvest the pool from the traces,
    // then use THAT pool (not the synthetic one) to generate data examples.
    let universe = data_examples::universe::build();
    let synthetic = build_synthetic_pool(&universe.ontology, 8, 5);
    let repo = generate_repository(&universe, &synthetic, &RepositoryPlan::small(2));
    let (corpus, _) = build_corpus(&universe, &repo, &synthetic, RetryPolicy::none(), true);
    let harvested = harvest_pool(&corpus, &universe.catalog, classify_concept);
    assert!(harvested.len() > 100, "harvest yielded {}", harvested.len());

    let module = universe.catalog.get(&"mi:map_uniprot_go".into()).unwrap();
    let report = generate_examples(
        module.as_ref(),
        &universe.ontology,
        &harvested,
        &GenerationConfig::default(),
    )
    .unwrap();
    assert_eq!(report.examples.len(), 1);
    assert!(report.unvalued_partitions.is_empty());
}

#[test]
fn equivalence_is_symmetric_for_identical_backends() {
    let universe = data_examples::universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 4, 11);
    let config = GenerationConfig::default();
    let a = universe
        .catalog
        .get(&"dr:get_uniprot_record".into())
        .unwrap();
    let b = universe
        .catalog
        .get(&"dr:get_uniprot_record_ebi".into())
        .unwrap();
    let ab = compare_modules(a.as_ref(), b.as_ref(), &universe.ontology, &pool, &config).unwrap();
    let ba = compare_modules(b.as_ref(), a.as_ref(), &universe.ontology, &pool, &config).unwrap();
    assert!(matches!(ab, MatchVerdict::Equivalent { .. }));
    assert!(matches!(ba, MatchVerdict::Equivalent { .. }));
}

#[test]
fn different_algorithms_are_not_substitutes() {
    // §6 Example 4: homology modules from different providers use different
    // alignment algorithms and therefore deliver different results.
    let universe = data_examples::universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 4, 11);
    let config = GenerationConfig::default();
    // ddbj runs `fasta`, ncbi runs `ssearch`: same interface, different
    // algorithm, different hits.
    let ddbj = universe.catalog.get(&"da:blast_pdb_ddbj".into()).unwrap();
    let ncbi = universe.catalog.get(&"da:blast_pdb_ncbi".into()).unwrap();
    let report = generate_examples(ddbj.as_ref(), &universe.ontology, &pool, &config).unwrap();
    let verdict = match_against_examples(
        ddbj.descriptor(),
        &report.examples,
        ncbi.as_ref(),
        &universe.ontology,
        MappingMode::Strict,
    )
    .unwrap();
    assert!(
        matches!(verdict, MatchVerdict::Disjoint { .. }),
        "{verdict}"
    );
}

#[test]
fn full_decay_pipeline_small_scale() {
    // Repository → corpus → decay → Figure 8 → repair, on a small plan.
    let mut universe = data_examples::universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 40, 77);
    let plan = RepositoryPlan::small(21);
    let repo = generate_repository(&universe, &pool, &plan);
    let (corpus, _) = build_corpus(&universe, &repo, &pool, RetryPolicy::none(), true);
    universe.decay();

    let study = run_matching_study(
        &universe.catalog,
        &corpus,
        &universe.ontology,
        RetryPolicy::none(),
    );
    assert_eq!(study.counts(), (16, 23, 33));

    let (outcomes, summary) = repair_repository(
        &repo,
        &universe.catalog,
        &study,
        &corpus,
        &universe.ontology,
        RetryPolicy::none(),
    );
    assert_eq!(outcomes.len(), plan.total());
    assert_eq!(summary.healthy, plan.healthy);
    assert_eq!(
        summary.repaired(),
        plan.equivalent_full + plan.equivalent_partial + plan.overlap_full + plan.overlap_partial
    );
}

#[test]
fn reconstructed_examples_match_registry_annotations() {
    // The §6 trick: a module's reconstructed examples equal what replaying
    // the module would produce — for a still-available module we can check
    // this directly.
    let universe = data_examples::universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 8, 5);
    let repo = generate_repository(&universe, &pool, &RepositoryPlan::small(4));
    let (corpus, _) = build_corpus(&universe, &repo, &pool, RetryPolicy::none(), true);
    let id = universe.legacy[0].clone();
    let descriptor = universe.catalog.descriptor(&id).unwrap().clone();
    let examples = reconstruct_examples(&corpus, &id, &descriptor);
    assert!(!examples.is_empty());
    for example in examples.iter() {
        let inputs: Vec<_> = example.inputs.iter().map(|b| b.value.clone()).collect();
        let outputs = universe.catalog.invoke(&id, &inputs).unwrap();
        let recorded: Vec<_> = example.outputs.iter().map(|b| b.value.clone()).collect();
        assert_eq!(outputs, recorded);
    }
}

#[test]
fn registry_round_trips_annotations_through_json() {
    let universe = data_examples::universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 3, 2);
    let (registry, failures) = annotate_catalog(
        &universe.catalog,
        &universe.ontology,
        &pool,
        &GenerationConfig::default(),
    );
    assert!(failures.is_empty());
    let json = registry.to_json().unwrap();
    let back = data_examples::registry::ModuleRegistry::from_json(&json).unwrap();
    assert_eq!(back.len(), registry.len());

    // Search still works after the round trip.
    let hits = data_examples::registry::search::search(
        &back,
        &SearchQuery::any().consuming("PeptideMassList"),
        &universe.ontology,
    );
    assert!(!hits.is_empty());
}
