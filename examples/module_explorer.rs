//! Exploring and comparing modules through the registry (Figure 3, steps
//! 3–4): search the catalog by consumed/produced concepts, inspect the data
//! examples the engine generated, and compare candidate modules' behavior.
//!
//! ```sh
//! cargo run --example module_explorer
//! ```

use data_examples::core::{compare_modules, GenerationConfig};
use data_examples::pool::build_synthetic_pool;
use data_examples::registry::SearchQuery;
use dex_experiments::IncrementalPipeline;

fn main() {
    let universe = data_examples::universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 4, 5);

    // Run the full annotation pipeline: the engine generates data examples
    // for every supplied module and compares every pair of one interface
    // shape.
    let engine = IncrementalPipeline::bootstrap(universe, pool, GenerationConfig::default());
    let (universe, pool) = (engine.universe(), engine.pool());
    let ontology = &universe.ontology;
    assert_eq!(engine.reports().count(), engine.available_count());
    println!(
        "engine holds {} annotated modules",
        engine.available_count()
    );

    // An experiment designer looks for something that turns a protein
    // sequence into an alignment report.
    let hits = SearchQuery::any()
        .consuming("ProteinSequence")
        .producing("AlignmentReport")
        .run(&universe.catalog, ontology)
        .expect("known concepts");
    println!("\nmodules consuming ProteinSequence and producing an alignment report:");
    for d in &hits {
        println!("  {}: {}", d.id, d.signature());
    }

    // Inspect one candidate's data examples to understand its behavior.
    let first = &hits.first().expect("search hit").id;
    let Some((true, Ok(report))) = engine.annotation(first) else {
        panic!("{first} is tracked and annotated");
    };
    println!("\ndata examples of {first}:");
    for example in report.examples.iter().take(3) {
        println!("  {example}");
    }

    // Compare two providers' homology searches: different algorithms, so
    // their behavior is NOT equivalent (§6, Example 4).
    let a = universe
        .catalog
        .get(&"da:blast_uniprot_ebi".into())
        .unwrap();
    let b = universe
        .catalog
        .get(&"da:blast_uniprot_ddbj".into())
        .unwrap();
    let verdict = compare_modules(
        a.as_ref(),
        b.as_ref(),
        ontology,
        pool,
        &GenerationConfig::default(),
    )
    .expect("comparable");
    println!("\nblast_uniprot_ebi vs blast_uniprot_ddbj: {verdict}");

    // Whereas two front-ends of the same backend ARE equivalent.
    let a = universe.catalog.get(&"dr:get_gene_record".into()).unwrap();
    let b = universe
        .catalog
        .get(&"dr:get_gene_record_rest".into())
        .unwrap();
    let verdict = compare_modules(
        a.as_ref(),
        b.as_ref(),
        ontology,
        pool,
        &GenerationConfig::default(),
    )
    .expect("comparable");
    println!("get_gene_record vs get_gene_record_rest: {verdict}");

    // Who could stand in for get_protein_sequence_ebi if it vanished? The
    // engine ranks the modules whose behavior on its data examples agrees.
    let target = "dr:get_protein_sequence_ebi".into();
    let name = &universe.catalog.descriptor(&target).unwrap().name;
    let substitutes = engine.substitutes(&target).expect("tracked");
    println!(
        "\nranked substitutes for {name} ({} found):",
        substitutes.ranked.len()
    );
    for (id, verdict) in substitutes.ranked.iter().take(8) {
        println!("  {id}: {verdict}");
    }
}
