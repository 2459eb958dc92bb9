//! Repairing a decayed workflow (the paper's §6, Figures 6–7).
//!
//! A workflow uses `GetProteinSequence`. Its provider withdraws it. Using
//! the data examples reconstructed from the workflow's provenance traces,
//! the matcher finds a substitute — including `GetBiologicalSequence`,
//! whose parameters are *not* semantically identical (Figure 7): it accepts
//! the broader `DatabaseAccession` domain and is annotated to deliver
//! `BiologicalSequence`, yet behaves identically on the sub-domain this
//! workflow feeds it.
//!
//! ```sh
//! cargo run --example workflow_repair
//! ```

use data_examples::core::matching::{match_against_examples, MappingMode};
use data_examples::modules::{Parameter, Retrier};
use data_examples::pool::build_synthetic_pool;
use data_examples::provenance::{reconstruct_examples, ProvenanceCorpus};
use data_examples::values::StructuralType;
use data_examples::workflow::{enact, EnactError, Source, Workflow};

fn main() {
    let mut universe = data_examples::universe::build();
    let ontology = universe.ontology.clone();
    let pool = build_synthetic_pool(&ontology, 6, 2024);

    // The Figure 7(a) workflow: most-similar protein, then its sequence.
    let mut b = Workflow::builder("fig7", "go term of the most similar protein");
    let protein = b.input(Parameter::required(
        "protein",
        StructuralType::Text,
        "ProteinSequence",
    ));
    let most_similar = b.step("GetMostSimilarProtein", "da:get_most_similar_protein");
    let get_sequence = b.step("GetProteinSequence", "legacy:get_protein_sequence");
    b.link(Source::WorkflowInput(protein), most_similar, 0);
    b.link(
        Source::StepOutput {
            step: most_similar,
            output: 0,
        },
        get_sequence,
        0,
    );
    b.output(
        "sequence",
        Source::StepOutput {
            step: get_sequence,
            output: 0,
        },
    );
    let workflow = b.build();

    // Enact while everything is still supplied; keep the provenance.
    let sample = vec![pool
        .get_instance("ProteinSequence", &StructuralType::Text, 0)
        .expect("realization")
        .value
        .clone()];
    let original = enact(
        &workflow,
        &universe.catalog,
        &sample,
        None,
        &Retrier::none(),
    )
    .expect("pre-decay run");
    let mut corpus = ProvenanceCorpus::new("lab-archive");
    corpus.add(original.clone());
    println!("pre-decay output: {}", original.outputs[0].preview(60));

    // The provider withdraws GetProteinSequence: the workflow decays.
    universe.decay();
    let broken = enact(
        &workflow,
        &universe.catalog,
        &sample,
        None,
        &Retrier::none(),
    );
    assert!(matches!(broken, Err(EnactError::ModuleUnavailable { .. })));
    println!("\nafter decay: {}", broken.unwrap_err());

    // Reconstruct the dead module's data examples from provenance …
    let legacy_id = "legacy:get_protein_sequence".into();
    let descriptor = universe
        .catalog
        .descriptor(&legacy_id)
        .expect("registries keep stale descriptors")
        .clone();
    let examples = reconstruct_examples(&corpus, &legacy_id, &descriptor);
    println!(
        "\nreconstructed {} data example(s) for {}:",
        examples.len(),
        descriptor.name
    );
    for e in examples.iter() {
        println!("  {e}");
    }

    // … and try candidates. GetBiologicalSequence has *different* parameter
    // concepts, so only the subsuming mapping mode (Figure 7) accepts it.
    for (candidate_id, mode) in [
        ("dr:get_protein_sequence_ddbj", MappingMode::Strict),
        ("dr:get_biological_sequence", MappingMode::Subsuming),
    ] {
        let candidate = universe
            .catalog
            .get(&candidate_id.into())
            .expect("candidate supplied");
        let verdict =
            match_against_examples(&descriptor, &examples, candidate.as_ref(), &ontology, mode)
                .expect("comparable");
        println!("\ncandidate {candidate_id} ({mode:?}): {verdict}");

        // Substitute and re-enact; the repaired workflow must deliver the
        // pre-decay results (§6's verification).
        let mut repaired = workflow.clone();
        repaired.substitute_module(&legacy_id, &candidate_id.into());
        let rerun = enact(
            &repaired,
            &universe.catalog,
            &sample,
            None,
            &Retrier::none(),
        )
        .expect("repaired run");
        assert_eq!(rerun.outputs, original.outputs, "verification");
        println!("  repaired workflow re-enacts with identical outputs ✓");
    }
}
