//! The paper's Figure 1 workflow: protein identification.
//!
//! `Identify` (peptide masses + error tolerance → protein accession) feeds
//! `GetRecord` (accession → protein record) feeds `SearchSimple` (record +
//! program + database → alignment report).
//!
//! ```sh
//! cargo run --example protein_identification
//! ```

use data_examples::modules::{Parameter, Retrier};
use data_examples::pool::build_synthetic_pool;
use data_examples::values::{StructuralType, Value};
use data_examples::workflow::{enact, validate, Source, Workflow};

fn main() {
    let universe = data_examples::universe::build();
    let ontology = &universe.ontology;

    // Build the Figure 1 workflow.
    let mut b = Workflow::builder("fig1", "protein identification");
    let masses = b.input(Parameter::required(
        "peptide masses",
        StructuralType::list_of(StructuralType::Float),
        "PeptideMassList",
    ));
    let error = b.input(Parameter::required(
        "identification error",
        StructuralType::Float,
        "ErrorTolerance",
    ));
    let program = b.input(Parameter::required(
        "program",
        StructuralType::Text,
        "AlgorithmName",
    ));
    let database = b.input(Parameter::required(
        "database",
        StructuralType::Text,
        "DatabaseName",
    ));
    let identify = b.step("Identify", "da:identify");
    let get_record = b.step("GetRecord", "dr:get_uniprot_record");
    let search = b.step("SearchSimple", "da:search_simple");
    b.link(Source::WorkflowInput(masses), identify, 0);
    b.link(Source::WorkflowInput(error), identify, 1);
    b.link(
        Source::StepOutput {
            step: identify,
            output: 0,
        },
        get_record,
        0,
    );
    b.link(
        Source::StepOutput {
            step: get_record,
            output: 0,
        },
        search,
        0,
    );
    b.link(Source::WorkflowInput(program), search, 1);
    b.link(Source::WorkflowInput(database), search, 2);
    b.output(
        "alignment report",
        Source::StepOutput {
            step: search,
            output: 0,
        },
    );
    let workflow = b.build();

    // Check interoperability of the data links before running (§1).
    validate(&workflow, &universe.catalog, ontology).expect("workflow is well-formed");
    println!(
        "workflow `{}` validates: {} steps",
        workflow.name,
        workflow.steps.len()
    );

    // Sample inputs from the annotated pool.
    let pool = build_synthetic_pool(ontology, 3, 123);
    let pick = |concept: &str, structural: &StructuralType| -> Value {
        pool.get_instance(concept, structural, 0)
            .expect("pool realization")
            .value
            .clone()
    };
    let inputs = vec![
        pick(
            "PeptideMassList",
            &StructuralType::list_of(StructuralType::Float),
        ),
        pick("ErrorTolerance", &StructuralType::Float),
        pick("AlgorithmName", &StructuralType::Text),
        pick("DatabaseName", &StructuralType::Text),
    ];
    println!("\ninputs:");
    for (p, v) in workflow.inputs.iter().zip(&inputs) {
        println!("  {} = {}", p.name, v.preview(60));
    }

    // Enact and show the full provenance trace.
    let trace = enact(
        &workflow,
        &universe.catalog,
        &inputs,
        None,
        &Retrier::none(),
    )
    .expect("enactment succeeds");
    println!("\nprovenance trace:");
    for record in &trace.steps {
        println!(
            "  step {} [{}] {} -> {}",
            record.step,
            record.step_name,
            record
                .inputs
                .iter()
                .map(|v| v.preview(24))
                .collect::<Vec<_>>()
                .join(" | "),
            record
                .outputs
                .iter()
                .map(|v| v.preview(40))
                .collect::<Vec<_>>()
                .join(" | "),
        );
    }
    println!("\nfinal alignment report:\n{}", trace.outputs[0]);
}
