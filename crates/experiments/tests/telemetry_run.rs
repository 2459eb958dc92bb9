//! End-to-end telemetry: enable the subscriber, run a slice of the real
//! pipeline, and check the collected `RunReport` shows the work.

use dex_core::{generate_examples, GenerationConfig};
use dex_oracle::MatchSession;
use dex_pool::build_synthetic_pool;
use dex_telemetry::RunReport;

// The single test in this binary owns the process-global subscriber; no
// serialization lock is needed.
#[test]
fn pipeline_slice_populates_run_report() {
    dex_telemetry::enable();
    dex_telemetry::reset();

    let universe = {
        let _span = dex_telemetry::span("test.setup");
        dex_universe::build()
    };
    let pool = build_synthetic_pool(&universe.ontology, 3, 42);
    let config = GenerationConfig::default();

    // Generate for a couple of real modules…
    let ids: Vec<_> = universe.available_ids().into_iter().take(2).collect();
    for id in &ids {
        let module = universe.catalog.get(id).expect("available");
        generate_examples(module.as_ref(), &universe.ontology, &pool, &config).unwrap();
    }
    // …and run three comparisons through one session, resolving each
    // target's report once as a sweep does (the repeated pair reuses it).
    let session = MatchSession::new(&universe.ontology, &pool, config);
    let target = universe.catalog.get(&ids[0]).unwrap();
    let candidate = universe.catalog.get(&ids[1]).unwrap();
    let target_report = session.report_for(target.as_ref());
    let candidate_report = session.report_for(candidate.as_ref());
    for (t, report, c) in [
        (target, &target_report, candidate),
        (target, &target_report, candidate),
        (candidate, &candidate_report, target),
    ] {
        session.compare_report(t.as_ref(), report, c.as_ref());
    }

    let report = dex_telemetry::collect("telemetry_run");
    // A healthy run is not an incident: the flight recorder stays empty.
    assert_eq!(dex_telemetry::flight_total(), 0);
    dex_telemetry::disable();

    // Invocations happened and were split by outcome.
    assert!(report.counters["dex.invoke.total"] > 0);
    assert!(report.counters.contains_key("dex.invoke.ok"));
    // Generation counted modules and accepted examples.
    assert_eq!(
        report.counters["dex.generate.modules"],
        ids.len() as u64 + 2
    );
    assert!(report.counters["dex.generate.examples_accepted"] > 0);
    // Pool lookups fired and the generation histogram sampled something.
    assert!(report.counters["dex.pool.lookups"] > 0);
    assert!(report.histograms["dex.generate.module_ns"].count > 0);
    // The explicit span closed into the forest.
    assert!(report
        .spans
        .iter()
        .any(|s| s.name == "test.setup" && s.children.iter().any(|c| c.name == "universe.build")));

    // The artifact parses back losslessly.
    let json = report.to_json().unwrap();
    let back = RunReport::from_json(&json).unwrap();
    assert_eq!(back, report);
}
