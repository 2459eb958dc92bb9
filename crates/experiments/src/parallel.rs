//! Parallel data-example generation.
//!
//! Generation is embarrassingly parallel — modules are `Send + Sync` black
//! boxes and the pool/ontology are shared read-only — so [`generate_fleet`]
//! fans out over `std::thread::scope` without extra dependencies, and
//! returns its reports in module-id order regardless of scheduling.

use dex_core::{generate_examples_retrying, GenerationConfig, GenerationReport};
use dex_modules::{InvocationCache, ModuleId, Retrier};
use dex_pool::InstancePool;
use dex_universe::Universe;
use std::collections::BTreeMap;

/// The outcome of a degradation-tolerant fleet generation: per-module
/// reports for everything that generated, failure records for everything
/// that did not.
#[derive(Debug, Default)]
pub struct GenerationFleet {
    /// Reports for modules whose generation succeeded, in module-id order.
    pub reports: BTreeMap<ModuleId, GenerationReport>,
    /// `(module, rendered error)` for each module whose generation failed
    /// even after retries — the run degraded around them instead of dying.
    pub failures: Vec<(ModuleId, String)>,
}

/// Generates reports for every available module of the universe, fanning
/// out over `threads` workers (values below 1 are clamped to 1).
///
/// Each worker owns a disjoint `&mut` chunk of the results buffer, so
/// collection is lock-free — no per-slot mutex, no channel, no allocation
/// beyond the output itself.
///
/// Transiently failing invocations are retried through the shared
/// `retrier`, and a module whose generation still fails is *recorded and
/// skipped* (the paper pipeline keeps annotating the modules it can reach)
/// — unless `fail_fast` is set, which panics on the first failure, for
/// callers that expect the universe to be fully generable.
pub fn generate_fleet(
    universe: &Universe,
    pool: &InstancePool,
    config: &GenerationConfig,
    threads: usize,
    retrier: &Retrier,
    fail_fast: bool,
) -> GenerationFleet {
    let ids = universe.available_ids();
    let threads = threads.max(1).min(ids.len().max(1));
    let _span = dex_telemetry::span("parallel.generate_all");
    dex_telemetry::gauge_set("dex.parallel.threads", threads as i64);
    let chunk = ids.len().div_ceil(threads);

    let mut results: Vec<Option<(ModuleId, Result<GenerationReport, String>)>> = Vec::new();
    results.resize_with(ids.len(), || None);

    // One invocation memo across all workers: distinct modules never share a
    // key, but repeated experiment phases over the same universe do, and the
    // cache's stats land in TELEMETRY.json for every instrumented run.
    let invocations = InvocationCache::new();
    let ctx = dex_telemetry::current_context();
    std::thread::scope(|scope| {
        for (id_chunk, out_chunk) in ids.chunks(chunk).zip(results.chunks_mut(chunk)) {
            let invocations = &invocations;
            scope.spawn(move || {
                let _worker = ctx.span("parallel.generate_worker");
                for (id, slot) in id_chunk.iter().zip(out_chunk) {
                    let Some(module) = universe.catalog.get(id) else {
                        if fail_fast {
                            panic!("{id}: module withdrawn mid-run");
                        }
                        *slot = Some((id.clone(), Err("module withdrawn mid-run".to_string())));
                        continue;
                    };
                    let outcome = generate_examples_retrying(
                        module.as_ref(),
                        &universe.ontology,
                        pool,
                        config,
                        invocations,
                        retrier,
                    );
                    *slot = Some(match outcome {
                        Ok(report) => (id.clone(), Ok(report)),
                        Err(e) if fail_fast => panic!("{id}: {e}"),
                        Err(e) => (id.clone(), Err(e.to_string())),
                    });
                }
            });
        }
    });
    if dex_telemetry::is_enabled() {
        invocations.publish_telemetry();
    }

    let mut fleet = GenerationFleet::default();
    for (id, outcome) in results.into_iter().map(|slot| slot.expect("filled")) {
        match outcome {
            Ok(report) => {
                fleet.reports.insert(id, report);
            }
            Err(error) => {
                if dex_telemetry::is_enabled() {
                    dex_telemetry::counter_add("dex.parallel.generation_failures", 1);
                    dex_telemetry::flight(
                        dex_telemetry::FlightKind::ModuleWithdrawn,
                        id.as_str(),
                        error.clone(),
                        0,
                    );
                }
                fleet.failures.push((id, error));
            }
        }
    }
    if !fleet.failures.is_empty() {
        // Graceful degradation just withdrew module(s): capture the flight
        // window (fault injections, retries, exhaustion) as a post-mortem.
        dex_telemetry::dump_flight("module withdrawn");
    }
    fleet
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::generate_examples;
    use dex_pool::build_synthetic_pool;

    /// Every available module's report through a fail-fast fleet.
    fn fleet(
        universe: &Universe,
        pool: &InstancePool,
        threads: usize,
    ) -> BTreeMap<ModuleId, GenerationReport> {
        let config = GenerationConfig::default();
        generate_fleet(
            universe,
            pool,
            &config,
            threads,
            &Retrier::new(config.retry),
            true,
        )
        .reports
    }

    #[test]
    fn parallel_equals_serial() {
        let universe = dex_universe::build();
        let pool = build_synthetic_pool(&universe.ontology, 4, 42);
        let config = GenerationConfig::default();

        let parallel = fleet(&universe, &pool, 8);
        assert_eq!(parallel.len(), 252);
        // Spot-check against serial generation for a sample of modules.
        for id in universe.available_ids().into_iter().step_by(17) {
            let module = universe.catalog.get(&id).unwrap();
            let serial =
                generate_examples(module.as_ref(), &universe.ontology, &pool, &config).unwrap();
            assert_eq!(parallel[&id].examples, serial.examples, "{id}");
        }
    }

    #[test]
    fn single_thread_also_works() {
        let universe = dex_universe::build();
        let pool = build_synthetic_pool(&universe.ontology, 2, 1);
        let reports = fleet(&universe, &pool, 1);
        assert_eq!(reports.len(), 252);
    }

    #[test]
    fn fleet_degrades_around_a_withdrawn_module_instead_of_dying() {
        let mut universe = dex_universe::build();
        let pool = build_synthetic_pool(&universe.ontology, 2, 5);
        let config = GenerationConfig::default();
        let victim = universe.available_ids()[0].clone();

        let baseline = fleet(&universe, &pool, 4);
        universe.catalog.withdraw(&victim);
        let retrier = Retrier::new(dex_modules::RetryPolicy::transient(2));
        let fleet = generate_fleet(&universe, &pool, &config, 4, &retrier, false);
        assert_eq!(fleet.reports.len(), baseline.len() - 1);
        assert!(!fleet.reports.contains_key(&victim));
        assert!(
            fleet.failures.is_empty(),
            "withdrawn ids drop out of available_ids(), so nothing failed"
        );
        for (id, report) in &fleet.reports {
            assert_eq!(report.examples, baseline[id].examples, "{id}");
        }
    }
}
