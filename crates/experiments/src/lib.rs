//! # dex-experiments
//!
//! Regenerates every table and figure of the paper's evaluation. Each
//! binary prints the paper's reported numbers next to the measured ones:
//!
//! | binary | reproduces |
//! |---|---|
//! | `exp_table1` | Table 1 — completeness distribution |
//! | `exp_table2` | Table 2 — conciseness distribution |
//! | `exp_table3` | Table 3 — module category counts |
//! | `exp_coverage` | §4.3 — input/output partition coverage |
//! | `exp_figure5` | Figure 5 — users with/without data examples |
//! | `exp_figure8` | Figure 8 — matching withdrawn modules |
//! | `exp_repair` | §6 — workflow repair counts |
//! | `exp_all` | all of the above, in order |
//!
//! The heavy artifacts (universe, pool, and the engine that holds every
//! module's data examples) are built once per process via [`Context`]; all
//! binaries use the same fixed seeds, so every run regenerates identical
//! tables.

use dex_core::GenerationConfig;
use dex_modules::ModuleId;
use dex_pool::{build_synthetic_pool, InstancePool};
use dex_universe::Universe;

pub mod ablations;
pub mod continuous;
pub mod experiments;
pub mod faults;
pub mod flags;
pub mod format;
pub mod incremental;
pub mod output;
pub mod telemetry;

pub use continuous::{
    run_continuous, ContinuousConfig, ContinuousReport, ContinuousState, WaveReport,
};
pub use faults::FaultConfig;
pub use incremental::IncrementalPipeline;
pub use telemetry::TelemetryRun;

/// Seed of the synthetic curator pool used by the evaluation.
pub const POOL_SEED: u64 = 42;
/// Realizations per concept in the curator pool.
pub const POOL_PER_CONCEPT: usize = 6;

/// Everything the experiments need, built once.
pub struct Context {
    /// The incremental engine over the (pre-decay) paper universe and the
    /// curator pool (§4.1's annotated-instance pool, synthetic flavor): it
    /// generated every module's data examples once and holds the verdict
    /// rows of every same-bucket pair.
    pub engine: IncrementalPipeline,
    /// Generator configuration.
    pub config: GenerationConfig,
    /// Modules whose generation failed even after retries — empty on a
    /// healthy run; populated (instead of panicking) on a degraded one.
    pub generation_failures: Vec<(ModuleId, String)>,
}

impl Context {
    /// Builds the shared experimental context: universe + pool + data
    /// examples for all 252 available modules, under `faults`. The catalog
    /// is wrapped in the injector (if any) before the engine's bootstrap
    /// generates every module, generation rides transients out under the
    /// config's retry policy, and residual failures degrade the context
    /// instead of aborting it (unless `fail_fast`). The binaries pass
    /// [`FaultConfig::from_env`]; tests pin one explicitly.
    pub fn build(faults: &FaultConfig) -> Context {
        let _span = dex_telemetry::span("context.build");
        let mut universe = dex_universe::build();
        faults.apply(&mut universe.catalog);
        let pool = {
            let _span = dex_telemetry::span("pool.build");
            build_synthetic_pool(&universe.ontology, POOL_PER_CONCEPT, POOL_SEED)
        };
        let config = GenerationConfig {
            retry: faults.retry,
            ..GenerationConfig::default()
        };
        let engine = IncrementalPipeline::bootstrap(universe, pool, config.clone());
        let mut generation_failures = Vec::new();
        for id in engine.tracked_ids() {
            let Some((_, Err(error))) = engine.annotation(id) else {
                continue;
            };
            if faults.fail_fast {
                panic!("{id}: {error}");
            }
            let error = error.to_string();
            if dex_telemetry::is_enabled() {
                dex_telemetry::flight(
                    dex_telemetry::FlightKind::ModuleWithdrawn,
                    id.as_str(),
                    error.clone(),
                    0,
                );
            }
            generation_failures.push((id.clone(), error));
        }
        if !generation_failures.is_empty() {
            // Graceful degradation just withdrew module(s): capture the
            // flight window (fault injections, retries, exhaustion) as a
            // post-mortem.
            dex_telemetry::dump_flight("module withdrawn");
        }
        Context {
            engine,
            config,
            generation_failures,
        }
    }

    /// The (pre-decay) universe.
    pub fn universe(&self) -> &Universe {
        self.engine.universe()
    }

    /// The curator pool.
    pub fn pool(&self) -> &InstancePool {
        self.engine.pool()
    }
}
