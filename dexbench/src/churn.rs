//! `registry_churn`: curator-side maintenance at scale, with no socket.
//!
//! A prepared `ContinuousState` absorbs waves of the same shape: restore the
//! previous wave's withdrawals, withdraw a fresh share of the registry, and
//! replace the first instance of some pool concepts; repair runs on every
//! wave. Generation, blocking and matching dominate `setup_s`; pool, delta
//! and repair dominate the waves. The socket, codec and service layers do
//! no work in the timed phase — they only serve the correctness reference.

use crate::check::{corruption_is_detected, expected_reply, Verdicts};
use crate::layers::{codec, per_layer, replay_pool, replay_setup, LayerInputs, ProbeRow};
use crate::report::{Metric, Outcome};
use crate::serve::{service_config, OnSocket};
use crate::stats::{median, quantile, tail_quantile};
use crate::world::{build_world, final_pool, ms, us, Churner};
use crate::{host, RunCfg};
use dex_core::delta::Delta;
use dex_experiments::{ContinuousConfig, ContinuousState, IncrementalPipeline, WaveReport};
use dex_modules::ModuleId;
use dexd::{Client, Dexd, Request, Response};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Share of the tracked modules each wave withdraws.
const WAVE_WITHDRAW_SHARE: f64 = 0.0025;
/// Pool concepts whose first instance each wave replaces.
const WAVE_POOL_CONCEPTS: usize = 10;
/// Waves applied before timing starts (the first wave has nothing to
/// restore, so it differs in shape from the rest).
const WARMUP_WAVES: usize = 1;
/// Fewest timed waves, however short the measured phase.
const MIN_WAVES: usize = 3;
/// Ids whose annotation and substitutes are compared with the cold rebuild.
const CHECK_IDS: usize = 1024;
/// Fully available workflows whose validation is compared.
const CHECK_WORKFLOWS: usize = 64;
const STATS_PROBES: usize = 32;
/// Waves replayed on a fresh pipeline to time the delta layers.
const REPLAY_WAVES: usize = 8;

pub fn run(cfg: &RunCfg) -> Outcome {
    let scale = cfg.churn_scale;
    let continuous = ContinuousConfig::at_scale(scale, 0, cfg.seed);

    // ---- Set-up, repeated; the last state is the one churned. ------------
    let mut setup_s = Vec::new();
    let mut state: Option<ContinuousState> = None;
    for _ in 0..cfg.setups {
        drop(state.take());
        let t = Instant::now();
        state = Some({
            let _span = dex_telemetry::span("bench.continuous.prepare");
            ContinuousState::prepare(&continuous)
        });
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up");
    let harvest_ms = state.prepare_stats().harvest_ms;
    let ids: Vec<ModuleId> = state.pipeline().tracked_ids().to_vec();
    let concepts: Vec<String> = state
        .pipeline()
        .pool()
        .covered_concepts()
        .into_iter()
        .map(str::to_string)
        .collect();
    let withdraw = ((ids.len() as f64 * WAVE_WITHDRAW_SHARE).round() as usize).max(1);
    let mut churner = Churner::new(
        cfg.seed,
        ids.clone(),
        concepts,
        withdraw,
        WAVE_POOL_CONCEPTS,
    );

    // ---- Waves. -----------------------------------------------------------
    if cfg.trace {
        dex_telemetry::disable();
    }
    let mut verdicts = Verdicts::default();
    let mut batches: Vec<Vec<Delta>> = Vec::new();
    let mut waves: Vec<(WaveReport, f64, bool)> = Vec::new();
    {
        let mut wave = |state: &mut ContinuousState, traced: bool| {
            let batch = churner.next_batch();
            let t = Instant::now();
            let report = {
                let _span = traced.then(|| dex_telemetry::span("bench.continuous.apply_wave"));
                state.apply_wave(batch.clone()).clone()
            };
            let wave_us = us(t);
            verdicts.expect(
                &format!("wave {}: every repair attempt has one outcome", report.wave),
                report.affected_workflows
                    == report.fully_repaired + report.partially_repaired + report.unrepaired,
            );
            batches.push(batch);
            (report, wave_us)
        };
        for _ in 0..WARMUP_WAVES {
            wave(&mut state, false);
        }
        let start = Instant::now();
        let half = cfg.measure / 2;
        loop {
            let elapsed = start.elapsed();
            if elapsed >= cfg.measure && waves.len() >= MIN_WAVES {
                break;
            }
            let traced = cfg.trace && elapsed >= half;
            if traced && !dex_telemetry::is_enabled() {
                dex_telemetry::enable();
            }
            let (report, wave_us) = wave(&mut state, traced);
            waves.push((report, wave_us, traced));
        }
    }
    let peak_rss_mb = host::peak_rss_mb();
    let withdrawn: Vec<ModuleId> = churner.withdrawn().to_vec();

    // ---- Live answers for the check, from the churned pipeline. ----------
    let live = state.pipeline();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC0FFEE);
    let gone: BTreeSet<&ModuleId> = withdrawn.iter().collect();
    let available: Vec<&ModuleId> = ids.iter().filter(|id| !gone.contains(id)).collect();
    let mut picked: BTreeSet<usize> = BTreeSet::new();
    while picked.len() < CHECK_IDS.min(available.len()) {
        picked.insert(rng.gen_range(0..available.len()));
    }
    let mut requests: Vec<Request> = picked
        .iter()
        .flat_map(|&i| {
            let id = available[i].0.clone();
            [
                Request::AnnotateModule { id: id.clone() },
                Request::FindSubstitutes { id },
            ]
        })
        .collect();
    let intact: Vec<_> = state
        .repository()
        .workflows
        .iter()
        .filter(|s| {
            s.workflow
                .steps
                .iter()
                .all(|step| live.universe().catalog.is_available(&step.module))
        })
        .take(CHECK_WORKFLOWS)
        .map(|s| s.workflow.clone())
        .collect();
    requests.extend(intact.iter().map(|wf| Request::ValidateWorkflow {
        workflow: wf.clone(),
    }));
    requests.extend((0..STATS_PROBES).map(|_| Request::Stats));
    let answers: Vec<(Option<Response>, f64)> = requests
        .iter()
        .map(|req| {
            let t = Instant::now();
            let reply = if matches!(req, Request::Stats) {
                std::hint::black_box(live.invocation_cache().stats());
                None
            } else {
                Some(expected_reply(live, req))
            };
            (reply, us(t))
        })
        .collect();
    let validate_us: Vec<f64> = intact
        .iter()
        .map(|wf| {
            let t = Instant::now();
            std::hint::black_box(dex_workflow::validate(
                wf,
                &live.universe().catalog,
                &live.universe().ontology,
            ))
            .ok();
            us(t)
        })
        .collect();
    drop(state);

    // ---- Cold reference: the final registry state, built from scratch and
    // served by dexd. -----------------------------------------------------
    let mut world = build_world(scale, cfg.seed);
    let pool = final_pool(&world.pool, &batches);
    for id in &withdrawn {
        world.universe.catalog.withdraw(id);
    }
    let mut reference = OnSocket::start(
        Dexd::launch_with(world.universe, pool, &service_config(scale, cfg.seed)),
        &cfg.work_dir,
        "registry_churn",
    );
    let in_process = Client::new(Arc::clone(&reference.svc));
    let mut rows = Vec::new();
    for (i, (req, (live_reply, handler_us))) in requests.iter().zip(&answers).enumerate() {
        let t = Instant::now();
        let served = reference
            .client
            .call(req)
            .expect("reference call over the socket");
        let socket_us = us(t);
        if let Some(live_reply) = live_reply {
            verdicts.expect_eq(
                &format!("{} answer {i}", req.endpoint()),
                live_reply,
                &served,
            );
            if cfg.smoke && i == 0 {
                verdicts.expect(
                    "a corrupted reference answer is detected",
                    corruption_is_detected(live_reply, &served),
                );
            }
        }
        if cfg.trace {
            let t = Instant::now();
            std::hint::black_box(in_process.call(req.clone()));
            rows.push(ProbeRow {
                endpoint: req.endpoint(),
                socket_us,
                call_us: us(t),
                handler_us: *handler_us,
                codec: codec(req, &served),
            });
        }
    }
    drop(in_process);
    let (coalesced_share, busy_rejections) = reference.stop();

    // ---- Metrics. --------------------------------------------------------
    let untraced: Vec<&(WaveReport, f64, bool)> = waves.iter().filter(|w| !w.2).collect();
    let wave_us: Vec<f64> = untraced.iter().map(|w| w.1).collect();
    let events: usize = untraced.iter().map(|w| w.0.delta.events).sum();
    let wave_s: f64 = wave_us.iter().sum::<f64>() / 1e6;
    let op_p50_us = median(&wave_us);
    let affected: usize = waves.iter().map(|w| w.0.affected_workflows).sum();
    let repaired: usize = waves
        .iter()
        .map(|w| w.0.fully_repaired + w.0.partially_repaired)
        .sum();
    let repair_p50: Vec<f64> = waves
        .iter()
        .filter(|w| w.0.latency.count > 0)
        .map(|w| w.0.latency.p50_ns as f64 / 1000.0)
        .collect();
    let tail_q = tail_quantile(wave_us.len());
    let diagnostics = vec![
        Metric::new("op_p50_us", op_p50_us, "us", wave_us.len()),
        Metric::new(
            "op_tail_us",
            quantile(&wave_us, tail_q),
            "us",
            wave_us.len(),
        ),
        Metric::new(
            "throughput_ops",
            events as f64 / wave_s,
            "1/s",
            wave_us.len(),
        ),
        Metric::new("tail_percentile", 100.0 * tail_q, "%", wave_us.len()),
        Metric::new(
            "wave_events",
            events as f64 / untraced.len().max(1) as f64,
            "count",
            untraced.len(),
        ),
        Metric::new(
            "repair.busy_ms",
            median(&waves.iter().map(|w| w.0.repair_ms).collect::<Vec<_>>()),
            "ms",
            waves.len(),
        ),
        Metric::new(
            "repair.workflow_p50_us",
            median(&repair_p50),
            "us",
            repair_p50.len(),
        ),
        Metric::new(
            "repair.success_ratio",
            repaired as f64 / affected.max(1) as f64,
            "ratio",
            affected,
        ),
        Metric::new("provenance.harvest_ms", harvest_ms, "ms", 1),
    ];

    let metrics = if cfg.trace {
        // The delta layers, timed uncontended: the first waves replayed on a
        // fresh pipeline over the initial world. Its reports must equal the
        // waves' own.
        let replayed = &batches[..batches.len().min(REPLAY_WAVES)];
        let world = build_world(scale, cfg.seed);
        let (universe_build_ms, pool_build_ms, pool_instances) =
            (world.build_ms, world.pool_ms, world.pool.len());
        let replay = replay_setup(&world.universe, &world.pool);
        let (remove_us, insert_us) = replay_pool(&world.pool, replayed);
        let t = Instant::now();
        let mut pipeline = {
            let _span = dex_telemetry::span("bench.incremental.bootstrap");
            IncrementalPipeline::bootstrap(world.universe, world.pool, Default::default())
        };
        let bootstrap_ms = ms(t);
        let mut apply_ms = Vec::new();
        let mut reports = Vec::new();
        for (i, batch) in replayed.iter().enumerate() {
            let t = Instant::now();
            let report = {
                let _span = dex_telemetry::span("bench.incremental.apply");
                pipeline.apply(batch)
            };
            apply_ms.push(ms(t));
            if let Some(timed) = i.checked_sub(WARMUP_WAVES).and_then(|j| waves.get(j)) {
                verdicts.expect_eq(&format!("replayed wave {i}"), &timed.0.delta, &report);
            }
            reports.push(report);
        }
        let traced: Vec<f64> = waves.iter().filter(|w| w.2).map(|w| w.1).collect();
        per_layer(&LayerInputs {
            universe_build_ms,
            pool_build_ms,
            pool_instances,
            bootstrap_ms,
            replay,
            apply_ms,
            reports,
            batches: replayed.to_vec(),
            pool_remove_us: remove_us,
            pool_insert_us: insert_us,
            validate_us,
            probe: rows,
            coalesced_share,
            busy_rejections,
            overhead_pct: 100.0 * (median(&traced) - op_p50_us) / op_p50_us,
        })
    } else {
        vec![
            Metric::new("setup_s", median(&setup_s), "s", setup_s.len()),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB", 1),
        ]
    };
    Outcome {
        workload: "registry_churn",
        metrics,
        diagnostics,
        attempted: (WARMUP_WAVES + waves.len()) as u64 + verdicts.compared,
        failed: verdicts.mismatches.len() as u64,
        mismatches: verdicts.mismatches,
    }
}
