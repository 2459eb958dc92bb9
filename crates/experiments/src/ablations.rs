//! Ablations of the design choices called out in DESIGN.md §5.
//!
//! * **A. Partitioning vs random selection** — generate examples for all
//!   252 modules with the ontology-partitioned heuristic and with the
//!   random baseline at the *same example budget*, and score both against
//!   the ground-truth oracles.
//! * **B. Pool-size sweep** — how input-partition coverage and completeness
//!   degrade as the annotated-instance pool shrinks.
//! * **C. Annotation specificity** — re-annotate every pool instance with
//!   its concept's *parent* (what naive declared-level harvesting would
//!   produce) and watch realization-based selection starve.
//! * **D. Matching method** — the aligned-example matcher vs the
//!   provenance-trace-similarity baseline of the author's earlier work, on
//!   the Figure 8 task, scored against the planted ground truth.

use crate::format::{heading, table};
use crate::Context;
use dex_core::baseline::{generate_random_examples, trace_similarity};
use dex_core::metrics::score;
use dex_core::{generate_examples, GenerationConfig};
use dex_modules::RetryPolicy;
use dex_pool::{build_synthetic_pool, AnnotatedInstance, InstancePool};
use dex_repair::{build_corpus, generate_repository, run_matching_study, RepositoryPlan};
use dex_universe::{ExpectedMatch, SpecOracle};
use dex_values::classify::classify_concept;

/// Ablation A: partitioned generation vs random selection at equal budget.
pub fn partitioning_vs_random(ctx: &Context) -> String {
    let mut part_completeness = 0.0;
    let mut part_conciseness = 0.0;
    let mut rand_completeness = 0.0;
    let mut rand_conciseness = 0.0;
    let n = ctx.reports.len() as f64;
    let universe = ctx.universe();

    for (id, report) in &ctx.reports {
        let oracle = SpecOracle::new(&universe.specs[id]);
        let s = score(&report.examples, &oracle);
        part_completeness += s.completeness;
        part_conciseness += s.conciseness;

        let module = universe.catalog.get(id).expect("available");
        let random = generate_random_examples(
            module.as_ref(),
            &universe.ontology,
            ctx.pool(),
            report.examples.len().max(1),
            0xab1a,
        )
        .expect("random generation");
        let s = score(&random, &oracle);
        rand_completeness += s.completeness;
        rand_conciseness += s.conciseness;
    }

    let rows = vec![
        vec![
            "ontology partitioning (the paper)".into(),
            format!("{:.3}", part_completeness / n),
            format!("{:.3}", part_conciseness / n),
        ],
        vec![
            "random selection (baseline)".into(),
            format!("{:.3}", rand_completeness / n),
            format!("{:.3}", rand_conciseness / n),
        ],
    ];
    let mut out = heading("Ablation A: partitioning vs random selection (equal example budget)");
    out.push_str(&table(
        &["generator", "mean completeness", "mean conciseness"],
        &rows,
    ));
    out.push('\n');
    out
}

/// Ablation B: pool-size sweep.
pub fn pool_size_sweep(ctx: &Context) -> String {
    let universe = ctx.universe();
    let mut rows = Vec::new();
    for per_concept in [1usize, 2, 4, 8] {
        let pool = build_synthetic_pool(&universe.ontology, per_concept, crate::POOL_SEED);
        let mut coverage_sum = 0.0;
        let mut completeness_sum = 0.0;
        let mut n = 0.0;
        for id in universe.available_ids() {
            let module = universe.catalog.get(&id).expect("available");
            let report = generate_examples(module.as_ref(), &universe.ontology, &pool, &ctx.config)
                .expect("generation");
            coverage_sum += report.input_partition_coverage(&universe.ontology);
            let oracle = SpecOracle::new(&universe.specs[&id]);
            completeness_sum += score(&report.examples, &oracle).completeness;
            n += 1.0;
        }
        rows.push(vec![
            per_concept.to_string(),
            format!("{:.3}", coverage_sum / n),
            format!("{:.3}", completeness_sum / n),
        ]);
    }
    let mut out = heading("Ablation B: pool size (realizations per concept)");
    out.push_str(&table(
        &[
            "pool realizations/concept",
            "mean input coverage",
            "mean completeness",
        ],
        &rows,
    ));
    out.push('\n');
    out
}

/// Ablation C: most-specific vs declared-level instance annotation.
pub fn annotation_specificity(ctx: &Context) -> String {
    // Coarsen: every instance re-annotated with its concept's parent (when
    // one exists) — the level a parameter-declaration-driven harvest would
    // record for sub-typed values.
    let universe = ctx.universe();
    let ontology = &universe.ontology;
    let mut coarse = InstancePool::new("coarse");
    for inst in ctx.pool().iter() {
        let concept = ontology
            .id(&inst.concept)
            .and_then(|c| ontology.parent(c))
            .map(|p| ontology.concept_name(p).to_string())
            .unwrap_or_else(|| inst.concept.clone());
        coarse.add(AnnotatedInstance::synthetic(inst.value.clone(), concept));
    }

    let mut rows = Vec::new();
    for (label, pool) in [
        ("most-specific (ours)", ctx.pool()),
        ("declared-level (coarse)", &coarse),
    ] {
        let mut coverage_sum = 0.0;
        let mut produced = 0usize;
        let mut n = 0.0;
        for id in universe.available_ids() {
            let module = universe.catalog.get(&id).expect("available");
            let report = generate_examples(module.as_ref(), ontology, pool, &ctx.config)
                .expect("generation");
            coverage_sum += report.input_partition_coverage(ontology);
            produced += report.examples.len();
            n += 1.0;
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", coverage_sum / n),
            produced.to_string(),
        ]);
    }
    let mut out = heading("Ablation C: pool annotation specificity");
    out.push_str(&table(
        &[
            "instance annotation",
            "mean input coverage",
            "total examples",
        ],
        &rows,
    ));
    out.push('\n');
    out
}

/// Ablation D: aligned matching vs trace-similarity on the Figure 8 task.
pub fn matching_method(plan: &RepositoryPlan) -> String {
    let mut universe = dex_universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 40, 77);
    let repository = generate_repository(&universe, &pool, plan);
    let (corpus, _) = build_corpus(&universe, &repository, &pool, RetryPolicy::none(), true);
    universe.decay();

    // Ground truth: a legacy module is substitutable iff an equivalent or
    // overlapping available module was planted.
    let positives: std::collections::BTreeSet<_> = universe
        .expected_match
        .iter()
        .filter(|(_, e)| !matches!(e, ExpectedMatch::None))
        .map(|(id, _)| id.clone())
        .collect();

    // Method 1: the paper's aligned matcher.
    let study = run_matching_study(
        &universe.catalog,
        &corpus,
        &universe.ontology,
        RetryPolicy::none(),
    );
    let (mut tp, mut fp, mut fnr) = (0usize, 0usize, 0usize);
    for (id, m) in &study.matches {
        let predicted = m.best.is_some();
        match (predicted, positives.contains(id)) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fnr += 1,
            (false, false) => {}
        }
    }
    let aligned_row = vec![
        "aligned data examples (the paper)".to_string(),
        tp.to_string(),
        fp.to_string(),
        fnr.to_string(),
    ];

    // Method 2: trace similarity ([4]): predict substitutable when any
    // strictly-mappable candidate's generated examples look similar.
    let config = GenerationConfig::default();
    let (mut tp, mut fp, mut fnr) = (0usize, 0usize, 0usize);
    for legacy in universe.catalog.withdrawn_ids() {
        let descriptor = universe.catalog.descriptor(&legacy).expect("kept").clone();
        let legacy_examples = dex_provenance::reconstruct_examples(&corpus, &legacy, &descriptor);
        let mut predicted = false;
        for (_, candidate) in universe.catalog.iter_available() {
            if dex_core::matching::map_parameters(
                &descriptor,
                candidate.descriptor(),
                &universe.ontology,
                dex_core::matching::MappingMode::Strict,
            )
            .is_err()
            {
                continue;
            }
            let Ok(report) =
                generate_examples(candidate.as_ref(), &universe.ontology, &pool, &config)
            else {
                continue;
            };
            if trace_similarity(&legacy_examples, &report.examples, classify_concept) >= 0.8 {
                predicted = true;
                break;
            }
        }
        match (predicted, positives.contains(&legacy)) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fnr += 1,
            (false, false) => {}
        }
    }
    let baseline_row = vec![
        "trace similarity (earlier work [4])".to_string(),
        tp.to_string(),
        fp.to_string(),
        fnr.to_string(),
    ];

    let mut out =
        heading("Ablation D: matching method on the Figure 8 task (39 substitutable / 33 not)");
    out.push_str(&table(
        &[
            "method",
            "true positives",
            "false positives",
            "false negatives",
        ],
        &[aligned_row, baseline_row],
    ));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioning_beats_random_on_completeness() {
        let ctx = Context::build(&crate::FaultConfig::none());
        let text = partitioning_vs_random(&ctx);
        // Extract the two completeness numbers from the rendered table.
        let numbers: Vec<f64> = text
            .lines()
            .filter(|l| l.contains("partitioning") || l.contains("random"))
            .filter_map(|l| {
                l.split('|')
                    .nth(2)
                    .and_then(|cell| cell.trim().parse::<f64>().ok())
            })
            .collect();
        assert_eq!(numbers.len(), 2, "{text}");
        assert!(
            numbers[0] > numbers[1],
            "partitioned {} should beat random {}",
            numbers[0],
            numbers[1]
        );
    }
}
