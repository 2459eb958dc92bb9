//! Parameterized old-vs-new benchmarks for the performance pass: interval
//! subsumption vs parent walks across ontology depth, indexed pool lookups
//! vs linear scans across pool size, and cached+parallel all-pairs matching
//! vs the uncached serial baseline across catalog size.
//!
//! The "old" sides re-state the pre-optimization algorithms against the
//! public API (parent-pointer walk, full-pool scan, per-pair
//! `compare_modules`), so each pair of curves isolates exactly the change
//! being measured.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dex_core::{compare_modules, GenerationConfig, MatchSession};
use dex_experiments::parallel::match_pairs;
use dex_experiments::{BatchConfig, PairOutput};
use dex_modules::ModuleId;
use dex_ontology::{ConceptId, Ontology};
use dex_pool::build_synthetic_pool;
use dex_values::StructuralType;
use std::hint::black_box;

/// A root chain of `depth` concepts with `fanout` leaf children at the
/// bottom: subsumption from the root to a leaf must cross `depth` edges, so
/// any depth-dependence of `subsumes` shows as a rising curve.
fn chain_ontology(depth: usize, fanout: usize) -> Ontology {
    let mut b = Ontology::builder(format!("chain{depth}"));
    b.root("N0").unwrap();
    for i in 1..depth {
        b.child(&format!("N{i}"), &format!("N{}", i - 1)).unwrap();
    }
    for j in 0..fanout {
        b.child(&format!("L{j}"), &format!("N{}", depth - 1))
            .unwrap();
    }
    b.build().unwrap()
}

/// The pre-optimization subsumption algorithm: depth-guided parent walk over
/// the public accessors.
fn subsumes_walk(o: &Ontology, general: ConceptId, specific: ConceptId) -> bool {
    let dg = o.depth(general);
    let mut cur = specific;
    while o.depth(cur) > dg {
        cur = match o.parent(cur) {
            Some(p) => p,
            None => return false,
        };
    }
    cur == general
}

fn bench_subsumption_by_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("subsumes_depth");
    for depth in [4usize, 16, 64, 256] {
        let o = chain_ontology(depth, 4);
        let root = o.id("N0").unwrap();
        let leaf = o.id("L3").unwrap();
        group.bench_with_input(BenchmarkId::new("interval", depth), &depth, |b, _| {
            b.iter(|| o.subsumes(black_box(root), black_box(leaf)))
        });
        group.bench_with_input(BenchmarkId::new("walk", depth), &depth, |b, _| {
            b.iter(|| subsumes_walk(&o, black_box(root), black_box(leaf)))
        });
    }
    group.finish();
}

fn bench_pool_by_size(c: &mut Criterion) {
    let onto = dex_ontology::mygrid::ontology();
    let identifier = onto.id("Identifier").unwrap();
    let mut group = c.benchmark_group("pool_size");
    for per_concept in [2usize, 8, 32] {
        let pool = build_synthetic_pool(&onto, per_concept, 42);
        let size = pool.len();
        group.bench_with_input(
            BenchmarkId::new("instances_of_indexed", size),
            &size,
            |b, _| b.iter(|| pool.instances_of(black_box("Identifier"), &onto).count()),
        );
        // The pre-optimization algorithm: scan every instance, resolve its
        // concept by name, walk subsumption.
        group.bench_with_input(
            BenchmarkId::new("instances_of_scan", size),
            &size,
            |b, _| {
                b.iter(|| {
                    pool.iter()
                        .filter(|inst| {
                            onto.id(&inst.concept)
                                .is_some_and(|c| onto.subsumes(identifier, c))
                        })
                        .count()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("get_instance_deep", size),
            &size,
            |b, _| {
                b.iter(|| {
                    pool.get_instance(
                        black_box("UniprotAccession"),
                        black_box(&StructuralType::Text),
                        per_concept - 1,
                    )
                })
            },
        );
        let bound = pool.bind(&onto);
        group.bench_with_input(
            BenchmarkId::new("get_instance_bound", size),
            &size,
            |b, _| {
                b.iter(|| {
                    bound.get_instance(
                        black_box(onto.id("UniprotAccession").unwrap()),
                        black_box(&StructuralType::Text),
                        per_concept - 1,
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_matching_by_catalog(c: &mut Criterion) {
    let universe = dex_universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 4, 42);
    let config = GenerationConfig::default();
    let all_ids = universe.available_ids();
    let mut group = c.benchmark_group("all_pairs");
    group.sample_size(10);
    for n in [8usize, 16, 32] {
        let ids: Vec<ModuleId> = all_ids
            .iter()
            .step_by((all_ids.len() / n).max(1))
            .take(n)
            .cloned()
            .collect();
        group.bench_with_input(BenchmarkId::new("serial_uncached", n), &n, |b, _| {
            b.iter(|| {
                let mut verdicts = 0usize;
                for t in &ids {
                    for cand in &ids {
                        if t == cand {
                            continue;
                        }
                        let target = universe.catalog.get(t).unwrap();
                        let candidate = universe.catalog.get(cand).unwrap();
                        if compare_modules(
                            target.as_ref(),
                            candidate.as_ref(),
                            &universe.ontology,
                            &pool,
                            &config,
                        )
                        .is_ok()
                        {
                            verdicts += 1;
                        }
                    }
                }
                verdicts
            })
        });
        group.bench_with_input(BenchmarkId::new("cached_parallel", n), &n, |b, _| {
            b.iter(|| {
                let session = MatchSession::new(&universe.ontology, &pool, config.clone());
                let batch = BatchConfig::with_threads(8);
                match_pairs(&session, &universe, &ids, PairOutput::Dense, &batch)
                    .reports
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_subsumption_by_depth,
    bench_pool_by_size,
    bench_matching_by_catalog
);
criterion_main!(benches);
