//! EXP-INC — incremental vs. full revalidation under small deltas
//! (DESIGN.md §3): on every datagen workload (random, social, music,
//! coloring), maintaining the violation store through a burst of attribute
//! deltas must beat re-running full validation after each delta.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ged_bench::attr_burst;
use ged_core::reason::validate;
use ged_core::rule::Rule;
use ged_engine::{Delta, IncrementalValidator};
use ged_graph::{sym, Graph};

fn bench_workload(
    c: &mut Criterion,
    name: &str,
    graph: Graph,
    sigma: Vec<impl Into<Rule>>,
    deltas: Vec<Delta>,
) {
    let sigma: Vec<Rule> = sigma.into_iter().map(Into::into).collect();
    let mut group = c.benchmark_group(format!("incremental/{name}"));
    group.sample_size(10);

    let seeded = IncrementalValidator::new(graph.clone(), sigma.clone());
    group.bench_with_input(
        BenchmarkId::from_parameter("incremental"),
        &(seeded, deltas.clone()),
        |b, (seeded, deltas)| {
            b.iter(|| {
                let mut v = seeded.clone();
                for d in deltas {
                    v.apply(d);
                }
                v.violation_count()
            });
        },
    );

    group.bench_with_input(
        BenchmarkId::from_parameter("full-revalidation"),
        &(graph, sigma, deltas),
        |b, (graph, sigma, deltas)| {
            b.iter(|| {
                let mut g = graph.clone();
                let mut total = 0;
                for d in deltas {
                    g.apply_delta(d);
                    total = validate(&g, sigma, None).total_violations();
                }
                total
            });
        },
    );
    group.finish();
}

fn bench_random(c: &mut Criterion) {
    let w = ged_bench::validation_workload(1_000, 3, 2, 7);
    let deltas = attr_burst(&w.graph, sym("key"), 10, 25);
    bench_workload(c, "random-1k", w.graph, w.sigma, deltas);
}

fn bench_social(c: &mut Criterion) {
    let cfg = ged_datagen::social::SocialConfig {
        n_honest: 150,
        ..Default::default()
    };
    let inst = ged_datagen::social::generate(&cfg);
    let sigma = vec![ged_datagen::rules::phi5(cfg.k, &cfg.keyword)];
    let deltas = attr_burst(&inst.graph, sym("keyword"), 10, 8);
    bench_workload(c, "social", inst.graph, sigma, deltas);
}

fn bench_music(c: &mut Criterion) {
    let cfg = ged_datagen::music::MusicConfig {
        n_clean: 150,
        n_dupes: 15,
        ..Default::default()
    };
    let inst = ged_datagen::music::generate(&cfg);
    let sigma = ged_datagen::rules::music_keys();
    let deltas = attr_burst(&inst.graph, sym("title"), 10, 12);
    bench_workload(c, "music", inst.graph, sigma, deltas);
}

fn bench_coloring(c: &mut Criterion) {
    let inst = ged_datagen::coloring::ColoringInstance::random(7, 4, 9);
    let (graph, ged) = ged_datagen::coloring::validation_gfdx(&inst);
    let deltas = attr_burst(&graph, sym("A"), 10, 3);
    bench_workload(c, "coloring", graph, vec![ged], deltas);
}

criterion_group!(
    benches,
    bench_random,
    bench_social,
    bench_music,
    bench_coloring
);
criterion_main!(benches);
