//! EXP-ABL-MATCH — the matcher under its two semantics: homomorphism vs
//! subgraph isomorphism.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ged_datagen::random::{random_graph, random_pattern, RandomGraphConfig};
use ged_pattern::{count, MatchOptions, Semantics};

fn bench_semantics(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching/semantics");
    group.sample_size(10);
    let cfg = RandomGraphConfig {
        n_nodes: 150,
        n_edges: 450,
        ..Default::default()
    };
    let g = random_graph(&cfg);
    for k in [3usize, 4] {
        let q = random_pattern(k, &cfg, 99);
        for (name, sem) in [
            ("homo", Semantics::Homomorphism),
            ("iso", Semantics::Isomorphism),
        ] {
            let opts = MatchOptions { semantics: sem };
            group.bench_with_input(
                BenchmarkId::new(name, k),
                &(q.clone(), opts),
                |b, (q, opts)| b.iter(|| count(q, &g, *opts)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_semantics);
criterion_main!(benches);
