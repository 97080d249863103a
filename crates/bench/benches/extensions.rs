//! EXP-T1-EXT — GDC / GED∨ (Theorems 8 & 9): the Σᵖ₂ reasoning cost gap
//! vs plain GEDs, and the equal-shape coNP validation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ged_bench::validation_workload;
use ged_core::satisfy::satisfies_all;
use ged_ext::domain::domain_as_gdcs;
use ged_ext::gdc::Gdc;
use ged_ext::reason::gdc_satisfiable;
use ged_graph::Value;

fn bench_gdc_satisfiability(c: &mut Criterion) {
    let mut group = c.benchmark_group("extensions/gdc-satisfiability");
    group.sample_size(10);
    for doms in [1usize, 2, 3] {
        let mut sigma = Vec::new();
        for d in 0..doms {
            let (a, b) = domain_as_gdcs(&format!("τ{d}"), "A", &[Value::from(0), Value::from(1)]);
            sigma.push(a);
            sigma.push(b);
        }
        group.bench_with_input(BenchmarkId::from_parameter(doms), &sigma, |b, s| {
            b.iter(|| gdc_satisfiable(s));
        });
    }
    group.finish();
}

fn bench_gdc_validation_same_shape_as_ged(c: &mut Criterion) {
    let mut group = c.benchmark_group("extensions/validation-ged-vs-gdc");
    group.sample_size(10);
    for n in [100usize, 200] {
        let w = validation_workload(n, 3, 2, 7);
        let gdcs: Vec<Gdc> = w.sigma.iter().map(Gdc::from_ged).collect();
        group.bench_with_input(BenchmarkId::new("ged", n), &w, |b, w| {
            b.iter(|| ged_core::reason::validate(&w.graph, &w.sigma, Some(1)).satisfied());
        });
        group.bench_with_input(
            BenchmarkId::new("gdc", n),
            &(w.graph.clone(), gdcs),
            |b, (g, s)| b.iter(|| satisfies_all(g, s)),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gdc_satisfiability,
    bench_gdc_validation_same_shape_as_ged
);
criterion_main!(benches);
