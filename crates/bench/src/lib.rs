//! # ged-bench — benchmark workloads shared by the criterion benches and
//! the `experiments` harness binary.
//!
//! Three criterion targets time what the harness does not (see
//! DESIGN.md §3):
//!
//! | target          | experiment id(s)            |
//! |-----------------|-----------------------------|
//! | `incremental`   | EXP-INC                     |
//! | `delta_path`    | EXP-DROP / EXP-ANCHOR       |
//! | `wire_decode`   | EXP-WIRE-DECODE             |
//!
//! `cargo run -p ged-bench --release --bin experiments` regenerates every
//! table, figure and example of the paper as text tables; arguments
//! filter sections by experiment id (one that matches none is an error),
//! and the two systems sections the repo's benchmark (`benchmark/`)
//! does not cover yet — EXP-ANALYZE, EXP-DAEMON — additionally write
//! their rows to `BENCH_INC.json`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

use ged_core::ged::Ged;
use ged_core::literal::Literal;
use ged_core::rule::Rule;
use ged_datagen::random::evolving_workload;
use ged_graph::{sym, Delta, Graph, NodeId, Symbol, Value};
use ged_pattern::{Pattern, Var};

/// A validation workload: a random graph with planted key violations and
/// a mixed rule set of the given pattern size.
#[derive(Debug)]
pub struct ValidationWorkload {
    /// The data graph.
    pub graph: Graph,
    /// The rule set.
    pub sigma: Vec<Rule>,
}

/// Build the standard validation workload: `n` nodes, 3·n edges, a planted
/// key GED plus `extra_rules` random GEDs of `pattern_size`.
pub fn validation_workload(
    n: usize,
    pattern_size: usize,
    extra_rules: usize,
    seed: u64,
) -> ValidationWorkload {
    let (graph, sigma) = evolving_workload(n, pattern_size, extra_rules, seed);
    let sigma = sigma.into_iter().map(Rule::from).collect();
    ValidationWorkload { graph, sigma }
}

/// A burst of attribute flips over the graph's nodes, deterministic and
/// label-agnostic (stride-indexed so no RNG dependency is needed) — the
/// standard small-delta update stream of the `incremental` bench and the
/// harness's systems sections.
pub fn attr_burst(g: &Graph, attr: Symbol, n_deltas: usize, n_values: usize) -> Vec<Delta> {
    let nodes: Vec<NodeId> = g.nodes().collect();
    (0..n_deltas)
        .map(|i| Delta::SetAttr {
            node: nodes[(i * 97) % nodes.len()],
            attr,
            value: Value::from(format!("v{}", i % n_values)),
        })
        .collect()
}

/// A chain-implication workload: Σ = {A0→A1, A1→A2, …}, goal A0→A_len.
pub fn chain_implication(len: usize) -> (Vec<Ged>, Ged) {
    let q = || {
        let mut q = Pattern::new();
        q.var("x", "t");
        q.var("y", "t");
        q
    };
    let lit =
        |i: usize| Literal::vars(Var(0), sym(&format!("A{i}")), Var(1), sym(&format!("A{i}")));
    let sigma: Vec<Ged> = (0..len)
        .map(|i| Ged::new(format!("s{i}"), q(), vec![lit(i)], vec![lit(i + 1)]))
        .collect();
    let goal = Ged::new("goal", q(), vec![lit(0)], vec![lit(len)]);
    (sigma, goal)
}

/// Format a duration in microseconds with 1 decimal.
pub fn us(d: std::time::Duration) -> String {
    format!("{:.1}", d.as_secs_f64() * 1e6)
}

/// Time a closure, returning (result, duration).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let t0 = std::time::Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Median-of-`k` timing for more stable harness rows.
pub fn timed_median<T>(k: usize, mut f: impl FnMut() -> T) -> (T, std::time::Duration) {
    assert!(k >= 1);
    let mut times = Vec::with_capacity(k);
    let mut last = None;
    for _ in 0..k {
        let (r, d) = timed(&mut f);
        times.push(d);
        last = Some(r);
    }
    times.sort();
    (last.unwrap(), times[times.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_workload_shapes() {
        let w = validation_workload(50, 3, 2, 1);
        assert!(w.graph.node_count() >= 50);
        assert_eq!(w.sigma.len(), 3);
    }

    #[test]
    fn chain_implication_holds_and_scales() {
        let (sigma, goal) = chain_implication(4);
        assert_eq!(sigma.len(), 4);
        assert!(ged_core::reason::implies(&sigma, &goal));
        // dropping a link breaks it
        assert!(!ged_core::reason::implies(&sigma[1..], &goal));
    }

    #[test]
    fn timing_helpers() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
        let (v, _) = timed_median(3, || 7);
        assert_eq!(v, 7);
        assert!(!us(std::time::Duration::from_micros(5)).is_empty());
    }
}
