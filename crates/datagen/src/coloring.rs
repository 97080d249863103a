//! The 3-colorability lower-bound constructions behind Theorems 3, 5
//! and 6 (EXP-T1-* in DESIGN.md), plus a brute-force 3-coloring oracle.
//!
//! A graph `G` is 3-colorable iff there is a homomorphism `G → K3`. The
//! reductions exploit exactly that:
//!
//! * **Validation, GFDˣ** (Theorem 6): data graph `K3`, one GFDˣ
//!   `Q_G[x̄](∅ → x1.A = x1.A)`. `K3` has no attributes, so *every* match
//!   violates — hence `K3 ⊨ φ` iff `Q_G` has **no** match iff `G` is not
//!   3-colorable.
//! * **Validation, GKey**: the same with the two-copy pattern and
//!   `∅ → x1.id = y1.id`; two homomorphisms can always send the copies of
//!   `x1` to different colors when a coloring exists.
//! * **Implication, GFDˣ / GKey** (Theorem 5): `Σ = {φ}` with φ over
//!   `Q_G ⊎ marker`, ϕ over `K3 ⊎ marker`; the chase of `G_Qϕ` fires φ iff
//!   `G → K3` exists, so `Σ ⊨ ϕ` iff `G` is 3-colorable.
//! * **Satisfiability, GFD** (Theorem 3): two GFDs pinning conflicting
//!   constants through the composition `G → K3 ↪ model`; satisfiable iff
//!   `G` is **not** 3-colorable.
//! * **Satisfiability, GKey**: three constant-free GKeys whose forced
//!   merges create a *label* conflict instead; same direction.
//!
//! Every construction is cross-validated against [`is_3_colorable`] in the
//! tests and the EXP harness — the executable content of Table 1's
//! hardness rows.

use ged_core::ged::Ged;
use ged_core::literal::Literal;
use ged_graph::{sym, Graph, NodeId};
use ged_pattern::{Pattern, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An undirected 3-coloring instance.
#[derive(Debug, Clone)]
pub struct ColoringInstance {
    /// Number of vertices.
    pub n: usize,
    /// Undirected edges (u < v).
    pub edges: Vec<(usize, usize)>,
}

impl ColoringInstance {
    /// Build, normalising and deduplicating edges; self-loops are
    /// rejected (the reduction of \[37\] assumes none).
    pub fn new(n: usize, edges: &[(usize, usize)]) -> ColoringInstance {
        let mut es: Vec<(usize, usize)> = edges
            .iter()
            .map(|&(u, v)| {
                assert!(u != v, "no self loops");
                assert!(u < n && v < n, "vertex out of range");
                (u.min(v), u.max(v))
            })
            .collect();
        es.sort_unstable();
        es.dedup();
        ColoringInstance { n, edges: es }
    }

    /// The cycle `C_n` (3-colorable iff `n` is even or `n ≥ 3` odd… C_n is
    /// 3-colorable for every `n ≥ 3`; it is 2-colorable iff even — so odd
    /// cycles exercise the third color).
    pub fn cycle(n: usize) -> ColoringInstance {
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        ColoringInstance::new(n, &edges)
    }

    /// The complete graph `K_n` (3-colorable iff `n ≤ 3`).
    pub fn complete(n: usize) -> ColoringInstance {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                edges.push((u, v));
            }
        }
        ColoringInstance::new(n, &edges)
    }

    /// A connected random instance (spanning path + extra random edges).
    pub fn random(n: usize, extra_edges: usize, seed: u64) -> ColoringInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        for _ in 0..extra_edges {
            let u = rng.random_range(0..n);
            let v = rng.random_range(0..n);
            if u != v {
                edges.push((u.min(v), u.max(v)));
            }
        }
        ColoringInstance::new(n, &edges)
    }
}

/// Brute-force 3-coloring oracle (the ground truth for the reductions).
pub fn is_3_colorable(inst: &ColoringInstance) -> bool {
    fn rec(inst: &ColoringInstance, colors: &mut Vec<u8>, v: usize) -> bool {
        if v == inst.n {
            return true;
        }
        'outer: for c in 0..3u8 {
            for &(a, b) in &inst.edges {
                let other = if a == v && b < v {
                    b
                } else if b == v && a < v {
                    a
                } else {
                    continue;
                };
                if colors[other] == c {
                    continue 'outer;
                }
            }
            colors[v] = c;
            if rec(inst, colors, v + 1) {
                return true;
            }
        }
        false
    }
    if inst.n == 0 {
        return true;
    }
    rec(inst, &mut vec![3; inst.n], 0)
}

/// The pattern `Q_G`: one `c`-labelled variable per vertex, both edge
/// directions labelled `e` per undirected edge (homomorphism to the
/// symmetric `K3` then equals proper coloring).
pub fn instance_pattern(inst: &ColoringInstance, prefix: &str) -> Pattern {
    let mut q = Pattern::new();
    let vars: Vec<Var> = (0..inst.n)
        .map(|i| q.var(&format!("{prefix}{i}"), "c"))
        .collect();
    for &(u, v) in &inst.edges {
        q.edge(vars[u], "e", vars[v]);
        q.edge(vars[v], "e", vars[u]);
    }
    q
}

/// The triangle pattern `Q_K3` (3 `c`-nodes, all six directed `e` edges).
/// With `s_loops`, each node also carries an `s` self-loop — the decoration
/// that stops `Q_G` data from absorbing `K3` matches in the satisfiability
/// reduction.
pub fn k3_pattern(s_loops: bool) -> Pattern {
    let mut q = Pattern::new();
    let vars: Vec<Var> = (0..3).map(|i| q.var(&format!("k{i}"), "c")).collect();
    for u in 0..3 {
        for v in 0..3 {
            if u != v {
                q.edge(vars[u], "e", vars[v]);
            }
        }
        if s_loops {
            q.edge(vars[u], "s", vars[u]);
        }
    }
    q
}

/// The data graph `K3` (as a graph, no attributes).
pub fn k3_graph() -> Graph {
    let mut g = Graph::new();
    let c = sym("c");
    let e = sym("e");
    let nodes: Vec<NodeId> = (0..3).map(|_| g.add_node(c)).collect();
    for u in 0..3 {
        for v in 0..3 {
            if u != v {
                g.add_edge(nodes[u], e, nodes[v]);
            }
        }
    }
    g
}

// ---------------------------------------------------------------------
// Validation (Theorem 6)
// ---------------------------------------------------------------------

/// Validation instance with a single GFDˣ: `(K3, φ)` with
/// `K3 ⊨ φ ⟺ G not 3-colorable`.
pub fn validation_gfdx(inst: &ColoringInstance) -> (Graph, Ged) {
    let q = instance_pattern(inst, "x");
    let a = sym("A");
    let phi = Ged::new(
        "φ_3col",
        q,
        vec![],
        vec![Literal::vars(Var(0), a, Var(0), a)],
    );
    (k3_graph(), phi)
}

/// Validation instance with a single GKey: `(K3, ψ)` with
/// `K3 ⊨ ψ ⟺ G not 3-colorable` (two independent colorings can place the
/// designated vertex on different K3 nodes).
pub fn validation_gkey(inst: &ColoringInstance) -> (Graph, Ged) {
    let base = instance_pattern(inst, "x");
    let psi = Ged::gkey("ψ_3col", &base, Var(0), |_q, _o, _c| vec![]);
    (k3_graph(), psi)
}

// ---------------------------------------------------------------------
// Implication (Theorem 5)
// ---------------------------------------------------------------------

/// Implication instance with GFDˣs: `(Σ, ϕ)` with `Σ ⊨ ϕ ⟺ G 3-colorable`.
/// φ's pattern is `Q_G` plus a marker node `w(t)`; ϕ's pattern is `Q_K3`
/// plus the marker. Chasing `G_Qϕ` fires φ iff `Q_G` (hence `G`) maps into
/// `K3`.
pub fn implication_gfdx(inst: &ColoringInstance) -> (Vec<Ged>, Ged) {
    let b = sym("B");
    // φ over Q_G ⊎ {w: t}: ∅ → w.B = w.B
    let mut qg = instance_pattern(inst, "x");
    let w = qg.var("w", "t");
    let phi = Ged::new("φ", qg, vec![], vec![Literal::vars(w, b, w, b)]);
    // ϕ over Q_K3 ⊎ {w: t}: ∅ → w.B = w.B
    let mut qk = k3_pattern(false);
    let wk = qk.var("w", "t");
    let goal = Ged::new("ϕ", qk, vec![], vec![Literal::vars(wk, b, wk, b)]);
    (vec![phi], goal)
}

/// Implication instance with GKeys: same trick, with a doubled marker and
/// an id conclusion.
pub fn implication_gkey(inst: &ColoringInstance) -> (Vec<Ged>, Ged) {
    // φ over Q_G ⊎ {w1: t, w2: t}: ∅ → w1.id = w2.id
    let mut qg = instance_pattern(inst, "x");
    let w1 = qg.var("w1", "t");
    let w2 = qg.var("w2", "t");
    let phi = Ged::new("φ", qg, vec![], vec![Literal::id(w1, w2)]);
    // ϕ over Q_K3 ⊎ {w1: t, w2: t}: ∅ → w1.id = w2.id
    let mut qk = k3_pattern(false);
    let v1 = qk.var("w1", "t");
    let v2 = qk.var("w2", "t");
    let goal = Ged::new("ϕ", qk, vec![], vec![Literal::id(v1, v2)]);
    (vec![phi], goal)
}

// ---------------------------------------------------------------------
// Satisfiability (Theorem 3)
// ---------------------------------------------------------------------

/// Satisfiability instance with two GFDs (constant + variable literals):
/// `Σ` is satisfiable ⟺ `G` is **not** 3-colorable.
///
/// φ_G pins `flag = 0` on the image of `G`'s vertex 0; φ_K3 pins
/// `flag = 1` on all three (s-looped) triangle nodes. When `G → K3`
/// exists, any model must realise both flags on one node.
pub fn satisfiability_gfd(inst: &ColoringInstance) -> Vec<Ged> {
    let flag = sym("flag");
    let qg = instance_pattern(inst, "x");
    let phi_g = Ged::new("φ_G", qg, vec![], vec![Literal::constant(Var(0), flag, 0)]);
    let qk = k3_pattern(true);
    let phi_k = Ged::new(
        "φ_K3",
        qk,
        vec![],
        vec![
            Literal::constant(Var(0), flag, 1),
            Literal::constant(Var(1), flag, 1),
            Literal::constant(Var(2), flag, 1),
        ],
    );
    vec![phi_g, phi_k]
}

/// Satisfiability instance with three constant-free GKeys:
/// satisfiable ⟺ `G` **not** 3-colorable. Forced merges of a `p`-labelled
/// and a `q`-labelled node produce a *label* conflict instead of a
/// constant conflict.
pub fn satisfiability_gkey(inst: &ColoringInstance) -> Vec<Ged> {
    // ψ1: base = Q_G + x0 -f-> u(p), designated u: all p-witnesses merge.
    let mut b1 = instance_pattern(inst, "x");
    let u = b1.var("u", "p");
    b1.edge(Var(0), "f", u);
    let psi1 = Ged::gkey("ψ1", &b1, u, |_q, _o, _c| vec![]);
    // ψ2: base = Q_K3(s-loops) + k0 -f-> v(q), designated v.
    let mut b2 = k3_pattern(true);
    let v = b2.var("v", "q");
    b2.edge(Var(0), "f", v);
    let psi2 = Ged::gkey("ψ2", &b2, v, |_q, _o, _c| vec![]);
    // ψ3: base = Q_G + x0 -f-> w(_), designated w: merges every f-target
    // reachable through a G-homomorphism — in particular u (p) with v (q)
    // when G → K3 exists with x0 ↦ k0.
    let mut b3 = instance_pattern(inst, "x");
    let w = b3.var("w", "_");
    b3.edge(Var(0), "f", w);
    let psi3 = Ged::gkey("ψ3", &b3, w, |_q, _o, _c| vec![]);
    vec![psi1, psi2, psi3]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_core::reason::{implies, is_satisfiable, validate};

    fn fixtures() -> Vec<(&'static str, ColoringInstance, bool)> {
        vec![
            ("K3", ColoringInstance::complete(3), true),
            ("K4", ColoringInstance::complete(4), false),
            ("C5", ColoringInstance::cycle(5), true),
            ("C4", ColoringInstance::cycle(4), true),
            ("path3", ColoringInstance::new(3, &[(0, 1), (1, 2)]), true),
        ]
    }

    #[test]
    fn oracle_ground_truth() {
        for (name, inst, colorable) in fixtures() {
            assert_eq!(is_3_colorable(&inst), colorable, "{name}");
        }
        // K4 plus an isolated vertex is still uncolorable.
        let mut k4 = ColoringInstance::complete(4);
        k4.n += 1;
        assert!(!is_3_colorable(&k4));
    }

    #[test]
    fn validation_gfdx_reduction_agrees_with_oracle() {
        for (name, inst, colorable) in fixtures() {
            let (g, phi) = validation_gfdx(&inst);
            let valid = validate(&g, &[phi.into()], Some(1)).satisfied();
            assert_eq!(valid, !colorable, "{name}: K3 ⊨ φ ⟺ ¬3col");
        }
    }

    #[test]
    fn validation_gkey_reduction_agrees_with_oracle() {
        for (name, inst, colorable) in fixtures() {
            let (g, psi) = validation_gkey(&inst);
            assert!(psi.is_gkey(), "{name}: shape");
            let valid = validate(&g, &[psi.into()], Some(1)).satisfied();
            assert_eq!(valid, !colorable, "{name}");
        }
    }

    #[test]
    fn implication_gfdx_reduction_agrees_with_oracle() {
        for (name, inst, colorable) in fixtures() {
            let (sigma, goal) = implication_gfdx(&inst);
            assert_eq!(implies(&sigma, &goal), colorable, "{name}");
        }
    }

    #[test]
    fn implication_gkey_reduction_agrees_with_oracle() {
        for (name, inst, colorable) in fixtures() {
            let (sigma, goal) = implication_gkey(&inst);
            assert_eq!(implies(&sigma, &goal), colorable, "{name}");
        }
    }

    #[test]
    fn satisfiability_gfd_reduction_agrees_with_oracle() {
        for (name, inst, colorable) in fixtures() {
            let sigma = satisfiability_gfd(&inst);
            assert!(sigma.iter().all(Ged::is_gfd));
            assert_eq!(is_satisfiable(&sigma), !colorable, "{name}");
        }
    }

    #[test]
    fn satisfiability_gkey_reduction_agrees_with_oracle() {
        for (name, inst, colorable) in fixtures() {
            let sigma = satisfiability_gkey(&inst);
            assert!(sigma.iter().all(ged_core::Ged::is_gedx), "constant-free");
            assert_eq!(is_satisfiable(&sigma), !colorable, "{name}");
        }
    }
}
