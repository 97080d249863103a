//! Integration tests for the paper's theorems: the chase (Theorem 1), the
//! satisfiability/implication characterisations (Theorems 2 & 4), the
//! hardness reductions of Table 1 (Theorems 3, 5, 6) cross-validated
//! against the brute-force oracle, and the axiom system (Theorem 7).

use ged_datagen::coloring::{
    implication_gfdx, implication_gkey, is_3_colorable, satisfiability_gfd, satisfiability_gkey,
    validation_gfdx, validation_gkey, ColoringInstance,
};
use ged_datagen::random::{random_graph, random_sigma, RandomGraphConfig};
use ged_repro::prelude::*;

fn coloring_instances() -> Vec<ColoringInstance> {
    let mut v = vec![
        ColoringInstance::complete(3),
        ColoringInstance::complete(4),
        ColoringInstance::cycle(4),
        ColoringInstance::cycle(5),
        ColoringInstance::new(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
    ];
    for seed in 0..4 {
        v.push(ColoringInstance::random(5, 4, seed));
    }
    v
}

/// Theorem 1: the chase is finite within the stated bounds, its result
/// satisfies Σ, and it is Church–Rosser (randomised schedules agree).
#[test]
fn theorem1_chase_properties() {
    for seed in 0..6u64 {
        let cfg = RandomGraphConfig {
            n_nodes: 10,
            n_edges: 15,
            n_labels: 2,
            n_attrs: 1,
            value_range: 2,
            seed,
            ..Default::default()
        };
        let g = random_graph(&cfg);
        let sigma = random_sigma(3, 2, &cfg);
        let result = chase(&g, &sigma);
        assert!(
            result.stats().within_bounds(),
            "Theorem 1 bounds, seed {seed}"
        );
        if let ChaseResult::Consistent { coercion, .. } = &result {
            let served: Vec<Rule> = sigma.iter().cloned().map(Rule::from).collect();
            assert!(
                satisfies_all(&coercion.graph, &served),
                "G_Eq ⊨ Σ (Theorem 1), seed {seed}"
            );
        }
        let reference = result.comparison_key();
        for chase_seed in 1..=4 {
            assert_eq!(
                chase_random(&g, &sigma, chase_seed).comparison_key(),
                reference,
                "Church–Rosser, seeds {seed}/{chase_seed}"
            );
        }
    }
}

/// Theorem 2: satisfiability ⟺ consistent chase of the canonical graph;
/// and the constructed model really is a model.
#[test]
fn theorem2_model_construction() {
    for inst in coloring_instances() {
        let sigma = satisfiability_gfd(&inst);
        match build_model(&sigma) {
            Some(model) => {
                let served: Vec<Rule> = sigma.iter().cloned().map(Rule::from).collect();
                assert!(is_model(&model, &served));
                assert!(is_satisfiable(&sigma));
            }
            None => assert!(!is_satisfiable(&sigma)),
        }
    }
}

/// Theorem 3 (satisfiability reductions) against the 3-coloring oracle.
#[test]
fn theorem3_satisfiability_reductions() {
    for inst in coloring_instances() {
        let colorable = is_3_colorable(&inst);
        assert_eq!(
            is_satisfiable(&satisfiability_gfd(&inst)),
            !colorable,
            "GFD reduction, n={} m={}",
            inst.n,
            inst.edges.len()
        );
        assert_eq!(
            is_satisfiable(&satisfiability_gkey(&inst)),
            !colorable,
            "GKey reduction, n={} m={}",
            inst.n,
            inst.edges.len()
        );
    }
}

/// Theorem 5 (implication reductions) against the oracle.
#[test]
fn theorem5_implication_reductions() {
    for inst in coloring_instances() {
        let colorable = is_3_colorable(&inst);
        let (s1, g1) = implication_gfdx(&inst);
        assert_eq!(implies(&s1, &g1), colorable, "GFDx reduction");
        let (s2, g2) = implication_gkey(&inst);
        assert_eq!(implies(&s2, &g2), colorable, "GKey reduction");
    }
}

/// Theorem 6 (validation reductions) against the oracle.
#[test]
fn theorem6_validation_reductions() {
    for inst in coloring_instances() {
        let colorable = is_3_colorable(&inst);
        let (g1, phi) = validation_gfdx(&inst);
        assert_eq!(
            validate(&g1, &[phi.into()], Some(1)).satisfied(),
            !colorable
        );
        let (g2, psi) = validation_gkey(&inst);
        assert_eq!(
            validate(&g2, &[psi.into()], Some(1)).satisfied(),
            !colorable
        );
    }
}

/// Theorem 7 round-trip: implication decided by the chase agrees with
/// provability in A_GED — both directions, on a family of instances.
#[test]
fn theorem7_provability_matches_implication() {
    let q = parse_pattern("t(x); t(y)").unwrap();
    let lit = |a: &str| Literal::vars(Var(0), sym(a), Var(1), sym(a));
    let s1 = Ged::new("s1", q.clone(), vec![lit("A")], vec![lit("B")]);
    let s2 = Ged::new("s2", q.clone(), vec![lit("B")], vec![lit("C")]);
    let key = Ged::new(
        "key",
        q.clone(),
        vec![lit("K")],
        vec![Literal::id(Var(0), Var(1))],
    );
    let sigma = vec![s1, s2, key];
    let candidates = vec![
        Ged::new("c1", q.clone(), vec![lit("A")], vec![lit("C")]),
        Ged::new("c2", q.clone(), vec![lit("A")], vec![lit("D")]),
        Ged::new("c3", q.clone(), vec![lit("C")], vec![lit("A")]),
        Ged::new(
            "c4",
            q.clone(),
            vec![lit("K"), Literal::vars(Var(0), sym("P"), Var(0), sym("P"))],
            vec![Literal::vars(Var(0), sym("P"), Var(1), sym("P"))],
        ),
        Ged::new(
            "c5",
            q.clone(),
            vec![lit("K"), lit("A")],
            vec![lit("B"), lit("C")],
        ),
        Ged::new("c6", q.clone(), vec![lit("B")], vec![lit("C"), lit("A")]),
    ];
    for phi in candidates {
        let semantic = implies(&sigma, &phi);
        let proof = prove(&sigma, &phi).unwrap();
        assert_eq!(
            proof.is_some(),
            semantic,
            "provability must match implication for {phi}"
        );
        if let Some(p) = proof {
            p.check().unwrap();
            // every step is sound
            for s in &p.steps {
                assert!(implies(&sigma, &s.conclusion));
            }
        }
    }
}

/// Minimisation (the paper's "get rid of redundant rules" application)
/// preserves semantics: the cover implies everything dropped and vice
/// versa.
#[test]
fn minimize_preserves_the_closure() {
    let q = parse_pattern("t(x); t(y)").unwrap();
    let lit = |a: &str| Literal::vars(Var(0), sym(a), Var(1), sym(a));
    let sigma = vec![
        Ged::new("ab", q.clone(), vec![lit("A")], vec![lit("B")]),
        Ged::new("bc", q.clone(), vec![lit("B")], vec![lit("C")]),
        Ged::new("ac", q.clone(), vec![lit("A")], vec![lit("C")]),
        Ged::new("cd", q.clone(), vec![lit("C")], vec![lit("D")]),
        Ged::new("ad", q.clone(), vec![lit("A")], vec![lit("D")]),
    ];
    let dropped = minimize(&sigma);
    assert!(!dropped.is_empty(), "redundancy was found");
    let cover: Vec<Ged> = (0..sigma.len())
        .filter(|i| !dropped.contains(i))
        .map(|i| sigma[i].clone())
        .collect();
    for phi in &sigma {
        assert!(implies(&cover, phi), "{} lost", phi.name());
    }
}
