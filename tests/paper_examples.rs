//! End-to-end reproduction of the paper's worked examples (Examples 1–10,
//! Figures 1–4), spanning every crate in the workspace.

use ged_datagen::kb::{generate as gen_kb, KbConfig};
use ged_datagen::music::{generate as gen_music, MusicConfig};
use ged_datagen::rules;
use ged_datagen::social::{generate as gen_social, spam_cascade, SocialConfig};
use ged_ext::domain::{domain_as_disj, domain_as_gdcs};
use ged_pattern::fragments;
use ged_repro::prelude::*;

/// Example 1(1) + Example 3: the four knowledge-base inconsistencies are
/// caught by φ1–φ4 with exact per-rule counts.
#[test]
fn example1_consistency_checking() {
    let cfg = KbConfig {
        n_creations: 30,
        n_countries: 10,
        n_species: 15,
        n_families: 10,
        planted: [2, 1, 3, 2],
        seed: 123,
    };
    let inst = gen_kb(&cfg);
    let sigma: Vec<Rule> = rules::kb_rules().into_iter().map(Rule::from).collect();
    let report = validate(&inst.graph, &sigma, None);
    assert_eq!(report.per_ged[0].violation_count, 2, "φ1");
    assert_eq!(report.per_ged[1].violation_count, 2, "φ2 (symmetric pairs)");
    assert_eq!(report.per_ged[2].violation_count, 3, "φ3");
    assert_eq!(report.per_ged[3].violation_count, 2, "φ4");
    // A clean KB validates.
    let clean = gen_kb(&KbConfig {
        planted: [0; 4],
        ..cfg
    });
    assert!(validate(&clean.graph, &sigma, Some(1)).satisfied());
}

/// Example 1(2) + φ5: the spam cascade marks exactly the planted chain.
#[test]
fn example1_spam_detection() {
    let cfg = SocialConfig {
        n_honest: 40,
        chain_len: 5,
        ..Default::default()
    };
    let inst = gen_social(&cfg);
    let mut g = inst.graph.clone();
    assert_eq!(spam_cascade(&mut g, cfg.k, &cfg.keyword), 4);
    assert!(satisfies(&g, &rules::phi5(cfg.k, &cfg.keyword).into()));
}

/// Example 1(3) + ψ1–ψ3: recursive entity resolution through the chase.
#[test]
fn example1_entity_resolution() {
    let cfg = MusicConfig {
        n_clean: 12,
        n_dupes: 4,
        seed: 77,
    };
    let inst = gen_music(&cfg);
    let ChaseResult::Consistent { coercion, .. } = chase(&inst.graph, &rules::music_keys()) else {
        panic!("resolution must be a valid chase")
    };
    assert_eq!(
        coercion.graph.node_count(),
        inst.graph.node_count() - 2 * cfg.n_dupes,
        "every duplicate cluster collapses by two nodes"
    );
    let keys: Vec<Rule> = rules::music_keys().into_iter().map(Rule::from).collect();
    assert!(satisfies_all(&coercion.graph, &keys));
}

/// Example 4 / Figure 2: the two chase outcomes, including the exact
/// coercion shape.
#[test]
fn example4_chase() {
    let (g, [v1, v2, v1p, v2p]) = fragments::fig2_graph();
    let phi1 = Ged::new(
        "φ1",
        fragments::fig2_q1(),
        vec![Literal::vars(Var(0), sym("A"), Var(1), sym("A"))],
        vec![Literal::id(Var(0), Var(1))],
    );
    let phi2 = Ged::new(
        "φ2",
        fragments::fig2_q2(),
        vec![],
        vec![Literal::id(Var(1), Var(2))],
    );
    match chase(&g, std::slice::from_ref(&phi1)) {
        ChaseResult::Consistent { eq, coercion, .. } => {
            assert!(eq.node_eq(v1, v2));
            assert!(!eq.node_eq(v1p, v2p));
            assert_eq!(coercion.graph.node_count(), 3, "G1 of Figure 2");
        }
        _ => panic!("Σ1 chase is valid in the paper"),
    }
    assert!(
        !chase(&g, &[phi1, phi2]).is_consistent(),
        "Σ2 chase is invalid (⊥) in the paper"
    );
}

/// Examples 5 & 6 / Figure 3: satisfiability interaction, including the
/// extra-component subtlety and the homomorphism-vs-isomorphism point.
#[test]
fn example5_6_satisfiability() {
    let phi1 = Ged::new(
        "φ1",
        fragments::fig3_q1(),
        vec![Literal::vars(Var(0), sym("A"), Var(0), sym("B"))],
        vec![Literal::id(Var(1), Var(2))],
    );
    let q2 = fragments::fig3_q2();
    let x1 = q2.var_by_name("x1").unwrap();
    let phi2 = Ged::new(
        "φ2",
        q2,
        vec![],
        vec![Literal::vars(x1, sym("A"), x1, sym("B"))],
    );
    let q2p = fragments::fig3_q2_prime();
    let x1p = q2p.var_by_name("x1").unwrap();
    let phi2p = Ged::new(
        "φ2'",
        q2p,
        vec![],
        vec![Literal::vars(x1p, sym("A"), x1p, sym("B"))],
    );
    assert!(is_satisfiable(std::slice::from_ref(&phi1)));
    assert!(is_satisfiable(std::slice::from_ref(&phi2)));
    assert!(!is_satisfiable(&[phi1.clone(), phi2]), "Σ1 of Example 5");
    assert!(!is_satisfiable(&[phi1, phi2p]), "Σ2 of Example 5(2)");

    // The UoE GKey: satisfiable under homomorphism; its model is the
    // single-node collapse where isomorphism would find no match at all.
    let uoe = Ged::new(
        "ϕ",
        fragments::uoe_pattern(),
        vec![],
        vec![Literal::id(Var(0), Var(1))],
    );
    let model = build_model(std::slice::from_ref(&uoe)).expect("satisfiable");
    assert_eq!(model.nodes_with_label(sym("UoE")).len(), 1);
    assert_eq!(
        ged_pattern::count(
            &fragments::uoe_pattern(),
            &model,
            MatchOptions::isomorphism()
        ),
        0,
        "under subgraph isomorphism the pattern cannot match its own model"
    );
}

/// Example 7 / Figure 4: the implication holds, and the chase-produced
/// axiom proof certifies it.
#[test]
fn example7_implication_and_proof() {
    let phi1 = Ged::new(
        "φ1",
        fragments::fig4_q1(),
        vec![Literal::vars(Var(0), sym("A"), Var(1), sym("A"))],
        vec![Literal::id(Var(0), Var(1))],
    );
    let phi2 = Ged::new(
        "φ2",
        fragments::fig4_q2(),
        vec![Literal::vars(Var(0), sym("B"), Var(1), sym("B"))],
        vec![Literal::vars(Var(0), sym("A"), Var(0), sym("B"))],
    );
    let goal = Ged::new(
        "ϕ",
        fragments::fig4_q(),
        vec![
            Literal::vars(Var(0), sym("A"), Var(2), sym("A")),
            Literal::vars(Var(1), sym("B"), Var(3), sym("B")),
        ],
        vec![Literal::id(Var(0), Var(2)), Literal::id(Var(1), Var(3))],
    );
    let sigma = vec![phi1, phi2];
    assert!(implies(&sigma, &goal));
    let proof = prove(&sigma, &goal).unwrap().expect("provable");
    proof.check().unwrap();
    // Soundness of every intermediate step.
    for step in &proof.steps {
        assert!(
            implies(&sigma, &step.conclusion),
            "unsound: {}",
            step.conclusion
        );
    }
}

/// Example 8: the Armstrong-style derived rules as checked proofs.
#[test]
fn example8_derived_rules() {
    let q = parse_pattern("t(x); t(y)").unwrap();
    let lit = |a: &str| Literal::vars(Var(0), sym(a), Var(1), sym(a));
    let phi = Ged::new("φ", q.clone(), vec![lit("A")], vec![lit("B")]);
    let aug = prove_augmentation(&phi, &[lit("Z")]).unwrap();
    aug.check().unwrap();
    assert!(implies(std::slice::from_ref(&phi), aug.conclusion()));

    let phi2 = Ged::new("φ2", q.clone(), vec![lit("B")], vec![lit("C")]);
    let tr = prove_transitivity(&phi, &phi2).unwrap();
    tr.check().unwrap();
    assert!(implies(&[phi.clone(), phi2], tr.conclusion()));

    let refl = prove_reflexivity(&q, vec![lit("A")]).unwrap();
    refl.check().unwrap();
    assert!(implies(&[], refl.conclusion()));
}

/// Examples 9 & 10: domain constraints via GDCs and GED∨, agreeing on
/// validation and both satisfiable.
#[test]
fn example9_10_domain_constraints() {
    let dom = [Value::from(0), Value::from(1)];
    let (phi1, phi2) = domain_as_gdcs("τ", "A", &dom);
    let psi = domain_as_disj("τ", "A", &dom);
    let pair = [phi1, phi2];
    assert!(ext_satisfiable(&pair));
    assert!(ext_satisfiable(std::slice::from_ref(&psi)));
    for v in [-1i64, 0, 1, 2] {
        let mut b = GraphBuilder::new();
        b.node("x", "τ");
        b.attr("x", "A", v);
        let g = b.build();
        let ok = (0..=1).contains(&v);
        assert_eq!(satisfies_all(&g, &pair), ok);
        assert_eq!(satisfies(&g, &psi), ok);
    }
}

/// Section 3: GEDs cannot enforce finite domains — a graph with an
/// out-of-domain value still satisfies every plain GED formulation that
/// tries to emulate the constraint conjunctively.
#[test]
fn finite_domains_need_the_extensions() {
    // The closest conjunctive GED, Q(∅ → x.A = 0 ∧ x.A = 1), is a falsum:
    // it forbids τ-nodes entirely rather than constraining the value.
    let q = parse_pattern("τ(x)").unwrap();
    let attempt = Ged::new(
        "attempt",
        q,
        vec![],
        vec![
            Literal::constant(Var(0), sym("A"), 0),
            Literal::constant(Var(0), sym("A"), 1),
        ],
    );
    assert!(attempt.is_forbidding());
    let mut b = GraphBuilder::new();
    b.node("x", "τ");
    b.attr("x", "A", 0);
    let g = b.build();
    assert!(
        !satisfies(&g, &attempt.into()),
        "the conjunctive attempt rejects even in-domain values"
    );
}
