//! Cross-formalism property tests: GED ↔ GED∨ agreement, the relational
//! encodings (Section 3, special case (5)), and chase-based vs
//! bounded-search reasoning on the equality-only fragment.

use ged_core::relational::{
    cfd_to_ged, encode_relations, fd_to_ged, relation_satisfies_cfd, relation_satisfies_fd, Cfd,
    Fd, Relation, TableauCell,
};
use ged_repro::prelude::*;
use proptest::prelude::*;

/// Random small relations over two columns with small domains.
fn arb_relation() -> impl Strategy<Value = Relation> {
    proptest::collection::vec((0i64..3, 0i64..3, 0i64..2), 1..7).prop_map(|rows| {
        Relation::new(
            "R",
            &["a", "b", "c"],
            rows.into_iter()
                .map(|(a, b, c)| vec![Value::from(a), Value::from(b), Value::from(c)])
                .collect(),
        )
    })
}

proptest! {
    /// FD checking through the graph encoding agrees with the native
    /// relational checker on random instances (EXP-REL).
    #[test]
    fn fd_encoding_agrees(rel in arb_relation()) {
        let fd = Fd {
            relation: "R".into(),
            lhs: vec!["a".into()],
            rhs: vec!["b".into()],
        };
        let ged = fd_to_ged(&fd);
        let g = encode_relations(std::slice::from_ref(&rel));
        prop_assert_eq!(relation_satisfies_fd(&rel, &fd), satisfies(&g, &ged.into()));
    }

    /// CFD checking through the graph encoding agrees with the native
    /// checker.
    #[test]
    fn cfd_encoding_agrees(rel in arb_relation()) {
        let cfd = Cfd {
            relation: "R".into(),
            lhs: vec![
                ("c".into(), TableauCell::Const(Value::from(1))),
                ("a".into(), TableauCell::Any),
            ],
            rhs: ("b".into(), TableauCell::Any),
        };
        let ged = cfd_to_ged(&cfd);
        let g = encode_relations(std::slice::from_ref(&rel));
        prop_assert_eq!(relation_satisfies_cfd(&rel, &cfd), satisfies(&g, &ged.into()));
    }

    /// A GED and its split into single-literal GED∨s, one per conclusion,
    /// agree on validation over random graphs. (Its GDC lift is the GED's
    /// own `Rule`, so the split is what is left to compare.)
    #[test]
    fn ged_gdc_validation_agree(
        vals in proptest::collection::vec((0i64..3, 0i64..3), 1..6)
    ) {
        let mut b = GraphBuilder::new();
        for (i, (a, v)) in vals.iter().enumerate() {
            let n = format!("n{i}");
            b.node(&n, "t");
            b.attr(&n, "A", *a);
            b.attr(&n, "B", *v);
        }
        let g = b.build();
        let q = parse_pattern("t(x); t(y)").unwrap();
        let ged = Ged::new(
            "g",
            q,
            vec![Literal::vars(Var(0), sym("A"), Var(1), sym("A"))],
            vec![Literal::vars(Var(0), sym("B"), Var(1), sym("B"))],
        );
        let split: Vec<Rule> = (ged.conclusions().iter())
            .map(|l| disj::new("g∨", ged.pattern().clone(), ged.premises().to_vec(), vec![l.clone()]))
            .collect();
        prop_assert_eq!(satisfies(&g, &Rule::from(ged)), satisfies_all(&g, &split));
    }

    /// Chase-based GED implication agrees with the GDC bounded search on
    /// equality-only instances (two independent decision procedures).
    #[test]
    fn implication_engines_agree(premise_attr in 0usize..3, concl_attr in 0usize..3) {
        let attrs = ["A", "B", "C"];
        let q = parse_pattern("t(x); t(y)").unwrap();
        let lit = |a: usize| Literal::vars(Var(0), sym(attrs[a]), Var(1), sym(attrs[a]));
        let sigma = vec![
            Ged::new("s1", q.clone(), vec![lit(0)], vec![lit(1)]),
            Ged::new("s2", q.clone(), vec![lit(1)], vec![lit(2)]),
        ];
        let phi = Ged::new("φ", q.clone(), vec![lit(premise_attr)], vec![lit(concl_attr)]);
        let by_chase = implies(&sigma, &phi);
        let lifted: Vec<Rule> = sigma.iter().cloned().map(Rule::from).collect();
        let by_search = ext_implies(&lifted, &phi.clone().into());
        prop_assert_eq!(by_chase, by_search);
    }
}

/// A graph-encoded EGD pair behaves like the original EGD: the φ_R half
/// demands attribute existence, the φ_E half the equality.
#[test]
fn egd_pair_end_to_end() {
    use ged_core::relational::{egd_to_geds, Egd};
    let egd = Egd {
        atoms: vec!["R".into(), "R".into()],
        equalities: vec![((0, "a".into()), (1, "a".into()))],
        conclusion: ((0, "b".into()), (1, "b".into())),
    };
    let (phi_r, phi_e) = egd_to_geds(&egd);
    // Instance violating the equality.
    let bad = Relation::new(
        "R",
        &["a", "b"],
        vec![
            vec![Value::from(1), Value::from(2)],
            vec![Value::from(1), Value::from(3)],
        ],
    );
    let g = encode_relations(&[bad]);
    assert!(satisfies(&g, &phi_r.into()));
    assert!(!satisfies(&g, &phi_e.clone().into()));
    // Implication interplay: φ_E plus the FD encoding of the same
    // dependency imply each other.
    let fd = Fd {
        relation: "R".into(),
        lhs: vec!["a".into()],
        rhs: vec!["b".into()],
    };
    let fd_ged = fd_to_ged(&fd);
    assert!(implies(std::slice::from_ref(&phi_e), &fd_ged));
    assert!(implies(&[fd_ged], &phi_e));
}

/// GKey shape checking and the gkey constructor agree on the paper's keys.
#[test]
fn gkey_shapes() {
    use ged_datagen::rules;
    for key in rules::music_keys() {
        assert!(key.is_gkey(), "{} must be a GKey", key.name());
        assert_eq!(key.class(), GedClass::GKey);
    }
}
