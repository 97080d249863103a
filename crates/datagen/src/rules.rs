//! The GEDs of Example 3 (φ1–φ5, ψ1–ψ3), shared by the examples, the
//! integration tests and the experiments harness.

use ged_core::ged::Ged;
use ged_core::literal::Literal;
use ged_graph::sym;
use ged_pattern::{fragments, parse_pattern, Var};

/// φ1 = `Q1[x,y](y.type = "video game" → x.type = "programmer")`: a video
/// game can only be created by programmers.
pub fn phi1() -> Ged {
    let q = fragments::fig1_q1();
    let x = q.var_by_name("x").unwrap();
    let y = q.var_by_name("y").unwrap();
    Ged::new(
        "φ1",
        q,
        vec![Literal::constant(y, sym("type"), "video game")],
        vec![Literal::constant(x, sym("type"), "programmer")],
    )
}

/// φ2 = `Q2[x,y,z](∅ → y.name = z.name)`: a country's capitals carry one
/// name.
pub fn phi2() -> Ged {
    let q = fragments::fig1_q2();
    let y = q.var_by_name("y").unwrap();
    let z = q.var_by_name("z").unwrap();
    Ged::new(
        "φ2",
        q,
        vec![],
        vec![Literal::vars(y, sym("name"), z, sym("name"))],
    )
}

/// φ3 = `Q3[x,y](x.A = x.A → y.A = x.A)` with `A = can_fly`: `is_a`
/// inheritance (catches the moa/birds inconsistency).
pub fn phi3() -> Ged {
    let q = fragments::fig1_q3();
    let x = q.var_by_name("x").unwrap();
    let y = q.var_by_name("y").unwrap();
    let a = sym("can_fly");
    Ged::new(
        "φ3",
        q,
        vec![Literal::vars(x, a, x, a)],
        vec![Literal::vars(y, a, x, a)],
    )
}

/// φ4 = `Q4[x,y](∅ → false)`: nobody is both child and parent of the same
/// person.
pub fn phi4() -> Ged {
    Ged::forbidding("φ4", fragments::fig1_q4(), vec![])
}

/// φ5(k, c) = the spam rule over `Q5`: if `x'` is confirmed fake, both
/// accounts like the same `k` blogs, and both posted blogs carry the
/// peculiar keyword `c`, then `x` is fake too.
pub fn phi5(k: usize, keyword: &str) -> Ged {
    let q = fragments::fig1_q5(k);
    let x = q.var_by_name("x").unwrap();
    let xp = q.var_by_name("x'").unwrap();
    let z1 = q.var_by_name("z1").unwrap();
    let z2 = q.var_by_name("z2").unwrap();
    Ged::new(
        format!("φ5(k={k})"),
        q,
        vec![
            Literal::constant(xp, sym("is_fake"), 1),
            Literal::constant(z1, sym("keyword"), keyword),
            Literal::constant(z2, sym("keyword"), keyword),
        ],
        vec![Literal::constant(x, sym("is_fake"), 1)],
    )
}

/// ψ1 = `Q6(x.title = y.title ∧ x'.id = y'.id → x.id = y.id)`: an album is
/// identified by its title and the identity of its primary artist.
pub fn psi1() -> Ged {
    let base = parse_pattern("album(x) -[by]-> artist(x')").unwrap();
    let x = base.var_by_name("x").unwrap();
    Ged::gkey("ψ1", &base, x, |_q, o, c| {
        vec![
            Literal::vars(o[0], sym("title"), c[0], sym("title")),
            Literal::id(o[1], c[1]),
        ]
    })
}

/// ψ2 = `Q7(x.title = y.title ∧ x.release = y.release → x.id = y.id)`.
pub fn psi2() -> Ged {
    let base = parse_pattern("album(x)").unwrap();
    Ged::gkey("ψ2", &base, Var(0), |_q, o, c| {
        vec![
            Literal::vars(o[0], sym("title"), c[0], sym("title")),
            Literal::vars(o[0], sym("release"), c[0], sym("release")),
        ]
    })
}

/// ψ3 = `Q6(x'.name = y'.name ∧ x.id = y.id → x'.id = y'.id)`: an artist
/// is identified by name plus the identity of an album they recorded —
/// mutually recursive with ψ1.
pub fn psi3() -> Ged {
    let base = parse_pattern("album(x) -[by]-> artist(x')").unwrap();
    let xp = base.var_by_name("x'").unwrap();
    Ged::gkey("ψ3", &base, xp, |_q, o, c| {
        vec![
            Literal::vars(o[1], sym("name"), c[1], sym("name")),
            Literal::id(o[0], c[0]),
        ]
    })
}

/// The knowledge-base rule set {φ1, φ2, φ3, φ4}.
pub fn kb_rules() -> Vec<Ged> {
    vec![phi1(), phi2(), phi3(), phi4()]
}

/// The entity-resolution key set {ψ1, ψ2, ψ3}.
pub fn music_keys() -> Vec<Ged> {
    vec![psi1(), psi2(), psi3()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_core::ged::GedClass;

    #[test]
    fn classifications_match_the_paper() {
        // Example 3: "ϕ1–ϕ5 are GFDs, but ψ1–ψ3 are not";
        // "ϕ2 and ϕ3 are GFDxs"; "ψ1–ψ3 are GEDxs but not GFDxs".
        assert!(phi1().is_gfd());
        assert!(phi2().is_gfdx());
        assert!(phi3().is_gfdx());
        assert!(phi4().is_gfd());
        assert!(phi5(2, "c").is_gfd());
        for k in [psi1(), psi2(), psi3()] {
            assert!(!k.is_gfd());
            assert!(k.is_gedx());
            assert!(!k.is_gfdx());
            assert!(k.is_gkey());
            assert_eq!(k.class(), GedClass::GKey);
        }
    }

    #[test]
    fn recursive_keys_reference_each_other() {
        // ψ1's premises carry an artist id literal; ψ3's an album id
        // literal — the mutual recursion of Example 1(3).
        assert!(psi1().premises().iter().any(ged_core::Literal::is_id));
        assert!(psi3().premises().iter().any(ged_core::Literal::is_id));
    }

    #[test]
    fn rule_sets_and_strong_satisfiability() {
        // φ1–φ3 and the keys are satisfiable.
        assert!(ged_core::reason::is_satisfiable(&[phi1(), phi2(), phi3()]));
        assert!(ged_core::reason::is_satisfiable(&music_keys()));
        // But the FULL kb set is NOT: the paper's *strong* satisfiability
        // requires every pattern to be embedded in the model, and the
        // forbidding φ4 then fires on its own embedded pattern. Forbidding
        // GEDs are validation rules, not model constraints (Section 4:
        // "a forbidding constraint can be applied only when G is dirty").
        assert!(!ged_core::reason::is_satisfiable(&kb_rules()));
    }
}
