//! Graph entity dependencies `φ = Q[x̄](X → Y)` (Section 3) and the
//! sub-classes of Table 1.
//!
//! | Class  | Definition (Section 3)                                  |
//! |--------|---------------------------------------------------------|
//! | GED    | any `Q[x̄](X → Y)`                                       |
//! | GFD    | no id literals in `X` or `Y`                            |
//! | GKey   | `Q = Q1 ⊎ copy(Q1)`, `Y = {x0.id = y0.id}`              |
//! | GEDˣ   | no constant literals                                    |
//! | GFDˣ   | neither id nor constant literals                        |
//! | forbidding | `Q[x̄](X → false)`                                   |

use crate::literal::{falsum, is_falsum, Literal};
use ged_pattern::{Pattern, Var};
use std::fmt;

/// A graph entity dependency `Q[x̄](X → Y)`. Every constructor goes
/// through [`Ged::new`], so every literal is over `x̄`; outside this module
/// a struct literal does not compile:
///
/// ```compile_fail
/// let q = ged_pattern::parse_pattern("t(x)").unwrap();
/// ged_core::Ged { name: "g".into(), pattern: q, premises: vec![], conclusions: vec![] };
/// ```
#[derive(Debug, Clone)]
pub struct Ged {
    name: String,
    pattern: Pattern,
    premises: Vec<Literal>,
    conclusions: Vec<Literal>,
}

impl Ged {
    /// Build a GED, validating that every literal is over `x̄`.
    pub fn new(
        name: impl Into<String>,
        pattern: Pattern,
        premises: Vec<Literal>,
        conclusions: Vec<Literal>,
    ) -> Ged {
        for l in premises.iter().chain(conclusions.iter()) {
            assert!(
                l.in_scope(&pattern),
                "literal references a variable outside the pattern"
            );
        }
        Ged {
            name: name.into(),
            pattern,
            premises,
            conclusions,
        }
    }

    /// Name used in reports (`"φ1"`, `"ψ2"` …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The topological constraint `Q[x̄]`.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The premise literals `X`.
    pub fn premises(&self) -> &[Literal] {
        &self.premises
    }

    /// The conclusion literals `Y` (conjunctive).
    pub fn conclusions(&self) -> &[Literal] {
        &self.conclusions
    }

    /// A forbidding GED `Q[x̄](X → false)` (Section 3): `false` is the pair
    /// of conflicting constant literals on the first pattern variable.
    pub fn forbidding(name: impl Into<String>, pattern: Pattern, premises: Vec<Literal>) -> Ged {
        assert!(pattern.var_count() > 0, "forbidding GED needs ≥ 1 variable");
        let y = falsum(Var(0));
        Ged::new(name, pattern, premises, y)
    }

    /// Build a GKey from a base pattern `Q1[x̄]`, its designated variable
    /// `x0`, and a premise builder that receives the combined pattern, the
    /// original variables and their copies (Section 3, "Keys").
    ///
    /// The result is `Q[z̄](X → x0.id = y0.id)` where `Q = Q1 ⊎ copy(Q1)`
    /// and `y0 = f(x0)`.
    pub fn gkey(
        name: impl Into<String>,
        base: &Pattern,
        x0: Var,
        premise_builder: impl FnOnce(&Pattern, &[Var], &[Var]) -> Vec<Literal>,
    ) -> Ged {
        let (copy, _f) = base.copy_via(|n| format!("{n}*"));
        let (q, offset) = base.disjoint_union(&copy);
        let orig: Vec<Var> = (0..base.var_count() as u32).map(Var).collect();
        let copies: Vec<Var> = (0..base.var_count() as u32)
            .map(|i| Var(i + offset))
            .collect();
        let y0 = copies[x0.idx()];
        let premises = premise_builder(&q, &orig, &copies);
        Ged::new(name, q, premises, vec![Literal::id(x0, y0)])
    }

    /// Does any literal (premise or conclusion) satisfy `pred`?
    fn any_literal(&self, pred: impl Fn(&Literal) -> bool) -> bool {
        self.premises
            .iter()
            .chain(self.conclusions.iter())
            .any(pred)
    }

    /// GFD: a GED without id literals (Section 3, special case (1)).
    pub fn is_gfd(&self) -> bool {
        !self.any_literal(Literal::is_id)
    }

    /// GEDˣ: a GED without constant literals (Section 3, special case (3)).
    pub fn is_gedx(&self) -> bool {
        !self.any_literal(Literal::is_const)
    }

    /// GFDˣ: neither constant nor id literals — the extension of plain
    /// relational FDs.
    pub fn is_gfdx(&self) -> bool {
        self.is_gfd() && self.is_gedx()
    }

    /// Forbidding GED: the conclusion is (an instance of) `false`.
    pub fn is_forbidding(&self) -> bool {
        is_falsum(&self.conclusions)
    }

    /// GKey shape check (Section 3, special case (2)): the variable list
    /// splits as `x̄ ȳ` with `ȳ` a copy of `x̄` under `f(xi) = x(i+n/2)`
    /// (labels and edges preserved, no cross edges), and `Y` is the single
    /// id literal `x0.id = f(x0).id`. This is the layout produced by
    /// [`Ged::gkey`].
    pub fn is_gkey(&self) -> bool {
        let n = self.pattern.var_count();
        if n == 0 || !n.is_multiple_of(2) {
            return false;
        }
        let half = n / 2;
        let f = |v: Var| Var(v.0 + half as u32);
        // labels preserved under f
        for i in 0..half {
            let v = Var(i as u32);
            if self.pattern.label(v) != self.pattern.label(f(v)) {
                return false;
            }
        }
        // edges: each edge stays within a half and is mirrored by f
        for e in self.pattern.pattern_edges() {
            let (si, di) = (e.src.idx(), e.dst.idx());
            match (si < half, di < half) {
                (true, true) => {
                    if !self
                        .pattern
                        .pattern_edges()
                        .iter()
                        .any(|e2| e2.src == f(e.src) && e2.dst == f(e.dst) && e2.label == e.label)
                    {
                        return false;
                    }
                }
                (false, false) => {
                    let back = |v: Var| Var(v.0 - half as u32);
                    if !self.pattern.pattern_edges().iter().any(|e2| {
                        e2.src == back(e.src) && e2.dst == back(e.dst) && e2.label == e.label
                    }) {
                        return false;
                    }
                }
                _ => return false, // cross edge between the copies
            }
        }
        // conclusion: exactly one id literal pairing v with f(v)
        match self.conclusions.as_slice() {
            [Literal::Id { x, y }] => x.idx() < half && *y == f(*x),
            _ => false,
        }
    }

    /// Classification into the finest matching class of Table 1.
    pub fn class(&self) -> GedClass {
        if self.is_gfdx() {
            GedClass::Gfdx
        } else if self.is_gfd() {
            GedClass::Gfd
        } else if self.is_gkey() {
            GedClass::GKey
        } else if self.is_gedx() {
            GedClass::Gedx
        } else {
            GedClass::Ged
        }
    }

    /// Total size `|φ| = |Q| + |X| + |Y|` — the measure in the chase
    /// bounds of Theorem 1.
    pub fn size(&self) -> usize {
        self.pattern.size() + self.premises.len() + self.conclusions.len()
    }
}

/// The dependency classes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GedClass {
    /// Unrestricted GED.
    Ged,
    /// GED without id literals.
    Gfd,
    /// Two-copy pattern with a single id conclusion.
    GKey,
    /// GED without constant literals.
    Gedx,
    /// GED without constant or id literals.
    Gfdx,
}

impl fmt::Display for GedClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GedClass::Ged => "GED",
            GedClass::Gfd => "GFD",
            GedClass::GKey => "GKey",
            GedClass::Gedx => "GEDx",
            GedClass::Gfdx => "GFDx",
        };
        f.write_str(s)
    }
}

impl fmt::Display for Ged {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lits = |ls: &[Literal]| -> String {
            if ls.is_empty() {
                "∅".to_string()
            } else {
                ls.iter()
                    .map(|l| l.display(&self.pattern).to_string())
                    .collect::<Vec<_>>()
                    .join(" ∧ ")
            }
        };
        write!(
            f,
            "{}: {} ({} → {})",
            self.name,
            self.pattern,
            lits(&self.premises),
            lits(&self.conclusions)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::sym;
    use ged_pattern::fragments;
    use ged_pattern::parse_pattern;

    /// φ1 of Example 3: a video game can only be created by programmers.
    fn phi1() -> Ged {
        let q = fragments::fig1_q1();
        let x = q.var_by_name("x").unwrap();
        let y = q.var_by_name("y").unwrap();
        Ged::new(
            "φ1",
            q.clone(),
            vec![Literal::constant(y, sym("type"), "video game")],
            vec![Literal::constant(x, sym("type"), "programmer")],
        )
    }

    /// ψ2 of Example 3: album key on (title, release).
    fn psi2() -> Ged {
        let base = parse_pattern("album(x)").unwrap();
        Ged::gkey("ψ2", &base, Var(0), |_q, orig, copies| {
            vec![
                Literal::vars(orig[0], sym("title"), copies[0], sym("title")),
                Literal::vars(orig[0], sym("release"), copies[0], sym("release")),
            ]
        })
    }

    #[test]
    fn phi1_is_a_gfd() {
        let g = phi1();
        assert!(g.is_gfd());
        assert!(!g.is_gedx(), "it has constant literals");
        assert!(!g.is_gfdx());
        assert!(!g.is_gkey());
        assert_eq!(g.class(), GedClass::Gfd);
    }

    #[test]
    fn psi2_is_a_gkey_and_a_gedx() {
        let k = psi2();
        assert!(k.is_gkey());
        assert!(k.is_gedx(), "ψ2 carries no constants");
        assert!(!k.is_gfd(), "conclusion is an id literal");
        assert_eq!(k.class(), GedClass::GKey);
        assert_eq!(k.pattern.var_count(), 2);
    }

    #[test]
    fn gkey_with_edges_round_trips() {
        // ψ1 of Example 3: album identified by title + artist id.
        let base = parse_pattern("album(x) -[by]-> artist(x')").unwrap();
        let x = base.var_by_name("x").unwrap();
        let psi1 = Ged::gkey("ψ1", &base, x, |_q, orig, copies| {
            vec![
                Literal::vars(orig[0], sym("title"), copies[0], sym("title")),
                Literal::id(orig[1], copies[1]),
            ]
        });
        assert!(psi1.is_gkey());
        assert_eq!(psi1.pattern.var_count(), 4);
        assert_eq!(psi1.pattern.edge_count(), 2);
        assert!(!psi1.is_gfd());
        // premises include an id literal, so ψ1 is "recursively defined"
        assert!(psi1.premises.iter().any(Literal::is_id));
    }

    #[test]
    fn forbidding_constructor_and_detection() {
        // φ4 of Example 3: Q4 is illegal.
        let q4 = fragments::fig1_q4();
        let phi4 = Ged::forbidding("φ4", q4, vec![]);
        assert!(phi4.is_forbidding());
        assert!(phi4.is_gfd());
        assert_eq!(phi4.class(), GedClass::Gfd);
    }

    #[test]
    fn gfdx_classification() {
        // φ2 of Example 3: one country, one capital name — a GFDx.
        let q2 = fragments::fig1_q2();
        let y = q2.var_by_name("y").unwrap();
        let z = q2.var_by_name("z").unwrap();
        let phi2 = Ged::new(
            "φ2",
            q2,
            vec![],
            vec![Literal::vars(y, sym("name"), z, sym("name"))],
        );
        assert!(phi2.is_gfdx());
        assert_eq!(phi2.class(), GedClass::Gfdx);
    }

    #[test]
    fn non_gkey_shapes_rejected() {
        // Odd variable count.
        let q = parse_pattern("a(x); a(y); a(z)").unwrap();
        let g = Ged::new("g", q, vec![], vec![Literal::id(Var(0), Var(1))]);
        assert!(!g.is_gkey());
        // Label mismatch between halves.
        let q = parse_pattern("a(x); b(y)").unwrap();
        let g = Ged::new("g", q, vec![], vec![Literal::id(Var(0), Var(1))]);
        assert!(!g.is_gkey());
        // Cross edge between halves.
        let q = parse_pattern("a(x) -[e]-> a(y)").unwrap();
        let g = Ged::new("g", q, vec![], vec![Literal::id(Var(0), Var(1))]);
        assert!(!g.is_gkey());
        // Conclusion not an id literal.
        let q = parse_pattern("a(x); a(y)").unwrap();
        let g = Ged::new(
            "g",
            q,
            vec![],
            vec![Literal::vars(Var(0), sym("A"), Var(1), sym("A"))],
        );
        assert!(!g.is_gkey());
    }

    #[test]
    #[should_panic(expected = "outside the pattern")]
    fn out_of_scope_literal_rejected() {
        let q = parse_pattern("a(x)").unwrap();
        Ged::new("bad", q, vec![], vec![Literal::id(Var(0), Var(7))]);
    }

    #[test]
    fn display_formats_like_the_paper() {
        let s = phi1().to_string();
        assert!(s.contains("φ1"));
        assert!(s.contains("→"));
        assert!(s.contains("y.type = \"video game\""));
        // Empty X renders as ∅.
        let q2 = fragments::fig1_q2();
        let y = q2.var_by_name("y").unwrap();
        let z = q2.var_by_name("z").unwrap();
        let phi2 = Ged::new(
            "φ2",
            q2,
            vec![],
            vec![Literal::vars(y, sym("name"), z, sym("name"))],
        );
        assert!(phi2.to_string().contains("(∅ →"));
    }

    #[test]
    fn sizes() {
        let g = phi1();
        assert_eq!(g.size(), 3 + 1 + 1);
    }
}
