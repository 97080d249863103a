//! # ged-analysis — pre-deployment static analysis of constraint sets
//!
//! The paper's Section 5 decision procedures (satisfiability and
//! implication of GEDs via the chase) turned into an engineering gate: a
//! two-layer analyzer that runs *before* a validator deploys a Σ, so an
//! inconsistent rule set is rejected outright and a redundant one is
//! pruned before it burns seeding and delta-path time.
//!
//! * **Layer 1 — structural linter** (the `lint` module): works over a
//!   [`Rule`]'s pattern, premises and conclusion options. Catches
//!   contradictory premises, conclusions entailed by premises (rules that
//!   can never produce a violation), duplicate rules, duplicate/shadowed
//!   disjuncts in disjunctive conclusions, disconnected patterns
//!   (cartesian blowup), and wildcard-label cost.
//! * **Layer 2 — semantic analysis** (the `semantic` module): the chase
//!   fragment ([`Rule::as_chase_ged`]) goes through the `Sat(Σ)` gate
//!   (`reason::is_satisfiable`, Theorem 2) and implication-based
//!   minimization (`reason::implies`, Theorem 4), flagging implied and
//!   chase-proved-dead rules as prunable.
//!
//! The entry point is [`analyze`], returning an [`AnalysisReport`] of
//! severity-ranked [`Diagnostic`]s plus the [`Pruned`] set — the rules
//! the engine's `IncrementalValidator::with_analysis` drops when pruning
//! is enabled. The soundness argument for pruning is DESIGN.md §7.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

mod lint;
mod report;
mod semantic;

pub use report::{AnalysisReport, Diagnostic, LintKind, Pruned, Severity};

use ged_core::rule::Rule;
use std::collections::BTreeMap;

/// Analyze a constraint set: run the structural linter and the semantic
/// (chase) layer, returning severity-ranked diagnostics and the prunable
/// rule set.
pub fn analyze(sigma: &[Rule]) -> AnalysisReport {
    let mut diagnostics = Vec::new();
    let mut prunable: BTreeMap<usize, LintKind> = BTreeMap::new();
    lint::structural(sigma, &mut diagnostics, &mut prunable);
    let outcome = semantic::semantic(sigma, &mut diagnostics, &mut prunable);
    // Most severe first; ties keep Σ order (Σ-level findings lead).
    diagnostics.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then(a.index.unwrap_or(0).cmp(&b.index.unwrap_or(0)))
    });
    let prunable = prunable
        .into_iter()
        .map(|(index, why)| Pruned {
            index,
            name: sigma[index].name.clone(),
            why,
        })
        .collect();
    AnalysisReport {
        rules: sigma.len(),
        chase_eligible: outcome.eligible,
        diagnostics,
        prunable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_core::ged::Ged;
    use ged_core::literal::Literal;
    use ged_core::rule::{GdcLiteral, Pred};
    use ged_graph::json::Json;
    use ged_graph::sym;
    use ged_pattern::{parse_pattern, Pattern, Var};

    /// Analyze GEDs, each compiled into a `Rule`.
    fn analyze_geds(sigma: impl IntoIterator<Item = Ged>) -> AnalysisReport {
        analyze(&sigma.into_iter().map(Rule::from).collect::<Vec<_>>())
    }

    fn q1() -> Pattern {
        parse_pattern("user(x)").unwrap()
    }

    fn q2() -> Pattern {
        parse_pattern("user(x) -[follows]-> user(y)").unwrap()
    }

    #[test]
    fn clean_sigma_is_quiet() {
        let sigma = vec![Ged::new(
            "ok",
            q2(),
            vec![Literal::constant(Var(0), sym("status"), "a")],
            vec![Literal::constant(Var(1), sym("watch"), 1)],
        )];
        let r = analyze_geds(sigma);
        assert!(r.diagnostics.is_empty(), "{r}");
        assert!(r.prunable.is_empty());
        assert_eq!(r.rules, 1);
        assert_eq!(r.chase_eligible, 1);
    }

    #[test]
    fn contradictory_premises_flag_and_prune() {
        let sigma = vec![Ged::new(
            "dead",
            q1(),
            vec![
                Literal::constant(Var(0), sym("kind"), "bot"),
                Literal::constant(Var(0), sym("kind"), "human"),
            ],
            vec![Literal::constant(Var(0), sym("level"), 9)],
        )];
        let r = analyze_geds(sigma);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.kind == LintKind::ContradictoryPremises)
            .expect("contradiction flagged");
        assert_eq!(d.severity, Severity::Warning);
        assert!(r.is_prunable(0));
    }

    #[test]
    fn entailed_conclusion_flags_the_dead_rule() {
        let sigma = vec![Ged::new(
            "idempotent",
            q1(),
            vec![Literal::constant(Var(0), sym("status"), "a")],
            vec![Literal::constant(Var(0), sym("status"), "a")],
        )];
        let r = analyze_geds(sigma);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.kind == LintKind::EntailedConclusion && d.severity == Severity::Warning));
        assert!(r.is_prunable(0));
    }

    #[test]
    fn implied_rule_is_found_by_minimization() {
        let a = Ged::new(
            "a⇒b",
            q1(),
            vec![Literal::constant(Var(0), sym("a"), 1)],
            vec![Literal::constant(Var(0), sym("b"), 1)],
        );
        let b = Ged::new(
            "b⇒c",
            q1(),
            vec![Literal::constant(Var(0), sym("b"), 1)],
            vec![Literal::constant(Var(0), sym("c"), 1)],
        );
        let implied = Ged::new(
            "a⇒c",
            q1(),
            vec![Literal::constant(Var(0), sym("a"), 1)],
            vec![Literal::constant(Var(0), sym("c"), 1)],
        );
        let r = analyze_geds([a, b, implied]);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.kind == LintKind::ImpliedRule)
            .expect("transitive rule flagged");
        assert_eq!(d.index, Some(2));
        assert_eq!(r.prunable.len(), 1);
        assert_eq!(r.prunable[0].index, 2);
        assert_eq!(r.prunable[0].why, LintKind::ImpliedRule);
    }

    #[test]
    fn duplicate_rule_flags_the_second_copy() {
        let mk = |name: &str| {
            Ged::new(
                name,
                q2(),
                vec![Literal::constant(Var(0), sym("status"), "a")],
                vec![Literal::constant(Var(1), sym("watch"), 1)],
            )
        };
        let r = analyze_geds([mk("original"), mk("copy")]);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.kind == LintKind::DuplicateRule)
            .expect("duplicate flagged");
        assert_eq!(d.index, Some(1));
        assert!(r.is_prunable(1));
        assert!(!r.is_prunable(0));
    }

    #[test]
    fn unsatisfiable_sigma_is_an_error() {
        let r1 = Ged::new(
            "plan:free",
            q1(),
            vec![],
            vec![Literal::constant(Var(0), sym("plan"), "free")],
        );
        let r2 = Ged::new(
            "plan:pro",
            q1(),
            vec![],
            vec![Literal::constant(Var(0), sym("plan"), "pro")],
        );
        let r = analyze_geds([r1, r2]);
        assert!(r.has_errors());
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.kind == LintKind::UnsatisfiableSigma)
            .expect("unsat flagged");
        assert_eq!(d.severity, Severity::Error);
        assert!(d.rule.is_none());
        // A Σ-level finding serialises its missing rule as `null`.
        let json = r.to_json();
        let unsat = json
            .get_arr("diagnostics")
            .unwrap()
            .iter()
            .find(|d| d.get_str("kind") == Some(LintKind::UnsatisfiableSigma.slug()))
            .expect("serialised too");
        assert_eq!(unsat.get("rule"), Some(&Json::Null));
        assert_eq!(unsat.get("index"), Some(&Json::Null));
        // The gate stops the layer: no implied-rule noise from an
        // inconsistent Σ.
        assert!(r
            .diagnostics
            .iter()
            .all(|d| d.kind != LintKind::ImpliedRule));
    }

    #[test]
    fn forbidding_rules_do_not_trip_the_sat_gate() {
        // A forbidding GED asserts its pattern never matches; strong
        // satisfiability would reject it by construction, so the gate
        // must exclude it (Example 3's φ4 is such a rule).
        let f = Ged::forbidding("no-follow", q2(), vec![]);
        let r = analyze_geds([f]);
        assert!(!r.has_errors(), "{r}");
        assert_eq!(r.chase_eligible, 1);
    }

    /// Lints that compare rule logic compare whole literals, predicate
    /// included: a GDC and its verbatim copy are duplicates, one with
    /// another constant is not, a `>` conclusion among the premises is
    /// entailed, and two `<` bounds on one slot are no constant conflict.
    #[test]
    fn predicate_literals_are_compared_whole() {
        let lit =
            |attr: &str, pred, value: i64| GdcLiteral::constant(Var(0), sym(attr), pred, value);
        let rule = |name, premises, conclusion| Rule::new(name, q1(), premises, vec![conclusion]);
        let flag = || vec![lit("flag", Pred::Eq, 1)];
        let under = |age| vec![lit("age", Pred::Lt, age)];
        let r = analyze(&[
            rule("minor", under(13), flag()),
            rule("minor-copy", under(13), flag()),
            rule("teen", under(18), flag()),
            rule(
                "tautology",
                vec![lit("score", Pred::Gt, 5)],
                vec![lit("score", Pred::Gt, 5)],
            ),
            rule(
                "two-bounds",
                vec![lit("a", Pred::Lt, 5), lit("a", Pred::Lt, 10)],
                flag(),
            ),
        ]);
        let found = |kind| -> Vec<Option<usize>> {
            r.diagnostics
                .iter()
                .filter(|d| d.kind == kind)
                .map(|d| d.index)
                .collect()
        };
        assert_eq!(found(LintKind::DuplicateRule), [Some(1)], "{r}");
        assert_eq!(found(LintKind::EntailedConclusion), [Some(3)], "{r}");
        assert!(found(LintKind::ContradictoryPremises).is_empty(), "{r}");
        assert_eq!(r.prunable.len(), 2);
    }

    /// A disjunct that strictly extends another can never decide the
    /// disjunction; the lint names the larger one. No family's `From`
    /// builds such a rule (a GED∨'s options are single literals), so the
    /// rule is built by hand.
    #[test]
    fn a_disjunct_extending_another_is_shadowed() {
        let lit = |attr: &str| GdcLiteral::constant(Var(0), sym(attr), Pred::Eq, 1);
        let options = vec![vec![lit("a"), lit("b")], vec![lit("a")]];
        let r = analyze(&[Rule::new("shadowed", q1(), vec![], options)]);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.kind == LintKind::ShadowedDisjunct)
            .expect("shadowed disjunct flagged");
        assert_eq!(
            d.message,
            "disjunct #0 extends disjunct #1 and can never decide the disjunction"
        );
        assert!(r.prunable.is_empty());
    }

    #[test]
    fn disconnected_and_wildcard_patterns_get_notes() {
        let q = parse_pattern("user(x); user(y)").unwrap();
        let disconnected = Ged::new(
            "pair",
            q,
            vec![],
            vec![Literal::vars(Var(0), sym("a"), Var(1), sym("a"))],
        );
        let wild = parse_pattern("_(x)").unwrap();
        let wildcard = Ged::new(
            "any",
            wild,
            vec![Literal::constant(Var(0), sym("f"), 1)],
            vec![Literal::constant(Var(0), sym("g"), 1)],
        );
        let r = analyze_geds([disconnected, wildcard]);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.kind == LintKind::DisconnectedPattern && d.severity == Severity::Note));
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.kind == LintKind::WildcardLabel && d.severity == Severity::Note));
        assert!(!r.has_errors());
        assert!(r.prunable.is_empty());
    }

    #[test]
    fn report_renders_display_and_json() {
        let sigma = vec![Ged::new(
            "idempotent",
            q1(),
            vec![Literal::constant(Var(0), sym("status"), "a")],
            vec![Literal::constant(Var(0), sym("status"), "a")],
        )];
        let r = analyze_geds(sigma);
        let text = r.to_string();
        assert!(text.contains("1 rule(s)"), "{text}");
        assert!(text.contains("entailed-conclusion"), "{text}");
        // The document's shape is a published format: exact key order.
        fn keys(j: &Json) -> Vec<&str> {
            match j {
                Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
                other => panic!("not an object: {other}"),
            }
        }
        let json = r.to_json();
        assert_eq!(
            keys(&json),
            [
                "rules",
                "chase_eligible",
                "errors",
                "warnings",
                "notes",
                "diagnostics",
                "prunable"
            ]
        );
        assert_eq!(json.get_u64("rules"), Some(1));
        let diagnostics = json.get_arr("diagnostics").unwrap();
        assert_eq!(diagnostics.len(), r.diagnostics.len());
        for d in diagnostics {
            assert_eq!(keys(d), ["severity", "kind", "rule", "index", "message"]);
        }
        assert!(diagnostics
            .iter()
            .any(|d| d.get_str("kind") == Some("entailed-conclusion")
                && d.get_str("rule") == Some("idempotent")
                && d.get_u64("index") == Some(0)));
        let prunable = json.get_arr("prunable").unwrap();
        assert_eq!(prunable.len(), r.prunable.len());
        for p in prunable {
            assert_eq!(keys(p), ["index", "rule", "why"]);
        }
    }
}
