//! The static analyzer as a deployment gate, tier 1:
//!
//! * every datagen workload Σ — the paper's Example 3 rules, the
//!   coloring reductions, the GDC / GED∨ / mixed families, and the
//!   random harness sigmas — passes `analyze` with no Error-severity
//!   diagnostics (the workloads are sloppy-free by construction);
//! * the `redundant` workload's planted diagnostics are all found at
//!   their planted severities and exactly the planted rules prune;
//! * randomized soundness of minimization: `validate(g, minimize(Σ))`
//!   agrees with `validate(g, Σ)` violation-for-violation on the kept
//!   rules and verdict-for-verdict overall, across the incremental
//!   harness's random graphs;
//! * `IncrementalValidator::with_analysis` rejects an inconsistent Σ,
//!   prunes the redundant rules, and records what it dropped.

use ged_datagen::coloring::{validation_gfdx, validation_gkey, ColoringInstance};
use ged_datagen::disj::{kb_disj, social_disj};
use ged_datagen::gdc::{kb_gdcs, social_gdcs};
use ged_datagen::kb::KbConfig;
use ged_datagen::mixed::social_mixed;
use ged_datagen::random::{plant_key_violations, random_graph, random_sigma, RandomGraphConfig};
use ged_datagen::redundant::redundant;
use ged_datagen::rules;
use ged_datagen::social::SocialConfig;
use ged_repro::prelude::*;
use std::collections::BTreeSet;

#[path = "support/lockstep.rs"]
mod lockstep;
use lockstep::{served, witnesses};

/// Every datagen workload Σ as `Rule`s: the paper's
/// Example 3 rule sets, the coloring reductions (their disconnected GKey
/// patterns are a Note by design — the disjoint copy construction), the
/// GDC, GED∨ and mixed families, the random harness Σ (a planted key plus
/// random rules) and the `redundant` workload with its planted findings.
fn datagen_sigmas() -> Vec<(&'static str, Vec<Rule>)> {
    let scfg = SocialConfig {
        n_honest: 30,
        ..Default::default()
    };
    let kcfg = KbConfig::default();
    let example3 = [
        rules::phi1(),
        rules::phi2(),
        rules::phi3(),
        rules::phi4(),
        rules::phi5(3, "c"),
    ];
    let (k3, c5) = (ColoringInstance::complete(3), ColoringInstance::cycle(5));
    let mut out = vec![
        ("example-3", served(example3)),
        ("kb", served(rules::kb_rules())),
        ("music-keys", served(rules::music_keys())),
        ("coloring-gfdx K3", served([validation_gfdx(&k3).1])),
        ("coloring-gkey K3", served([validation_gkey(&k3).1])),
        ("coloring-gfdx C5", served([validation_gfdx(&c5).1])),
        ("coloring-gkey C5", served([validation_gkey(&c5).1])),
        ("social-gdc", social_gdcs(&scfg, 3, 11).sigma),
        ("kb-gdc", kb_gdcs(&kcfg, 3, 12).sigma),
        ("social-disj", social_disj(&scfg, 2, 2, 13).sigma),
        ("kb-disj", kb_disj(&kcfg, 2, 14).sigma),
        ("social-mixed", social_mixed(&scfg, 3, 15).sigma),
    ];
    let cfg = RandomGraphConfig {
        n_nodes: 80,
        n_edges: 240,
        seed: 16,
        ..Default::default()
    };
    let mut g = random_graph(&cfg);
    let mut random = vec![plant_key_violations(&mut g, "entity", 5)];
    random.extend(random_sigma(4, 3, &cfg));
    out.push(("random", served(random)));
    out.push(("redundant", redundant(120, 10).sigma));
    out
}

/// Every workload Σ deploys clean: the analyzer may note stylistic facts
/// (disconnected GKey patterns, wildcard labels) or warn about the
/// `redundant` workload's planted rules, but must not error.
#[test]
fn every_datagen_workload_sigma_analyzes_without_errors() {
    for (what, sigma) in datagen_sigmas() {
        let report = analyze(&sigma);
        assert!(
            !report.has_errors(),
            "workload {what} should analyze clean, got:\n{report}"
        );
    }
}

/// A rule as text: its name, its pattern, its premises, then each
/// conclusion option in brackets (none at all is `false`). Built from the
/// `Display` impls only — `Symbol`'s `Debug` prints interner indexes.
fn rule_text(r: &Rule) -> String {
    let join = |lits: &[GdcLiteral]| {
        let lits: Vec<String> = lits.iter().map(ToString::to_string).collect();
        lits.join(" ∧ ")
    };
    let options: Vec<String> = r.options.iter().map(|o| format!("[{}]", join(o))).collect();
    format!(
        "rule {}: {}\n  X: [{}]\n  Y: {} option(s) {}\n",
        r.name,
        r.pattern,
        join(&r.premises),
        r.options.len(),
        options.join(" ∨ ")
    )
}

/// Every datagen Σ — each rule's text, then the analyzer's report on it
/// as text and as its JSON document — equals `golden/analysis_reports.txt`
/// byte for byte: a constructor that builds a different rule, or a change
/// to the linter or the semantic layer that moves one diagnostic, one
/// message or one pruned rule, fails here.
#[test]
fn every_datagen_sigma_renders_its_checked_in_report() {
    let mut text = String::new();
    for (what, sigma) in datagen_sigmas() {
        text += &format!("== {what}\n");
        text.extend(sigma.iter().map(rule_text));
        let report = analyze(&sigma);
        text += &format!("{report}{}\n", report.to_json());
    }
    let expected = include_str!("golden/analysis_reports.txt");
    if let Some((at, (got, want))) = text
        .lines()
        .zip(expected.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!("line {}: rendered\n  {got}\nexpected\n  {want}", at + 1);
    }
    assert_eq!(text.len(), expected.len(), "the reports differ in length");
}

#[test]
fn redundant_workload_diagnostics_are_all_found() {
    let w = redundant(120, 10);
    let report = analyze(&w.sigma);
    assert!(!report.has_errors(), "{report}");
    for kind in [
        LintKind::ImpliedRule,
        LintKind::DuplicateRule,
        LintKind::ContradictoryPremises,
        LintKind::EntailedConclusion,
        LintKind::DuplicateDisjunct,
    ] {
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.kind == kind)
            .unwrap_or_else(|| panic!("planted {kind:?} not flagged:\n{report}"));
        assert_eq!(d.severity, Severity::Warning, "{kind:?}");
    }
    let pruned: BTreeSet<usize> = report.prunable.iter().map(|p| p.index).collect();
    assert_eq!(
        pruned,
        (w.live..w.live + w.prunable).collect(),
        "exactly the planted redundant rules prune:\n{report}"
    );
}

/// Randomized soundness of implication-based minimization: over the
/// harness's random graphs, dropping implied rules never changes the
/// satisfaction verdict, and the kept rules' violation sets are
/// untouched (DESIGN.md §7's argument, machine-checked).
#[test]
fn minimize_preserves_validation_on_random_graphs() {
    for seed in [3u64, 17, 42] {
        let cfg = RandomGraphConfig {
            n_nodes: 60,
            n_edges: 180,
            seed,
            ..Default::default()
        };
        let mut g = random_graph(&cfg);
        let key = plant_key_violations(&mut g, "entity", 4);
        let mut sigma = vec![key.clone()];
        sigma.extend(random_sigma(3, 3, &cfg));
        // Plant redundancy so minimization has something to prove: a
        // renamed copy of the key (implied by it, and vice versa).
        sigma.push(Ged::new(
            "planted-implied-copy",
            key.pattern.clone(),
            key.premises.clone(),
            key.conclusions.clone(),
        ));
        let min = minimize(&sigma);
        assert!(
            min.len() < sigma.len(),
            "seed {seed}: the planted implied copy must be minimized away"
        );
        let kept: BTreeSet<String> = min.iter().map(|g| g.name.clone()).collect();

        let full = validate(&g, &served(sigma), None);
        let minimized = validate(&g, &served(min), None);
        assert_eq!(
            full.satisfied(),
            minimized.satisfied(),
            "seed {seed}: minimization changed the satisfaction verdict"
        );
        let mut full_kept = witnesses(&full);
        full_kept.retain(|(name, _), _| kept.contains(name));
        assert_eq!(
            full_kept,
            witnesses(&minimized),
            "seed {seed}: a kept rule's violation set changed under minimization"
        );
    }
}

#[test]
fn with_analysis_prunes_and_preserves_live_violations() {
    let w = redundant(120, 10);
    let plain = IncrementalValidator::new(w.graph.clone(), w.sigma.clone());
    let v = IncrementalValidator::with_analysis(w.graph, w.sigma)
        .expect("the sloppy-but-consistent Σ deploys");
    let deploy = v.analysis().expect("analysis record attached");
    assert_eq!(deploy.pruned.len(), w.prunable);
    assert_eq!(v.sigma().len(), w.live);
    assert_eq!(v.is_satisfied(), plain.is_satisfied());
    // Live rules keep their violation sets; the pruned duplicates' echo
    // witnesses are gone.
    let pruned_report = v.report();
    let plain_report = plain.report();
    for live in pruned_report.per_ged.iter() {
        let full = plain_report
            .per_ged
            .iter()
            .find(|p| p.name == live.name)
            .expect("live rule present unpruned");
        assert_eq!(live.violation_count, full.violation_count, "{}", live.name);
    }
    assert_eq!(v.violation_count(), w.planted);
}

#[test]
fn with_analysis_rejects_an_inconsistent_sigma() {
    let q = parse_pattern("user(x)").unwrap();
    let free = Ged::new(
        "plan:free",
        q.clone(),
        vec![],
        vec![Literal::constant(Var(0), sym("plan"), "free")],
    );
    let pro = Ged::new(
        "plan:pro",
        q,
        vec![],
        vec![Literal::constant(Var(0), sym("plan"), "pro")],
    );
    let mut g = Graph::new();
    g.add_node(sym("user"));
    let report = IncrementalValidator::with_analysis(g, served([free, pro]))
        .expect_err("an unsatisfiable Σ must not deploy");
    assert!(report.has_errors());
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.kind == LintKind::UnsatisfiableSigma && d.severity == Severity::Error));
}

/// A literal over a variable the pattern does not bind is an Error under
/// every predicate, not only `=`: `t(x)` with the premise `?1.a ⊕ 5` (or a
/// `?0.b ⊕ ?1.b` conclusion) would index past a one-node match at the
/// first `check`, so the rule must not deploy.
#[test]
fn with_analysis_refuses_an_unbound_variable_under_every_predicate() {
    let (a, b) = (sym("a"), sym("b"));
    let unbound = |d: &Diagnostic| {
        d.kind == LintKind::UnboundVariable
            && d.severity == Severity::Error
            && d.message.contains("{1}")
    };
    for pred in [Pred::Eq, Pred::Ne, Pred::Lt, Pred::Gt, Pred::Le, Pred::Ge] {
        let in_premise = GdcLiteral::constant(Var(1), a, pred, 5);
        let bound = GdcLiteral::constant(Var(0), b, Pred::Eq, 1);
        let in_conclusion = GdcLiteral::vars(Var(0), b, pred, Var(1), b);
        for (premises, conclusion) in [(vec![in_premise], bound), (vec![], in_conclusion)] {
            let rule = Rule {
                name: "unbound".to_string(),
                pattern: parse_pattern("t(x)").unwrap(),
                premises,
                options: vec![vec![conclusion]],
            };
            let at = rule.literals().map(ToString::to_string).collect::<Vec<_>>();
            let report = analyze(std::slice::from_ref(&rule));
            assert!(report.diagnostics.iter().any(unbound), "{at:?}: {report}");
            let mut g = Graph::new();
            let t = g.add_node(sym("t"));
            g.set_attr(t, a, 1);
            let refused = IncrementalValidator::with_analysis(g, vec![rule]);
            let report = refused.expect_err("a rule over an unbound variable must not deploy");
            assert!(report.has_errors(), "{at:?}");
        }
    }
}
