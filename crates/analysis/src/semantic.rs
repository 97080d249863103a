//! Layer 2: semantic analysis of the chase fragment, reusing the paper's
//! Section 5 decision procedures verbatim.
//!
//! Every rule that embeds in the plain-GED language
//! ([`Rule::as_chase_ged`] — GEDs themselves, all-`=` GDCs,
//! single-disjunct and forbidding GED∨s) joins the **chase fragment**.
//! Three chase-based facts are surfaced:
//!
//! 1. **`Sat(Σ)` gate** — `reason::is_satisfiable` (Theorem 2) on the
//!    fragment's *non-forbidding* rules. An unsatisfiable subset dooms
//!    all of Σ: a model of Σ matches every member pattern and satisfies
//!    every member, so it would be a model of the subset too. Forbidding
//!    rules (`Q → false`) are excluded because strong satisfiability
//!    forces their own pattern into the canonical graph — a rule whose
//!    *purpose* is "Q never matches" would trip the gate by construction
//!    (Example 3's φ4 is exactly such a rule). Error severity; analysis
//!    stops here (implication from an inconsistent Σ holds trivially, so
//!    minimization results would be noise).
//! 2. **Dead rules** — `∅ ⊨ φ` (implication from the empty set, Theorem
//!    4): every graph satisfies φ, so φ can never produce a violation
//!    anywhere. Catches semantically-dead rules the structural linter's
//!    syntactic subset test cannot (e.g. conclusions deduced through the
//!    premise equality closure).
//! 3. **Implied rules** — the greedy minimization of `reason::minimize`,
//!    re-implemented index-aware: a rule implied by the other kept
//!    members of the fragment is prunable. Soundness: if `Σ∖{φ} ⊨ φ`,
//!    a graph satisfying every kept rule satisfies φ, so a violation of
//!    φ always co-occurs with a violation of some kept rule — dropping φ
//!    never flips `G ⊨ Σ`, and the kept rules' violation sets are
//!    untouched by construction (full argument in DESIGN.md §7).

use crate::report::{Diagnostic, LintKind, Severity};
use ged_core::ged::Ged;
use ged_core::reason::{implies, is_satisfiable};
use ged_core::rule::Rule;
use std::collections::BTreeMap;

/// What the semantic layer concluded.
pub(crate) struct SemanticOutcome {
    /// Rules that embed in the chase fragment.
    pub eligible: usize,
}

/// Run the `Sat(Σ)` gate, the dead-rule check, and implication-based
/// minimization over the chase fragment of `sigma`. Rules already in
/// `prunable` (structurally dead) keep their original reason and are
/// excluded from the premise sets of the implication runs — implications
/// must be witnessed by rules that survive pruning.
pub(crate) fn semantic(
    sigma: &[Rule],
    out: &mut Vec<Diagnostic>,
    prunable: &mut BTreeMap<usize, LintKind>,
) -> SemanticOutcome {
    let eligible: Vec<(usize, Ged)> = sigma
        .iter()
        .enumerate()
        .filter_map(|(i, c)| c.as_chase_ged().map(|g| (i, g)))
        .collect();
    let outcome = SemanticOutcome {
        eligible: eligible.len(),
    };
    if eligible.is_empty() {
        return outcome;
    }

    // The Sat(Σ) gate runs on the non-forbidding subset: a forbidding
    // rule is *meant* to have no match of its pattern, so demanding a
    // model in which its pattern matches (strong satisfiability) would
    // reject it by construction.
    let sat_fragment: Vec<Ged> = eligible
        .iter()
        .filter(|(_, g)| !g.is_forbidding())
        .map(|(_, g)| g.clone())
        .collect();
    if !sat_fragment.is_empty() && !is_satisfiable(&sat_fragment) {
        let scope = if sat_fragment.len() == sigma.len() {
            "Σ".to_string()
        } else {
            format!("the {}-rule chase fragment of Σ", sat_fragment.len())
        };
        out.push(Diagnostic::sigma(
            Severity::Error,
            LintKind::UnsatisfiableSigma,
            format!(
                "{scope} is unsatisfiable (chase of G_Σ derives a conflict): \
                 no nonempty graph can satisfy every rule"
            ),
        ));
        return outcome;
    }

    // Chase-proved dead rules: ∅ ⊨ φ.
    for (i, ged) in &eligible {
        if prunable.contains_key(i) {
            continue;
        }
        if implies(&[], ged) {
            out.push(Diagnostic::rule(
                Severity::Warning,
                LintKind::DeadRule,
                *i,
                &ged.name,
                "every graph satisfies this rule (∅ ⊨ φ by the chase) — \
                 it can never produce a violation",
            ));
            prunable.insert(*i, LintKind::DeadRule);
        }
    }

    // Greedy minimization over the live fragment, mirroring
    // `reason::minimize` but tracking Σ indices.
    let mut kept: Vec<(usize, Ged)> = eligible
        .iter()
        .filter(|(i, _)| !prunable.contains_key(i))
        .cloned()
        .collect();
    let mut k = 0;
    while k < kept.len() {
        let rest: Vec<Ged> = kept
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != k)
            .map(|(_, (_, g))| g.clone())
            .collect();
        let (idx, candidate) = &kept[k];
        if implies(&rest, candidate) {
            out.push(Diagnostic::rule(
                Severity::Warning,
                LintKind::ImpliedRule,
                *idx,
                &candidate.name,
                format!(
                    "implied by the other {} kept rule(s) of the chase \
                     fragment — prunable without changing which graphs \
                     satisfy Σ",
                    rest.len()
                ),
            ));
            prunable.insert(*idx, LintKind::ImpliedRule);
            kept.remove(k);
        } else {
            k += 1;
        }
    }

    outcome
}
