//! The oracle: a from-scratch `validate` over the mirror graph.
//!
//! The repo's invariant is that every witness set an observer sees equals
//! a from-scratch validation at that batch boundary. The mirror received
//! the stream through `Graph::apply_delta` only, never through the
//! incremental engine, so agreement here is agreement between two
//! implementations, under a long generated update stream rather than on
//! one static graph.

use ged_core::reason::validate;
use ged_ext::SigmaConstraint;
use ged_graph::Graph;
use ged_proto::WireViolation;

/// The wire carries a violation's kind as `format!("{kind:?}")`, and the
/// `Debug` form of a `Symbol` is `Symbol(21 = "attr1")`: it embeds the
/// interner index, which depends on the order in which a *process* first
/// met its names. `gedd` and this generator meet them in different orders
/// (the generator may have run another workload first), so the same kind
/// reads differently on the two sides. Strip the index: `Symbol("attr1")`.
fn portable_kind(kind: &str) -> String {
    let mut out = String::with_capacity(kind.len());
    let mut rest = kind;
    while let Some(at) = rest.find("Symbol(") {
        let (head, tail) = rest.split_at(at + "Symbol(".len());
        out.push_str(head);
        let digits = tail.trim_start_matches(|c: char| c.is_ascii_digit());
        rest = digits.strip_prefix(" = ").unwrap_or(tail);
    }
    out.push_str(rest);
    out
}

/// The witness set `G ⊨ Σ` fails on — rule name, match, kind — in the
/// form the wire carries it (see [`portable_kind`]), sorted.
pub fn expected(g: &Graph, sigma: &[SigmaConstraint]) -> Vec<WireViolation> {
    let mut out: Vec<WireViolation> = validate(g, sigma, None)
        .violations
        .into_iter()
        .map(|v| WireViolation {
            rule: v.ged_name,
            assignment: v.assignment,
            kind: portable_kind(&format!("{:?}", v.kind)),
        })
        .collect();
    out.sort();
    out
}

/// Compare what the daemon reported with the oracle's sorted set; the
/// error names the first witness on either side the other lacks.
pub fn compare(mut observed: Vec<WireViolation>, expected: &[WireViolation]) -> Result<(), String> {
    for w in &mut observed {
        w.kind = portable_kind(&w.kind);
    }
    observed.sort();
    if observed == expected {
        return Ok(());
    }
    let missing = expected.iter().find(|w| observed.binary_search(w).is_err());
    let extra = observed.iter().find(|w| expected.binary_search(w).is_err());
    Err(format!(
        "witness sets differ: daemon has {}, oracle has {}; daemon lacks {missing:?}; oracle lacks {extra:?}",
        observed.len(),
        expected.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::NodeId;

    #[test]
    fn kinds_compare_across_processes() {
        let there = r#"Conclusions([Vars { lvar: Var(0), lattr: Symbol(21 = "attr1"), rvar: Var(2), rattr: Symbol(21 = "attr1") }])"#;
        let here = there.replace("21 = ", "10 = ");
        assert_eq!(portable_kind(there), portable_kind(&here));
        assert!(portable_kind(there).contains(r#"lattr: Symbol("attr1")"#));
        assert_eq!(portable_kind("Disjunction"), "Disjunction");
        assert_eq!(portable_kind("Symbol(x"), "Symbol(x");
    }

    #[test]
    fn an_injected_wrong_witness_is_caught() {
        let (g, sigma) = ged_daemon::workload::load("mixed:honest=40,plants=3,seed=5").unwrap();
        let truth = expected(&g, &sigma);
        assert_eq!(truth.len(), 12);
        let mut shuffled = truth.clone();
        shuffled.reverse();
        assert!(compare(shuffled, &truth).is_ok(), "order does not matter");

        let mut wrong_node = truth.clone();
        wrong_node[4].assignment[0] = NodeId(wrong_node[4].assignment[0].0 + 1);
        let err = compare(wrong_node, &truth).unwrap_err();
        assert!(err.contains("daemon lacks Some"), "{err}");

        let mut wrong_kind = truth.clone();
        wrong_kind[0].kind = "Disjunction".to_string();
        assert!(compare(wrong_kind, &truth).is_err());

        let mut dropped = truth.clone();
        dropped.pop();
        assert!(compare(dropped, &truth).is_err());
        let mut extra = truth.clone();
        extra.push(truth[0].clone());
        assert!(compare(extra, &truth).is_err(), "a duplicate is not a set");
    }
}
