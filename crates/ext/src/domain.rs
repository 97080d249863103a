//! Domain constraints (Examples 9 & 10): enforcing that an attribute of
//! every `τ`-labelled entity exists and takes values from a finite set —
//! expressible with the Section 7 extensions but *not* with plain GEDs
//! (Section 3: "GEDs cannot enforce attribute x.A to have a finite
//! domain").
//!
//! Two equivalent formulations are provided:
//! * [`domain_as_gdcs`] — Example 9's pair: φ1 forces existence
//!   (`∅ → x.A = x.A`), φ2 forbids out-of-domain values
//!   (`x.A ≠ v1 ∧ … ∧ x.A ≠ vk → false`);
//! * [`domain_as_disj`] — Example 10's single GED∨:
//!   `∅ → x.A = v1 ∨ … ∨ x.A = vk`.

use crate::disj::DisjGed;
use crate::gdc::{Gdc, GdcLiteral};
use crate::predicate::Pred;
use ged_core::literal::Literal;
use ged_graph::{Symbol, Value};
use ged_pattern::{Pattern, Var};

fn single_node_pattern(label: &str) -> Pattern {
    let mut q = Pattern::new();
    q.var("x", label);
    q
}

/// Example 9: the GDC pair `(φ1, φ2)` enforcing `attr ∈ domain` on every
/// node labelled `label`.
pub fn domain_as_gdcs(label: &str, attr: &str, domain: &[Value]) -> (Gdc, Gdc) {
    assert!(
        !domain.is_empty(),
        "empty domains forbid the label entirely"
    );
    let a = Symbol::new(attr);
    let q = single_node_pattern(label);
    let phi1 = Gdc::new(
        format!("{label}.{attr}-exists"),
        q.clone(),
        vec![],
        vec![GdcLiteral::vars(Var(0), a, Pred::Eq, Var(0), a)],
    );
    let premises: Vec<GdcLiteral> = domain
        .iter()
        .map(|v| GdcLiteral::constant(Var(0), a, Pred::Ne, v.clone()))
        .collect();
    let phi2 = Gdc::forbidding(format!("{label}.{attr}-domain"), q, premises);
    (phi1, phi2)
}

/// Example 10: the single GED∨ `Qe[x](∅ → x.A = v1 ∨ …)` enforcing both
/// existence and the finite domain.
pub fn domain_as_disj(label: &str, attr: &str, domain: &[Value]) -> DisjGed {
    let a = Symbol::new(attr);
    let q = single_node_pattern(label);
    let conclusions: Vec<Literal> = domain
        .iter()
        .map(|v| Literal::constant(Var(0), a, v.clone()))
        .collect();
    DisjGed::new(format!("{label}.{attr}∈dom"), q, vec![], conclusions)
}

/// Boolean-attribute shorthand used throughout the paper's examples
/// (`is_fake`, `can_fly` as 0/1).
pub fn boolean_domain_as_disj(label: &str, attr: &str) -> DisjGed {
    domain_as_disj(label, attr, &[Value::from(0), Value::from(1)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reason::{disj_satisfiable, gdc_satisfiable};
    use crate::SigmaConstraint;
    use ged_core::satisfy::{satisfies, satisfies_all};
    use ged_graph::GraphBuilder;

    fn node_with(attr_val: Option<i64>) -> ged_graph::Graph {
        let mut b = GraphBuilder::new();
        b.node("x", "τ");
        if let Some(v) = attr_val {
            b.attr("x", "A", v);
        }
        b.build()
    }

    #[test]
    fn gdc_and_disj_formulations_agree_on_validation() {
        let dom = [Value::from(0), Value::from(1)];
        let (phi1, phi2) = domain_as_gdcs("τ", "A", &dom);
        let pair: [SigmaConstraint; 2] = [phi1.into(), phi2.into()];
        let psi = SigmaConstraint::from(domain_as_disj("τ", "A", &dom));
        for (g, expect) in [
            (node_with(Some(0)), true),
            (node_with(Some(1)), true),
            (node_with(Some(7)), false),
            (node_with(None), false), // missing attribute fails both forms
        ] {
            assert_eq!(satisfies_all(&g, &pair), expect, "GDC pair");
            assert_eq!(satisfies(&g, &psi), expect, "GED∨ form");
        }
    }

    #[test]
    fn missing_attribute_violates_gdc_pair_via_phi1() {
        let (phi1, phi2) = domain_as_gdcs("τ", "A", &[Value::from(0)]);
        let g = node_with(None);
        assert!(
            !satisfies(&g, &SigmaConstraint::from(phi1)),
            "existence half"
        );
        assert!(
            satisfies(&g, &SigmaConstraint::from(phi2)),
            "domain half vacuous"
        );
    }

    #[test]
    fn both_formulations_are_satisfiable() {
        let dom = [Value::from(0), Value::from(1)];
        let (phi1, phi2) = domain_as_gdcs("τ", "A", &dom);
        assert!(gdc_satisfiable(&[phi1, phi2]));
        assert!(disj_satisfiable(&[domain_as_disj("τ", "A", &dom)]));
    }

    #[test]
    fn singleton_domain_pins_the_value() {
        let psi = domain_as_disj("τ", "A", &[Value::from(3)]);
        let served = SigmaConstraint::from(psi.clone());
        assert!(satisfies(&node_with(Some(3)), &served));
        assert!(!satisfies(&node_with(Some(4)), &served));
        assert!(disj_satisfiable(&[psi]));
    }

    #[test]
    fn boolean_shorthand() {
        let psi = SigmaConstraint::from(boolean_domain_as_disj("account", "is_fake"));
        let mut b = GraphBuilder::new();
        b.node("a", "account");
        b.attr("a", "is_fake", 1);
        assert!(satisfies(&b.build(), &psi));
    }
}
