//! The validation problem (Section 5.3): given `G` and Σ, does `G ⊨ Σ`?
//!
//! coNP-complete in general (Theorem 6) — the hardness comes from the
//! number of matches, not from the literal checks — but PTIME when pattern
//! sizes are bounded by a constant `k` (the paper's tractable case: 98% of
//! real SPARQL patterns have ≤ 4 nodes / 5 edges). [`validate`] enumerates
//! violations with witnesses; [`Validator`] adds the bounded-size fast-path
//! bookkeeping used by the frontier experiment (EXP-T1-FRONTIER).

use crate::rule::Rule;
use crate::satisfy::{violations, Violation};
use ged_graph::Graph;

/// Per-rule validation outcome, one per member of Σ whatever its family.
#[derive(Debug, Clone)]
pub struct GedReport {
    /// The constraint's name.
    pub name: String,
    /// Number of violations found (subject to the limit).
    pub violation_count: usize,
    /// Was the GED satisfied?
    pub satisfied: bool,
}

/// The full validation report for `G ⊨ Σ`.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Per-GED summaries, in Σ order.
    pub per_ged: Vec<GedReport>,
    /// All collected violations (respecting the per-GED limit).
    pub violations: Vec<Violation>,
}

impl ValidationReport {
    /// `G ⊨ Σ`?
    pub fn satisfied(&self) -> bool {
        self.per_ged.iter().all(|r| r.satisfied)
    }

    /// Total violations collected.
    pub fn total_violations(&self) -> usize {
        self.violations.len()
    }

    /// Names of violated GEDs.
    pub fn violated_names(&self) -> Vec<&str> {
        self.per_ged
            .iter()
            .filter(|r| !r.satisfied)
            .map(|r| r.name.as_str())
            .collect()
    }
}

/// Validate `G` against Σ — rules of any family, each a [`Rule`] —
/// collecting up to `limit_per_ged` witnesses per constraint (`None` =
/// all). With `limit_per_ged = Some(1)` this is the pure decision
/// procedure.
pub fn validate(g: &Graph, sigma: &[Rule], limit_per_ged: Option<usize>) -> ValidationReport {
    let mut per_ged = Vec::with_capacity(sigma.len());
    let mut all = Vec::new();
    for c in sigma {
        let vs = violations(g, c, limit_per_ged);
        per_ged.push(GedReport {
            name: c.name.clone(),
            violation_count: vs.len(),
            satisfied: vs.is_empty(),
        });
        all.extend(vs);
    }
    ValidationReport {
        per_ged,
        violations: all,
    }
}

/// A reusable validator that partitions Σ by pattern size, exposing the
/// Section 5.3 dichotomy: GEDs with patterns of size ≤ `k` validate in
/// PTIME (`O(|G|^k)` matches), the rest are potentially exponential.
#[derive(Debug)]
pub struct Validator {
    sigma: Vec<Rule>,
    bound: usize,
}

impl Validator {
    /// Build a validator with tractability bound `k`.
    pub fn new(sigma: Vec<Rule>, bound: usize) -> Validator {
        Validator { sigma, bound }
    }

    /// The rules within the bounded (tractable) fragment.
    pub fn bounded(&self) -> Vec<&Rule> {
        self.sigma
            .iter()
            .filter(|g| g.pattern.size() <= self.bound)
            .collect()
    }

    /// Validate only the tractable fragment (the PTIME case of
    /// Section 5.3).
    pub fn validate_bounded(&self, g: &Graph, limit: Option<usize>) -> ValidationReport {
        let bounded: Vec<Rule> = self.bounded().into_iter().cloned().collect();
        validate(g, &bounded, limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ged::Ged;
    use crate::literal::Literal;
    use ged_graph::{sym, GraphBuilder};
    use ged_pattern::{fragments, Var};

    fn phi1() -> Ged {
        let q = fragments::fig1_q1();
        Ged::new(
            "φ1",
            q,
            vec![Literal::constant(Var(1), sym("type"), "video game")],
            vec![Literal::constant(Var(0), sym("type"), "programmer")],
        )
    }

    fn phi2() -> Rule {
        let q = fragments::fig1_q2();
        Rule::from(Ged::new(
            "φ2",
            q,
            vec![],
            vec![Literal::vars(Var(1), sym("name"), Var(2), sym("name"))],
        ))
    }

    fn dirty_kb() -> Graph {
        let mut b = GraphBuilder::new();
        // Ghetto Blaster inconsistency
        b.triple(("tony", "person"), "create", ("gb", "product"));
        b.attr("tony", "type", "psychologist");
        b.attr("gb", "type", "video game");
        // two capitals
        b.triple(("fi", "country"), "capital", ("hel", "city"));
        b.triple(("fi", "country"), "capital", ("spb", "city"));
        b.attr("hel", "name", "Helsinki");
        b.attr("spb", "name", "Saint Petersburg");
        b.build()
    }

    #[test]
    fn validation_report_structure() {
        let g = dirty_kb();
        let report = validate(&g, &[phi1().into(), phi2()], None);
        assert!(!report.satisfied());
        assert_eq!(report.per_ged.len(), 2);
        assert_eq!(report.violated_names(), vec!["φ1", "φ2"]);
        assert_eq!(report.per_ged[0].violation_count, 1);
        assert_eq!(
            report.per_ged[1].violation_count, 2,
            "two symmetric matches"
        );
        assert_eq!(report.total_violations(), 3);
    }

    #[test]
    fn decision_mode_uses_limit_one() {
        let g = dirty_kb();
        let report = validate(&g, &[phi2()], Some(1));
        assert!(!report.satisfied());
        assert_eq!(report.total_violations(), 1);
    }

    #[test]
    fn clean_graph_validates() {
        let mut b = GraphBuilder::new();
        b.triple(("gibbo", "person"), "create", ("gb", "product"));
        b.attr("gibbo", "type", "programmer");
        b.attr("gb", "type", "video game");
        let g = b.build();
        let report = validate(&g, &[phi1().into(), phi2()], None);
        assert!(report.satisfied());
        assert_eq!(report.total_violations(), 0);
    }

    #[test]
    fn validator_partitions_by_pattern_size() {
        // φ1 has size 3, φ5(k=3) has size 7+8=15.
        let q5 = fragments::fig1_q5(3);
        let x = q5.var_by_name("x").unwrap();
        let xp = q5.var_by_name("x'").unwrap();
        let phi5 = Ged::new(
            "φ5",
            q5,
            vec![Literal::constant(xp, sym("is_fake"), 1)],
            vec![Literal::constant(x, sym("is_fake"), 1)],
        );
        let sigma = [phi1(), phi5].map(Rule::from);
        let v = Validator::new(sigma.to_vec(), 4);
        assert_eq!(v.bounded().len(), 1);
        let g = dirty_kb();
        let r = v.validate_bounded(&g, None);
        assert_eq!(r.per_ged.len(), 1);
        assert_eq!(r.per_ged[0].name, "φ1");
        let r_all = validate(&g, &sigma, None);
        assert_eq!(r_all.per_ged.len(), 2);
    }

    #[test]
    fn empty_sigma_always_validates() {
        let g = dirty_kb();
        assert!(validate(&g, &[], None).satisfied());
    }
}
