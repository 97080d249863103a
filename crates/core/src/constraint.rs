//! The unified constraint layer: one abstraction behind every validation
//! engine in the workspace.
//!
//! A [`Constraint`] is anything of the paper's shape `Q[x̄](X → Y)`: a
//! topological pattern plus a per-match check that says whether a given
//! match violates the dependency — and, if so, *which conclusion literals
//! failed* (a [`ViolationKind`]). Plain GEDs implement it here; `ged-ext`
//! compiles every rule of the paper's families — GED, GDC (built-in
//! predicates, Section 7.1) and GED∨ (disjunctive conclusions, Section
//! 7.2) — into the one served form `SigmaConstraint`: premises plus
//! conclusion options. Both checks are the one evaluator [`evaluate`].
//!
//! Everything downstream is generic over `C: Constraint`: the from-scratch
//! enumerators in [`satisfy`](crate::satisfy), the validation reports in
//! [`reason`](crate::reason), and — crucially — the incremental,
//! output-sensitive delta path in `ged-engine`. The engine's hot loops
//! only ever need the pattern (to enumerate candidate matches) and the
//! check (to classify each one), so the affected-area machinery built for
//! GEDs serves every constraint family for the price of one. A *mixed*
//! rule set is a `Vec<ged_ext::SigmaConstraint>`; a family outside the
//! paper's plugs in as its own `C`.

use crate::ged::Ged;
use crate::literal::Literal;
use crate::satisfy::literal_holds;
use ged_graph::{Graph, NodeId, Symbol};
use ged_pattern::Pattern;
use std::fmt;

/// Why a match violates a constraint — the per-witness payload the stores,
/// the reports and the wire carry, the same shape for every family: the
/// ascending positions of the conclusion literals that failed, counted
/// over the rule's conclusion options flattened in order. A GED or a GDC
/// (one conjunctive option) lists its failed conclusions; a GED∨ (one
/// single-literal option per disjunct) lists every disjunct; a rule whose
/// `Y` is `false` (no option) lists nothing.
///
/// Its `Debug` text is the list, `[0, 2]` — the wire's `kind` (DESIGN.md
/// §10): it names no attribute or value, so every process prints a
/// violation alike.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct ViolationKind(Vec<usize>);

impl ViolationKind {
    /// The positions of the failed conclusion literals, ascending.
    pub fn positions(&self) -> &[usize] {
        &self.0
    }
}

impl From<Vec<usize>> for ViolationKind {
    /// Positions of failed conclusion literals, in ascending order.
    fn from(positions: Vec<usize>) -> ViolationKind {
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]), "ascending");
        ViolationKind(positions)
    }
}

impl fmt::Debug for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conclusion literal(s) {:?} failed", self.0)
    }
}

/// The one violation test of every served rule, over any literal type
/// (`holds` carries its semantics): `X → opt₁ ∨ opt₂ ∨ …` is violated at
/// a match iff every premise holds and every option has a failing
/// literal; the kind lists the failing literals' positions over the
/// options flattened. No option is `false`; an empty option is `true`.
/// Deciding costs no allocation — the positions are gathered in a second
/// pass, for violations only.
pub fn evaluate<'a, L: 'a>(
    premises: &[L],
    options: impl Iterator<Item = &'a [L]> + Clone,
    holds: impl Fn(&L) -> bool,
) -> Option<ViolationKind> {
    if !premises.iter().all(&holds) || options.clone().any(|o| o.iter().all(&holds)) {
        return None;
    }
    let failed = options.flatten().enumerate().filter(|(_, l)| !holds(l));
    Some(ViolationKind(failed.map(|(i, _)| i).collect()))
}

/// A normalized literal-level rendering of a constraint's logic for
/// static analysis (`ged-analysis`): premise literals (conjunctive) and
/// *conclusion options* — the conclusion is satisfied iff every literal
/// of **some** option holds. A plain GED contributes one conjunctive
/// option; a GED∨ one single-literal option per disjunct; an empty
/// option list is `false` (the forbidding form).
///
/// Families whose literals go beyond plain equality (GDCs with `<`/`≤`/…
/// predicates) expose only their equality fragment and clear [`exact`]:
/// a lint that needs the premises *weakened* (contradiction detection —
/// a contradictory subset stays contradictory under more premises) stays
/// sound on an inexact view, while lints that compare full rule logic
/// (duplicate rules, conclusion-entailed-by-premises) must require
/// `exact` and are skipped otherwise.
///
/// [`exact`]: LiteralView::exact
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiteralView {
    /// Premise literals `X` (conjunctive).
    pub premises: Vec<Literal>,
    /// Conclusion options: satisfied iff all literals of some option
    /// hold. Empty list = `false`.
    pub options: Vec<Vec<Literal>>,
    /// Whether the view captures the rule's logic exactly, or only its
    /// equality fragment (non-`=` literals dropped).
    pub exact: bool,
}

impl LiteralView {
    /// Every literal of the view — premises first, then each option's
    /// literals in order. The unbound-variable lint walks this.
    pub fn literals(&self) -> impl Iterator<Item = &Literal> {
        self.premises.iter().chain(self.options.iter().flatten())
    }
}

/// A dependency of the shape `Q[x̄](X → Y)` that the generic validation
/// engines can serve: a pattern to enumerate matches of, and a per-match
/// check. Implemented by [`Ged`] here and by `SigmaConstraint`, the one
/// form every rule of `ged-ext` compiles into.
///
/// The affected-area boundary argument of the incremental engine
/// (`ged-engine`, DESIGN.md §4) holds for *any* implementation that obeys
/// the contract below, which is why the delta path needs no per-family
/// code:
///
/// * `check` must depend only on (a) the ids of the matched nodes and
///   (b) the attributes of the matched nodes — never on nodes outside the
///   match image or on global graph state;
/// * `pattern` must be the constraint's entire topological requirement:
///   a match is any homomorphism of `pattern()` into `G`, so an edge whose
///   label no pattern edge matches never enters a match;
/// * [`attrs_read`](Constraint::attrs_read), when it is `Some`, names
///   every attribute `check` reads: writing or deleting any other
///   attribute of any node never changes `check` at any match. The engine
///   re-checks a rule only where a batch wrote what the rule reads; the
///   default `None` ("may read any attribute") keeps a family that does
///   not name its reads exact.
///
/// The other three provided methods are the static-analysis surface
/// consumed by `ged-analysis` (all defaulted to "opaque", so third-party
/// families lint conservatively):
/// [`literal_view`](Constraint::literal_view) feeds the structural
/// linter, [`as_chase_ged`](Constraint::as_chase_ged) embeds
/// the rule in the chase fragment for the `Sat(Σ)` gate and
/// implication-based minimization, and
/// [`premises_feasible`](Constraint::premises_feasible) lets families with
/// richer literal languages run their own premise-contradiction check.
pub trait Constraint: Send + Sync {
    /// Human-readable name used in reports.
    fn name(&self) -> &str;

    /// The topological constraint `Q[x̄]` whose matches are checked.
    fn pattern(&self) -> &Pattern;

    /// Does match `m` (one node per pattern variable) violate the
    /// constraint? `Some(kind)` describes the failure; `None` means the
    /// implication `X → Y` holds at `m`.
    fn check(&self, g: &Graph, m: &[NodeId]) -> Option<ViolationKind>;

    /// Total size `|φ| = |Q| + |X| + |Y|` — the measure of the paper's
    /// complexity bounds.
    fn size(&self) -> usize;

    /// The attributes `check` may read on a matched node (duplicates
    /// allowed), or `None` — the default — when the family does not name
    /// them: it may then read any attribute. See the contract above.
    fn attrs_read(&self) -> Option<Vec<Symbol>> {
        None
    }

    /// The literal-level rendering of the rule's logic for the structural
    /// linter, when the family can expose one. The default (`None`) marks
    /// the rule opaque: literal-level lints skip it, pattern-level lints
    /// (connectivity, wildcard cost) still apply.
    fn literal_view(&self) -> Option<LiteralView> {
        None
    }

    /// Render the rule as a plain [`Ged`] when it embeds in the paper's
    /// chase fragment — equality literals only, conjunctive conclusion
    /// (a single-disjunct or forbidding GED∨ qualifies; a GDC qualifies
    /// iff every predicate is `=`). The semantic layer of `ged-analysis`
    /// runs `Sat(Σ)` and implication over exactly these embeddings, so an
    /// implementation must return a GED with the *same models*: for every
    /// graph `G`, `G ⊨ self` iff `G ⊨ ged`. Default `None` (not
    /// chase-eligible).
    fn as_chase_ged(&self) -> Option<Ged> {
        None
    }

    /// Can the premises `X` hold under *some* match in *some* graph?
    /// `false` means the rule can never fire — a dead rule. The default
    /// `true` is the conservative answer; `SigmaConstraint`, whose
    /// literals carry predicates, overrides it with its order-solver
    /// feasibility check. Literal-view-based constant-conflict detection runs
    /// independently of this hook.
    fn premises_feasible(&self) -> bool {
        true
    }
}

impl Constraint for Ged {
    fn name(&self) -> &str {
        &self.name
    }

    fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    fn check(&self, g: &Graph, m: &[NodeId]) -> Option<ViolationKind> {
        let conclusions = std::iter::once(self.conclusions.as_slice());
        evaluate(&self.premises, conclusions, |l| literal_holds(g, m, l))
    }

    fn size(&self) -> usize {
        Ged::size(self)
    }

    fn attrs_read(&self) -> Option<Vec<Symbol>> {
        let literals = self.premises.iter().chain(&self.conclusions);
        Some(literals.flat_map(Literal::attrs).collect())
    }

    fn literal_view(&self) -> Option<LiteralView> {
        Some(LiteralView {
            premises: self.premises.clone(),
            options: vec![self.conclusions.clone()],
            exact: true,
        })
    }

    fn as_chase_ged(&self) -> Option<Ged> {
        Some(self.clone())
    }
}

/// `|Σ|` for a mixed-or-uniform constraint set (sum of member sizes) —
/// the generic counterpart of [`crate::ged::sigma_size`].
pub fn constraint_sigma_size<C: Constraint>(sigma: &[C]) -> usize {
    sigma.iter().map(Constraint::size).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::{sym, GraphBuilder};
    use ged_pattern::{parse_pattern, Var};

    fn phi1() -> Ged {
        let q = parse_pattern("person(x) -[create]-> product(y)").unwrap();
        Ged::new(
            "φ1",
            q,
            vec![Literal::constant(Var(1), sym("type"), "video game")],
            vec![Literal::constant(Var(0), sym("type"), "programmer")],
        )
    }

    #[test]
    fn ged_implements_the_constraint_trait() {
        let g = phi1();
        assert_eq!(Constraint::name(&g), "φ1");
        assert_eq!(Constraint::size(&g), Ged::size(&g));
        assert_eq!(Constraint::pattern(&g).var_count(), 2);
    }

    #[test]
    fn a_ged_lists_the_positions_of_its_failed_conclusions() {
        let mut b = GraphBuilder::new();
        b.triple(("tony", "person"), "create", ("gb", "product"));
        b.attr("tony", "type", "psychologist");
        b.attr("gb", "type", "video game");
        let (graph, names) = b.build_with_names();
        let m = vec![names["tony"], names["gb"]];
        let kind = phi1().check(&graph, &m).expect("the match violates φ1");
        assert_eq!(kind.positions(), [0]);
        assert_eq!(format!("{kind:?}"), "[0]");
    }

    /// Positions count over the options flattened; one holding option
    /// satisfies the rule, no option is `false`, an empty one `true`.
    #[test]
    fn kind_witness_rules() {
        let holds = |l: &(usize, bool)| l.1;
        let eval = |premises: &[(usize, bool)], options: &[&[(usize, bool)]]| {
            evaluate(premises, options.iter().copied(), holds).map(|k| k.positions().to_vec())
        };
        let (t, f) = ((0, true), (0, false));
        assert_eq!(eval(&[t], &[&[f, t], &[f]]), Some(vec![0, 2]));
        assert_eq!(
            eval(&[t], &[&[f, t], &[t]]),
            None,
            "the second option holds"
        );
        assert_eq!(eval(&[f], &[&[f]]), None, "a failed premise");
        assert_eq!(eval(&[t], &[]), Some(vec![]), "`false` lists nothing");
        assert_eq!(eval(&[t], &[&[]]), None, "an empty option holds");
        assert_eq!(eval(&[], &[&[f], &[f], &[f]]), Some(vec![0, 1, 2]));
    }

    #[test]
    fn sigma_size_sums_members() {
        let sigma = vec![phi1(), phi1()];
        assert_eq!(constraint_sigma_size(&sigma), 2 * Ged::size(&phi1()));
    }

    #[test]
    fn display_kinds() {
        let k = ViolationKind::from(vec![1, 12]);
        assert_eq!(format!("{k:?}"), "[1, 12]");
        assert_eq!(format!("{:?}", ViolationKind::default()), "[]");
        assert!(k.to_string().contains("[1, 12]"));
    }
}
