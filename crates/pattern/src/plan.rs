//! Match plans: everything the backtracking search can decide about a
//! pattern *before it sees a graph*, compiled once per rule.
//!
//! A [`MatchPlan`] holds, for every variable of the pattern, a
//! connectivity-first search order **rooted at that variable**, plus the
//! candidate pre-filters — labeled-degree requirements derived from the
//! pattern's edges and the attribute obligations a caller pushes in
//! ([`MatchPlan::require_attr`], [`MatchPlan::require_attr_eq`]). Anchored
//! enumeration roots the search at the anchor, so every later variable of
//! the anchor's component is reached over an edge from an assigned
//! neighbour and never falls back to the label index. A *further*
//! component has no edge to follow; when an equality obligation links its
//! first variable to an assigned one — the shape of a graph key, two
//! copies of a pattern joined only by `x.A = y.B` — the matcher probes the
//! graph's value index for the nodes carrying that value instead of
//! scanning the label, provided the graph maintains one for the pair. The
//! plan says which pairs those are ([`MatchPlan::index_requests`]); whoever
//! owns the graph decides whether to build them
//! ([`Graph::index_attr`](ged_graph::Graph::index_attr)). None of this
//! reads a graph, so a plan stays valid across every update of the graph it
//! is run against: the incremental engine compiles one per rule at
//! construction and every work unit borrows it.

use crate::pattern::{Pattern, Var};
use ged_graph::{Symbol, Value};

/// Per-variable degree obligations, precomputed from the pattern: the
/// distinct non-wildcard edge labels the variable's image must have at
/// least one outgoing/incoming edge under, plus whether any wildcard
/// pattern edge demands *some* out/in edge. Existence (not counts) is
/// the right requirement under homomorphism: several same-label pattern
/// edges may map to one data edge.
#[derive(Debug, Clone, Default)]
pub(crate) struct DegreeReq {
    pub out_labels: Vec<Symbol>,
    pub in_labels: Vec<Symbol>,
    pub needs_out: bool,
    pub needs_in: bool,
}

fn degree_reqs(pattern: &Pattern) -> Vec<DegreeReq> {
    let mut reqs = vec![DegreeReq::default(); pattern.var_count()];
    for v in pattern.vars() {
        let req = &mut reqs[v.idx()];
        for &(el, _) in pattern.out_edges(v) {
            if el.is_wildcard() {
                req.needs_out = true;
            } else if !req.out_labels.contains(&el) {
                req.out_labels.push(el);
            }
        }
        for &(el, _) in pattern.in_edges(v) {
            if el.is_wildcard() {
                req.needs_in = true;
            } else if !req.in_labels.contains(&el) {
                req.in_labels.push(el);
            }
        }
    }
    reqs
}

/// One side of an equality obligation `v.attr = other.other_attr`, stored
/// under `v`. A cross-variable obligation is stored under both variables
/// (mirrored), so whichever is assigned second finds it; a same-variable
/// one (`other == v`) is stored once.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Join {
    pub attr: Symbol,
    pub other: Var,
    pub other_attr: Symbol,
}

/// The graph-independent half of a [`Matcher`](crate::Matcher): search
/// orders and candidate pre-filters for one pattern. Build it once with
/// [`MatchPlan::new`], push the premise literals of the rule into it, and
/// hand it to [`Matcher::with_plan`](crate::Matcher::with_plan) for every
/// enumeration of that pattern.
#[derive(Debug, Clone)]
pub struct MatchPlan {
    /// `var_count` rows of `var_count` variables: row `r` is the
    /// connectivity-first order rooted at `Var(r)`.
    orders: Vec<Var>,
    pub(crate) degree_req: Vec<DegreeReq>,
    /// Per-variable `(attribute, value)` obligations.
    pub(crate) required_attrs: Vec<Vec<(Symbol, Value)>>,
    /// Per-variable equality obligations.
    pub(crate) joins: Vec<Vec<Join>>,
    /// Per-variable node label and connected-component number of the
    /// pattern — what decides which joins are worth an index.
    labels: Vec<Symbol>,
    component: Vec<usize>,
}

impl MatchPlan {
    /// Compile the plan of `pattern`: one rooted order per variable and
    /// the degree requirements. No attribute obligations yet.
    pub fn new(pattern: &Pattern) -> MatchPlan {
        let n = pattern.var_count();
        let mut orders = Vec::with_capacity(n * n);
        let mut picked = vec![false; n];
        for root in pattern.vars() {
            picked.fill(false);
            rooted_order(pattern, root, &mut picked, &mut orders);
        }
        let mut component = vec![0; n];
        for (c, vars) in pattern.components().iter().enumerate() {
            vars.iter().for_each(|v| component[v.idx()] = c);
        }
        MatchPlan {
            orders,
            degree_req: degree_reqs(pattern),
            required_attrs: vec![Vec::new(); n],
            joins: vec![Vec::new(); n],
            labels: pattern.vars().map(|v| pattern.label(v)).collect(),
            component,
        }
    }

    /// Number of variables of the pattern this plan was compiled for.
    pub fn var_count(&self) -> usize {
        self.degree_req.len()
    }

    /// The search order rooted at `root`: `root` first, then repeatedly
    /// the unvisited variable with the most pattern edges into the visited
    /// set (ties: a concrete node label before a wildcard, then
    /// declaration order). Within `root`'s connected component every
    /// variable after the first therefore has an assigned neighbour when
    /// its turn comes; a further component starts at a variable with none,
    /// whose candidates are a value-index probe when a
    /// [`require_attr_eq`](MatchPlan::require_attr_eq) join links it to an
    /// assigned variable and the graph indexes that pair
    /// ([`index_requests`](MatchPlan::index_requests)), and one label-index
    /// scan per assignment of the earlier variables otherwise.
    pub fn order_rooted_at(&self, root: Var) -> &[Var] {
        let n = self.var_count();
        &self.orders[root.idx() * n..(root.idx() + 1) * n]
    }

    /// Require every match to map `var` to a node carrying attribute
    /// `attr` with exactly `value`; candidates failing it are rejected by
    /// the pre-filter before the subtree below them is explored.
    ///
    /// Unlike the degree pre-filter this **changes the match set** — it
    /// is the violation-enumeration shortcut: when a constraint's premise
    /// contains the constant literal `x.A = c`, matches where it fails
    /// can never witness a violation, so the engine pushes the literal
    /// into the search instead of enumerating and discarding.
    pub fn require_attr(&mut self, var: Var, attr: Symbol, value: Value) {
        self.required_attrs[var.idx()].push((attr, value));
    }

    /// Require every match `h` to satisfy `h(lvar).lattr = h(rvar).rattr`:
    /// both attributes present and equal under [`Value`]'s `==` (so
    /// `Int 1` equals `Float 1.0`, as everywhere else). The check runs as
    /// a join filter the moment the second of the two variables is
    /// assigned — or on the one candidate itself when `lvar == rvar` — and
    /// rejects the candidate before the subtree below it is explored.
    ///
    /// Like [`require_attr`](MatchPlan::require_attr) this changes the
    /// match set, and is meant for premise literals `x.A = y.B`.
    pub fn require_attr_eq(&mut self, lvar: Var, lattr: Symbol, rvar: Var, rattr: Symbol) {
        self.joins[lvar.idx()].push(Join {
            attr: lattr,
            other: rvar,
            other_attr: rattr,
        });
        if lvar != rvar {
            self.joins[rvar.idx()].push(Join {
                attr: rattr,
                other: lvar,
                other_attr: lattr,
            });
        }
    }

    /// The `(node label, attribute)` pairs whose value index
    /// ([`Graph::index_attr`](ged_graph::Graph::index_attr)) this plan's
    /// searches would probe: every side of a
    /// [`require_attr_eq`](MatchPlan::require_attr_eq) join that sits on a
    /// concretely-labelled variable and whose other side lies in a
    /// *different* connected component of the pattern. Duplicate-free, in
    /// variable order. Joins inside one component request nothing — the
    /// second variable is reached over an edge, never by a scan — so a
    /// connected pattern's plan returns the empty list; so does a wildcard
    /// side, whose candidates span every label.
    pub fn index_requests(&self) -> Vec<(Symbol, Symbol)> {
        let mut pairs = Vec::new();
        for (v, joins) in self.joins.iter().enumerate() {
            for j in joins {
                let pair = (self.labels[v], j.attr);
                if !pair.0.is_wildcard()
                    && self.component[v] != self.component[j.other.idx()]
                    && !pairs.contains(&pair)
                {
                    pairs.push(pair);
                }
            }
        }
        pairs
    }
}

/// Append the connectivity-first order rooted at `root` to `out`;
/// `picked` is all-`false` scratch, one flag per variable.
fn rooted_order(pattern: &Pattern, root: Var, picked: &mut [bool], out: &mut Vec<Var>) {
    picked[root.idx()] = true;
    out.push(root);
    for _ in 1..pattern.var_count() {
        let next = pattern
            .vars()
            .filter(|v| !picked[v.idx()])
            .min_by_key(|&v| {
                let connections = pattern
                    .out_edges(v)
                    .iter()
                    .chain(pattern.in_edges(v))
                    .filter(|(_, u)| picked[u.idx()])
                    .count();
                (
                    std::cmp::Reverse(connections),
                    pattern.label(v).is_wildcard(),
                    v,
                )
            })
            .expect("fewer than n variables picked");
        picked[next.idx()] = true;
        out.push(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_pattern;

    fn names(q: &Pattern, order: &[Var]) -> String {
        let names: Vec<&str> = order.iter().map(|&v| q.name(v)).collect();
        names.join(" ")
    }

    /// Rooted at either leaf of a chain, the order walks the chain: no
    /// variable comes up before one of its neighbours.
    #[test]
    fn a_chain_is_walked_from_whichever_end_it_is_rooted_at() {
        let q = parse_pattern("a(x) -[e]-> b(y) <-[e]- a(z)").unwrap();
        let plan = MatchPlan::new(&q);
        let [x, y, z] = ["x", "y", "z"].map(|n| q.var_by_name(n).unwrap());
        assert_eq!(names(&q, plan.order_rooted_at(x)), "x y z");
        assert_eq!(names(&q, plan.order_rooted_at(y)), "y x z");
        assert_eq!(names(&q, plan.order_rooted_at(z)), "z y x");
    }

    /// A second component has no edge to follow: it starts at its first
    /// concretely-labelled variable and is connected from there on.
    #[test]
    fn a_second_component_starts_at_a_concrete_label() {
        let q = parse_pattern("a(x); _(w) -[e]-> b(y)").unwrap();
        let plan = MatchPlan::new(&q);
        let x = q.var_by_name("x").unwrap();
        assert_eq!(names(&q, plan.order_rooted_at(x)), "x y w");
    }

    /// A value index is worth asking for exactly where a scan would
    /// otherwise happen: on the concretely-labelled side of a join that is
    /// the only thing linking two components.
    #[test]
    fn only_cross_component_joins_on_concrete_labels_request_an_index() {
        let (k, l) = (Symbol::new("k"), Symbol::new("l"));
        let q = parse_pattern("a(x) -[e]-> b(y); a(z); _(w)").unwrap();
        let [x, y, z, w] = ["x", "y", "z", "w"].map(|n| q.var_by_name(n).unwrap());
        let mut plan = MatchPlan::new(&q);
        assert!(plan.index_requests().is_empty(), "no joins, no requests");
        plan.require_attr_eq(x, k, y, l); // over an edge
        plan.require_attr_eq(z, k, z, l); // one variable
        plan.require_attr(z, k, Value::Int(1)); // a constant
        assert!(plan.index_requests().is_empty());
        plan.require_attr_eq(y, l, z, k); // the graph-key shape
        let (a, b) = (Symbol::new("a"), Symbol::new("b"));
        assert_eq!(plan.index_requests(), [(b, l), (a, k)]);
        plan.require_attr_eq(w, k, x, k); // the wildcard side asks nothing
        plan.require_attr_eq(z, k, x, l); // (a, k) again, and (a, l)
        assert_eq!(plan.index_requests(), [(a, k), (a, l), (b, l)]);
    }

    /// The most-connected unvisited variable goes first, whatever its
    /// declaration position.
    #[test]
    fn more_edges_into_the_visited_set_win() {
        let q = parse_pattern(
            "a(x); a(p); a(y); a(z); (x) -[e]-> (p); (x) -[e]-> (y) -[e]-> (z); (x) -[f]-> (z)",
        )
        .unwrap();
        let plan = MatchPlan::new(&q);
        let x = q.var_by_name("x").unwrap();
        // p, y and z all touch x once; after p and y are in, z has two.
        assert_eq!(names(&q, plan.order_rooted_at(x)), "x p y z");
        let z = q.var_by_name("z").unwrap();
        assert_eq!(names(&q, plan.order_rooted_at(z)), "z x y p");
    }
}
