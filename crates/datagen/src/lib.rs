//! # ged-datagen — workloads and lower-bound constructions
//!
//! Synthetic substitutes for the paper's proprietary datasets (DESIGN.md
//! "Substitutions") and the executable hardness reductions:
//!
//! * [`rules`] — the GEDs of Example 3 (φ1–φ5, ψ1–ψ3);
//! * [`kb`] — knowledge base with the four planted inconsistency kinds of
//!   Example 1(1);
//! * [`social`] — fake-account cascades for φ5 (Example 1(2));
//! * [`music`] — album/artist duplicates resolvable only by the recursive
//!   keys ψ1–ψ3 (Example 1(3));
//! * [`random`] — random graphs / patterns / GED sets for scaling;
//! * [`stream`] — seeded update streams over any of these graphs: every
//!   delta kind plus the batch shapes an incremental engine must survive;
//! * [`gdc`] — GDC workloads (§7.1): age/price dense-order predicates over
//!   the social and kb graphs, with planted violations;
//! * [`disj`] — GED∨ workloads (§7.2): multi-disjunct domain and
//!   conditional rules over the same graphs, with planted violations;
//! * [`mixed`] — heterogeneous-Σ workloads: GED + GDC + GED∨ in one
//!   `Vec<Rule>`, with planted violations per family;
//!
//!   all three return a [`Workload`], their rules built by `ged-ext`'s
//!   `gdc` / `disj` constructors as the one rule type;
//! * [`coloring`] — 3-colorability reductions behind Theorems 3, 5, 6,
//!   cross-validated against a brute-force oracle.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod coloring;
pub mod disj;
pub mod gdc;
pub mod kb;
pub mod mixed;
pub mod music;
pub mod random;
pub mod redundant;
pub mod rules;
pub mod social;
pub mod stream;

use ged_core::rule::Rule;
use ged_graph::Graph;

/// A rule-family workload ([`gdc`], [`disj`], [`mixed`]): a decorated
/// graph, its rule set, and the number of violations planted by
/// construction.
#[derive(Debug)]
pub struct Workload {
    /// The graph.
    pub graph: Graph,
    /// The rule set.
    pub sigma: Vec<Rule>,
    /// Violating witnesses planted by construction.
    pub planted: usize,
}
