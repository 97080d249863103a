//! # ged-repro — umbrella crate for the GED reproduction
//!
//! Re-exports the workspace crates as a single dependency and provides the
//! [`prelude`] used by the runnable examples in `examples/` and the
//! integration tests in `tests/`.
//!
//! The system reproduces *Dependencies for Graphs* (Fan & Lu, PODS 2017):
//! see `DESIGN.md` for the crate inventory, the experiment catalogue, and
//! the incremental engine's affected-area algorithm.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub use ged_analysis as analysis;
pub use ged_core as core;
pub use ged_datagen as datagen;
pub use ged_engine as engine;
pub use ged_ext as ext;
pub use ged_graph as graph;
pub use ged_obs as obs;
pub use ged_pattern as pattern;

/// Everything needed to define graphs, patterns and constraints (GEDs,
/// GDCs, GED∨s) and run the reasoning procedures.
pub mod prelude {
    pub use ged_analysis::{analyze, AnalysisReport, Diagnostic, LintKind, Pruned, Severity};
    pub use ged_core::axiom::completeness::prove;
    pub use ged_core::axiom::derived::{
        prove_augmentation, prove_reflexivity, prove_transitivity, ProofBuilder,
    };
    pub use ged_core::chase::{chase, chase_from, chase_random, ChaseResult};
    pub use ged_core::constraint::ViolationKind;
    pub use ged_core::ged::{Ged, GedClass};
    pub use ged_core::literal::Literal;
    pub use ged_core::reason::{
        build_model, implies, is_satisfiable, minimize, validate, Validator,
    };
    pub use ged_core::rule::Rule;
    pub use ged_core::satisfy::{is_model, satisfies, satisfies_all, violations};
    pub use ged_engine::{
        ApplyStats, DeployAnalysis, IncrementalValidator, MetricsSnapshot, Phase, ReadView,
        Rendering, RuleWitnesses, ViolationSnapshot, ViolationStore,
    };
    pub use ged_ext::{disj, ext_implies, ext_satisfiable, gdc, GdcLiteral, Pred};
    pub use ged_graph::{
        sym, Delta, DeltaEffect, DeltaSet, Graph, GraphBuilder, NodeId, Symbol, Value,
    };
    pub use ged_obs::{CellRecorder, MatchRecorder, NoopRecorder};
    pub use ged_pattern::{parse_pattern, MatchOptions, MatchScratch, Pattern, Semantics, Var};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let q = parse_pattern("t(x)").unwrap();
        let g = Ged::new("g", q, vec![], vec![]);
        assert!(satisfies(&Graph::new(), &Rule::from(g)));
    }
}
