//! The three classical problems of Section 5: satisfiability (Theorem 2),
//! implication (Theorem 4) and validation, with the complexity landscape of
//! Table 1 reproduced empirically by `ged-bench`.

pub mod implication;
pub mod satisfiability;
pub mod validation;

pub use implication::{implication, implies, minimize, ImplicationOutcome};
pub use satisfiability::{
    build_model, canonical_graph, is_satisfiable, is_trivially_satisfiable, satisfiability,
    SatOutcome,
};
pub use validation::{validate, GedReport, ValidationReport};
