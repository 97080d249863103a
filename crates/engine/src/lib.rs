//! # ged-engine — incremental validation over evolving graphs
//!
//! Validation (`G ⊨ Σ`, Section 5.3) is the reasoning problem a deployed
//! system faces on *every* update. This crate supplies the production
//! answer, every layer of it **generic over the unified constraint
//! layer** (`ged_core::constraint::Constraint`): the
//! same code serves plain GEDs, GDCs with built-in predicates, and GED∨
//! with disjunctive conclusions — the engine only ever needs a
//! constraint's pattern (to enumerate candidate matches) and its per-match
//! check (to classify them). A *mixed* rule set is one
//! `IncrementalValidator<ged_ext::SigmaConstraint>`: every GED, GDC and
//! GED∨ compiles into that one form, and a family outside the paper's
//! runs as its own `C`.
//!
//! * [`mod@unit`] — the **work unit** both passes run: one `(constraint,
//!   anchor variable, seeds)` triple enumerated by exclusion-aware
//!   anchored matching, and the seeding full pass built from it (per rule,
//!   one unit anchored on its most selective variable);
//! * [`mod@footprint`] — **which rules a batch can affect**: each touched
//!   node carries the set of rules its touches concern, derived from Σ's
//!   syntax (the attributes a rule reads, its pattern's edge labels), so
//!   each rule is dropped and re-enumerated on its own footprint only;
//! * [`IncrementalValidator`] — **delta-driven violation maintenance**: it
//!   owns the graph and a persistent [`ViolationStore`] keyed by
//!   (constraint, witness match), ingests [`Delta`]s / batched
//!   [`DeltaSet`]s, and
//!   after each update recomputes only the *affected area* — per rule, the
//!   matches whose image meets the nodes the delta touched in a way the
//!   rule can see — instead of re-running
//!   full validation. The delta path is output-sensitive end to end: the
//!   store prunes via an inverted `NodeId → witness` index (no store
//!   scan), re-enumeration uses exclusion-aware anchored matching so
//!   each affected match is visited exactly once (no enumerate-and-discard
//!   responsibility filter). Construction ([`IncrementalValidator::new`])
//!   seeds with the [`mod@unit`] full pass; seeding and maintenance alike
//!   run on the caller's thread.
//! * [`view`] — **snapshot-isolated read views**: `apply` takes
//!   `&mut self`, but violation queries need not serialize against it —
//!   [`IncrementalValidator::read_view`] hands out cloneable
//!   `Send + Sync` [`ReadView`] handles whose queries answer against the
//!   immutable snapshot published at the last batch boundary (the
//!   witness table the writer just maintained, swapped in whole; the one
//!   it replaces catches up by O(changed) changelog replay), so many
//!   readers proceed concurrently with the one writer and never
//!   observe a torn mid-batch store.
//!
//! The affected-area argument (see `DESIGN.md` §4 for the proof sketch):
//! a delta can change the witnesses of a rule only at matches whose image
//! meets the nodes it touched in a way the rule can see, because (1)
//! pattern matching is monotone in nodes/edges and uses only edges the
//! pattern's labels match, so created *and* destroyed matches alike use a
//! node or such an edge incident to the footprint, and (2) a rule's check
//! reads only the attributes it names, on matched nodes.
//!
//! ```
//! use ged_engine::IncrementalValidator;
//! use ged_core::{Ged, Literal};
//! use ged_graph::{sym, Delta, GraphBuilder, Value};
//! use ged_pattern::parse_pattern;
//!
//! // φ1: video games are created by programmers.
//! let q = parse_pattern("person(x) -[create]-> product(y)").unwrap();
//! let (x, y) = (q.var_by_name("x").unwrap(), q.var_by_name("y").unwrap());
//! let phi1 = Ged::new(
//!     "φ1",
//!     q,
//!     vec![Literal::constant(y, sym("type"), "video game")],
//!     vec![Literal::constant(x, sym("type"), "programmer")],
//! );
//!
//! let mut b = GraphBuilder::new();
//! b.triple(("tony", "person"), "create", ("gb", "product"));
//! b.attr("tony", "type", "psychologist");
//! b.attr("gb", "type", "video game");
//! let (graph, names) = b.build_with_names();
//!
//! let mut v = IncrementalValidator::new(graph, vec![phi1]);
//! assert!(!v.is_satisfied(), "the Ghetto Blaster inconsistency");
//!
//! // Fixing Tony's type repairs the violation — incrementally.
//! v.apply(&Delta::SetAttr {
//!     node: names["tony"],
//!     attr: sym("type"),
//!     value: Value::from("programmer"),
//! });
//! assert!(v.is_satisfied());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

pub mod footprint;
pub mod metrics;
pub mod store;
pub mod unit;
pub mod validator;
pub mod view;

pub use footprint::Footprint;
pub use metrics::{MetricsSnapshot, Phase, PhaseSnapshot, RuleSnapshot};
pub use store::ViolationStore;
pub use unit::rule_plan;
pub use validator::{ApplyStats, DeployAnalysis, IncrementalValidator};
pub use view::{ReadView, Rendering, RuleWitnesses, ViolationSnapshot};

// Re-export the delta vocabulary so engine users need only one import.
pub use ged_graph::{Delta, DeltaEffect, DeltaSet};
