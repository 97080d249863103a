//! The streamed reply lines against the reference codec, on generated
//! reports: `encode_report` / `encode_violations` must produce exactly
//! the bytes `write_frame` makes of the `Json` tree (`report_to_json`,
//! `ok_response` + `violation_to_json`), and those bytes must decode back
//! to the rows that went in. `encode_apply` is held to the same, against
//! the `ok_response` tree `gedd` used to build for every batch.
//!
//! Inputs aim at the encoder's own code: rule names that need every
//! escape (quote, backslash, control characters, non-ASCII, empty), every
//! `ViolationKind` variant (their `Debug` text carries quotes and
//! backslashes of its own), assignments of 0–4 ids up to `u32::MAX`, and
//! Σ shapes where the separators can go wrong — empty Σ, satisfied Σ,
//! empty rules between crowded ones — and rules whose witnesses draw from
//! a few kinds, so the encoder's copy of a repeated kind's text is used,
//! beside kinds that are `==` but print differently, where it must not be.

use ged_core::constraint::ViolationKind;
use ged_core::reason::{GedReport, ValidationReport};
use ged_core::satisfy::Violation;
use ged_core::Literal;
use ged_graph::{sym, NodeId, Value};
use ged_pattern::Var;
use ged_proto::message::{
    apply_from_json, encode_apply, encode_report, encode_violations, ok_response, report_from_json,
    report_to_json, violation_from_json, violation_to_json, WitnessSink,
};
use ged_proto::{write_frame, ApplyReply, Json, WireViolation};
use proptest::collection::vec;
use proptest::prelude::*;

/// Strings out of the characters the escaper branches on.
fn tricky_string() -> impl Strategy<Value = String> {
    let palette = [
        "\"",
        "\\",
        "\n",
        "\r",
        "\t",
        "\u{0}",
        "\u{1}",
        "\u{1f}",
        "\u{7f}",
        "é",
        "∂",
        "🦀",
        "a",
        "Z",
        " ",
        "/",
        "key:entity",
    ];
    vec(0usize..palette.len(), 0..6)
        .prop_map(move |picks| picks.into_iter().map(|i| palette[i]).collect::<String>())
}

fn literal() -> impl Strategy<Value = Literal> {
    let value = prop_oneof![
        tricky_string().prop_map(Value::Str),
        (-3i64..4).prop_map(Value::Int),
        (-3i64..4).prop_map(|i| Value::Float(i as f64 / 2.0)),
        (0u8..2).prop_map(|b| Value::Bool(b == 1)),
    ];
    prop_oneof![
        (0u32..3, tricky_string(), value).prop_map(|(x, attr, value)| Literal::constant(
            Var(x),
            sym(&format!("a{attr}")),
            value
        )),
        (0u32..3, 0u32..3, tricky_string()).prop_map(|(x, y, attr)| {
            let attr = sym(&format!("a{attr}"));
            Literal::vars(Var(x), attr, Var(y), attr)
        }),
        (0u32..3, 0u32..3).prop_map(|(x, y)| Literal::id(Var(x), Var(y))),
    ]
}

fn kind() -> impl Strategy<Value = ViolationKind> {
    prop_oneof![
        vec(literal(), 1..4).prop_map(ViolationKind::Conclusions),
        vec(0usize..9, 1..4).prop_map(ViolationKind::Predicates),
        Just(ViolationKind::Disjunction),
    ]
}

/// `kind` with every `Int` constant replaced by the `Float` it equals:
/// `==` to `kind`, and printed differently wherever `kind` holds an `Int`.
fn float_twin(kind: &ViolationKind) -> ViolationKind {
    match kind {
        ViolationKind::Conclusions(literals) => ViolationKind::Conclusions(
            literals
                .iter()
                .map(|literal| match literal {
                    Literal::Const {
                        var,
                        attr,
                        value: Value::Int(i),
                    } => Literal::constant(*var, *attr, Value::Float(*i as f64)),
                    other => other.clone(),
                })
                .collect(),
        ),
        other => other.clone(),
    }
}

/// One to three kinds for a rule's witnesses to draw from: a kind, its
/// [`float_twin`], another kind. Neighbouring witnesses then often repeat
/// a kind, or follow one with its twin.
fn kind_pool() -> impl Strategy<Value = Vec<ViolationKind>> {
    let int_constant = (0u32..3, tricky_string(), -3i64..4).prop_map(|(x, attr, i)| {
        Literal::constant(Var(x), sym(&format!("a{attr}")), Value::Int(i))
    });
    let with_int = (int_constant, vec(literal(), 0..2)).prop_map(|(first, mut rest)| {
        rest.insert(0, first);
        ViolationKind::Conclusions(rest)
    });
    (prop_oneof![kind(), with_int], kind(), 1usize..4).prop_map(|(first, other, n)| {
        let twin = float_twin(&first);
        let mut pool = vec![first, twin, other];
        pool.truncate(n);
        pool
    })
}

fn node_id() -> impl Strategy<Value = NodeId> {
    prop_oneof![Just(0u32), Just(u32::MAX), 0u32..u32::MAX].prop_map(NodeId)
}

fn assignment() -> impl Strategy<Value = Vec<NodeId>> {
    vec(node_id(), 0..5)
}

/// The counts of an `apply` reply, up to where `Json::from(u64)` saturates.
fn apply_reply() -> impl Strategy<Value = ApplyReply> {
    let count = || prop_oneof![Just(0u64), 0u64..600, 0u64..(1u64 << 63)];
    (count(), count(), count(), count(), count()).prop_map(
        |(epoch, applied, violations, removed, added)| ApplyReply {
            epoch,
            applied,
            violations,
            removed,
            added,
        },
    )
}

/// A consistent report: per-rule rows agree with the witness list, and
/// the witnesses are grouped in Σ order. Rule sizes are drawn so that
/// empty Σ, all-satisfied Σ and an empty rule between two crowded ones
/// all come up within a few dozen cases. A rule draws each witness's
/// kind afresh, or from a [`kind_pool`].
fn report() -> impl Strategy<Value = ValidationReport> {
    let free = prop_oneof![Just(0usize), Just(0usize), 1usize..3, 8usize..24]
        .prop_flat_map(|n| vec((assignment(), kind()), n));
    let pooled = (prop_oneof![1usize..3, 8usize..24], kind_pool()).prop_flat_map(|(n, pool)| {
        vec((assignment(), 0..pool.len()), n).prop_map(move |picks| {
            picks
                .into_iter()
                .map(|(assignment, i)| (assignment, pool[i].clone()))
                .collect::<Vec<_>>()
        })
    });
    let witnesses = prop_oneof![free, pooled];
    vec((tricky_string(), witnesses), 0..5).prop_map(|rules| {
        let mut report = ValidationReport {
            per_ged: Vec::new(),
            violations: Vec::new(),
        };
        for (name, witnesses) in rules {
            report.per_ged.push(GedReport {
                name: name.clone(),
                violation_count: witnesses.len(),
                satisfied: witnesses.is_empty(),
            });
            report
                .violations
                .extend(witnesses.into_iter().map(|(assignment, kind)| Violation {
                    ged_name: name.clone(),
                    assignment,
                    kind,
                }));
        }
        report
    })
}

/// What `write_frame` puts on the wire for the reference tree.
fn frame_bytes(tree: &Json) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, tree).expect("finite frame");
    out
}

fn push_all(report: &ValidationReport, sink: &mut WitnessSink<'_>) {
    for v in &report.violations {
        sink(&v.ged_name, &v.assignment, &v.kind);
    }
}

fn expected_rows(report: &ValidationReport) -> Vec<WireViolation> {
    report
        .violations
        .iter()
        .map(|v| WireViolation {
            rule: v.ged_name.clone(),
            assignment: v.assignment.clone(),
            kind: format!("{:?}", v.kind),
        })
        .collect()
}

fn parse_line(line: &[u8]) -> Json {
    let text = std::str::from_utf8(line).expect("reply lines are UTF-8");
    assert!(text.ends_with('\n') && !text[..text.len() - 1].contains('\n'));
    Json::parse(text).expect("reply lines are JSON")
}

/// One rule's witnesses in a row whose kinds are `==` but print
/// differently (`2` and `2.0`), differ only in the sign of a zero, or are
/// strings that need escapes: each must be formatted, not copied from
/// its predecessor's.
#[test]
fn kinds_that_print_differently_are_each_formatted() {
    let constant =
        |value: Value| ViolationKind::Conclusions(vec![Literal::constant(Var(0), sym("a"), value)]);
    let kinds = [
        constant(Value::Int(2)),
        constant(Value::Float(2.0)),
        constant(Value::Float(0.0)),
        constant(Value::Float(-0.0)),
        constant(Value::Str("say \"hi\"\n".to_string())),
        constant(Value::Str("C:\\tmp\t\u{1}".to_string())),
    ];
    assert_eq!(kinds[0], kinds[1], "the first two are `==`");
    let name = "twins";
    let report = ValidationReport {
        per_ged: vec![GedReport {
            name: name.to_string(),
            violation_count: kinds.len(),
            satisfied: false,
        }],
        violations: kinds
            .iter()
            .enumerate()
            .map(|(i, kind)| Violation {
                ged_name: name.to_string(),
                assignment: vec![NodeId(i as u32)],
                kind: kind.clone(),
            })
            .collect(),
    };
    let line = encode_report(3, [(name, kinds.len())].into_iter(), |sink| {
        push_all(&report, sink);
    });
    let tree = frame_bytes(&report_to_json(3, &report));
    assert_eq!(
        String::from_utf8_lossy(&line),
        String::from_utf8_lossy(&tree)
    );
    let reply = report_from_json(&parse_line(&line)).expect("decodes");
    assert_eq!(reply.violations, expected_rows(&report));
}

proptest! {
    #[test]
    fn streamed_report_equals_the_tree_codec(report in report(), epoch in 0u64..(1u64 << 63)) {
        let rules = report.per_ged.iter().map(|r| (r.name.as_str(), r.violation_count));
        let line = encode_report(epoch, rules, |sink| push_all(&report, sink));
        prop_assert_eq!(&line, &frame_bytes(&report_to_json(epoch, &report)));

        let reply = report_from_json(&parse_line(&line)).expect("decodes");
        prop_assert_eq!(reply.epoch, epoch);
        prop_assert_eq!(reply.satisfied, report.violations.is_empty());
        let rows: Vec<(String, u64, bool)> = report
            .per_ged
            .iter()
            .map(|r| (r.name.clone(), r.violation_count as u64, r.satisfied))
            .collect();
        prop_assert_eq!(reply.rules, rows);
        prop_assert_eq!(reply.violations, expected_rows(&report));
    }

    #[test]
    fn streamed_violations_equal_the_tree_codec(report in report(), epoch in 0u64..(1u64 << 63)) {
        let count = report.violations.len();
        let line = encode_violations(epoch, count, |sink| push_all(&report, sink));
        let tree = ok_response(vec![
            ("epoch", Json::from(epoch)),
            ("count", Json::from(count)),
            (
                "violations",
                Json::Arr(report.violations.iter().map(violation_to_json).collect()),
            ),
        ]);
        prop_assert_eq!(&line, &frame_bytes(&tree));

        let reply = parse_line(&line);
        prop_assert_eq!(reply.get_u64("epoch"), Some(epoch));
        prop_assert_eq!(reply.get_u64("count"), Some(count as u64));
        let rows = reply
            .get_arr("violations")
            .expect("violations array")
            .iter()
            .map(violation_from_json)
            .collect::<Result<Vec<WireViolation>, String>>()
            .expect("decodes");
        prop_assert_eq!(rows, expected_rows(&report));
    }

    /// No `add_node` in the batch, one, and a bulk frame's worth: the
    /// separators of `created` are the encoder's own. The buffer comes
    /// in holding a previous line, as a connection's does.
    #[test]
    fn streamed_apply_equals_the_tree_codec(
        reply in apply_reply(),
        created in prop_oneof![vec(node_id(), 0..1), vec(node_id(), 1..2), vec(node_id(), 2..600)],
    ) {
        let mut line = "{\"ok\":true,\"stale\":[1,2,3]}\n".repeat(1 + created.len() % 3);
        encode_apply(&mut line, &reply, &created);
        let tree = ok_response(vec![
            ("epoch", Json::from(reply.epoch)),
            ("applied", Json::from(reply.applied)),
            ("violations", Json::from(reply.violations)),
            ("removed", Json::from(reply.removed)),
            ("added", Json::from(reply.added)),
            (
                "created",
                Json::Arr(created.iter().map(|n| Json::from(u64::from(n.0))).collect()),
            ),
        ]);
        prop_assert_eq!(line.as_bytes(), &frame_bytes(&tree)[..]);

        let decoded = parse_line(line.as_bytes());
        prop_assert_eq!(apply_from_json(&decoded), Ok(reply));
        let ids: Vec<u64> = created.iter().map(|n| u64::from(n.0)).collect();
        let read: Option<Vec<u64>> = decoded
            .get_arr("created")
            .map(|ids| ids.iter().filter_map(Json::as_u64).collect());
        prop_assert_eq!(read, Some(ids));
    }
}
