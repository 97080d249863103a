//! The streamed reply lines against the reference codec, on generated
//! reports: the `report` and `violations` lines in the pieces `gedd`
//! writes (a head, each rule's segment, joined by `write_segmented`) must
//! produce exactly the bytes `write_frame` makes of the `Json` tree
//! (`report_to_json`, `ok_response` + `violation_to_json`), and those
//! bytes must decode back to the rows that went in. `encode_apply` is held
//! to the same, against the `ok_response` tree `gedd` used to build for
//! every batch.
//!
//! Inputs aim at the encoder's own code: rule names that need every
//! escape (quote, backslash, control characters, non-ASCII, empty), kinds
//! of zero to four failed positions, assignments of 0–4 ids up to
//! `u32::MAX`, and Σ shapes where the separators can go wrong — empty Σ,
//! satisfied Σ, empty rules between crowded ones — and rules whose
//! witnesses draw from a few kinds, so the encoder's copy of a repeated
//! kind's text is used, beside kinds that differ, where it must not be.

use ged_core::constraint::ViolationKind;
use ged_core::reason::{GedReport, ValidationReport};
use ged_core::satisfy::Violation;
use ged_graph::NodeId;
use ged_proto::message::{
    apply_from_json, encode_apply, encode_report_head, encode_segment, encode_violations_head,
    ok_response, report_from_json, report_to_json, violation_from_json, violation_to_json,
    write_segmented,
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

/// Ascending positions, as a rule's failed conclusions are listed.
fn kind() -> impl Strategy<Value = ViolationKind> {
    vec(0usize..40, 0..5).prop_map(|mut positions| {
        positions.sort_unstable();
        positions.dedup();
        ViolationKind::from(positions)
    })
}

/// One to three kinds for a rule's witnesses to draw from, the first
/// twice: neighbouring witnesses then often repeat a kind, or follow one
/// with another.
fn kind_pool() -> impl Strategy<Value = Vec<ViolationKind>> {
    (kind(), kind(), 1usize..4).prop_map(|(first, other, n)| {
        let mut pool = vec![first.clone(), first, other];
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

/// Each rule's [`encode_segment`], in Σ order: the pieces `gedd` keeps.
fn segments(report: &ValidationReport) -> Vec<Vec<u8>> {
    let mut rest = &report.violations[..];
    let segment = |row: &GedReport| {
        let (mine, later) = rest.split_at(row.violation_count);
        rest = later;
        encode_segment(&row.name, mine.iter().map(|v| (&v.assignment[..], &v.kind)))
    };
    report.per_ged.iter().map(segment).collect()
}

/// The `report` line as `gedd` writes it to `w`: its head, then each
/// rule's segment.
fn write_report(w: &mut impl std::io::Write, epoch: u64, report: &ValidationReport) {
    let rules = report
        .per_ged
        .iter()
        .map(|r| (r.name.as_str(), r.violation_count));
    let segments = segments(report);
    let pieces = segments.iter().map(Vec::as_slice);
    write_segmented(w, &encode_report_head(epoch, rules), pieces).unwrap();
}

/// A transport that takes at most three bytes a call: every vectored
/// write is partial, so the writer must pick up mid-slice.
struct Trickle(Vec<u8>);

impl std::io::Write for Trickle {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = buf.len().min(3);
        self.0.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
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

proptest! {
    #[test]
    fn streamed_report_equals_the_tree_codec(report in report(), epoch in 0u64..(1u64 << 63)) {
        let mut line = Vec::new();
        write_report(&mut line, epoch, &report);
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

    /// The `report` line in pieces is the tree's line also through a
    /// writer that takes a few bytes at a time.
    #[test]
    fn segmented_report_equals_the_streamed_line(report in report(), epoch in 0u64..(1u64 << 63)) {
        let mut trickle = Trickle(Vec::new());
        write_report(&mut trickle, epoch, &report);
        prop_assert_eq!(&trickle.0, &frame_bytes(&report_to_json(epoch, &report)));
    }

    /// `gedd` writes the `violations` line only in pieces: its own head
    /// and the segments the `report` line is made of.
    #[test]
    fn streamed_violations_equal_the_tree_codec(report in report(), epoch in 0u64..(1u64 << 63)) {
        let count = report.violations.len();
        let segments = segments(&report);
        let mut line = Vec::new();
        let head = encode_violations_head(epoch, count);
        write_segmented(&mut line, &head, segments.iter().map(Vec::as_slice)).unwrap();
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
