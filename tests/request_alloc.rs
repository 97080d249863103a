//! Allocation bound on the `apply` request path: decoding a bulk frame
//! straight off its line costs a constant number of allocator calls (the
//! `DeltaSet`'s growth) plus one for each string-valued `set_attr` whose
//! text is too long to sit in its value (more than 15 bytes: a short one
//! is copied into the value off the line), where the reference codec's
//! `Json` tree costs several per delta; and a connection's line buffer,
//! once grown, reads the next frame without touching the allocator.
//!
//! The counter (`support/counting.rs`) counts the calling thread's
//! allocations, and everything measured here runs on it.

use ged_proto::wire::read_line;
use ged_proto::{read_frame, Request, DEFAULT_MAX_FRAME};
use ged_repro::prelude::*;

#[path = "support/counting.rs"]
mod counting;
use counting::allocations_in;

const DELTAS: usize = 512;

/// A bulk frame with every delta shape an `ingest-*` stream sends, every
/// fourth delta a string-valued `set_attr`. That is fewer strings than
/// gedbench's `ingest-bulk`, where two attribute writes in three carry one
/// (≈ 46% of deltas), all of them short. Every string here is short
/// (`topic_N`, 7 bytes) but the first, which is 38 bytes long. Returned as
/// wire bytes, with the count of strings, the count of long ones, and the
/// request it decodes to.
fn bulk_frame(salt: u32) -> (Vec<u8>, u64, u64, Request) {
    let (mut strings, mut long) = (0, 0);
    let batch: DeltaSet = (0..DELTAS as u32)
        .map(|i| {
            let node = NodeId(i.wrapping_mul(2_654_435_761).wrapping_add(salt) % 200_000);
            match i % 8 {
                0 | 4 => {
                    strings += 1;
                    let text = if i == 0 {
                        long += 1;
                        format!("a topic too long to sit in its value {}", salt % 10)
                    } else {
                        format!("topic_{}", (i + salt) % 10)
                    };
                    Delta::SetAttr {
                        node,
                        attr: sym("keyword"),
                        value: Value::from(text),
                    }
                }
                1 | 5 => Delta::SetAttr {
                    node,
                    attr: sym("age"),
                    value: Value::from(i64::from(18 + i % 53)),
                },
                2 => Delta::AddEdge {
                    src: node,
                    label: sym("follow"),
                    dst: NodeId(i),
                },
                3 => Delta::RemoveEdge {
                    src: node,
                    label: sym("like"),
                    dst: NodeId(i),
                },
                6 => Delta::DelAttr {
                    node,
                    attr: sym("tier"),
                },
                _ => Delta::SetAttr {
                    node,
                    attr: sym("verified"),
                    value: Value::from(i % 16 == 7),
                },
            }
        })
        .collect();
    let request = Request::Apply(batch);
    let mut line = request.to_json().to_string();
    line.push('\n');
    (line.into_bytes(), strings, long, request)
}

#[test]
fn a_bulk_frame_decodes_in_a_constant_plus_its_strings() {
    let (first, strings, long, expected) = bulk_frame(1);
    let (second, _, second_long, second_expected) = bulk_frame(2);
    assert_eq!((strings, long), (DELTAS as u64 / 4, 1));
    // Buffer reuse is only worth asserting if the second frame fits.
    assert!(second.len() <= first.len(), "salt 2 renders longer ids");

    // The reference path, for scale: line → buffer → tree → request. Each
    // delta's object and its keys cost calls; its op, names and short
    // values sit in their nodes — 3 030 calls, held as a bound.
    let (reference, tree_allocs) = allocations_in(|| {
        let tree = read_frame(&mut &first[..], DEFAULT_MAX_FRAME)
            .expect("parses")
            .expect("one frame");
        Request::from_json(&tree).expect("decodes")
    });
    assert!(reference == expected);
    println!("the tree path: {tree_allocs} allocator calls");
    assert!(
        tree_allocs <= 3_030,
        "the tree path took {tree_allocs} allocator calls"
    );

    // What `gedd` runs, with the connection's buffer still empty.
    let mut line = Vec::new();
    let (streamed, first_allocs) = allocations_in(|| {
        let text = read_line(&mut &first[..], &mut line, DEFAULT_MAX_FRAME)
            .expect("reads")
            .expect("one frame");
        Request::from_line(text).expect("decodes")
    });
    assert!(streamed == expected);
    println!("first frame: {first_allocs} allocator calls, {strings} strings, {long} long");
    assert!(
        first_allocs <= 16 + long,
        "{DELTAS} deltas, {strings} of them strings, {long} long, took {first_allocs} allocator calls"
    );

    // The next frame on the connection: framing is free, decoding is bound
    // by the same constant.
    let (text, framing_allocs) = allocations_in(|| {
        read_line(&mut &second[..], &mut line, DEFAULT_MAX_FRAME)
            .expect("reads")
            .expect("one frame")
    });
    assert_eq!(framing_allocs, 0, "the buffer was grown by the first frame");
    let (streamed, decode_allocs) = allocations_in(|| Request::from_line(text).expect("decodes"));
    assert!(streamed == second_expected);
    println!("second frame: {decode_allocs} allocator calls");
    assert!(
        decode_allocs <= 16 + second_long,
        "the second frame took {decode_allocs} allocator calls"
    );
}
