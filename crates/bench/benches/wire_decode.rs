//! The wire layer by layer (DESIGN.md §10 "One lexer, two consumers"),
//! in the rows gedbench cannot give until its `proto.*` spans are
//! re-pointed (ROADMAP item 1): the request decode, the server's `report`
//! encode and the client's parse of that reply.
//!
//! * **`wire/request-decode/{reference,streamed}/{8,32,512}`** — one
//!   `apply` frame of that many deltas from its wire bytes to a `Request`,
//!   in ns per delta. *reference* is `read_frame` + `Request::from_json`
//!   (a buffer, a `Json` tree, then the `DeltaSet`); *streamed* is what
//!   `gedd` runs: `read_line` into a buffer kept across frames +
//!   `Request::from_line`. The delta mix is gedbench's `ingest-*` stream:
//!   seven in ten deltas an attribute write (a third each `"topic_N"`,
//!   an age, a tier name), three in ten an edge added or removed, a few
//!   nodes, ids up to 200 000.
//! * **`wire/lex/skip/{8,512}`** — the lexer alone over the lines of the
//!   same frames: `Reader::skip_value` + `end`, which checks everything
//!   and keeps nothing, in ns per delta. *streamed* less this row is the
//!   framing and the typed layer of `from_line` (keys to fields, ids,
//!   names interned, the `DeltaSet` built).
//! * **`wire/json-parse/report-2000`** — the client's side of a poll:
//!   `Json::parse` of a 2 000-witness `report` reply, in ns per witness.
//!   `Json::parse` is the lexer's other consumer, so this row says what
//!   sharing the lexer cost the tree.
//! * **`wire/encode-report/{2000,2000-distinct}`** — the server's side of
//!   a poll that misses the rendered line: `encode_report` of the same
//!   2 000-witness reply, in ns per witness. *2000* is the shape above,
//!   each rule's witnesses sharing one kind; in *2000-distinct* every
//!   witness's kind differs from its predecessor's.
//! * **`wire/rerender-report/2000`** — the server's side of a poll of the
//!   next epoch after one witness of one of four rules changed: `gedd`'s
//!   `rendering` of a 2 000-witness snapshot, which formats that rule's
//!   segment and shares the other three, in ns per witness of the reply.
//!   The batch that opens the epoch is not timed.
//!
//! Times are medians over `SAMPLES` samples of at least `MIN_UNITS` units
//! (deltas, witnesses) each, with the fastest sample beside them.

use ged_core::constraint::ViolationKind;
use ged_core::ged::Ged;
use ged_core::Literal;
use ged_daemon::server::rendering;
use ged_engine::IncrementalValidator;
use ged_graph::{sym, Delta, DeltaSet, Graph, NodeId, Value};
use ged_pattern::{parse_pattern, Var};
use ged_proto::json::Reader;
use ged_proto::message::{encode_report, write_segmented};
use ged_proto::wire::read_line;
use ged_proto::{read_frame, Json, Request, DEFAULT_MAX_FRAME};
use std::hint::black_box;
use std::time::{Duration, Instant};

const SAMPLES: usize = 31;
const MIN_UNITS: usize = 1 << 15;

/// A fixed-multiplier LCG: the frames only have to be the same every run.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }

    fn node(&mut self) -> NodeId {
        NodeId(self.below(200_000) as u32)
    }
}

fn delta(rng: &mut Lcg) -> Delta {
    let set = |node, attr, value: Value| Delta::SetAttr {
        node,
        attr: sym(attr),
        value,
    };
    match rng.below(100) {
        0 => Delta::AddNode {
            label: sym("account"),
        },
        1 => Delta::RemoveNode { node: rng.node() },
        2..=15 => Delta::AddEdge {
            src: rng.node(),
            label: sym(["like", "follow"][rng.below(2) as usize]),
            dst: rng.node(),
        },
        16..=29 => Delta::RemoveEdge {
            src: rng.node(),
            label: sym(["like", "follow"][rng.below(2) as usize]),
            dst: rng.node(),
        },
        30..=52 => set(
            rng.node(),
            "keyword",
            format!("topic_{}", rng.below(10)).into(),
        ),
        53..=76 => set(rng.node(), "age", (18 + rng.below(53) as i64).into()),
        _ => set(
            rng.node(),
            "tier",
            ["free", "pro", "biz"][rng.below(3) as usize].into(),
        ),
    }
}

/// One `apply` frame of `batch` deltas, newline included.
fn apply_frame(batch: usize, rng: &mut Lcg) -> Vec<u8> {
    let deltas: DeltaSet = (0..batch).map(|_| delta(rng)).collect();
    let mut line = Request::Apply(deltas).to_json().to_string();
    line.push('\n');
    line.into_bytes()
}

/// A `report` reply line of `witnesses` witnesses under four rules: rule
/// `r`'s witnesses all carry kind `r`, or, when `distinct`, cycle through
/// the four so no two neighbours share one.
fn encode_report_line(witnesses: usize, distinct: bool) -> Vec<u8> {
    let rules = ["verified⇒real", "no-self-follow", "age≥13", "tier-domain"];
    // Four distinct kinds of the lengths the mixed rules' witnesses list:
    // one conclusion, a forbidding pair, every disjunct.
    let kinds = [vec![0], vec![0, 1], vec![1], vec![0, 1, 2]].map(ViolationKind::from);
    let per_rule = witnesses / rules.len();
    encode_report(7, rules.iter().map(|name| (*name, per_rule)), |sink| {
        for (r, name) in rules.iter().enumerate() {
            for i in 0..per_rule {
                let id = (r * per_rule + i) as u32;
                let kind = if distinct { (r + i) % kinds.len() } else { r };
                sink(name, &[NodeId(id), NodeId(id + 100_000)], &kinds[kind]);
            }
        }
    })
}

/// `witnesses` witnesses, a quarter under each of four rules: rule `r`
/// says every `t{r}` node has `ok = 1`, and each has `ok = 0`. Returns the
/// validator and each rule's nodes.
fn four_rule_validator(witnesses: usize) -> (IncrementalValidator<Ged>, Vec<Vec<NodeId>>) {
    let mut g = Graph::new();
    let mut sigma = Vec::new();
    let mut nodes = Vec::new();
    for r in 0..4 {
        let label = format!("t{r}");
        let pattern = parse_pattern(&format!("{label}(x)")).expect("pattern");
        let ok = vec![Literal::constant(Var(0), sym("ok"), 1)];
        sigma.push(Ged::new(format!("{label}-ok"), pattern, vec![], ok));
        let add = |_| {
            let node = g.add_node(sym(&label));
            g.set_attr(node, sym("ok"), 0);
            node
        };
        nodes.push((0..witnesses / 4).map(add).collect());
    }
    (IncrementalValidator::new(g, sigma), nodes)
}

/// Time `pass` (which handles `units` units per call) and print one row.
fn row(label: &str, units: usize, mut pass: impl FnMut()) {
    let calls = MIN_UNITS.div_ceil(units);
    pass();
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let began = Instant::now();
            for _ in 0..calls {
                pass();
            }
            began.elapsed().as_nanos() as f64 / (calls * units) as f64
        })
        .collect();
    print_row(label, calls, samples);
}

/// [`row`] for a `pass` that does untimed set-up first and returns how
/// long the part it times took.
fn timed_row(label: &str, units: usize, mut pass: impl FnMut() -> Duration) {
    let calls = MIN_UNITS.div_ceil(units);
    pass();
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let took: Duration = (0..calls).map(|_| pass()).sum();
            took.as_nanos() as f64 / (calls * units) as f64
        })
        .collect();
    print_row(label, calls, samples);
}

fn print_row(label: &str, calls: usize, mut samples: Vec<f64>) {
    samples.sort_by(f64::total_cmp);
    println!(
        "{label:<44} median {:>8.1} ns min {:>8.1} ns ({SAMPLES} samples of {calls} calls)",
        samples[SAMPLES / 2],
        samples[0]
    );
}

/// The line of a frame: its bytes without the newline.
fn line(frame: &[u8]) -> &str {
    std::str::from_utf8(&frame[..frame.len() - 1]).expect("UTF-8")
}

fn main() {
    // Several frames per size, so no one draw of the mix is the row. Both
    // decoders must agree on every one before anything is timed.
    let sizes: Vec<(usize, Vec<Vec<u8>>)> = [8usize, 32, 512]
        .into_iter()
        .map(|batch| {
            let mut rng = Lcg(batch as u64);
            (
                batch,
                (0..8).map(|_| apply_frame(batch, &mut rng)).collect(),
            )
        })
        .collect();
    for frame in sizes.iter().flat_map(|(_, frames)| frames) {
        let json = read_frame(&mut &frame[..], DEFAULT_MAX_FRAME)
            .expect("generated frames parse")
            .expect("one frame");
        let decoded = Request::from_json(&json).expect("generated frames decode");
        assert_eq!(Request::from_line(line(frame)), Some(decoded));
    }

    println!("\n== wire/request-decode (ns per delta) ==");
    for (batch, frames) in &sizes {
        let batch = *batch;
        row(
            &format!("wire/request-decode/reference/{batch}"),
            batch * frames.len(),
            || {
                for frame in frames {
                    let json = read_frame(&mut black_box(&frame[..]), DEFAULT_MAX_FRAME)
                        .expect("parses")
                        .expect("one frame");
                    black_box(Request::from_json(&json).expect("decodes"));
                }
            },
        );
        let mut buf = Vec::new();
        row(
            &format!("wire/request-decode/streamed/{batch}"),
            batch * frames.len(),
            || {
                for frame in frames {
                    let line = read_line(&mut black_box(&frame[..]), &mut buf, DEFAULT_MAX_FRAME)
                        .expect("reads")
                        .expect("one frame");
                    black_box(Request::from_line(line).expect("decodes"));
                }
            },
        );
    }

    println!("\n== wire/lex (ns per delta) ==");
    for (batch, frames) in sizes.iter().filter(|(batch, _)| *batch != 32) {
        row(
            &format!("wire/lex/skip/{batch}"),
            batch * frames.len(),
            || {
                for frame in frames {
                    let mut r = Reader::new(line(black_box(frame)));
                    r.skip_value().expect("skips");
                    r.end().expect("ends");
                }
            },
        );
    }

    println!("\n== wire/json-parse (ns per witness) ==");
    let witnesses = 2000;
    let line = String::from_utf8(encode_report_line(witnesses, false)).expect("UTF-8");
    row("wire/json-parse/report-2000", witnesses, || {
        black_box(Json::parse(black_box(&line)).expect("parses"));
    });

    println!("\n== wire/encode-report (ns per witness) ==");
    row("wire/encode-report/2000", witnesses, || {
        black_box(encode_report_line(black_box(witnesses), false));
    });
    row("wire/encode-report/2000-distinct", witnesses, || {
        black_box(encode_report_line(black_box(witnesses), true));
    });

    // The next epoch after one witness of one of the four rules changed,
    // rendered as `gedd` does: the rule's segment is formatted, the other
    // three are shared. The batch that changes it is not timed.
    let (mut v, nodes) = four_rule_validator(witnesses);
    let view = v.read_view();
    let mut flips = 0usize;
    let mut flip = |v: &mut IncrementalValidator<Ged>| {
        let (rule, value) = (flips % 4, (flips / 4 + 1) % 2);
        let node = nodes[rule][flips / 8 % nodes[rule].len()];
        flips += 1;
        let value = Value::from(value as i64);
        v.apply(&Delta::SetAttr {
            node,
            attr: sym("ok"),
            value,
        });
    };
    let first = rendering(&view.snapshot());
    let mut line = Vec::new();
    write_segmented(&mut line, first.head(), first.segments()).expect("a Vec takes it");
    let snap = view.snapshot();
    let full = encode_report(snap.epoch(), snap.rules(), |sink| {
        snap.for_each_witness(sink);
    });
    assert!(line == full, "the served render is the report line");
    drop(snap);
    flip(&mut v);
    let segments = view.rule_renders();
    black_box(rendering(&view.snapshot()));
    assert_eq!(view.rule_renders(), segments + 1, "one segment formatted");
    timed_row("wire/rerender-report/2000", witnesses, || {
        flip(&mut v);
        let snap = view.snapshot();
        let began = Instant::now();
        black_box(rendering(black_box(&snap)));
        began.elapsed()
    });
}
