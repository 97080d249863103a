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
//! * **`wire/json-parse/report-2000`** — the client's side of a poll:
//!   `Json::parse` of a 2 000-witness `report` reply, in ns per witness.
//!   `Json::parse` is the lexer's other consumer, so this row says what
//!   sharing the lexer cost the tree.
//! * **`wire/encode-report/{2000,2000-distinct}`** — the server's side of
//!   a poll that misses the rendered line: `encode_report` of the same
//!   2 000-witness reply, in ns per witness. *2000* is the shape above,
//!   each rule's witnesses sharing one kind; in *2000-distinct* every
//!   witness's kind differs from its predecessor's.
//!
//! Times are medians over `SAMPLES` samples of at least `MIN_UNITS` units
//! (deltas, witnesses) each, with the fastest sample beside them.

use ged_core::constraint::ViolationKind;
use ged_core::Literal;
use ged_graph::{sym, Delta, DeltaSet, NodeId, Value};
use ged_pattern::Var;
use ged_proto::message::encode_report;
use ged_proto::wire::read_line;
use ged_proto::{read_frame, Json, Request, DEFAULT_MAX_FRAME};
use std::hint::black_box;
use std::time::Instant;

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
    let kinds = [
        ViolationKind::Conclusions(vec![Literal::constant(
            Var(0),
            sym("is_fake"),
            Value::Int(0),
        )]),
        ViolationKind::Conclusions(vec![Literal::id(Var(0), Var(1))]),
        ViolationKind::Predicates(vec![0]),
        ViolationKind::Disjunction,
    ];
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

/// Time `pass` (which handles `units` units per call) and print one row.
fn row(label: &str, units: usize, mut pass: impl FnMut()) {
    let calls = MIN_UNITS.div_ceil(units);
    pass();
    let mut samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let began = Instant::now();
            for _ in 0..calls {
                pass();
            }
            began.elapsed().as_nanos() as f64 / (calls * units) as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    println!(
        "{label:<44} median {:>8.1} ns min {:>8.1} ns ({SAMPLES} samples of {calls} calls)",
        samples[SAMPLES / 2],
        samples[0]
    );
}

fn main() {
    println!("\n== wire/request-decode (ns per delta) ==");
    for batch in [8usize, 32, 512] {
        let mut rng = Lcg(batch as u64);
        // Several frames per size, so no one draw of the mix is the row.
        let frames: Vec<Vec<u8>> = (0..8).map(|_| apply_frame(batch, &mut rng)).collect();
        for frame in &frames {
            let json = read_frame(&mut &frame[..], DEFAULT_MAX_FRAME)
                .expect("generated frames parse")
                .expect("one frame");
            let line = std::str::from_utf8(&frame[..frame.len() - 1]).expect("UTF-8");
            assert_eq!(Request::from_line(line), Request::from_json(&json).ok());
        }
        row(
            &format!("wire/request-decode/reference/{batch}"),
            batch * frames.len(),
            || {
                for frame in &frames {
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
                for frame in &frames {
                    let line = read_line(&mut black_box(&frame[..]), &mut buf, DEFAULT_MAX_FRAME)
                        .expect("reads")
                        .expect("one frame");
                    black_box(Request::from_line(line).expect("decodes"));
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
}
