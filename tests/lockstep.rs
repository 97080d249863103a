//! Every implementation of the invariant at once, on one generated stream
//! per Σ family: the validator, a `ReadView` alone
//! and one with two pollers, the wire with two, and the analyzer-pruned
//! twin, all held by the lockstep driver (`support/lockstep.rs`, DESIGN.md
//! §11) against one `validate` per batch boundary. Then the pruned twin
//! under streams that are steered to repair the kept rules — the analyzer's
//! claim is that the pruned Σ is interchangeable with Σ under *every*
//! update — and the driver's own tests: a planted fault is caught, shrunk
//! and replayed, and the generator's traffic is counted, not guessed.
//!
//! The `#[ignore]`d run is the same matrix at 8 seeds × 400 batches:
//! `cargo test --release --test lockstep -- --include-ignored --nocapture`.

use ged_datagen::kb::KbConfig;
use ged_datagen::random::evolving_workload;
use ged_datagen::social::SocialConfig;
use ged_datagen::stream::{DeltaStream, TABLE};
use ged_datagen::{disj, gdc, mixed, redundant};
use ged_proto::Request;
use ged_repro::prelude::*;
use std::collections::HashMap;

#[path = "support/lockstep.rs"]
mod lockstep;
use lockstep::*;

/// A Σ family: name, initial graph and rules, and the traffic that moves
/// matches across them (attribute vocabulary, value pool).
type Family = (&'static str, Start, Vec<Symbol>, Vec<Value>);
type Start = (Graph, Vec<Rule>);

/// The mixed Σ with a verbatim duplicate of its first rule and a copy of it
/// under one more premise, which the first implies.
fn mixed_with_redundancy() -> Start {
    let w = mixed::social_mixed(&SocialConfig::default(), 3, 51);
    let real = w.sigma[0]
        .as_chase_ged()
        .expect("the mixed Σ opens with a GED");
    let (x, y) = (real.premises().to_vec(), real.conclusions().to_vec());
    let mut narrower = x.clone();
    narrower.push(Literal::constant(Var(0), sym("tier"), "pro"));
    let q = || real.pattern().clone();
    let mut sigma = w.sigma.clone();
    sigma.push(Ged::new("real-again", q(), x, y.clone()).into());
    sigma.push(Ged::new("real-if-pro", q(), narrower, y).into());
    (w.graph, sigma)
}

fn families() -> Vec<Family> {
    let (social, kb) = (SocialConfig::default(), KbConfig::default());
    let syms = |names: &[&str]| names.iter().map(|a| sym(a)).collect::<Vec<_>>();
    let keys = || key_attrs().to_vec();
    let wild = (evolving_workload(50, 3, 0, 46).0, served(wildcard_sigma()));
    let w = gdc::social_gdcs(&social, 3, 21);
    let gdc_social = (w.graph, w.sigma);
    let w = gdc::kb_gdcs(&kb, 4, 23);
    let gdc_kb = (w.graph, w.sigma);
    let w = disj::social_disj(&social, 2, 2, 25);
    let disj_social = (w.graph, w.sigma);
    let w = disj::kb_disj(&kb, 3, 27);
    let disj_kb = (w.graph, w.sigma);
    let w = redundant::redundant(60, 5);
    let sloppy = ["a", "b", "spam", "free", "gold"].map(Value::from);
    let sloppy = sloppy.into_iter().chain(ints(3)).collect();
    let mixed_pool = vec![0.into(), 1.into(), 20.into(), "free".into(), "pro".into()];
    let floats = vec![0.into(), 1.into(), 1.0.into(), 0.5.into(), 2.into()];
    // `0..n`, and at one part in eight a value beyond the range denial
    // that no small integer trips.
    let far = |n: i64, far: i64| vec![Value::from(far); n as usize / 8];
    let beyond = |n, at| ints(n).into_iter().chain(far(n, at)).collect();
    vec![
        ("wildcard GEDs", wild, keys(), ints(4)),
        ("GDC social", gdc_social, syms(&["age"]), beyond(30, 130)),
        (
            "GDC kb",
            gdc_kb,
            syms(&["price", "discount"]),
            beyond(120, -5),
        ),
        (
            "GED∨ social",
            disj_social,
            syms(&["tier", "is_fake", "suspended"]),
            ints(2),
        ),
        ("GED∨ kb", disj_kb, syms(&["visibility"]), ints(5)),
        (
            "mixed",
            mixed_with_redundancy(),
            syms(&["age", "tier", "verified", "is_fake"]),
            mixed_pool,
        ),
        ("pushdown", pushdown_workload(), keys(), floats),
        (
            "redundant",
            (w.graph, w.sigma),
            syms(&["status", "watch", "level", "kind", "tier"]),
            sloppy,
        ),
    ]
}

/// Every subject, on every family, from each seed.
fn matrix(seeds: std::ops::RangeInclusive<u64>, batches: usize) {
    for (name, (graph, sigma), attrs, pool) in families() {
        for seed in seeds.clone() {
            // A view nobody else reads has its buffers reclaimed, two
            // pollers pin them: both publish paths.
            let views = [view(0), view(2)];
            let [alone, polled] = views;
            let subjects = [validator(), alone, polled, wire(2), pruned()];
            let traffic = (seed, &attrs[..], &pool[..]);
            let fired = run((&graph, &sigma), traffic, (batches, 6), &subjects);
            let (fired, rules) = (fired.len(), sigma.len());
            println!("{name}, seed {seed}: {fired} of {rules} rules fired");
        }
    }
}

#[test]
fn every_subject_holds_on_every_family() {
    matrix(1..=1, 10);
}

#[test]
#[ignore = "release only: 8 seeds × 400 batches × every subject × every family"]
fn every_subject_holds_on_every_family_at_length() {
    matrix(1..=8, 400);
}

/// The read-set contract of `Rule::attrs_read` on every rule of every
/// family — GEDs, GDCs and GED∨s, each a `Rule` — at up to 40
/// matches per rule in the start graph: writing or deleting, on any
/// matched node, an attribute the rule does not name (the family's traffic
/// vocabulary, the node's own attributes, and one attribute no rule names)
/// never changes `check` at the match.
#[test]
fn writes_outside_a_rules_read_set_never_change_its_check() {
    use ged_repro::pattern::Matcher;
    use std::ops::ControlFlow;
    for (name, (mut graph, rules), attrs, pool) in families() {
        let values = pool.iter().take(3).cloned().map(Some).chain([None]);
        let values: Vec<Option<Value>> = values.collect();
        let mut writes = 0;
        for rule in &rules {
            let read = rule.attrs_read();
            let mut matches: Vec<Vec<NodeId>> = Vec::new();
            let matcher = Matcher::new(&rule.pattern, &graph, MatchOptions::homomorphism());
            matcher.for_each(|m| {
                matches.push(m.to_vec());
                match matches.len() < 40 {
                    true => ControlFlow::Continue(()),
                    false => ControlFlow::Break(()),
                }
            });
            for m in &matches {
                let verdict = rule.check(&graph, m);
                for &node in m {
                    let own = graph.attrs(node).iter().map(|&(a, _)| a);
                    let mut outside: Vec<Symbol> = own.chain(attrs.iter().copied()).collect();
                    outside.push(sym("unread"));
                    outside.retain(|a| !read.contains(a));
                    for &attr in &outside {
                        let old = graph.attr(node, attr).cloned();
                        for value in values.iter().chain([&old]) {
                            graph.apply_delta(&match value.clone() {
                                Some(value) => Delta::SetAttr { node, attr, value },
                                None => Delta::DelAttr { node, attr },
                            });
                            let now = rule.check(&graph, m);
                            assert_eq!(now, verdict, "{name}: {} at {m:?}, {attr}", rule.name);
                            writes += 1;
                        }
                    }
                }
            }
        }
        println!("{name}: {writes} writes outside {} read sets", rules.len());
        assert!(writes > 0, "{name}: nothing was written");
    }
}

/// The pruned twin beside the unpruned validator on streams — structural
/// deltas included — whose every fourth batch *repairs*: it removes one
/// node of each witness of a **kept** rule, nothing of a pruned rule's. So
/// all kept rules hold at a good share of the boundaries (≥ 10% asserted),
/// and there an implied rule's witnesses have to be gone by implication,
/// not by repair: the `pruned` subject's per-reason check is not vacuous.
#[test]
fn pruned_sigma_is_interchangeable_under_updates() {
    for (name, (graph, sigma), attrs, pool) in families() {
        if !["mixed", "redundant"].contains(&name) {
            continue;
        }
        let report = analyze(&sigma);
        let reasons: Vec<LintKind> = report.prunable.iter().map(|p| p.why).collect();
        let planted = [LintKind::DuplicateRule, LintKind::ImpliedRule];
        assert!(
            planted.iter().all(|why| reasons.contains(why)),
            "{name}: {reasons:?}"
        );
        let is_kept = |rule: &String| !report.prunable.iter().any(|p| p.name == *rule);
        let mut stream = DeltaStream::new(7, &attrs, &pool);
        let (mut batches, mut held) = (0..60, 0);
        let next = |oracle: &Oracle| {
            let broken = oracle.at.shown.0.keys().filter(|key| is_kept(&key.0));
            let repair = broken.map(|key| Delta::RemoveNode { node: key.1[0] });
            let repair: DeltaSet = repair.collect();
            held += usize::from(repair.is_empty());
            let mut drawn = || stream.batch(&oracle.mirror, 6);
            batches
                .next()
                .map(|n| if n % 4 == 3 { repair } else { drawn() })
        };
        let subjects = [validator(), pruned()];
        let run = try_run((&graph, &sigma), &subjects, 7, next);
        run.unwrap_or_else(|report| panic!("{report}"));
        println!("{name}: all kept rules held at {held} of 61 boundaries");
        assert!(
            held >= 7,
            "{name}: implication checked at {held} boundaries"
        );
    }
}

/// An `IncrementalValidator` that never hears of a `DelAttr` on `key`.
struct Withholding(IncrementalValidator);

impl Subject for Withholding {
    fn step(&mut self, batch: &DeltaSet, at: &Boundary) -> Result<(), String> {
        let heard = |d: &&Delta| !matches!(d, Delta::DelAttr { attr, .. } if *attr == sym("key"));
        let heard: DeltaSet = batch.deltas().iter().filter(heard).cloned().collect();
        self.0.apply_all(&heard);
        compare("withholding", &shown(&self.0.report()), &at.shown)
    }
}

/// Fine until the third batch.
struct Panicking;

impl Subject for Panicking {
    fn step(&mut self, _: &DeltaSet, at: &Boundary) -> Result<(), String> {
        assert!(at.batch < 3, "the subject fell over");
        Ok(())
    }
}

#[test]
fn a_planted_fault_is_caught_shrunk_and_replayed() {
    let (graph, sigma) = evolving_workload(90, 3, 2, 5);
    let sigma = served(sigma);
    let start = (&graph, &sigma[..]);
    let attrs = key_attrs();
    let traffic = |seed| {
        let (mut stream, mut batches) = (DeltaStream::new(seed, &attrs, &ints(4)), 0..40);
        move |oracle: &Oracle| batches.next().map(|_| stream.batch(&oracle.mirror, 8))
    };
    let faulty = recipe("withholding", |g, sigma| {
        Withholding(IncrementalValidator::new(g, sigma))
    });
    let subjects = [validator(), faulty];
    let report = try_run(start, &subjects, 3, traffic(3)).expect_err("the fault must show");
    println!("{report}");
    assert!(
        report.contains("seed 3") && report.contains("withholding"),
        "{report}"
    );
    // The printed frames are the wire's, few, and enough.
    let frames: Vec<&str> = report.lines().filter(|l| l.starts_with('{')).collect();
    let deltas = frames.iter().map(|line| match Request::from_line(line) {
        Some(Request::Apply(batch)) => batch.len(),
        other => panic!("not an `apply` frame: {line} ({other:?})"),
    });
    assert!((1..=5).contains(&deltas.sum::<usize>()), "{report}");
    let again = replay(start, &subjects[1], &frames.join("\n"));
    let (subject, batch, _) = again.expect_err("the reproducer reproduces");
    assert_eq!((subject.as_str(), batch), ("withholding", frames.len()));
    replay(start, &subjects[0], &frames.join("\n")).expect("a sound subject passes it");

    // A subject that panics is a divergence like any other.
    let subjects = [recipe("panicking", |_, _: Vec<Rule>| Panicking)];
    let report = try_run(start, &subjects, 4, traffic(4)).expect_err("it fell over");
    assert!(report.contains("batch 3, panicking"), "{report}");
    assert!(
        report.contains("panicked: the subject fell over"),
        "{report}"
    );
}

/// The traffic is verified, not guessed: over 10 000 draws every arm of
/// the generator's table and every `Delta` variant occurs at least 50
/// times.
#[test]
fn ten_thousand_draws_cover_every_arm_and_every_delta_variant() {
    let (mut graph, _) = evolving_workload(60, 3, 0, 3);
    let attrs = key_attrs();
    let mut stream = DeltaStream::new(1, &attrs, &ints(4));
    let mut variants = HashMap::new();
    for _ in 0..1250 {
        for delta in &stream.batch(&graph, 8) {
            *variants.entry(std::mem::discriminant(delta)).or_insert(0) += 1;
            graph.apply_delta(delta);
        }
    }
    let arm = |&arm| format!("{arm:?} {}", stream.drawn(arm));
    let mut arms: Vec<String> = TABLE.iter().map(arm).collect();
    arms.dedup();
    let arms = arms.join(", ");
    println!("arms: {arms}; deltas per variant: {variants:?}");
    assert!(TABLE.iter().all(|&arm| stream.drawn(arm) >= 50), "{arms:?}");
    assert!(
        variants.len() == 6 && variants.values().all(|&n| n >= 50),
        "{variants:?}"
    );
}
