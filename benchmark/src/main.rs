//! `gedbench` — the repo's benchmark.
//!
//! Spawns a real `gedd` child per repetition, drives it over TCP with a
//! seeded stationary update stream, checks every answer against a
//! from-scratch `validate`, and prints every metric by name with its unit.
//! `benchmark/README.md` explains the workloads, the metrics and how to
//! read the output; `benchmark/run.sh` builds both binaries and runs this.

mod child;
mod layers;
mod oracle;
mod run;
mod speed;
mod stats;
mod stream;
mod trace;
mod workloads;

use ged_proto::Json;
use run::{Opts, Rep, Start, Timed};
use stats::{median, percentile, quartiles, slice_rate_median};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Load, Workload, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str = "\
gedbench — drive a real gedd over TCP, verify every answer, print every metric

USAGE (through benchmark/run.sh, which builds and passes --gedd/--out/--bounds):
    run.sh [--workload NAME] [--seed N] [--seconds S] [--reps R] [--trace 0|1]
           [--smoke] [--aa] [--corrupt-oracle]

    --workload NAME   ingest-small | ingest-bulk | match-heavy | poll-under-writes
                      (default: all four, untraced then traced)
    --seed N          seed of the start graph and the update stream (default 1)
    --seconds S       seconds one workload measures, split over the repetitions (default 20)
    --reps R          repetitions, each on a fresh gedd; medians are reported (default 5)
    --trace 0|1       1: the traced run (one repetition, fixed op counts, per-layer metrics)
    --smoke           1 repetition of 0.5 s per workload; same code paths, oracle on
    --aa              two untraced sets of the same binary, three interleaved runs each,
                      their medians compared against the bounds
    --corrupt-oracle  drop one expected witness: the run must fail
";

/// Equal parts of the window behind `deltas_per_s` / `reports_per_s`.
const SLICES: usize = 20;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    reps: usize,
    trace: Option<bool>,
    aa: bool,
    corrupt_oracle: bool,
    gedd: PathBuf,
    out: PathBuf,
    bounds: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        reps: 5,
        trace: None,
        aa: false,
        corrupt_oracle: false,
        gedd: PathBuf::new(),
        out: PathBuf::from("benchmark/out"),
        bounds: PathBuf::from("BENCHMARK.json"),
    };
    let mut smoke = false;
    let mut sized = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag} {v}: not a number"))
        };
        match flag.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = number(value()?)? as u64,
            "--seconds" => (a.seconds, sized) = (number(value()?)?, true),
            "--reps" => (a.reps, sized) = (number(value()?)? as usize, true),
            "--trace" => a.trace = Some(number(value()?)? != 0.0),
            "--smoke" => smoke = true,
            "--aa" => a.aa = true,
            "--corrupt-oracle" => a.corrupt_oracle = true,
            "--gedd" => a.gedd = value()?.into(),
            "--out" => a.out = value()?.into(),
            "--bounds" => a.bounds = value()?.into(),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if smoke && !sized {
        (a.seconds, a.reps) = (0.5, 1);
    }
    if a.gedd.as_os_str().is_empty() {
        return Err("--gedd PATH is required (benchmark/run.sh passes it)".to_string());
    }
    if a.reps == 0 || a.seconds <= 0.0 {
        return Err("--reps and --seconds must be positive".to_string());
    }
    if let Some(name) = &a.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            return Err(format!("unknown workload {name:?}"));
        }
    }
    Ok(a)
}

/// A closed loop's rate at the reference speed: of every cycle the think
/// time stays as it is and the rest, the service time, is divided by the
/// slowdown. Without think time that is the rate times the slowdown.
fn rate_at_reference(per_s: f64, think_s: f64, slowdown: f64) -> f64 {
    let service_s = (1.0 / per_s - think_s).max(0.0);
    1.0 / (think_s + service_s / slowdown)
}

/// The end-to-end metrics of one repetition, in [`END_TO_END`] order, at
/// the reference speed (see `speed.rs`): service times are divided by the
/// slowdown the host showed in the same window, closed-loop rates follow
/// from their service times. Two metrics of `poll-under-writes` stay as
/// measured: `deltas_per_s` is the writer's schedule, and `gedd`'s CPU time
/// there, spread by the scheduler over two vCPUs beside two spinning
/// generator threads, did not follow the kernel (as measured it spread
/// 5.4–5.7% over ten runs, divided by the slowdown 11.8%).
fn end_to_end(w: &Workload, rep: &Rep) -> [f64; 6] {
    let report_p50_us = percentile(&rep.reports.sorted_ns(), 50.0) as f64 / 1e3;
    let deltas: u64 = rep.applies.samples.iter().map(|s| s.units).sum();
    let rate = |t: &Timed| slice_rate_median(&t.events(), t.window_ns, SLICES);
    let (applies, reports) = (&rep.applies, &rep.reports);
    let cpu_us_per_delta = rep.cpu_us / deltas as f64;
    let (deltas_per_s, reports_per_s, cpu_us_per_delta) = match w.load {
        Load::ClosedLoop { .. } => (
            rate_at_reference(rate(applies), 0.0, applies.slowdown),
            rate_at_reference(rate(reports), 0.0, reports.slowdown),
            cpu_us_per_delta / applies.slowdown,
        ),
        Load::PollUnderWrites { think, .. } => (
            rate(applies),
            rate_at_reference(rate(reports), think.as_secs_f64(), reports.slowdown),
            cpu_us_per_delta,
        ),
    };
    [
        rep.setup_s / rep.setup_slowdown,
        deltas_per_s,
        report_p50_us / reports.slowdown,
        reports_per_s,
        cpu_us_per_delta,
        rep.peak_rss_mb,
    ]
}

/// What one run of one workload produced.
struct Outcome {
    workload: &'static str,
    pinned: bool,
    /// Per end-to-end metric, one value per repetition (untraced run).
    reps: Vec<Vec<f64>>,
    /// Per repetition, the host's slowdown around set-up, over the apply
    /// window and over the report window.
    slowdowns: Vec<[f64; 3]>,
    /// `(applies, reports)` samples behind the first repetition's percentiles.
    samples: (usize, usize),
    /// Per-layer metrics (traced run).
    layers: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    correct: bool,
    errors: Vec<String>,
}

impl Outcome {
    fn medians(&self) -> Vec<f64> {
        self.reps.iter().map(|v| median(v)).collect()
    }
}

/// CPUs this process may use, read once before any pinning narrows it.
fn cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn run_workload(w: &Workload, a: &Args, traced: bool) -> Result<Outcome, String> {
    let cpus = if w.pinned() {
        "0".to_string()
    } else {
        format!("0-{}", cores() - 1)
    };
    let pinned = child::pin_self(&cpus) && w.pinned();
    let start = Start::load(w, a.seed)?;
    // The repetitions run on a fresh thread (which inherits the pinning):
    // its malloc arena is not the one `load` just fragmented. On the main
    // thread, encoding or parsing a 512-delta frame took 2–3× as long as
    // it does on `gedd`'s own handler threads, which is what the replay
    // is meant to show — and the generator's share of a run grew with it.
    std::thread::scope(|s| {
        let worker = s.spawn(|| repetitions(w, a, traced, &start, pinned));
        worker.join().expect("repetitions panicked")
    })
}

fn repetitions(
    w: &Workload,
    a: &Args,
    traced: bool,
    start: &Start,
    pinned: bool,
) -> Result<Outcome, String> {
    let opts = Opts {
        gedd: a.gedd.clone(),
        seed: a.seed,
        window_s: a.seconds / a.reps as f64,
        traced,
        corrupt_oracle: a.corrupt_oracle,
    };
    let mut out = Outcome {
        workload: w.name,
        pinned,
        reps: vec![Vec::new(); END_TO_END.len()],
        slowdowns: Vec::new(),
        samples: (0, 0),
        layers: Vec::new(),
        attempted: 0,
        failed: 0,
        correct: true,
        errors: Vec::new(),
    };
    for i in 0..if traced { 1 } else { a.reps } {
        let mut rep = run::repetition(w, start, &opts)?;
        out.attempted += rep.tally.attempted;
        out.failed += rep.tally.failed;
        out.correct &= rep.correct;
        out.errors.append(&mut rep.tally.errors);
        if rep.applies.samples.is_empty() || rep.reports.samples.is_empty() {
            return Err(format!("{}: a window saw no successful operation", w.name));
        }
        if traced {
            out.layers = layers::per_layer(w, start, &mut rep, a.seed, &a.out)?;
        } else {
            for (values, v) in out.reps.iter_mut().zip(end_to_end(w, &rep)) {
                values.push(v);
            }
            out.slowdowns.push([
                rep.setup_slowdown,
                rep.applies.slowdown,
                rep.reports.slowdown,
            ]);
        }
        if i == 0 {
            out.samples = (rep.applies.samples.len(), rep.reports.samples.len());
        }
    }
    Ok(out)
}

fn print_outcome(o: &Outcome, a: &Args) {
    println!(
        "\n== {} (seed {}, host_cores {}, pinned {}) ==",
        o.workload,
        a.seed,
        cores(),
        o.pinned
    );
    if !o.reps[0].is_empty() {
        println!(
            "   {} repetitions; first one: {} applies, {} reports behind its percentiles",
            o.reps[0].len(),
            o.samples.0,
            o.samples.1
        );
        for ((name, unit), values) in END_TO_END.iter().zip(&o.reps) {
            let each: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "   {name:<24} {:>14.4} {unit:<5} [{}]",
                median(values),
                each.join(" ")
            );
        }
        for (i, window) in ["set-up", "applies", "reports"].iter().enumerate() {
            let each: Vec<String> = o.slowdowns.iter().map(|s| format!("{:.3}", s[i])).collect();
            println!("   host slowdown, {window:<9} [{}]", each.join(" "));
        }
    }
    for (name, value) in &o.layers {
        let unit = PER_LAYER.iter().find(|m| m.0 == *name).map_or("", |m| m.1);
        println!("   {name:<40} {value:>16.4} {unit}");
    }
    if let Some(share) = o.layers.iter().find(|m| m.0 == "daemon.unexplained_share") {
        if share.1.abs() > 0.10 {
            println!(
                "   FINDING: {:.0}% of client.rtt_p50_us is explained by no traced layer",
                share.1 * 100.0
            );
        }
    }
    println!(
        "   operations attempted {}, failed {}, error_rate {}, correct {}",
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64,
        o.correct
    );
    for e in &o.errors {
        println!("   ERROR {e}");
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj(vec![
        ("value", Json::Float(value)),
        ("unit", Json::from(unit)),
    ])
}

/// The line the acceptance driver reads: the last line of standard output.
fn driver_line(o: &Outcome) -> Json {
    let metrics: Vec<(String, Json)> = if o.layers.is_empty() {
        let medians = o.medians();
        let named = END_TO_END.iter().zip(medians);
        named
            .map(|((n, u), v)| (n.to_string(), metric_json(v, u)))
            .collect()
    } else {
        let named = PER_LAYER.iter().zip(&o.layers);
        named
            .map(|((n, u), (_, v))| (n.to_string(), metric_json(*v, u)))
            .collect()
    };
    Json::obj(vec![
        ("correct", Json::Bool(o.correct && o.failed == 0)),
        ("attempted", Json::from(o.attempted)),
        ("failed", Json::from(o.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn git_sha() -> String {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output();
    out.ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

/// `results.json`: everything printed, with quartiles and sample counts.
fn results_json(outcomes: &[Outcome], a: &Args) -> Json {
    let floats = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Float(*x)).collect());
    let mut workloads: Vec<(String, Json)> = Vec::new();
    for w in &WORKLOADS {
        let mut fields: Vec<(&str, Json)> = Vec::new();
        for o in outcomes.iter().filter(|o| o.workload == w.name) {
            fields.push(("pinned", Json::Bool(o.pinned)));
            if o.layers.is_empty() {
                let metrics = END_TO_END
                    .iter()
                    .zip(&o.reps)
                    .map(|((name, unit), values)| {
                        let mut m = vec![
                            ("median", Json::Float(median(values))),
                            ("unit", Json::from(*unit)),
                            ("reps", floats(values)),
                        ];
                        if values.len() >= 2 {
                            let (q1, q3) = quartiles(values);
                            m.push(("q1", Json::Float(q1)));
                            m.push(("q3", Json::Float(q3)));
                        }
                        (name.to_string(), Json::obj(m))
                    });
                fields.push(("end_to_end", Json::Obj(metrics.collect())));
                let slowdowns = o.slowdowns.iter().map(|s| floats(s));
                fields.push(("host_slowdown", Json::Arr(slowdowns.collect())));
                fields.push(("apply_samples", Json::from(o.samples.0)));
                fields.push(("report_samples", Json::from(o.samples.1)));
            } else {
                let metrics = PER_LAYER.iter().zip(&o.layers);
                let metrics = metrics.map(|((n, u), (_, v))| (n.to_string(), metric_json(*v, u)));
                fields.push(("per_layer", Json::Obj(metrics.collect())));
            }
            fields.push(("attempted", Json::from(o.attempted)));
            fields.push(("failed", Json::from(o.failed)));
            fields.push(("correct", Json::Bool(o.correct)));
        }
        if !fields.is_empty() {
            workloads.push((w.name.to_string(), Json::obj(fields)));
        }
    }
    Json::obj(vec![
        ("seed", Json::from(a.seed)),
        ("reps", Json::from(a.reps)),
        ("seconds", Json::Float(a.seconds)),
        ("host_cores", Json::from(cores())),
        ("git_sha", Json::from(git_sha())),
        ("workloads", Json::Obj(workloads)),
    ])
}

/// `(name, better, bound)` of every end-to-end metric, from `BENCHMARK.json`.
fn read_bounds(a: &Args) -> Result<Vec<(String, bool, f64)>, String> {
    let text =
        std::fs::read_to_string(&a.bounds).map_err(|e| format!("{}: {e}", a.bounds.display()))?;
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;
    let metrics = doc
        .get_arr("end_to_end")
        .ok_or("BENCHMARK.json needs `end_to_end`")?;
    metrics
        .iter()
        .map(|m| {
            Some((
                m.get_str("name")?.to_string(),
                m.get_str("better")? == "higher",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json: an end_to_end metric lacks name, better or bound".to_string())
}

/// Interleaved runs a pair makes of each set.
const AA_PAIRS: usize = 3;

/// A/A: two sets of the same binary, run alternately (A B A B A B) so that
/// both see the same minutes of this host; per workload × metric the median
/// over each set's runs, their relative difference and the bound. Fails on
/// any excess. (One run against one run is a lottery here: a noisy minute
/// moves the CPU time of identical work by 25% and more.)
fn aa(selected: &[&Workload], a: &Args) -> Result<bool, String> {
    let bounds = read_bounds(a)?;
    let mut ok = true;
    // sets[set][workload][metric] = one value per run
    let mut sets = vec![vec![vec![Vec::new(); END_TO_END.len()]; selected.len()]; 2];
    for pair in 0..AA_PAIRS {
        for (set, name) in ["A", "B"].iter().enumerate() {
            for (wi, w) in selected.iter().enumerate() {
                eprintln!(
                    "gedbench: pair {}/{AA_PAIRS}, set {name}, {}",
                    pair + 1,
                    w.name
                );
                let o = run_workload(w, a, false)?;
                ok &= o.correct && o.failed == 0;
                for (values, v) in sets[set][wi].iter_mut().zip(o.medians()) {
                    values.push(v);
                }
            }
        }
    }
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    for (wi, w) in selected.iter().enumerate() {
        for (mi, (name, _)) in END_TO_END.iter().enumerate() {
            let bound = bounds
                .iter()
                .find(|b| b.0 == *name)
                .ok_or(format!("no bound for {name}"))?
                .2;
            let (va, vb) = (median(&sets[0][wi][mi]), median(&sets[1][wi][mi]));
            let diff = (vb - va) / va;
            let verdict = if diff.abs() > bound {
                ok = false;
                "FAIL"
            } else {
                ""
            };
            println!(
                "{:<18} {name:<22} {va:>14.4} {vb:>14.4} {:>7.2}% {:>5.0}% {verdict}",
                w.name,
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

fn real_main() -> Result<bool, String> {
    let a = parse_args()?;
    cores();
    let selected: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| a.workload.as_deref().is_none_or(|n| n == w.name))
        .collect();
    if a.aa {
        return aa(&selected, &a);
    }
    // One workload with `--trace` is what the acceptance driver runs; with
    // neither, everything: untraced medians, then the traced run.
    let modes: &[bool] = match (a.trace, &a.workload) {
        (Some(t), _) => &[t],
        (None, Some(_)) => &[false],
        (None, None) => &[false, true],
    };
    let mut outcomes = Vec::new();
    for w in &selected {
        for &traced in modes {
            let o = run_workload(w, &a, traced)?;
            print_outcome(&o, &a);
            outcomes.push(o);
        }
    }
    std::fs::create_dir_all(&a.out).map_err(|e| e.to_string())?;
    let path = a.out.join("results.json");
    std::fs::write(&path, format!("{}\n", results_json(&outcomes, &a)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let ok = outcomes.iter().all(|o| o.correct && o.failed == 0);
    match outcomes.as_slice() {
        [only] => println!("{}", driver_line(only)),
        all => {
            let attempted: u64 = all.iter().map(|o| o.attempted).sum();
            let failed: u64 = all.iter().map(|o| o.failed).sum();
            println!(
                "\nresults: {}; attempted {attempted}, failed {failed}, correct {ok}",
                path.display()
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("gedbench: FAILED (wrong answer, failed operation, or A/A outside bounds)");
            ExitCode::FAILURE
        }
        Err(message) if message.is_empty() => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("gedbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rate_at_reference;

    #[test]
    fn only_the_service_part_of_a_cycle_scales() {
        // No think time: twice as slow a host, twice the rate at the reference.
        assert_eq!(rate_at_reference(100.0, 0.0, 2.0), 200.0);
        // 10 ms cycles of 5 ms think + 5 ms service → 5 + 2.5 ms.
        let at = rate_at_reference(100.0, 0.005, 2.0);
        assert!((at - 1.0 / 0.0075).abs() < 1e-9, "{at}");
        // An undisturbed host changes nothing.
        assert!((rate_at_reference(123.0, 0.005, 1.0) - 123.0).abs() < 1e-9);
    }
}
