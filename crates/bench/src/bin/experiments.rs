//! The experiments harness: regenerates every table/figure of the paper
//! as text rows (the per-experiment index lives in DESIGN.md §3).
//!
//! Run with `cargo run -p ged-bench --release --bin experiments`.
//! Any arguments act as section filters matched as substrings of the
//! experiment ids (`-- EXP-T1` runs the five Table 1 sections, `--
//! EXP-ANALYZE EXP-DAEMON` those two); a filter that matches no id is an
//! error, not an empty run. The two systems sections gedbench does not
//! cover yet (EXP-ANALYZE, EXP-DAEMON) write their rows to
//! `BENCH_INC.json`.

use ged_bench::{attr_burst, chain_implication, timed, timed_median, us, validation_workload};
use ged_core::axiom::completeness::prove;
use ged_core::axiom::derived::{prove_augmentation, prove_transitivity};
use ged_core::chase::{chase, chase_random, ChaseResult};
use ged_core::ged::Ged;
use ged_core::literal::Literal;
use ged_core::reason::{implies, is_satisfiable, validate};
use ged_core::rule::Rule;
use ged_datagen::coloring::{
    implication_gfdx, implication_gkey, is_3_colorable, satisfiability_gfd, satisfiability_gkey,
    validation_gfdx, validation_gkey, ColoringInstance,
};
use ged_datagen::kb::{generate as gen_kb, KbConfig};
use ged_datagen::music::{generate as gen_music, MusicConfig};
use ged_datagen::random::evolving_workload;
use ged_datagen::rules;
use ged_datagen::social::{generate as gen_social, spam_cascade, SocialConfig};
use ged_ext::domain::{domain_as_disj, domain_as_gdcs};
use ged_ext::reason::ext_satisfiable;
use ged_graph::{sym, Value};
use ged_pattern::{fragments, parse_pattern, Var};

fn header(id: &str, title: &str) {
    println!();
    println!("== {id} — {title}");
    println!("{}", "-".repeat(72));
}

/// One harness section: its experiment id and the function that runs it.
type Section = (&'static str, fn());

const SECTIONS: &[Section] = &[
    ("EXP-T1-SAT", exp_t1_sat),
    ("EXP-T1-IMP", exp_t1_imp),
    ("EXP-T1-VAL", exp_t1_val),
    ("EXP-T1-FRONTIER", exp_t1_frontier),
    ("EXP-T1-EXT", exp_t1_ext),
    ("EXP-THM1", exp_thm1),
    ("EXP-FIG2", exp_fig2),
    ("EXP-FIG3", exp_fig3),
    ("EXP-FIG4", exp_fig4),
    ("EXP-TAB2", exp_tab2),
    ("EXP-EX1", exp_ex1_3),
    ("EXP-EX9", exp_ex9_10),
    ("EXP-ABL", exp_abl_match),
    ("EXP-ANALYZE", exp_analyze),
    ("EXP-DAEMON", exp_daemon),
];

/// The sections `filters` select, in table order: all of them when there
/// is no filter, else those whose id contains at least one. `Err` carries
/// the filters no id contains — a stale filter must fail the run rather
/// than let it go green having measured nothing.
fn select<S: AsRef<str>>(filters: &[S]) -> Result<Vec<&'static Section>, Vec<&str>> {
    let stale: Vec<&str> = filters
        .iter()
        .map(S::as_ref)
        .filter(|f| !SECTIONS.iter().any(|(id, _)| id.contains(f)))
        .collect();
    if !stale.is_empty() {
        return Err(stale);
    }
    Ok(SECTIONS
        .iter()
        .filter(|(id, _)| filters.is_empty() || filters.iter().any(|f| id.contains(f.as_ref())))
        .collect())
}

fn main() -> std::process::ExitCode {
    let filters: Vec<String> = std::env::args().skip(1).collect();
    let selected = match select(&filters) {
        Ok(selected) => selected,
        Err(stale) => {
            let ids: Vec<&str> = SECTIONS.iter().map(|(id, _)| *id).collect();
            eprintln!("experiments: no section id contains {stale:?}; the ids are {ids:?}");
            return std::process::ExitCode::from(2);
        }
    };
    println!("GED reproduction — experiments harness");
    println!("Paper: Dependencies for Graphs (Fan & Lu, PODS 2017)");
    for (id, run) in &selected {
        let t0 = std::time::Instant::now();
        run();
        println!("[{id} completed in {:.2?}]", t0.elapsed());
    }

    write_bench_inc_json();

    println!();
    if selected.len() == SECTIONS.len() {
        println!("All experiment sections completed.");
    } else {
        let n = selected.len();
        println!("{n} experiment section(s) matched {filters:?}.");
    }
    std::process::ExitCode::SUCCESS
}

/// Instances used across the Table 1 hardness rows.
fn coloring_suite() -> Vec<(String, ColoringInstance)> {
    let mut v = vec![
        ("K3".to_string(), ColoringInstance::complete(3)),
        ("K4".to_string(), ColoringInstance::complete(4)),
        ("C4".to_string(), ColoringInstance::cycle(4)),
        ("C5".to_string(), ColoringInstance::cycle(5)),
        ("C6".to_string(), ColoringInstance::cycle(6)),
    ];
    for seed in 0..2 {
        v.push((
            format!("rand5+{seed}"),
            ColoringInstance::random(5, 4, seed),
        ));
    }
    v
}

fn exp_t1_sat() {
    header(
        "EXP-T1-SAT",
        "Table 1, satisfiability: coNP-c (GED/GFD/GKey/GEDx), O(1) (GFDx)",
    );
    println!(
        "{:<10} {:>6} | {:>9} {:>12} | {:>9} {:>12}",
        "instance", "3col?", "GFD sat?", "GFD µs", "GKey sat?", "GKey µs"
    );
    for (name, inst) in coloring_suite() {
        let colorable = is_3_colorable(&inst);
        let sigma_gfd = satisfiability_gfd(&inst);
        let (sat_gfd, d_gfd) = timed(|| is_satisfiable(&sigma_gfd));
        let sigma_gkey = satisfiability_gkey(&inst);
        let (sat_gkey, d_gkey) = timed(|| is_satisfiable(&sigma_gkey));
        assert_eq!(sat_gfd, !colorable, "GFD reduction must match the oracle");
        assert_eq!(sat_gkey, !colorable, "GKey reduction must match the oracle");
        println!(
            "{:<10} {:>6} | {:>9} {:>12} | {:>9} {:>12}",
            name,
            colorable,
            sat_gfd,
            us(d_gfd),
            sat_gkey,
            us(d_gkey)
        );
    }
    println!("(satisfiable ⟺ NOT 3-colorable on every row — the Theorem 3 reduction)");
    // GFDx O(1): decision time independent of |Σ|.
    let q = || parse_pattern("t(x); t(y)").unwrap();
    for count in [4usize, 64, 1024] {
        let sigma: Vec<Ged> = (0..count)
            .map(|i| {
                Ged::new(
                    format!("g{i}"),
                    q(),
                    vec![Literal::vars(Var(0), sym("A"), Var(1), sym("A"))],
                    vec![Literal::vars(Var(0), sym("B"), Var(1), sym("B"))],
                )
            })
            .collect();
        let (t, d) = timed(|| ged_core::reason::is_trivially_satisfiable(&sigma));
        println!(
            "GFDx set |Σ|={count:>5}: trivially satisfiable = {t:?} in {} µs",
            us(d)
        );
    }
}

fn exp_t1_imp() {
    header(
        "EXP-T1-IMP",
        "Table 1, implication: NP-c for all five classes",
    );
    println!(
        "{:<10} {:>6} | {:>10} {:>12} | {:>10} {:>12}",
        "instance", "3col?", "GFDx ⊨?", "GFDx µs", "GKey ⊨?", "GKey µs"
    );
    for (name, inst) in coloring_suite() {
        let colorable = is_3_colorable(&inst);
        let (s1, g1) = implication_gfdx(&inst);
        let (i1, d1) = timed(|| implies(&s1, &g1));
        let (s2, g2) = implication_gkey(&inst);
        let (i2, d2) = timed(|| implies(&s2, &g2));
        assert_eq!(i1, colorable);
        assert_eq!(i2, colorable);
        println!(
            "{:<10} {:>6} | {:>10} {:>12} | {:>10} {:>12}",
            name,
            colorable,
            i1,
            us(d1),
            i2,
            us(d2)
        );
    }
    println!("(Σ ⊨ ϕ ⟺ 3-colorable on every row — the Theorem 5 reduction)");
    println!("\nchain implication (chase cost vs |Σ|):");
    for len in [4usize, 8, 16, 32] {
        let (sigma, goal) = chain_implication(len);
        let (holds, d) = timed_median(3, || implies(&sigma, &goal));
        assert!(holds);
        println!("  |Σ| = {len:>3}: {} µs", us(d));
    }
}

fn exp_t1_val() {
    header(
        "EXP-T1-VAL",
        "Table 1, validation: coNP-c; polynomial in |G| at fixed k",
    );
    println!("hardness instances (single GFDx / single GKey on K3):");
    for (name, inst) in coloring_suite() {
        let colorable = is_3_colorable(&inst);
        let (g1, phi) = validation_gfdx(&inst);
        let phi = [Rule::from(phi)];
        let (v1, d1) = timed(|| validate(&g1, &phi, Some(1)).satisfied());
        let (g2, psi) = validation_gkey(&inst);
        let psi = [Rule::from(psi)];
        let (v2, d2) = timed(|| validate(&g2, &psi, Some(1)).satisfied());
        assert_eq!(v1, !colorable);
        assert_eq!(v2, !colorable);
        println!(
            "  {:<10} 3col={:<5} GFDx: K3⊨φ={:<5} ({:>9} µs)   GKey: K3⊨ψ={:<5} ({:>9} µs)",
            name,
            colorable,
            v1,
            us(d1),
            v2,
            us(d2)
        );
    }
    println!("\nscaling in |G| (pattern size 3, planted violations):");
    for n in [100usize, 200, 400, 800] {
        let w = validation_workload(n, 3, 2, 7);
        let (sat, d) = timed_median(3, || validate(&w.graph, &w.sigma, Some(1)).satisfied());
        println!("  |V| = {n:>4}: satisfied={sat}  {} µs", us(d));
    }
}

fn exp_t1_frontier() {
    header(
        "EXP-T1-FRONTIER",
        "Section 5.3: bounded pattern size ⇒ PTIME; growth in k is exponential",
    );
    println!("validation time, |G| fixed at 200 nodes, pattern size k varies:");
    for k in [2usize, 3, 4, 5] {
        let w = validation_workload(200, k, 3, 13);
        let (_, d) = timed_median(3, || validate(&w.graph, &w.sigma, Some(1)).satisfied());
        println!("  k = {k}: {} µs", us(d));
    }
    println!("\nvalidation time, k fixed at 3, |G| varies (polynomial growth):");
    for n in [100usize, 200, 400, 800] {
        let w = validation_workload(n, 3, 3, 13);
        let (_, d) = timed_median(3, || validate(&w.graph, &w.sigma, Some(1)).satisfied());
        println!("  |V| = {n:>4}: {} µs", us(d));
    }
}

fn exp_t1_ext() {
    header(
        "EXP-T1-EXT",
        "Table 1, GDC/GED∨ rows: Σp2/Πp2 reasoning, coNP validation",
    );
    let dom = [Value::from(0), Value::from(1)];
    let (phi1, phi2) = domain_as_gdcs("τ", "A", &dom);
    let (sat, d) = timed(|| ext_satisfiable(&[phi1.clone(), phi2.clone()]));
    println!("Example 9 GDC pair satisfiable: {sat} ({} µs)", us(d));
    let psi = domain_as_disj("τ", "A", &dom);
    let (sat, d) = timed(|| ext_satisfiable(std::slice::from_ref(&psi)));
    println!("Example 10 GED∨ satisfiable:    {sat} ({} µs)", us(d));
    // The Σp2 cost gap: GED satisfiability (chase, coNP) vs GDC bounded
    // search on the *same* equality-only constraints.
    println!("\nequality-only instances — chase (GED) vs bounded search (GDC):");
    for n in [1usize, 2] {
        let inst = ColoringInstance::cycle(n + 2);
        let sigma = satisfiability_gfd(&inst);
        let (_, d_ged) = timed(|| is_satisfiable(&sigma));
        let gdcs: Vec<Rule> = sigma.iter().cloned().map(Rule::from).collect();
        let (_, d_gdc) = timed(|| ext_satisfiable(&gdcs));
        println!(
            "  C{}: GED chase {} µs   GDC search {} µs   (gap ×{:.1})",
            n + 2,
            us(d_ged),
            us(d_gdc),
            d_gdc.as_secs_f64() / d_ged.as_secs_f64().max(1e-9)
        );
    }
    println!("\nvalidation (coNP for both — a GED and its GDC lift are one `Rule`):");
    let (graph, geds) = evolving_workload(200, 3, 2, 7);
    let sigma: Vec<Rule> = geds.iter().cloned().map(Rule::from).collect();
    let (_, d) = timed_median(3, || validate(&graph, &sigma, Some(1)).satisfied());
    println!("  |V|=200: {} µs", us(d));
}

fn exp_thm1() {
    header(
        "EXP-THM1",
        "Theorem 1: chase finiteness, bounds, Church–Rosser",
    );
    println!(
        "{:<18} {:>6} {:>7} {:>10} {:>10} {:>8}",
        "workload", "steps", "bound", "|Eq|", "|Eq| bnd", "CR ok?"
    );
    for dupes in [2usize, 5, 10, 20] {
        let inst = gen_music(&MusicConfig {
            n_clean: 15,
            n_dupes: dupes,
            seed: 1,
        });
        let keys = rules::music_keys();
        let result = chase(&inst.graph, &keys);
        let stats = result.stats().clone();
        assert!(stats.within_bounds());
        // Church–Rosser: five random schedules agree with the
        // deterministic one.
        let reference = result.comparison_key();
        let cr_ok = (1..=5)
            .all(|seed| chase_random(&inst.graph, &keys, seed).comparison_key() == reference);
        println!(
            "{:<18} {:>6} {:>7} {:>10} {:>10} {:>8}",
            format!("music d={dupes}"),
            stats.steps,
            stats.length_bound,
            stats.eq_size,
            stats.eq_size_bound,
            cr_ok
        );
        assert!(cr_ok);
    }
}

fn exp_fig2() {
    header(
        "EXP-FIG2",
        "Figure 2 / Example 4: chase sequences, valid and invalid",
    );
    let (g, [v1, v2, v1p, v2p]) = fragments::fig2_graph();
    let phi1 = {
        let q = fragments::fig2_q1();
        Ged::new(
            "φ1",
            q,
            vec![Literal::vars(Var(0), sym("A"), Var(1), sym("A"))],
            vec![Literal::id(Var(0), Var(1))],
        )
    };
    let phi2 = {
        let q = fragments::fig2_q2();
        Ged::new("φ2", q, vec![], vec![Literal::id(Var(1), Var(2))])
    };
    match chase(&g, std::slice::from_ref(&phi1)) {
        ChaseResult::Consistent { eq, coercion, .. } => {
            println!(
                "Σ1 = {{φ1}}: valid; v1,v2 merged = {}; v1',v2' distinct = {}; |G1| = {} nodes",
                eq.node_eq(v1, v2),
                !eq.node_eq(v1p, v2p),
                coercion.graph.node_count()
            );
        }
        ChaseResult::Inconsistent { .. } => unreachable!("paper: Σ1 chase is valid"),
    }
    match chase(&g, &[phi1, phi2]) {
        ChaseResult::Inconsistent { conflict, .. } => {
            println!("Σ2 = {{φ1, φ2}}: invalid (⊥), conflict: {conflict}");
        }
        ChaseResult::Consistent { .. } => unreachable!("paper: Σ2 chase is invalid"),
    }
}

fn exp_fig3() {
    header(
        "EXP-FIG3",
        "Figure 3 / Examples 5–6: satisfiability interaction",
    );
    let phi1 = Ged::new(
        "φ1",
        fragments::fig3_q1(),
        vec![Literal::vars(Var(0), sym("A"), Var(0), sym("B"))],
        vec![Literal::id(Var(1), Var(2))],
    );
    let q2 = fragments::fig3_q2();
    let x1 = q2.var_by_name("x1").unwrap();
    let phi2 = Ged::new(
        "φ2",
        q2,
        vec![],
        vec![Literal::vars(x1, sym("A"), x1, sym("B"))],
    );
    let q2p = fragments::fig3_q2_prime();
    let x1p = q2p.var_by_name("x1").unwrap();
    let phi2p = Ged::new(
        "φ2'",
        q2p,
        vec![],
        vec![Literal::vars(x1p, sym("A"), x1p, sym("B"))],
    );
    println!(
        "φ1 alone satisfiable:        {}",
        is_satisfiable(std::slice::from_ref(&phi1))
    );
    println!(
        "φ2 alone satisfiable:        {}",
        is_satisfiable(std::slice::from_ref(&phi2))
    );
    println!(
        "Σ1 = {{φ1, φ2}} satisfiable:  {} (paper: no)",
        is_satisfiable(&[phi1.clone(), phi2])
    );
    println!(
        "Σ2 = {{φ1, φ2'}} satisfiable: {} (paper: no, despite non-homomorphic patterns)",
        is_satisfiable(&[phi1, phi2p])
    );
    // The UoE GKey and the homomorphism-vs-isomorphism point.
    let uoe = Ged::new(
        "ϕ_UoE",
        fragments::uoe_pattern(),
        vec![],
        vec![Literal::id(Var(0), Var(1))],
    );
    println!(
        "UoE GKey satisfiable under homomorphism: {} (model = one UoE node)",
        is_satisfiable(std::slice::from_ref(&uoe))
    );
    let single = {
        let mut g = ged_graph::Graph::new();
        g.add_node(sym("UoE"));
        g
    };
    println!(
        "  matches of the UoE pattern in that model: homo = {}, iso = {} (iso finds none → vacuous)",
        ged_pattern::count(
            &fragments::uoe_pattern(),
            &single,
            ged_pattern::MatchOptions::homomorphism()
        ),
        ged_pattern::count(
            &fragments::uoe_pattern(),
            &single,
            ged_pattern::MatchOptions::isomorphism()
        ),
    );
}

fn exp_fig4() {
    header(
        "EXP-FIG4",
        "Figure 4 / Example 7: implication with wildcard coercion",
    );
    let phi1 = Ged::new(
        "φ1",
        fragments::fig4_q1(),
        vec![Literal::vars(Var(0), sym("A"), Var(1), sym("A"))],
        vec![Literal::id(Var(0), Var(1))],
    );
    let phi2 = Ged::new(
        "φ2",
        fragments::fig4_q2(),
        vec![Literal::vars(Var(0), sym("B"), Var(1), sym("B"))],
        vec![Literal::vars(Var(0), sym("A"), Var(0), sym("B"))],
    );
    let phi = Ged::new(
        "ϕ",
        fragments::fig4_q(),
        vec![
            Literal::vars(Var(0), sym("A"), Var(2), sym("A")),
            Literal::vars(Var(1), sym("B"), Var(3), sym("B")),
        ],
        vec![Literal::id(Var(0), Var(2)), Literal::id(Var(1), Var(3))],
    );
    let sigma = vec![phi1, phi2];
    println!("Σ ⊨ ϕ: {} (paper: yes)", implies(&sigma, &phi));
    println!(
        "Σ\\{{φ1}} ⊨ ϕ: {} / Σ\\{{φ2}} ⊨ ϕ: {} (each alone insufficient)",
        implies(&sigma[1..], &phi),
        implies(&sigma[..1], &phi)
    );
}

fn exp_tab2() {
    header("EXP-TAB2", "Table 2 / Example 8: the axiom system A_GED");
    let q = parse_pattern("t(x); t(y)").unwrap();
    let lit = |a: &str| Literal::vars(Var(0), sym(a), Var(1), sym(a));
    let phi_xy = Ged::new("φ", q.clone(), vec![lit("A")], vec![lit("B")]);
    let phi_yz = Ged::new("φ'", q.clone(), vec![lit("B")], vec![lit("C")]);
    let aug = prove_augmentation(&phi_xy, &[lit("Z")]).unwrap();
    aug.check().unwrap();
    println!(
        "augmentation (Example 8b): {} steps, checked ✓",
        aug.steps.len()
    );
    let trans = prove_transitivity(&phi_xy, &phi_yz).unwrap();
    trans.check().unwrap();
    println!(
        "transitivity (Example 8c): {} steps, checked ✓",
        trans.steps.len()
    );
    // Completeness: a chase-built proof for Example 7.
    let phi1 = Ged::new(
        "φ1",
        fragments::fig4_q1(),
        vec![Literal::vars(Var(0), sym("A"), Var(1), sym("A"))],
        vec![Literal::id(Var(0), Var(1))],
    );
    let phi2 = Ged::new(
        "φ2",
        fragments::fig4_q2(),
        vec![Literal::vars(Var(0), sym("B"), Var(1), sym("B"))],
        vec![Literal::vars(Var(0), sym("A"), Var(0), sym("B"))],
    );
    let goal = Ged::new(
        "ϕ",
        fragments::fig4_q(),
        vec![
            Literal::vars(Var(0), sym("A"), Var(2), sym("A")),
            Literal::vars(Var(1), sym("B"), Var(3), sym("B")),
        ],
        vec![Literal::id(Var(0), Var(2)), Literal::id(Var(1), Var(3))],
    );
    let (proof, d) = timed(|| prove(&[phi1, phi2], &goal).unwrap().expect("Σ ⊨ ϕ"));
    proof.check().unwrap();
    println!(
        "completeness proof of Example 7: {} steps in {} µs; rules: GED1={} GED2={} GED4={} GED5={} GED6={}",
        proof.steps.len(),
        us(d),
        proof.uses_rule("GED1"),
        proof.uses_rule("GED2"),
        proof.uses_rule("GED4"),
        proof.uses_rule("GED5"),
        proof.uses_rule("GED6"),
    );
    // Independence witness for GED5 (the paper's own example).
    let q1 = parse_pattern("t(x)").unwrap();
    let exfalso = Ged::new(
        "φ",
        q1,
        vec![
            Literal::constant(Var(0), sym("A"), 1),
            Literal::constant(Var(0), sym("A"), 2),
        ],
        vec![Literal::constant(Var(0), sym("A"), 3)],
    );
    let p = prove(&[], &exfalso).unwrap().unwrap();
    p.check().unwrap();
    println!(
        "independence witness for GED5 (Σ=∅, x.A=1 ∧ x.A=2 → x.A=3): proof uses GED5 = {}",
        p.uses_rule("GED5")
    );
}

fn exp_ex1_3() {
    header(
        "EXP-EX1",
        "Examples 1 & 3: consistency, spam, entity resolution",
    );
    // Knowledge base.
    let cfg = KbConfig::default();
    let inst = gen_kb(&cfg);
    let kb_rules: Vec<Rule> = rules::kb_rules().into_iter().map(Rule::from).collect();
    let report = validate(&inst.graph, &kb_rules, None);
    println!(
        "KB: {} nodes, {} planted errors; violated rules: {:?}",
        inst.graph.node_count(),
        inst.planted.len(),
        report.violated_names()
    );
    let expected = [
        cfg.planted[0],
        cfg.planted[1] * 2, // two symmetric matches per two-capital country
        cfg.planted[2],
        cfg.planted[3],
    ];
    for (i, r) in report.per_ged.iter().enumerate() {
        let ok = r.violation_count == expected[i];
        println!(
            "  {}: {} violations (expected {}) {}",
            r.name,
            r.violation_count,
            expected[i],
            if ok { "✓" } else { "✗" }
        );
        assert!(ok);
    }
    // Spam cascade.
    let scfg = SocialConfig::default();
    let sinst = gen_social(&scfg);
    let mut g = sinst.graph.clone();
    let marked = spam_cascade(&mut g, scfg.k, &scfg.keyword);
    println!(
        "spam: chain of {} with 1 confirmed seed → {} newly marked (expected {}) {}",
        scfg.chain_len,
        marked,
        scfg.chain_len - 1,
        if marked == scfg.chain_len - 1 {
            "✓"
        } else {
            "✗"
        }
    );
    // Entity resolution.
    let mcfg = MusicConfig::default();
    let minst = gen_music(&mcfg);
    let ChaseResult::Consistent {
        coercion, stats, ..
    } = chase(&minst.graph, &rules::music_keys())
    else {
        panic!("resolution chase must be valid")
    };
    println!(
        "entity resolution: {} nodes → {} nodes ({} duplicate clusters, {} chase steps) {}",
        minst.graph.node_count(),
        coercion.graph.node_count(),
        mcfg.n_dupes,
        stats.steps,
        if coercion.graph.node_count() == minst.graph.node_count() - 2 * mcfg.n_dupes {
            "✓"
        } else {
            "✗"
        }
    );
}

fn exp_ex9_10() {
    header(
        "EXP-EX9",
        "Examples 9 & 10: domain constraints (GDC pair vs GED∨)",
    );
    let dom = [Value::from(0), Value::from(1)];
    let (phi1, phi2) = domain_as_gdcs("τ", "A", &dom);
    let pair = [phi1, phi2];
    let psi = domain_as_disj("τ", "A", &dom);
    for (desc, val) in [("A=0", Some(0i64)), ("A=7", Some(7)), ("A missing", None)] {
        let mut b = ged_graph::GraphBuilder::new();
        b.node("x", "τ");
        if let Some(v) = val {
            b.attr("x", "A", v);
        }
        let g = b.build();
        let gdc_ok = ged_core::satisfy::satisfies_all(&g, &pair);
        let disj_ok = ged_core::satisfy::satisfies(&g, &psi);
        assert_eq!(gdc_ok, disj_ok, "the two formulations agree");
        println!("  {desc:<10} GDC pair: {gdc_ok:<5} GED∨: {disj_ok}");
    }
}

fn exp_abl_match() {
    header("EXP-ABL", "Ablation: homomorphism vs isomorphism");
    // GKey vacuity under isomorphism — the paper's Section 3 argument:
    // ψ1's premise x'.id = y'.id needs the two artist variables to map to
    // the SAME node, which isomorphism forbids. Fixture: two album copies
    // sharing one artist node.
    let shared = {
        let mut b = ged_graph::GraphBuilder::new();
        b.node("a1", "album");
        b.node("a2", "album");
        b.node("r", "artist");
        b.edge("a1", "by", "r").edge("a2", "by", "r");
        b.attr("a1", "title", "Bleach")
            .attr("a2", "title", "Bleach");
        b.build()
    };
    let psi1 = Rule::from(rules::psi1());
    let homo_viol = ged_core::satisfy::violations(&shared, &psi1, None).len();
    // Under isomorphism, count matches that satisfy X (requires the
    // x'.id = y'.id premise — impossible injectively):
    let iso_matches_satisfying_x = {
        let mut n = 0;
        ged_pattern::Matcher::new(
            &psi1.pattern,
            &shared,
            ged_pattern::MatchOptions::isomorphism(),
        )
        .for_each(|m| {
            if psi1.premises().iter().all(|l| l.holds(&shared, m)) {
                n += 1;
            }
            std::ops::ControlFlow::Continue(())
        });
        n
    };
    println!(
        "ψ1 on two same-title albums sharing an artist: homomorphism finds {homo_viol} \
         violations; under isomorphism {iso_matches_satisfying_x} matches even satisfy X \
         (the GKey is vacuous — Section 3)"
    );
    assert!(homo_viol > 0);
    assert_eq!(iso_matches_satisfying_x, 0);
}

/// One measured row of the systems sections (EXP-ANALYZE, EXP-DAEMON),
/// flushed to `BENCH_INC.json`: a measured path
/// (`incremental_us`) against its baseline (`full_us`).
struct IncRow {
    class: &'static str,
    workload: &'static str,
    delta_size: usize,
    incremental_us: f64,
    full_us: f64,
    speedup: f64,
}

/// Rows collected by whichever of those sections the filters selected.
static INC_ROWS: std::sync::Mutex<Vec<IncRow>> = std::sync::Mutex::new(Vec::new());

/// Collect one row; its `speedup` is `baseline / measured`.
fn record(
    class: &'static str,
    workload: &'static str,
    delta_size: usize,
    measured: std::time::Duration,
    baseline: std::time::Duration,
) {
    let micros = |d: std::time::Duration| d.as_nanos() as f64 / 1e3;
    let (incremental_us, full_us) = (micros(measured), micros(baseline));
    INC_ROWS.lock().unwrap().push(IncRow {
        class,
        workload,
        delta_size,
        incremental_us,
        full_us,
        speedup: full_us / incremental_us.max(1e-6),
    });
}

/// EXP-ANALYZE — the static analyzer as a deployment optimization: the
/// `redundant` workload plants four prunable rules (an implied rule, a
/// verbatim duplicate, contradictory premises, an entailed conclusion)
/// among three live ones. The section asserts `analyze` finds every
/// planted diagnostic, then deploys the Σ twice — plain
/// `new` vs `with_analysis` with pruning — and measures
/// the seeding pass and a status-attribute delta burst on both. The
/// pruned rules share the expensive edge-bound pattern with the live
/// ones, so both phases must get measurably cheaper while the live
/// rules' violations and the satisfaction verdict stay identical. Rows
/// land in BENCH_INC.json with class `analyze`; `incremental_us` is the
/// pruned side, `full_us` the unpruned one.
fn exp_analyze() {
    use ged_analysis::{analyze, LintKind, Severity};
    use ged_datagen::redundant::redundant;
    use ged_engine::IncrementalValidator;

    header(
        "EXP-ANALYZE",
        "static analysis of Σ: pruning redundant rules before deployment",
    );
    let w = redundant(20_000, 200);
    let (report, d_analyze) = timed(|| analyze(&w.sigma));
    println!("{report}");
    println!(
        "  analyze() on {} rule(s): {:>10} µs",
        w.sigma.len(),
        us(d_analyze)
    );
    // Every planted diagnostic, at its planted severity.
    assert!(!report.has_errors(), "the sloppy Σ is still consistent");
    let kind_of = |k: LintKind| {
        report
            .diagnostics
            .iter()
            .find(|d| d.kind == k)
            .unwrap_or_else(|| panic!("planted {k:?} not flagged"))
    };
    for k in [
        LintKind::ImpliedRule,
        LintKind::DuplicateRule,
        LintKind::ContradictoryPremises,
        LintKind::EntailedConclusion,
        LintKind::DuplicateDisjunct,
    ] {
        assert_eq!(kind_of(k).severity, Severity::Warning);
    }
    assert_eq!(
        report.prunable.len(),
        w.prunable,
        "all four redundant rules proved prunable"
    );

    // Seeding: plain deployment vs analyzed-and-pruned.
    let live_names: Vec<String> = (0..w.live).map(|i| w.sigma[i].name.clone()).collect();
    let graph = w.graph;
    let sigma = w.sigma;
    let (v_plain, d_plain) = timed_median(3, || {
        IncrementalValidator::new(graph.clone(), sigma.clone())
    });
    let (v_pruned, d_pruned) = timed_median(3, || {
        IncrementalValidator::with_analysis(graph.clone(), sigma.clone())
            .expect("consistent Σ deploys")
    });
    let deploy = v_pruned.analysis().expect("analysis record attached");
    assert_eq!(deploy.pruned.len(), w.prunable);
    let seed_speedup = d_plain.as_secs_f64() / d_pruned.as_secs_f64().max(1e-12);
    println!(
        "  seeding, {} rule(s):         {:>10} µs",
        sigma.len(),
        us(d_plain)
    );
    println!(
        "  seeding, pruned to {}:       {:>10} µs (speedup ×{seed_speedup:.2}, \
         analysis inside the window)",
        sigma.len() - w.prunable,
        us(d_pruned)
    );

    // The delta path: a burst of status writes re-fires exactly the
    // rules anchored on `status` — one live rule pruned-side, three
    // rules (live + implied + duplicate) unpruned-side.
    let deltas = attr_burst(&graph, sym("status"), 2_000, 4);
    let run_burst = |seeded: &IncrementalValidator| {
        let mut reps: Vec<(ged_core::reason::ValidationReport, std::time::Duration)> = (0..3)
            .map(|_| {
                let mut v = seeded.clone();
                let t0 = std::time::Instant::now();
                for d in &deltas {
                    v.apply(d);
                }
                (v.report(), t0.elapsed())
            })
            .collect();
        reps.sort_by_key(|&(_, d)| d);
        reps.swap_remove(1)
    };
    let (rep_plain, d_delta_plain) = run_burst(&v_plain);
    let (rep_pruned, d_delta_pruned) = run_burst(&v_pruned);
    // Soundness of pruning, checked on the post-burst state: the live
    // rules' violation sets are untouched and the satisfaction verdict
    // agrees (DESIGN.md §7).
    for name in &live_names {
        let count = |r: &ged_core::reason::ValidationReport| {
            r.per_ged
                .iter()
                .find(|p| &p.name == name)
                .map(|p| p.violation_count)
                .unwrap_or_else(|| panic!("live rule {name} missing from report"))
        };
        assert_eq!(
            count(&rep_plain),
            count(&rep_pruned),
            "live rule {name} unchanged by pruning"
        );
    }
    assert_eq!(
        rep_plain.satisfied(),
        rep_pruned.satisfied(),
        "pruning preserves the satisfaction verdict"
    );
    let delta_speedup = d_delta_plain.as_secs_f64() / d_delta_pruned.as_secs_f64().max(1e-12);
    println!(
        "  delta burst ({} deltas):   {:>10} µs unpruned, {:>10} µs pruned \
         (speedup ×{delta_speedup:.2})",
        deltas.len(),
        us(d_delta_plain),
        us(d_delta_pruned)
    );
    // Flushed before the bar below: a wall-clock miss must not lose rows.
    record("analyze", "redundant-seed", 0, d_pruned, d_plain);
    record(
        "analyze",
        "redundant-delta",
        deltas.len(),
        d_delta_pruned,
        d_delta_plain,
    );
    write_bench_inc_json();
    // Machine-checked: pruning strictly removes matcher work (4 of 7
    // rules, 3 of them edge-bound), so even with the analyzer's chase
    // running inside the pruned seeding window the pruned deployment
    // must win. Holds on any host — both sides seed on one thread.
    assert!(
        seed_speedup > 1.0,
        "pruned seeding must beat the unpruned pass, got ×{seed_speedup:.2}"
    );
}

/// Flush every row collected so far to `BENCH_INC.json`. Called at the
/// end of the run, and *before* the wall-clock assertion of EXP-ANALYZE
/// so a flaky miss cannot destroy the other rows. One flat object per
/// row. The `experiment` tag is the file's name since it first held the
/// incremental rows; kept so artifacts compare across PRs.
fn write_bench_inc_json() {
    use ged_graph::json::Json;

    let rows = INC_ROWS.lock().unwrap();
    if rows.is_empty() {
        return;
    }
    let json_rows = rows
        .iter()
        .map(|r| {
            Json::obj(vec![
                ("class", r.class.into()),
                ("workload", r.workload.into()),
                ("delta_size", r.delta_size.into()),
                ("incremental_us", r.incremental_us.into()),
                ("full_us", r.full_us.into()),
                ("speedup", r.speedup.into()),
            ])
        })
        .collect();
    let json = Json::obj(vec![
        ("experiment", "EXP-INC".into()),
        ("rows", Json::Arr(json_rows)),
    ]);
    match std::fs::write("BENCH_INC.json", format!("{json}\n")) {
        Ok(()) => println!("\nwrote BENCH_INC.json ({} rows)", rows.len()),
        Err(e) => println!("\ncould not write BENCH_INC.json: {e}"),
    }
}

/// EXP-DAEMON — the whole-system layer: a real `gedd` on an ephemeral
/// port, measured end to end over TCP against the in-process baseline.
///
/// The row families gedbench has yet to take over (ROADMAP item 1),
/// class `daemon` in `BENCH_INC.json`:
///
/// * `daemon-wire-apply` — sustained delta ingestion over the wire
///   (`incremental_us` = µs/batch via TCP apply, `full_us` = µs/batch
///   for the same batches on a direct in-process validator with a view
///   active; `speedup` = direct/wire, i.e. the wire tax as a ratio —
///   expected < 1, the protocol can only add cost);
/// * `daemon-report-miss` / `daemon-report-hit` on a 1 000-witness store
///   (`delta_size` carries the witness count) — the raw `report` round
///   trip (request written → reply line read, no client-side parse) when
///   the poll is the first of its epoch and renders the reply, and when
///   it finds the reply already rendered on the snapshot; `full_us` is
///   the in-process `snapshot().to_report()` p50 on the same store.
///
/// Correctness is asserted the same way the e2e suite does it: after
/// the stream, the daemon's violation count must equal the direct
/// validator's (the two started from the deterministic same workload).
fn exp_daemon() {
    use ged_daemon::{spawn, DaemonConfig};
    use ged_datagen::mixed::social_mixed;
    use ged_engine::IncrementalValidator;
    use ged_proto::Client;

    header(
        "EXP-DAEMON",
        "end-to-end daemon load: wire apply tax + report round trip, rendering vs rendered",
    );
    let scfg = SocialConfig {
        n_honest: 600,
        ..Default::default()
    };
    const BATCH: usize = 200;
    const N_BATCHES: usize = 20;
    let w = social_mixed(&scfg, 10, 17);
    let batches: Vec<ged_graph::DeltaSet> = attr_burst(&w.graph, sym("age"), N_BATCHES * BATCH, 30)
        .chunks(BATCH)
        .map(|c| c.to_vec().into())
        .collect();
    println!(
        "|V|={}, Σ of {} rules, {} batches × {BATCH} deltas over TCP",
        w.graph.node_count(),
        w.sigma.len(),
        batches.len(),
    );
    let median = |v: &mut Vec<std::time::Duration>| -> std::time::Duration {
        v.sort();
        v[v.len() / 2]
    };

    // In-process baseline: same batches, view active (publish included) —
    // the daemon's writer in library form.
    let mut direct = IncrementalValidator::new(w.graph, w.sigma);
    let _view = direct.read_view();
    let mut direct_batches: Vec<std::time::Duration> = batches
        .iter()
        .map(|b| {
            let t0 = std::time::Instant::now();
            direct.apply_all(b);
            t0.elapsed()
        })
        .collect();
    let d_direct = median(&mut direct_batches);

    // The daemon twin (the generator is deterministic) and its writer
    // client: stream the same batches over real TCP.
    let w2 = social_mixed(&scfg, 10, 17);
    let handle = spawn(w2.graph, w2.sigma, &DaemonConfig::default()).expect("spawn gedd");
    let mut writer = Client::connect(handle.addr()).expect("connect writer");
    let t_stream = std::time::Instant::now();
    let mut wire_batches: Vec<std::time::Duration> = batches
        .iter()
        .map(|b| {
            let t0 = std::time::Instant::now();
            writer.apply(b.clone()).expect("wire apply");
            t0.elapsed()
        })
        .collect();
    let stream_window = t_stream.elapsed();
    let d_wire = median(&mut wire_batches);
    let sustained = (N_BATCHES * BATCH) as f64 / stream_window.as_secs_f64().max(1e-12);
    println!(
        "  apply:  {:>10} µs/batch over the wire vs {:>10} µs in-process \
         — {sustained:>9.0} deltas/s sustained",
        us(d_wire),
        us(d_direct),
    );
    assert_eq!(
        writer.is_satisfied().expect("wire query").2 as usize,
        direct.violation_count(),
        "daemon and direct validator must agree after the stream"
    );
    record("daemon", "daemon-wire-apply", BATCH, d_wire, d_direct);

    let final_epoch = handle.stop();
    handle.join();
    println!("  shutdown: drained at epoch {final_epoch}");

    // `report` rendered (first poll of an epoch) vs shared (every later
    // one): a one-delta apply between pairs of polls opens a new epoch.
    let (graph, sigma) =
        ged_daemon::workload::load("mixed:honest=1250,plants=250,seed=17").expect("mixed spec");
    let probe = graph.nodes().next().expect("non-empty graph");
    let handle = spawn(graph, sigma, &DaemonConfig::default()).expect("spawn gedd");
    let view = handle.view();
    let witnesses = view.snapshot().violation_count();
    let mut in_process: Vec<std::time::Duration> = (0..200)
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(view.snapshot().to_report());
            t0.elapsed()
        })
        .collect();
    let d_in_process = median(&mut in_process);
    let mut writer = Client::connect(handle.addr()).expect("connect writer");
    let raw = std::net::TcpStream::connect(handle.addr()).expect("connect poller");
    raw.set_nodelay(true).expect("nodelay");
    let mut replies = std::io::BufReader::new(raw.try_clone().expect("clone socket"));
    let mut line = Vec::new();
    let mut poll = || {
        use std::io::{BufRead, Write};
        let t0 = std::time::Instant::now();
        (&raw).write_all(b"{\"cmd\":\"report\"}\n").expect("send");
        line.clear();
        replies.read_until(b'\n', &mut line).expect("reply");
        t0.elapsed()
    };
    let (mut miss, mut hit) = (Vec::new(), Vec::new());
    for i in 0..200i64 {
        let bump = ged_graph::Delta::SetAttr {
            node: probe,
            attr: sym("exp-daemon-probe"),
            value: i.into(),
        };
        writer.apply(vec![bump].into()).expect("wire apply");
        miss.push(poll());
        hit.push(poll());
    }
    assert_eq!(view.renders(), 200, "one render per epoch polled");
    let (d_miss, d_hit) = (median(&mut miss), median(&mut hit));
    println!(
        "  report: {witnesses} witnesses: wire p50 {:>8} rendering, {:>8} rendered \
         (in-process to_report p50 {:>8})",
        us(d_miss),
        us(d_hit),
        us(d_in_process),
    );
    for (workload, d) in [("daemon-report-miss", d_miss), ("daemon-report-hit", d_hit)] {
        record("daemon", workload, witnesses, d, d_in_process);
    }
    handle.stop();
    handle.join();
    write_bench_inc_json();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids<'a>(filters: &'a [&'a str]) -> Result<Vec<&'static str>, Vec<&'a str>> {
        select(filters).map(|sections| sections.iter().map(|(id, _)| *id).collect())
    }

    #[test]
    fn every_filter_must_select_a_section() {
        assert_eq!(ids(&[]).unwrap().len(), SECTIONS.len());
        let two = ids(&["EXP-DAEMON", "EXP-FIG3"]).unwrap();
        assert_eq!(two, ["EXP-FIG3", "EXP-DAEMON"], "table order");
        // Substring rule: a prefix selects the whole family.
        let table1 = ids(&["EXP-T1"]).unwrap();
        assert_eq!(table1.len(), 5, "{table1:?}");
        assert!(table1.iter().all(|id| id.starts_with("EXP-T1-")));
        // One stale filter fails the run even beside one that matches.
        assert_eq!(ids(&["EXP-DAEMON", "EXP-TYPO"]).unwrap_err(), ["EXP-TYPO"]);
        assert_eq!(ids(&["EXP-INC"]).unwrap_err(), ["EXP-INC"]);
    }
}
