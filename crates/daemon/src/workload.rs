//! Workload specs: how `gedd` gets its Σ and initial graph.
//!
//! A spec is `family` or `family:key=value,key=value,...` — compact
//! enough for a CLI flag, deterministic via explicit seeds, and built
//! entirely from `ged-datagen` so the daemon's startup state is the
//! same as the test suites':
//!
//! * `empty` — no nodes, no rules: a blank validator to drive entirely
//!   over the wire (`gedctl apply`);
//! * `mixed:honest=30,plants=2,seed=11` — the social mixed-family
//!   workload (GED + GDC + GED∨ in one [`SigmaConstraint`] set) with
//!   `plants` violations planted per rule;
//! * `random:nodes=90,rules=2,seed=7` — the evolving-graph workload of
//!   the incremental suites: a random graph with a planted key
//!   constraint plus `rules` random GEDs.

use ged_datagen::random::evolving_workload;
use ged_datagen::social::SocialConfig;
use ged_ext::SigmaConstraint;
use ged_graph::Graph;

/// Build the `(graph, Σ)` a spec describes, or explain why the spec is
/// unintelligible.
pub fn load(spec: &str) -> Result<(Graph, Vec<SigmaConstraint>), String> {
    let (family, params) = match spec.split_once(':') {
        Some((family, params)) => (family, params),
        None => (spec, ""),
    };
    let params = parse_params(params)?;
    let get = |key: &str, default: u64| -> Result<u64, String> {
        match params.iter().find(|(k, _)| k == key) {
            Some((_, v)) => v
                .parse::<u64>()
                .map_err(|_| format!("workload param {key}={v}: not an unsigned integer")),
            None => Ok(default),
        }
    };
    let known = |allowed: &[&str]| -> Result<(), String> {
        for (k, _) in &params {
            if !allowed.contains(&k.as_str()) {
                return Err(format!(
                    "unknown {family} workload param {k:?} (expected one of {allowed:?})"
                ));
            }
        }
        Ok(())
    };
    match family {
        "empty" => {
            known(&[])?;
            Ok((Graph::new(), Vec::new()))
        }
        "mixed" => {
            known(&["honest", "plants", "seed"])?;
            let cfg = SocialConfig {
                n_honest: get("honest", 30)? as usize,
                seed: get("seed", 11)?,
                ..Default::default()
            };
            let plants = get("plants", 2)? as usize;
            let w = ged_datagen::mixed::try_social_mixed(&cfg, plants, cfg.seed)
                .map_err(|why| format!("workload {spec}: {why}"))?;
            Ok((w.graph, w.sigma))
        }
        "random" => {
            known(&["nodes", "rules", "seed"])?;
            let (nodes, rules) = (get("nodes", 90)? as usize, get("rules", 2)? as usize);
            let (g, sigma) = evolving_workload(nodes, 3, rules, get("seed", 7)?);
            Ok((g, sigma.into_iter().map(SigmaConstraint::from).collect()))
        }
        other => Err(format!(
            "unknown workload family {other:?} (expected empty, mixed or random)"
        )),
    }
}

fn parse_params(params: &str) -> Result<Vec<(String, String)>, String> {
    let mut seen: Vec<(String, String)> = Vec::new();
    if params.is_empty() {
        return Ok(seen);
    }
    for pair in params.split(',') {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("workload param {pair:?} is not key=value"))?;
        let k = k.trim();
        // `get` reads the first value of a key: a second one would be ignored.
        if seen.iter().any(|(earlier, _)| earlier == k) {
            return Err(format!("workload param {k:?} given twice"));
        }
        seen.push((k.to_string(), v.trim().to_string()));
    }
    Ok(seen)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_empty() {
        let (g, sigma) = load("empty").unwrap();
        assert_eq!(g.node_count(), 0);
        assert!(sigma.is_empty());
    }

    #[test]
    fn mixed_and_random_build_and_are_deterministic() {
        let (g1, s1) = load("mixed:honest=10,plants=1,seed=3").unwrap();
        let (g2, s2) = load("mixed:honest=10,plants=1,seed=3").unwrap();
        assert!(g1.node_count() > 0);
        assert_eq!(s1.len(), 4, "the social mixed workload has four rules");
        assert_eq!(g1.node_count(), g2.node_count());
        assert_eq!(s1.len(), s2.len());

        let (g, sigma) = load("random:nodes=40,rules=2,seed=5").unwrap();
        assert!(g.node_count() >= 40);
        assert_eq!(sigma.len(), 3, "planted key + 2 random rules");
    }

    /// Only a cross-component equality join asks the graph for a value
    /// index: the social Σ's patterns are connected, so a `mixed` daemon
    /// maintains none; the `random` family's planted key asks for its one
    /// pair.
    #[test]
    fn only_the_graph_key_requests_a_value_index() {
        use ged_core::constraint::Constraint;
        use ged_graph::sym;
        let (g, sigma) = load("mixed:honest=10,plants=1,seed=3").unwrap();
        for rule in &sigma {
            let requests = ged_engine::rule_plan(rule).index_requests();
            assert!(requests.is_empty(), "{}: {requests:?}", rule.name());
        }
        let v = ged_engine::IncrementalValidator::new(g, sigma);
        assert_eq!(v.graph().indexed_attrs().count(), 0);

        let (g, sigma) = load("random:nodes=40,rules=2,seed=5").unwrap();
        let v = ged_engine::IncrementalValidator::new(g, sigma);
        let indexed: Vec<_> = v.graph().indexed_attrs().collect();
        assert_eq!(indexed, [(sym("entity"), sym("key"))]);
    }

    #[test]
    fn bad_specs_explain_themselves() {
        assert!(load("nope").unwrap_err().contains("unknown workload"));
        assert!(load("mixed:plants=x").unwrap_err().contains("plants=x"));
        assert!(load("mixed:warp=1").unwrap_err().contains("warp"));
        assert!(load("random:nodes").unwrap_err().contains("key=value"));
        assert!(load("empty:plants=1").unwrap_err().contains("plants"));
        let twice = load("random:nodes=10,nodes=20").unwrap_err();
        assert_eq!(twice, "workload param \"nodes\" given twice");
        // Too few accounts for the plants is the spec's fault, not a panic.
        for spec in ["mixed:honest=0", "mixed:honest=1,plants=50"] {
            let why = load(spec).unwrap_err();
            assert!(why.contains("plants=") && why.contains("accounts"), "{why}");
            assert!(!why.contains('\n'), "one line: {why}");
        }
    }
}
