//! `gedd`'s argument grammar, split from the binary so it unit-tests
//! without a listening daemon. The binary (`src/bin/gedd.rs`) prints
//! [`USAGE`] for `-h` / `--help`, parses everything else with
//! [`parse_cli`], and exits 2 with the message of an `Err`.

use crate::DaemonConfig;

/// Usage text shared by `--help` and usage errors.
pub const USAGE: &str = "\
gedd — GED/GDC/GED∨ validation daemon

USAGE:
    gedd [OPTIONS]

OPTIONS:
    --addr HOST:PORT     listen address (default 127.0.0.1:7411; port 0 = ephemeral)
    --workload SPEC      initial graph + Σ (default mixed:honest=30,plants=2,seed=11)
                         specs: empty | mixed:honest=N,plants=P,seed=S
                              | random:nodes=N,rules=R,seed=S
    --threads 1          accepted and ignored: seeding is sequential, any other value is refused
    --max-frame BYTES    per-request frame cap, at least 1 (default 8388608)
    -h, --help           print this help
";

/// Parse `gedd` arguments (without the `argv[0]` program name, and
/// without `-h` / `--help`, which the binary answers first) into the
/// server configuration and the `--workload` spec.
pub fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<(DaemonConfig, String), String> {
    let mut config = DaemonConfig {
        addr: "127.0.0.1:7411".to_string(),
        ..Default::default()
    };
    let mut spec = "mixed:honest=30,plants=2,seed=11".to_string();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let v = match arg.as_str() {
            "--addr" | "--workload" | "--threads" | "--max-frame" => args
                .next()
                .ok_or_else(|| format!("{arg} needs a value\n\n{USAGE}"))?,
            other => return Err(format!("unknown flag {other:?}\n\n{USAGE}")),
        };
        match arg.as_str() {
            "--addr" => config.addr = v,
            "--workload" => spec = v,
            "--threads" if v != "1" => {
                return Err(format!(
                    "--threads {v}: seeding is sequential; the only accepted value is 1"
                ))
            }
            "--threads" => {}
            _ => match v.parse::<usize>() {
                Ok(0) => return Err("--max-frame 0: no request would fit".to_string()),
                Ok(n) => config.max_frame = n,
                Err(_) => return Err(format!("--max-frame {v}: not a number")),
            },
        }
    }
    Ok((config, spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(DaemonConfig, String), String> {
        parse_cli(args.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn defaults_and_flags_parse() {
        let (config, spec) = parse(&[]).unwrap();
        assert_eq!(config.addr, "127.0.0.1:7411");
        assert_eq!(spec, "mixed:honest=30,plants=2,seed=11");
        assert_eq!(config.max_frame, DaemonConfig::default().max_frame);

        let (config, spec) = parse(&["--workload", "empty", "--max-frame", "64"]).unwrap();
        assert_eq!((config.max_frame, spec.as_str()), (64, "empty"));
        let (config, _) = parse(&["--addr", "10.0.0.1:99"]).unwrap();
        assert_eq!(config.addr, "10.0.0.1:99");
    }

    #[test]
    fn threads_1_is_accepted_and_changes_nothing() {
        assert_eq!(parse(&["--threads", "1"]), parse(&[]));
        let empty = parse(&["--workload", "empty"]);
        assert_eq!(parse(&["--threads", "1", "--workload", "empty"]), empty);
    }

    #[test]
    fn any_other_thread_count_is_refused_as_sequential_seeding() {
        for n in ["0", "2", "x"] {
            let e = parse(&["--threads", n]).unwrap_err();
            assert!(e.contains(&format!("--threads {n}")), "{e}");
            assert!(e.contains("seeding is sequential"), "{e}");
        }
    }

    /// A zero frame cap would listen and answer every request "oversized".
    #[test]
    fn a_zero_frame_cap_is_refused() {
        let e = parse(&["--max-frame", "0"]).unwrap_err();
        assert!(e.contains("--max-frame 0"), "{e}");
        let e = parse(&["--max-frame", "lots"]).unwrap_err();
        assert!(e.contains("not a number"), "{e}");
    }

    #[test]
    fn unknown_flags_and_missing_values_are_refused() {
        let e = parse(&["--frob"]).unwrap_err();
        assert!(e.starts_with("unknown flag \"--frob\""), "{e}");
        for flag in ["--addr", "--workload", "--threads", "--max-frame"] {
            let e = parse(&[flag]).unwrap_err();
            assert!(e.starts_with(&format!("{flag} needs a value")), "{e}");
        }
    }
}
