//! `gedctl`: the argument grammar and formatting helpers of the CLI
//! client, split from the binary so they unit-test without a live
//! daemon. The binary (`src/bin/gedctl.rs`) parses with [`parse_cli`],
//! drives a [`ged_proto::Client`], and maps outcomes to the exit-code
//! contract in [`exit`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![warn(missing_debug_implementations)]

use ged_graph::DeltaSet;
use ged_proto::json::Json;
use ged_proto::message::delta_from_json;

/// Exit codes `gedctl` commits to (scripts branch on these).
pub mod exit {
    /// Success; for `status`/`report`/`violations`, Σ is satisfied.
    pub const OK: u8 = 0;
    /// The query succeeded and violations are present.
    pub const VIOLATIONS: u8 = 1;
    /// Bad command line.
    pub const USAGE: u8 = 2;
    /// Could not connect, or the transport/framing failed mid-session.
    pub const CONNECTION: u8 = 3;
    /// The daemon replied with a structured `ok:false` error.
    pub const SERVER: u8 = 4;
}

/// Usage text shared by `--help` and usage errors.
pub const USAGE: &str = "\
gedctl — client for the gedd validation daemon

USAGE:
    gedctl [--addr HOST:PORT] [--json] <COMMAND>

COMMANDS:
    health               daemon liveness, protocol version, epoch, degraded
    status               is the graph satisfied? (exit 1 if violations)
    violations           list current violations with witnesses
    report               full per-rule validation report
    metrics              engine metrics snapshot
    apply DELTA...       apply a batch; each DELTA is a JSON object like
                         '{\"op\":\"add_node\",\"label\":\"account\"}'
                         (a single `-` reads one JSON object per stdin line)
    shutdown             drain, publish the final epoch, stop the daemon

OPTIONS:
    --addr HOST:PORT     daemon address (default 127.0.0.1:7411)
    --json               print the raw JSON reply instead of prose
    -h, --help           print this help

EXIT CODES:
    0 success (and satisfied)   1 violations present   2 usage
    3 connection/protocol error 4 server error reply
";

/// One parsed command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `health`
    Health,
    /// `status`
    Status,
    /// `violations`
    Violations,
    /// `report`
    Report,
    /// `metrics`
    Metrics,
    /// `apply DELTA...` (raw argument strings, decoded later).
    Apply(Vec<String>),
    /// `shutdown`
    Shutdown,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// Daemon address.
    pub addr: String,
    /// Raw-JSON output mode.
    pub json: bool,
    /// The command to run, `None` for `--help`.
    pub command: Option<Command>,
}

/// Parse `gedctl` arguments (without the `argv[0]` program name).
pub fn parse_cli(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut addr = "127.0.0.1:7411".to_string();
    let mut json = false;
    let mut args = args.into_iter();
    let command = loop {
        let Some(arg) = args.next() else {
            return Err("no command given".to_string());
        };
        match arg.as_str() {
            "-h" | "--help" => {
                return Ok(Cli {
                    addr,
                    json,
                    command: None,
                })
            }
            "--json" => json = true,
            "--addr" => match args.next() {
                Some(a) => addr = a,
                None => return Err("--addr needs a value".to_string()),
            },
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            command => break command.to_string(),
        }
    };
    let rest: Vec<String> = args.collect();
    let no_args = |command: Command| -> Result<Command, String> {
        if rest.is_empty() {
            Ok(command)
        } else {
            Err(format!("{} takes no arguments", command_name(&command)))
        }
    };
    let command = match command.as_str() {
        "health" => no_args(Command::Health)?,
        "status" => no_args(Command::Status)?,
        "violations" => no_args(Command::Violations)?,
        "report" => no_args(Command::Report)?,
        "metrics" => no_args(Command::Metrics)?,
        "shutdown" => no_args(Command::Shutdown)?,
        "apply" => {
            if rest.is_empty() {
                return Err("apply needs at least one DELTA (or `-` for stdin)".to_string());
            }
            Command::Apply(rest)
        }
        other => return Err(format!("unknown command {other:?}")),
    };
    Ok(Cli {
        addr,
        json,
        command: Some(command),
    })
}

fn command_name(command: &Command) -> &'static str {
    match command {
        Command::Health => "health",
        Command::Status => "status",
        Command::Violations => "violations",
        Command::Report => "report",
        Command::Metrics => "metrics",
        Command::Apply(_) => "apply",
        Command::Shutdown => "shutdown",
    }
}

/// Decode `apply` arguments into a batch: each argument is one JSON
/// delta object; the single argument `-` instead reads `stdin` (one
/// object per line, blank lines skipped). A stdin that cannot be read, or
/// that holds no delta, is an error like `apply` with no argument — never
/// an empty batch the daemon would acknowledge.
pub fn parse_deltas(
    args: &[String],
    stdin: impl FnOnce() -> std::io::Result<String>,
) -> Result<DeltaSet, String> {
    let texts: Vec<String> = if args.len() == 1 && args[0] == "-" {
        let input = stdin().map_err(|e| format!("apply -: cannot read stdin: {e}"))?;
        let lines: Vec<String> = input
            .lines()
            .map(str::trim)
            .filter(|line| !line.is_empty())
            .map(str::to_string)
            .collect();
        if lines.is_empty() {
            return Err("apply -: stdin holds no DELTA".to_string());
        }
        lines
    } else {
        args.to_vec()
    };
    let mut ds = DeltaSet::new();
    for (i, text) in texts.iter().enumerate() {
        let json = Json::parse(text).map_err(|e| format!("delta {}: {e}", i + 1))?;
        ds.push(delta_from_json(&json).map_err(|e| format!("delta {}: {e}", i + 1))?);
    }
    Ok(ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ged_graph::{sym, Delta};

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_cli(args.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn commands_and_flags_parse() {
        let cli = parse(&["--addr", "10.0.0.1:99", "--json", "status"]).unwrap();
        assert_eq!(cli.addr, "10.0.0.1:99");
        assert!(cli.json);
        assert_eq!(cli.command, Some(Command::Status));

        let cli = parse(&["apply", "{\"op\":\"x\"}"]).unwrap();
        assert_eq!(
            cli.command,
            Some(Command::Apply(vec!["{\"op\":\"x\"}".to_string()]))
        );

        assert!(parse(&["--help"]).unwrap().command.is_none());
        for cmd in ["health", "violations", "report", "metrics", "shutdown"] {
            assert!(parse(&[cmd]).unwrap().command.is_some(), "{cmd}");
        }
    }

    #[test]
    fn usage_errors_are_specific() {
        assert!(parse(&[]).unwrap_err().contains("no command"));
        assert!(parse(&["--addr"]).unwrap_err().contains("--addr"));
        assert!(parse(&["--frob"]).unwrap_err().contains("--frob"));
        assert!(parse(&["teleport"]).unwrap_err().contains("teleport"));
        assert!(parse(&["apply"]).unwrap_err().contains("DELTA"));
        assert!(parse(&["status", "extra"]).unwrap_err().contains("status"));
    }

    #[test]
    fn deltas_parse_from_args_and_stdin() {
        let args = vec!["{\"op\":\"add_node\",\"label\":\"t\"}".to_string()];
        let ds = parse_deltas(&args, || unreachable!()).unwrap();
        assert_eq!(ds.deltas(), &[Delta::AddNode { label: sym("t") }]);

        let stdin = "\n{\"op\":\"add_node\",\"label\":\"a\"}\n  \n{\"op\":\"del_attr\",\"node\":0,\"attr\":\"p\"}\n";
        let dash = ["-".to_string()];
        let ds = parse_deltas(&dash, || Ok(stdin.to_string())).unwrap();
        assert_eq!(ds.len(), 2);

        // An unreadable or empty stdin is a usage error, not an empty batch.
        let unreadable = || Err(std::io::Error::from(std::io::ErrorKind::InvalidData));
        let e = parse_deltas(&dash, unreadable).unwrap_err();
        assert!(e.contains("cannot read stdin"), "{e}");
        let e = parse_deltas(&dash, || Ok(" \n\n".to_string())).unwrap_err();
        assert!(e.contains("stdin holds no DELTA"), "{e}");

        let bad = vec!["{\"op\":\"warp\"}".to_string()];
        let e = parse_deltas(&bad, || unreachable!()).unwrap_err();
        assert!(e.contains("delta 1"), "{e}");
        assert!(e.contains("warp"), "{e}");
    }
}
