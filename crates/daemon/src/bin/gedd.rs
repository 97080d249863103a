//! `gedd` — serve a validation workload over TCP.
//!
//! ```text
//! gedd [--addr HOST:PORT] [--workload SPEC] [--threads N] [--max-frame BYTES]
//! ```
//!
//! Runs until a client sends `shutdown` (see `gedctl shutdown`), then
//! drains queued applies, publishes the final epoch, and exits 0.

use ged_daemon::{spawn, workload, DaemonConfig};
use std::process::ExitCode;

const USAGE: &str = "\
gedd — GED/GDC/GED∨ validation daemon

USAGE:
    gedd [OPTIONS]

OPTIONS:
    --addr HOST:PORT     listen address (default 127.0.0.1:7411; port 0 = ephemeral)
    --workload SPEC      initial graph + Σ (default mixed:honest=30,plants=2,seed=11)
                         specs: empty | mixed:honest=N,plants=P,seed=S
                              | random:nodes=N,rules=R,seed=S
    --threads N          workers for the seeding pass (the delta path is sequential); default 1
    --max-frame BYTES    per-request frame cap (default 8388608)
    -h, --help           print this help
";

fn main() -> ExitCode {
    let mut config = DaemonConfig {
        addr: "127.0.0.1:7411".to_string(),
        ..Default::default()
    };
    let mut spec = "mixed:honest=30,plants=2,seed=11".to_string();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n\n{USAGE}"))
        };
        let result: Result<(), String> = match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--addr" => value("--addr").map(|v| config.addr = v),
            "--workload" => value("--workload").map(|v| spec = v),
            "--threads" => value("--threads").and_then(|v| {
                v.parse::<usize>()
                    .map(|n| config.threads = n.max(1))
                    .map_err(|_| format!("--threads {v}: not a number"))
            }),
            "--max-frame" => value("--max-frame").and_then(|v| {
                v.parse::<usize>()
                    .map(|n| config.max_frame = n)
                    .map_err(|_| format!("--max-frame {v}: not a number"))
            }),
            other => Err(format!("unknown flag {other:?}\n\n{USAGE}")),
        };
        if let Err(message) = result {
            eprintln!("gedd: {message}");
            return ExitCode::from(2);
        }
    }

    let (graph, sigma) = match workload::load(&spec) {
        Ok(loaded) => loaded,
        Err(message) => {
            eprintln!("gedd: {message}");
            return ExitCode::from(2);
        }
    };
    let nodes = graph.node_count();
    let rules = sigma.len();
    let handle = match spawn(graph, sigma, &config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("gedd: cannot listen on {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "gedd listening on {} (workload {spec}: {nodes} nodes, {rules} rules)",
        handle.addr()
    );
    let final_epoch = handle.join();
    println!("gedd: shutdown complete at epoch {final_epoch}");
    ExitCode::SUCCESS
}
