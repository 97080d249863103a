//! `gedd` — serve a validation workload over TCP.
//!
//! ```text
//! gedd [--addr HOST:PORT] [--workload SPEC] [--max-frame BYTES]
//! ```
//!
//! Runs until a client sends `shutdown` (see `gedctl shutdown`), then
//! lets the apply holding the lock land, refuses later ones, reports the
//! final epoch, and exits 0. Usage
//! errors exit 2 (the grammar is `ged_daemon::cli`).

use ged_daemon::cli::USAGE;
use ged_daemon::{parse_cli, spawn, workload};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|arg| arg == "-h" || arg == "--help") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (config, spec) = match parse_cli(args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("gedd: {message}");
            return ExitCode::from(2);
        }
    };
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
