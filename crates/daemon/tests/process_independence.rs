//! Two `gedd`s that met their names in different orders serve the same
//! workload alike: a `gedd` child process, and one in this process after it
//! interned names of its own first, so every name of the rule set sits at
//! another interner index in each. Over a leading `apply` of a name no rule
//! reads and a second one that makes and repairs violations, their
//! `violations` lines are byte-identical: a witness's `kind` names
//! positions, never a `Symbol`, so it reads the same in every process.

use ged_daemon::{spawn, workload, DaemonConfig};
use ged_graph::sym;
use ged_proto::Client;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

const SPEC: &str = "mixed:honest=200,plants=12,seed=9";

/// Send `requests` (one per line), half-close, and read every reply line.
fn session(addr: &str, requests: &[String]) -> Vec<String> {
    let mut socket = TcpStream::connect(addr).expect("connect");
    for request in requests {
        writeln!(socket, "{request}").expect("send");
    }
    socket
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut replies = String::new();
    socket.read_to_string(&mut replies).expect("read replies");
    replies.lines().map(str::to_string).collect()
}

/// The child `gedd`, killed if the test fails before it shuts it down.
struct Gedd(Child);

impl Drop for Gedd {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn two_processes_print_every_violation_alike() {
    for i in 0..64 {
        sym(&format!("met-first-{i}"));
    }
    let (graph, sigma) = workload::load(SPEC).expect("workload");
    // Accounts past the planted ones: each write below makes a witness.
    let accounts = graph.nodes_with_label(sym("account")).iter().skip(60);
    let accounts: Vec<u32> = accounts.take(9).map(|n| n.0).collect();
    let here = spawn(graph, sigma, &DaemonConfig::default()).expect("listen here");

    let mut child = Gedd(
        Command::new(env!("CARGO_BIN_EXE_gedd"))
            .args(["--addr", "127.0.0.1:0", "--workload", SPEC])
            .stdout(Stdio::piped())
            .spawn()
            .expect("start gedd"),
    );
    let mut banner = String::new();
    let mut stdout = BufReader::new(child.0.stdout.take().expect("piped stdout"));
    stdout.read_line(&mut banner).expect("banner");
    let there = banner
        .split_whitespace()
        .nth(3)
        .expect("gedd listening on ADDR …")
        .to_string();

    let set = |node: u32, attr: &str, value: &str| {
        format!(r#"{{"op":"set_attr","node":{node},"attr":"{attr}","value":{value}}}"#)
    };
    let apply =
        |deltas: Vec<String>| format!(r#"{{"cmd":"apply","deltas":[{}]}}"#, deltas.join(","));
    let unread = accounts
        .iter()
        .map(|&n| set(n, "never-read", "1"))
        .collect();
    let churn = accounts.iter().enumerate().map(|(i, &n)| match i % 3 {
        0 => set(n, "age", "5"),
        1 => set(n, "tier", r#""gold""#),
        _ => set(n, "is_fake", "1"),
    });
    let requests = [
        apply(unread),
        r#"{"cmd":"violations"}"#.to_string(),
        apply(churn.collect()),
        r#"{"cmd":"violations"}"#.to_string(),
        r#"{"cmd":"health"}"#.to_string(),
    ];
    let (mine, theirs) = (
        session(&here.addr().to_string(), &requests),
        session(&there, &requests),
    );
    assert_eq!(mine.len(), requests.len());
    for (i, (a, b)) in mine.iter().zip(&theirs).enumerate() {
        assert!(a == b, "reply {i} differs:\n here: {a}\nthere: {b}");
    }
    assert!(mine[3].contains(r#"],"[0, 1, 2]"]"#), "{}", mine[3]);
    assert!(mine[4].contains(r#""protocol":3"#), "{}", mine[4]);

    Client::connect(&there)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    let mut farewell = String::new();
    stdout
        .read_to_string(&mut farewell)
        .expect("the rest of its stdout");
    assert!(child.0.wait().expect("gedd exits").success(), "{farewell}");
    here.stop();
    here.join();
}
