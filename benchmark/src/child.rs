//! The `gedd` child process and the generator's connections to it.

use crate::stats::{parse_stat_cpu_ticks, parse_vm_hwm_kb};
use ged_proto::client::unwrap_ok;
use ged_proto::{Json, Request};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A reply that takes longer than this is a failed operation, not a wait.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Serialise a request as one wire frame — what `write_frame` would send.
pub fn encode(req: &Request) -> Vec<u8> {
    let mut line = String::new();
    req.to_json().write(&mut line);
    line.push('\n');
    line.into_bytes()
}

/// One protocol connection with the send and receive halves apart, so a
/// caller can put a clock between them.
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
}

impl Conn {
    /// Connect to a daemon.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: Vec::new(),
        })
    }

    /// Send one encoded frame.
    pub fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.writer.write_all(frame)
    }

    /// Read one reply line (without decoding it).
    pub fn recv(&mut self) -> io::Result<&str> {
        self.line.clear();
        self.reader.read_until(b'\n', &mut self.line)?;
        if self.line.last() != Some(&b'\n') {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        std::str::from_utf8(&self.line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// An untimed request: encode, send, receive, decode, unwrap `ok`.
    pub fn call(&mut self, req: &Request) -> Result<Json, String> {
        self.send(&encode(req)).map_err(|e| e.to_string())?;
        let line = self.recv().map_err(|e| e.to_string())?;
        let reply = Json::parse(line).map_err(|e| e.to_string())?;
        unwrap_ok(reply).map_err(|e| e.to_string())
    }
}

/// Restrict this process's main thread (and threads it spawns later) to
/// `cpus`, e.g. `"0"` or `"0-1"`. False when `taskset` is missing or fails;
/// the result is stamped `pinned: false` and compares with nothing pinned.
pub fn pin_self(cpus: &str) -> bool {
    Command::new("taskset")
        .args(["-cp", cpus, &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// Clock ticks per second of `/proc/<pid>/stat` times (asked of `getconf`
/// once; 100 if it cannot say).
pub fn clock_ticks_per_s() -> f64 {
    static TICKS: OnceLock<f64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        let out = Command::new("getconf").arg("CLK_TCK").output().ok();
        out.and_then(|o| String::from_utf8(o.stdout).ok()?.trim().parse().ok())
            .unwrap_or(100.0)
    })
}

/// A running `gedd`. Dropping it kills the child, so no failure path of
/// the generator leaves a daemon behind.
#[derive(Debug)]
pub struct Gedd {
    child: Child,
    /// Kept open until the child has exited: `gedd` prints on shutdown, and
    /// a closed pipe would turn that into a panic and a non-zero exit.
    _stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
    /// Seconds from spawn to the first `health` reply.
    pub setup_s: f64,
}

impl Gedd {
    /// Spawn `gedd --addr 127.0.0.1:0 --threads 1 --workload <spec>`,
    /// wait for it to serve, and hand back a first connection.
    pub fn spawn(bin: &Path, spec: &str, pin: bool) -> Result<(Gedd, Conn), String> {
        let gedd_args = [
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "1",
            "--workload",
            spec,
        ];
        let mut cmd = if pin {
            let mut c = Command::new("taskset");
            c.args(["-c", "0"]).arg(bin);
            c
        } else {
            Command::new(bin)
        };
        let started = Instant::now();
        let mut child = cmd
            .args(gedd_args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut banner = String::new();
        let addr = stdout
            .read_line(&mut banner)
            .ok()
            .and_then(|_| banner.strip_prefix("gedd listening on ")?.split(' ').next())
            .and_then(|a| a.parse::<SocketAddr>().ok());
        let Some(addr) = addr else {
            child.kill().ok();
            child.wait().ok();
            return Err(format!("gedd did not announce an address: {banner:?}"));
        };
        let mut gedd = Gedd {
            child,
            _stdout: stdout,
            addr,
            setup_s: 0.0,
        };
        let mut conn = Conn::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        conn.call(&Request::Health)?;
        gedd.setup_s = started.elapsed().as_secs_f64();
        Ok((gedd, conn))
    }

    fn proc_file(&self, name: &str) -> String {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id())).unwrap_or_default()
    }

    /// `utime + stime` of the child so far, in clock ticks.
    pub fn cpu_ticks(&self) -> u64 {
        parse_stat_cpu_ticks(&self.proc_file("stat")).unwrap_or(0)
    }

    /// Peak resident set of the child so far, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        parse_vm_hwm_kb(&self.proc_file("status")).unwrap_or(0) as f64 / 1024.0
    }

    /// Send `shutdown` and wait for the child; it must exit 0.
    pub fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        conn.call(&Request::Shutdown)?;
        let asked = Instant::now();
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("gedd exited with {status}")),
                None if asked.elapsed() > REPLY_TIMEOUT => {
                    return Err("gedd still running after shutdown".to_string())
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }
}

impl Drop for Gedd {
    fn drop(&mut self) {
        // After a clean `shutdown` both calls fail harmlessly.
        self.child.kill().ok();
        self.child.wait().ok();
    }
}
