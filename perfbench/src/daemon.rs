//! The program under test as child processes: the `dctstream serve`
//! daemon on an ephemeral loopback port, and one-shot `dctstream`
//! commands. Also the outside views of them the benchmark reads:
//! `/metrics` counters, peak resident memory, and bytes on disk.

use crate::sender::TIMEOUT;
use dctstream_replay::Client;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `dctstream serve`. Dropping it kills the process, so an
/// error path never leaves a daemon behind.
#[derive(Debug)]
pub struct Daemon {
    child: Option<Child>,
    // Held open so the daemon's shutdown summary has a reader.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Start `bin serve DIR --listen 127.0.0.1:0 [--shards N] EXTRA…`
    /// and wait for its banner, which names the bound address.
    pub fn start(
        bin: &Path,
        dir: &Path,
        shards: usize,
        extra: &[String],
    ) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("serve").arg(dir).args(["--listen", "127.0.0.1:0"]);
        if shards > 0 {
            cmd.args(["--shards", &shards.to_string()]);
        }
        let mut child = cmd
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child: Some(child),
            _stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        // "serving DIR on http://ADDR (epoch …)"
        let mut banner = String::new();
        let _ = daemon._stdout.read_line(&mut banner);
        daemon.addr = banner
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("daemon printed no address: {banner:?}"))?;
        Ok(daemon)
    }

    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Peak resident set (`VmHWM`) of the daemon process, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let pid = self.child.as_ref()?.id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Ask the daemon to shut down (it checkpoints on the way out) and
    /// wait for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = Client::connect(self.addr, TIMEOUT)
            .and_then(|mut c| c.request("POST", "/v1/shutdown", ""));
        let mut child = self.child.take().expect("a running daemon owns its child");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not stop within 60 s".into());
                }
                Err(e) => return Err(format!("waiting for the daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Prometheus samples by name (labels included in the key).
pub type Counters = BTreeMap<String, f64>;

/// Scrape the daemon's `/metrics`.
pub fn scrape(addr: SocketAddr) -> Result<Counters, String> {
    let resp = Client::connect(addr, TIMEOUT)
        .and_then(|mut c| c.request("GET", "/metrics", ""))
        .map_err(|e| format!("scraping /metrics: {e}"))?;
    if resp.status != 200 {
        return Err(format!("/metrics answered {}", resp.status));
    }
    Ok(resp
        .body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// Growth of one counter between two scrapes (an absent counter is 0).
pub fn delta(before: &Counters, after: &Counters, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

/// Bytes of every file under `path`.
pub fn dir_bytes(path: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// One finished `dctstream` command.
#[derive(Debug)]
pub struct CommandRun {
    /// Whether it exited 0.
    pub ok: bool,
    /// Its standard output.
    pub stdout: String,
    /// Wall-clock milliseconds.
    pub ms: f64,
}

/// Run `bin ARGS…` to completion.
pub fn run_command(bin: &Path, args: &[&str]) -> Result<CommandRun, String> {
    let t = Instant::now();
    let out = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running {} {}: {e}", bin.display(), args.join(" ")))?;
    Ok(CommandRun {
        ok: out.status.success(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        ms: t.elapsed().as_secs_f64() * 1e3,
    })
}

/// Largest resident set of any child process this process has waited
/// for, in MB (`getrusage(RUSAGE_CHILDREN)`).
#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
pub fn children_peak_rss_mb() -> Option<f64> {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the Linux
    // x86-64/aarch64 layout (two timevals, then fourteen longs), and
    // getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0).then(|| usage.maxrss as f64 / 1024.0)
}

/// Not available off Linux.
#[cfg(not(target_os = "linux"))]
pub fn children_peak_rss_mb() -> Option<f64> {
    None
}
