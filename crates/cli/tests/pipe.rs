//! Piped-output regression: `dctstream ... | head` must exit 0.
//!
//! The binary used to route output through `println!`, which panics
//! ("failed printing to stdout") when the downstream reader closes the
//! pipe early. Every stdout write now funnels through
//! `dctstream_cli::emit_line`, and `main` maps
//! [`std::io::ErrorKind::BrokenPipe`] to a clean success exit.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn dctstream() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dctstream"))
}

/// The deterministic reproduction: `watch` streams frames for seconds,
/// so closing the pipe after the first line guarantees a later write
/// hits a closed pipe (the old binary panicked here and exited 101).
#[test]
fn watch_piped_to_early_closing_reader_exits_zero() {
    let mut child = dctstream()
        .args(["watch", "--interval", "20", "--iterations", "200"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dctstream watch");

    // Read one line (like `head -1`), then close our end of the pipe.
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut first = String::new();
    reader.read_line(&mut first).expect("read first frame line");
    assert!(!first.is_empty(), "watch produced no output");
    drop(reader);

    let out = child.wait_with_output().expect("wait for dctstream");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "watch | head must exit 0, got {:?}; stderr: {stderr}",
        out.status
    );
    assert!(
        !stderr.contains("panic"),
        "broken pipe must not panic: {stderr}"
    );
}

/// `stats | head` with the reader gone before the write: still exit 0.
#[test]
fn stats_with_closed_stdout_exits_zero() {
    let mut child = dctstream()
        .args(["stats", "--prom"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dctstream stats");
    // Close the read end immediately, before the child writes.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for dctstream");
    assert!(
        out.status.success(),
        "stats with a closed pipe must exit 0, got {:?}; stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A usage error whose stderr is a pipe with no reader left: writing the
/// message fails with `EPIPE`. `main` used to report through
/// `eprintln!`, which panicked on that failure and exited 101; the
/// message is now dropped and the usage error still exits 1.
#[test]
fn usage_error_with_closed_stderr_exits_one_without_panicking() {
    let (reader, writer) = std::io::pipe().expect("create a pipe");
    drop(reader);
    let out = dctstream()
        .args(["build", "--bogus"])
        .stdout(Stdio::piped())
        .stderr(writer)
        .output()
        .expect("run dctstream");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(1),
        "usage error with a closed stderr must exit 1, got {:?}; stdout: {stdout}",
        out.status
    );
    assert!(!stdout.contains("panic"), "must not panic: {stdout}");
}

/// Sanity: the happy path still prints and exits 0.
#[test]
fn help_prints_usage_and_exits_zero() {
    let out = dctstream().arg("--help").output().expect("run dctstream");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("usage: dctstream"), "usage text: {text}");
    assert!(text.contains("serve"), "serve must be documented: {text}");
}
