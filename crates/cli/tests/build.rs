//! `dctstream build` as a process: stdin input and the exit status of a
//! misspelled flag.

use std::io::Write;
use std::process::{Command, Stdio};

fn dctstream() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dctstream"))
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("dctstream_cli_build_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// `--input -` reads stdin through typed intake, with no schema.
#[test]
fn build_reads_stdin_without_a_schema() {
    let out = scratch("stdin.dcts");
    let mut child = dctstream()
        .args(["build", "--input", "-", "--column", "1", "--domain", "0:9"])
        .args(["-m", "4", "--skip-header", "--out"])
        .arg(&out)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn dctstream build");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"k,v\na,1\nb,2\nc,x\n")
        .unwrap();
    let run = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(run.status.success(), "{stdout}");
    assert!(stdout.contains("2 tuples (1 rejected)"), "{stdout}");
    assert!(out.exists());
}

/// A misspelled flag exits 1 with a usage error that names it.
#[test]
fn misspelled_flag_exits_one_with_a_usage_error() {
    let run = dctstream()
        .args(["build", "--input", "-", "--column", "0", "--domain", "0:9"])
        .args(["-m", "4", "--out", "x.dcts", "--threds", "4"])
        .stdin(Stdio::null())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("usage error: unknown flag --threds"),
        "{stderr}"
    );
}
