//! `dctstream build` as a process: stdin input, the exit status of a
//! misspelled flag, and domains too wide to index.

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

/// The full `i64` domain has more values than a synopsis can index: a
/// typed error and exit 1, not a panic.
#[test]
fn full_i64_domain_exits_one_with_an_invalid_parameter_error() {
    let run = dctstream()
        .args(["build", "--input", "-", "--column", "0", "-m", "4"])
        .args(["--domain", "-9223372036854775808:9223372036854775807"])
        .arg("--out")
        .arg(scratch("full.dcts"))
        .stdin(Stdio::null())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("invalid parameter"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// A 2^63-value domain used to write NaN coefficient sums (`2 * n`
/// wrapped to zero); now its coefficients are finite and `info` reads
/// the file back.
#[test]
fn widest_indexable_domain_writes_finite_coefficients() {
    let out = scratch("wide.dcts");
    let mut child = dctstream()
        .args(["build", "--input", "-", "--column", "0", "-m", "8"])
        .args(["--domain", "0:9223372036854775807", "--out"])
        .arg(&out)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn dctstream build");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"0\n7\n7\n9223372036854775807\n")
        .unwrap();
    let run = child.wait_with_output().unwrap();
    assert!(run.status.success(), "{run:?}");

    let info = dctstream().arg("info").arg(&out).output().unwrap();
    let stdout = String::from_utf8_lossy(&info.stdout);
    assert!(info.status.success(), "{info:?}");
    assert!(stdout.contains("tuples      : 4"), "{stdout}");
    match dctstream_cli::load_synopsis(&out).unwrap() {
        dctstream_cli::AnySynopsis::Cosine(s) => {
            assert!(s.sums().iter().all(|x| x.is_finite()), "{:?}", s.sums());
        }
        dctstream_cli::AnySynopsis::Multi(_) => panic!("expected a 1-d synopsis"),
    }
}

/// `build` with `--input FILE` or `--input -` at `--threads N`: its
/// stdout, synopsis file and `--rejects` ledger.
fn build_outputs(input: &[u8], from_stdin: bool, threads: usize) -> (String, Vec<u8>, Vec<u8>) {
    let (csv, out, rejects) = (
        scratch("order.csv"),
        scratch("order.dcts"),
        scratch("order.rejects"),
    );
    std::fs::write(&csv, input).unwrap();
    let mut build = dctstream();
    build
        .args(["build", "--column", "0", "--domain", "0:899", "-m", "16"])
        .args([
            "--skip-header",
            "--threads",
            &threads.to_string(),
            "--input",
        ])
        .arg(if from_stdin {
            "-".as_ref()
        } else {
            csv.as_os_str()
        })
        .arg("--out")
        .arg(&out)
        .arg("--rejects")
        .arg(&rejects)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped());
    let mut child = build.spawn().expect("spawn dctstream build");
    let mut stdin = child.stdin.take().unwrap();
    if from_stdin {
        stdin.write_all(input).unwrap();
    }
    drop(stdin);
    let run = child.wait_with_output().unwrap();
    assert!(run.status.success(), "{run:?}");
    let stdout = String::from_utf8(run.stdout).unwrap();
    (
        stdout,
        std::fs::read(&out).unwrap(),
        std::fs::read(&rejects).unwrap(),
    )
}

/// A multi-block input read from a file or from stdin, on one or two
/// parse workers, yields the same report and ledger; the synopsis bytes
/// match wherever the flush's worker count does.
#[test]
fn stdin_and_file_builds_agree_at_every_worker_count() {
    // About 3 MB: keys over 899 and non-numeric keys are rejected.
    let mut input = b"key,note\r\n".to_vec();
    for i in 0..300_000u64 {
        let line = match i % 1009 {
            7 => format!("k{i},bad\n"),
            _ => format!("{},\"row, {i}\"\r\n", (i * 7) % 1000),
        };
        input.extend_from_slice(line.as_bytes());
    }
    let serial = build_outputs(&input, false, 1);
    assert!(serial.0.contains("rows rejected"), "{}", serial.0);
    for threads in [1, 2] {
        let file = build_outputs(&input, false, threads);
        let stdin = build_outputs(&input, true, threads);
        assert_eq!(stdin, file, "{threads} workers");
        assert_eq!(file.0, serial.0, "{threads} workers");
        assert!(file.2 == serial.2, "{threads} workers: ledgers differ");
    }
}
