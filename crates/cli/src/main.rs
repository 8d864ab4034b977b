//! `dctstream` — see [`dctstream_cli`] for the command reference.

use dctstream_cli::{emit_line, parse, run, usage, CliError};
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

/// Write a diagnostic line to stderr. A closed stderr loses the line but
/// never panics (as `eprintln!` does): the exit code still reports the
/// failure.
fn report(msg: &str) {
    let _ = writeln!(std::io::stderr(), "{msg}");
}

/// Print the final command output. A downstream reader that closed
/// early (`dctstream stats | head`) is a success, not a panic: the
/// consumer got everything it asked for.
fn finish(out: &str) -> ExitCode {
    match emit_line(out) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            report(&format!("error writing output: {e}"));
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        return finish(usage());
    }
    match parse(&args).and_then(run) {
        Ok(out) => finish(&out),
        Err(CliError::Usage(msg)) => {
            report(&format!("usage error: {msg}\n{}", usage()));
            ExitCode::FAILURE
        }
        Err(CliError::Io(e)) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            report(&format!("error: {e}"));
            ExitCode::FAILURE
        }
    }
}
