//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! --dctstream PATH [--serve-arg ARG]...` — run one benchmark workload
//! and print its result; `perfbench/run.py` builds both binaries and
//! calls this.

use perfbench::inputs::Workload;
use perfbench::Ctx;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                     --dctstream PATH [--serve-arg ARG]...";

fn parse(args: &[String]) -> Result<Ctx, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut bin) = (None, None, None, None, None);
    let mut serve_args = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--dctstream" => bin = Some(PathBuf::from(value)),
            "--serve-arg" => serve_args.push(value.clone()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let dctstream = bin.ok_or("missing --dctstream")?;
    if !dctstream.is_file() {
        return Err(format!("no dctstream binary at {}", dctstream.display()));
    }
    Ok(Ctx {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        dctstream,
        serve_args,
        work: PathBuf::from(".bench_work").join(workload.name()),
        digests: PathBuf::from(".bench_work").join("digests"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&ctx) {
        Ok(mut report) => {
            if report.print(ctx.trace) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
