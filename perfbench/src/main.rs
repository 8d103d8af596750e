//! Command line of the benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <results.jsonl>]
//! perfbench compare <base.jsonl> <new.jsonl> [--spec BENCHMARK.json]
//! ```
//!
//! A run prints the host header, every metric with its unit, sample count,
//! median and quartiles, the correctness failures, and as its last line
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`. It
//! exits 1 when a correctness check failed and 2 on a usage error.

use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

use perfbench::workloads::{self, RunSpec};

const USAGE: &str = "usage: perfbench --workload <train_flux|train_classifier|serve_joint> \
--seed <n> --seconds <s> --trace <0|1> [--out <results.jsonl>]\n       \
perfbench compare <base.jsonl> <new.jsonl> [--spec BENCHMARK.json]";

struct RunArgs {
    workload: String,
    spec: RunSpec,
    out: Option<String>,
}

fn parse_run(args: &[String], process_start: Instant) -> Result<RunArgs, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut out) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a duration in (0, 600] seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out" => out = Some(value.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        spec: RunSpec {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            process_start,
        },
        out,
    })
}

fn append_record(path: &str, line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")?;
    f.sync_all()
}

fn run(args: &[String], process_start: Instant) -> Result<ExitCode, String> {
    let a = parse_run(args, process_start)?;
    let result = workloads::run(&a.workload, &a.spec)?;
    for line in result.lines() {
        println!("{line}");
    }
    if let Some(path) = &a.out {
        let record = serde_json::to_string(&result.record()).expect("record serialises");
        append_record(path, &record).map_err(|e| format!("--out {path}: {e}"))?;
    }
    println!("{}", result.summary_line());
    Ok(if result.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn compare(args: &[String]) -> Result<ExitCode, String> {
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--spec" {
            spec_path = it.next().ok_or("--spec needs a path")?.clone();
        } else {
            files.push(a.clone());
        }
    }
    let [base, new] = files.as_slice() else {
        return Err("compare needs exactly two result files".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let spec = serde_json::from_str(&read(&spec_path)?).map_err(|e| format!("{spec_path}: {e}"))?;
    let base =
        perfbench::compare::parse_records(&read(base)?).map_err(|e| format!("{base}: {e}"))?;
    let new = perfbench::compare::parse_records(&read(new)?).map_err(|e| format!("{new}: {e}"))?;
    let (lines, any_worse) = perfbench::compare::compare(&spec, &base, &new)?;
    for l in lines {
        println!("{l}");
    }
    Ok(if any_worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        _ => run(&args, process_start),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
