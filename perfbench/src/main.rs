//! `perfbench` command line.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--root DIR] [--out DIR]
//! perfbench --record-references [--root DIR] [--out DIR]
//! ```
//!
//! Prints the result as one JSON line (the last line of stdout) and
//! exits 0; failure reasons go to stderr.  A set-up error or a bad
//! argument exits 2 without a result.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{Options, Refs, REFERENCE_SEED};

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    value(args, flag).map_or(Ok(default), |v| {
        v.parse().map_err(|_| format!("{flag}: cannot parse '{v}'"))
    })
}

fn run(args: &[String]) -> Result<(), String> {
    let root = PathBuf::from(value(args, "--root").unwrap_or("."));
    let out_dir =
        value(args, "--out").map_or_else(|| root.join(".bench_build/perfbench-out"), PathBuf::from);
    if args.iter().any(|a| a == "--record-references") {
        return perfbench::record_references(&root, &out_dir);
    }
    let workload = value(args, "--workload")
        .ok_or("--workload is required")?
        .to_string();
    let seed = parse(args, "--seed", REFERENCE_SEED)?;
    let seconds: f64 = parse(args, "--seconds", 10.0)?;
    let trace = match value(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    let refs = if seed == REFERENCE_SEED {
        Some(Refs::load(&root)?)
    } else {
        None
    };
    let report = perfbench::run(&Options {
        workload,
        seed,
        seconds,
        trace,
        root,
        out_dir,
        refs,
    })?;
    for f in &report.failures {
        eprintln!("failed: {f}");
    }
    println!("{}", report.to_json());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
