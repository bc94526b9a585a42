//! The perf-regression gate CLI over `BENCH_*.json` summaries.
//!
//! ```text
//! bench_gate BASELINE_DIR NEW_DIR [--tolerance FRACTION]
//! ```
//!
//! Compares every `BENCH_*.json` in `NEW_DIR` against the file of the same
//! name in `BASELINE_DIR` using [`sft_bench::gate::compare`]: commit
//! latency, throughput, and message/byte complexity must stay within the
//! tolerance band (default 0.05 = 5%; the gated metrics are deterministic virtual numbers, so slack is for intentional shifts, not noise). Summaries with no baseline
//! counterpart seed the baseline and pass — that is the first-run path
//! `scripts/bench_gate` relies on. Exits non-zero on any regression.

#![deny(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;

use sft_bench::gate::{compare, Summary};

struct Args {
    baseline_dir: String,
    new_dir: String,
    tolerance: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut tolerance = 0.05;
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = raw.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--tolerance" => {
                let value = iter.next().ok_or("--tolerance needs a value")?;
                tolerance = value
                    .parse::<f64>()
                    .ok()
                    .filter(|t| (0.0..1.0).contains(t))
                    .ok_or_else(|| format!("bad tolerance {value:?}; need 0 <= t < 1"))?;
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other:?}")),
            other => positional.push(other.to_string()),
        }
    }
    let [baseline_dir, new_dir] = positional.try_into().map_err(|extra: Vec<String>| {
        format!(
            "expected BASELINE_DIR NEW_DIR, got {} positional args",
            extra.len()
        )
    })?;
    Ok(Args {
        baseline_dir,
        new_dir,
        tolerance,
    })
}

/// The `BENCH_*.json` files directly inside `dir`, sorted by name.
fn summary_files(dir: &Path) -> Result<Vec<String>, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    names.sort();
    Ok(names)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let new_dir = Path::new(&args.new_dir);
    let baseline_dir = Path::new(&args.baseline_dir);
    let names = summary_files(new_dir)?;
    if names.is_empty() {
        return Err(format!("no BENCH_*.json files in {}", new_dir.display()));
    }
    let mut all_passed = true;
    for name in names {
        let new_path = new_dir.join(&name);
        let new_json = std::fs::read_to_string(&new_path)
            .map_err(|e| format!("reading {}: {e}", new_path.display()))?;
        let new_summary = Summary::parse(&new_json);
        let baseline_path = baseline_dir.join(&name);
        let Ok(baseline_json) = std::fs::read_to_string(&baseline_path) else {
            println!(
                "{name}: no baseline at {} — seeding",
                baseline_path.display()
            );
            continue;
        };
        let result = compare(
            &Summary::parse(&baseline_json),
            &new_summary,
            args.tolerance,
        );
        println!(
            "{name}: {} (tolerance {:.0}%)",
            if result.passed() { "PASS" } else { "FAIL" },
            args.tolerance * 100.0
        );
        for note in &result.notes {
            println!("  {note}");
        }
        for regression in &result.regressions {
            println!("  REGRESSION: {regression}");
        }
        all_passed &= result.passed();
    }
    Ok(all_passed)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("bench gate failed: performance regressed beyond tolerance");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("bench_gate: {message}");
            eprintln!("usage: bench_gate BASELINE_DIR NEW_DIR [--tolerance FRACTION]");
            ExitCode::FAILURE
        }
    }
}
