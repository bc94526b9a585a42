//! `plot-bench`: renders bench-trajectory SVG charts from `BENCH_*.json`
//! snapshot directories.
//!
//! ```text
//! plot-bench --out DIR SNAPSHOT_DIR [SNAPSHOT_DIR ...]
//! ```
//!
//! Snapshot directories are given in run order (oldest first — e.g. the
//! restored baseline artifact, then the current run's summaries). Each
//! gated metric present in at least one summary becomes
//! `<out>/<metric>.svg` with one curve per summary file and one point
//! per snapshot. See `sft_bench::plot` for the chart format.

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use sft_bench::plot::{charts, load_snapshot, Snapshot};

fn parse_args() -> Result<(PathBuf, Vec<PathBuf>), String> {
    let mut out: Option<PathBuf> = None;
    let mut dirs: Vec<PathBuf> = Vec::new();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = raw.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => {
                let v = iter.next().ok_or("--out needs a value")?;
                out = Some(v.into());
            }
            other if other.starts_with("--") => {
                return Err(format!("unexpected argument {other:?}"));
            }
            dir => dirs.push(dir.into()),
        }
    }
    let out = out.ok_or("--out is required")?;
    if dirs.is_empty() {
        return Err("need at least one snapshot directory".to_string());
    }
    Ok((out, dirs))
}

fn main() -> ExitCode {
    let (out, dirs) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("plot-bench: {message}");
            eprintln!("usage: plot-bench --out DIR SNAPSHOT_DIR [SNAPSHOT_DIR ...]");
            return ExitCode::FAILURE;
        }
    };

    let snapshots: Vec<Snapshot> = dirs
        .iter()
        .map(|dir| {
            let label = dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("run")
                .to_string();
            load_snapshot(dir, &label)
        })
        .collect();
    let loaded: usize = snapshots.iter().map(|s| s.summaries.len()).sum();
    if loaded == 0 {
        eprintln!("plot-bench: no BENCH_*.json summaries found in the given directories");
        return ExitCode::FAILURE;
    }

    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("plot-bench: creating {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let rendered = charts(&snapshots);
    for (name, svg) in &rendered {
        let path = out.join(format!("{name}.svg"));
        if let Err(e) = std::fs::write(&path, svg) {
            eprintln!("plot-bench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!(
        "plot-bench: {} charts from {loaded} summaries across {} runs -> {}",
        rendered.len(),
        dirs.len(),
        out.display()
    );
    ExitCode::SUCCESS
}
