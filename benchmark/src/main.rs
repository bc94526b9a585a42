//! `sft-benchmark`: the command behind `benchmark/run` and
//! `benchmark/compare`. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! sft-benchmark [--seconds S] [--seed N] [--repeat K] [--smoke]    the whole suite
//! sft-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--probes on|off]
//!                                                                  one run (the driver's form)
//! sft-benchmark --probes only [--seed N]                           the layer probes alone
//! sft-benchmark --compare A.json B.json                            B against baseline A
//! sft-benchmark --contract                                         BENCHMARK.json, from the catalog
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use sft_benchmark::json::Json;
use sft_benchmark::suite::{self, SuiteArgs};
use sft_benchmark::worker::{self, WorkerArgs};
use sft_benchmark::{compare, probes, workload};

/// Measured window when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: u64 = 20;
/// Measured window under `--smoke` (tests only: too short to mean anything).
const SMOKE_SECONDS: u64 = 3;

struct Args {
    workload: Option<&'static workload::Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    probes: String,
    repeat: u64,
    out: PathBuf,
    compare: Option<(String, String)>,
    contract: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        probes: "on".into(),
        repeat: 1,
        out: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        compare: None,
        contract: false,
    };
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        let mut value = || raw.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|e| format!("{flag} {text}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(workload::find(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--repeat" => args.repeat = number(value()?)?.max(1),
            "--trace" => args.trace = number(value()?)? != 0,
            "--probes" => {
                args.probes = value()?;
                if !["on", "off", "only"].contains(&args.probes.as_str()) {
                    return Err(format!(
                        "--probes {}: expected on, off or only",
                        args.probes
                    ));
                }
            }
            "--smoke" => args.seconds = SMOKE_SECONDS,
            "--out" => args.out = PathBuf::from(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            "--contract" => args.contract = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn read_summary(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn dispatch(args: &Args) -> Result<bool, String> {
    if args.contract {
        print!("{}", suite::contract(DEFAULT_SECONDS).encode_pretty());
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        return compare::compare(&read_summary(a)?, &read_summary(b)?);
    }
    // WAL directories and probe files go under the temp dir; keep that
    // inside the benchmark's own output directory. Set before any thread
    // exists.
    let tmp = args.out.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    std::env::set_var("TMPDIR", &tmp);

    if let Some(workload) = args.workload {
        return worker::run(
            &WorkerArgs {
                workload,
                seed: args.seed,
                seconds: args.seconds,
                trace: args.trace,
                probes: args.probes == "on",
            },
            &args.out,
        );
    }
    if args.probes == "only" {
        let values = probes::run_all(args.seed);
        worker::print_values(&values);
        let line = worker::result_line(true, values.len() as u64, 0, &values);
        println!("{}", line.encode());
        return Ok(true);
    }
    suite::run(
        &SuiteArgs {
            seed: args.seed,
            seconds: args.seconds,
            repeat: args.repeat,
        },
        &args.out,
    )
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| dispatch(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("sft-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
