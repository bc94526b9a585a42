//! The whole benchmark in one command: every workload twice — once plain
//! for the end-to-end numbers, once traced for the per-layer ones, each in
//! a fresh child process — then the layer probes, repeated `--repeat`
//! times, summarised as medians and quartiles and written as one JSON
//! document that `compare` reads.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, TRACED, TRACE_OVERHEAD};
use crate::probes::PROBES;
use crate::stats;
use crate::workload::WORKLOADS;

/// What the suite was asked to do.
#[derive(Clone, Debug)]
pub struct SuiteArgs {
    /// Seed of the first repeat; repeat `k` uses `seed + k`.
    pub seed: u64,
    /// Measured window per run; plain and traced runs always share it,
    /// because at this commit throughput depends on run length.
    pub seconds: u64,
    /// How many times to run everything.
    pub repeat: u64,
}

/// One child's result line.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64)>,
}

/// Runs this same executable as a worker and parses the last line of its
/// standard output.
fn child(out_dir: &Path, args: &[String]) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("--out")
        .arg(out_dir)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn worker: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("worker {args:?} printed nothing ({})", output.status))?;
    let doc = Json::parse(line).map_err(|e| format!("worker {args:?}: {e}"))?;
    let field = |key: &str| {
        doc.get(key)
            .ok_or_else(|| format!("worker result lacks {key}"))
    };
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: field("correct")? == &Json::Bool(true) && output.status.success(),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0),
        failed: field("failed")?.as_f64().unwrap_or(0.0),
        metrics,
    })
}

/// The summary object of one metric over all repeats.
fn summarise(def: &MetricDef, values: &[f64]) -> Json {
    let sorted = stats::sorted(values.to_vec());
    let mut fields = vec![
        ("unit", Json::Str(def.unit.into())),
        ("better", Json::Str(def.better.as_str().into())),
        (
            "values",
            Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
        ),
        ("median", Json::Num(stats::median(&sorted).unwrap_or(0.0))),
    ];
    if let Some([q1, _, q3]) = stats::quartiles(&sorted) {
        fields.push(("q1", Json::Num(q1)));
        fields.push(("q3", Json::Num(q3)));
    }
    if let Some(bound) = def.bound {
        fields.push(("bound", Json::Num(bound)));
    }
    Json::obj(fields)
}

/// Collects `name`'s value from each repeat's result.
fn series(results: &[ChildResult], name: &str) -> Vec<f64> {
    results
        .iter()
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
        .collect()
}

fn print_summary(name: &str, summary: &Json) {
    let num = |key: &str| summary.get(key).and_then(Json::as_f64);
    let unit = summary.get("unit").and_then(Json::as_str).unwrap_or("");
    let quartiles = match (num("q1"), num("q3")) {
        (Some(q1), Some(q3)) => format!("  [{q1:.4} .. {q3:.4}]"),
        _ => String::new(),
    };
    println!(
        "  {name:<44} {:>16.4} {unit}{quartiles}",
        num("median").unwrap_or(0.0)
    );
}

/// Runs the suite, prints every metric by name with its unit, writes the
/// summary to `<out_dir>/summary.json` and returns whether every run
/// passed its output checks.
///
/// # Errors
///
/// Returns a message when a worker could not be run or understood.
pub fn run(args: &SuiteArgs, out_dir: &Path) -> Result<bool, String> {
    let started = Instant::now();
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for workload in &WORKLOADS {
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for k in 0..args.repeat {
            for (trace, results) in [("0", &mut plain), ("1", &mut traced)] {
                let worker_args = [
                    "--workload".to_string(),
                    workload.name.into(),
                    "--seed".into(),
                    (args.seed + k).to_string(),
                    "--seconds".into(),
                    args.seconds.to_string(),
                    "--trace".into(),
                    trace.into(),
                    "--probes".into(),
                    "off".into(),
                ];
                eprintln!(
                    "[{:>6.1}s] {} trace {trace} repeat {k}",
                    started.elapsed().as_secs_f64(),
                    workload.name
                );
                results.push(child(out_dir, &worker_args)?);
            }
        }
        let correct = plain.iter().chain(&traced).all(|r| r.correct);
        all_correct &= correct;
        let mut metrics: Vec<(&str, Json)> = END_TO_END
            .iter()
            .map(|def| (def.name, summarise(def, &series(&plain, def.name))))
            .chain(
                TRACED
                    .iter()
                    .map(|def| (def.name, summarise(def, &series(&traced, def.name)))),
            )
            .collect();
        // Same repeat, same seed: plain minus traced goodput, as a
        // share of plain, is what recording costs.
        let overhead: Vec<f64> = series(&plain, "goodput_tps")
            .iter()
            .zip(series(&traced, "loadgen.goodput_traced_tps"))
            .map(|(plain, traced)| (plain - traced) / plain * 100.0)
            .collect();
        metrics.push((TRACE_OVERHEAD.name, summarise(&TRACE_OVERHEAD, &overhead)));
        println!("== {} — {}", workload.name, workload.why);
        for (name, summary) in &metrics {
            print_summary(name, summary);
        }
        let counts =
            |f: fn(&ChildResult) -> f64| Json::Arr(plain.iter().map(|r| Json::Num(f(r))).collect());
        workloads.push((
            workload.name,
            Json::obj([
                ("correct", Json::Bool(correct)),
                ("attempted", counts(|r| r.attempted)),
                ("failed", counts(|r| r.failed)),
                ("metrics", Json::obj(metrics)),
            ]),
        ));
    }

    let mut probe_runs = Vec::new();
    for k in 0..args.repeat {
        eprintln!(
            "[{:>6.1}s] probes repeat {k}",
            started.elapsed().as_secs_f64()
        );
        let worker_args = [
            "--probes".to_string(),
            "only".into(),
            "--seed".into(),
            (args.seed + k).to_string(),
        ];
        probe_runs.push(child(out_dir, &worker_args)?);
    }
    println!("== probes — each layer's public functions, timed from outside");
    let probes: Vec<(&str, Json)> = PROBES
        .iter()
        .map(|def| (def.name, summarise(def, &series(&probe_runs, def.name))))
        .collect();
    for (name, summary) in &probes {
        print_summary(name, summary);
    }

    let wall_s = started.elapsed().as_secs_f64();
    let summary = Json::obj([
        ("benchmark", Json::Str("sft-benchmark".into())),
        ("seconds", Json::Num(args.seconds as f64)),
        ("seed", Json::Num(args.seed as f64)),
        ("repeat", Json::Num(args.repeat as f64)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
        ("wall_s", Json::Num(wall_s)),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::obj(workloads)),
        ("probes", Json::obj(probes)),
        // This benchmark measures; it claims nothing.
        ("claim", Json::Null),
    ]);
    let path = out_dir.join("summary.json");
    std::fs::write(&path, summary.encode_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {} after {wall_s:.1} s; every output check {}",
        path.display(),
        if all_correct { "held" } else { "DID NOT hold" }
    );
    Ok(all_correct)
}

/// `BENCHMARK.json` as the catalog defines it — the file at the root of
/// the repository must say exactly this (a test holds it to that).
pub fn contract(run_seconds: u64) -> Json {
    let metric = |def: &MetricDef| {
        let mut fields = vec![
            ("name", Json::Str(def.name.into())),
            ("unit", Json::Str(def.unit.into())),
            ("better", Json::Str(def.better.as_str().into())),
        ];
        if let Some(bound) = def.bound {
            fields.push(("bound", Json::Num(bound)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![
                Json::Str("bash".into()),
                Json::Str("benchmark/run".into()),
            ]),
        ),
        ("paths", Json::Arr(vec![Json::Str("benchmark".into())])),
        ("run_seconds", Json::Num(run_seconds as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(TRACED.iter().chain(&PROBES).map(metric).collect()),
        ),
    ])
}
