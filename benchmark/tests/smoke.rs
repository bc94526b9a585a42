//! Drives the built `sft-benchmark` binary the way `benchmark/run` does.
//! The runs are far too short to measure anything (`--smoke` is three
//! seconds); they show that every workload completes, passes its output
//! checks and reports every metric the catalog names.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::Mutex;

use sft_benchmark::json::Json;
use sft_benchmark::metrics::{END_TO_END, TRACED, TRACE_OVERHEAD};
use sft_benchmark::probes::{EXACT, PROBES};
use sft_benchmark::workload::WORKLOADS;

/// The runs time themselves (an open-loop run fails when its generator
/// runs late), so they must not share the two cores with each other.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn out_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn bench(args: &[&str], out: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sft-benchmark"))
        .arg("--out")
        .arg(out_dir(out))
        .args(args)
        .output()
        .expect("run sft-benchmark")
}

fn last_line_json(output: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&output.stdout);
    Json::parse(stdout.lines().last().expect("some output")).expect("result line parses")
}

#[test]
fn smoke_suite_passes_every_check_and_reports_every_metric() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let output = bench(&["--smoke", "--seed", "11"], "smoke");
    assert!(
        output.status.success(),
        "suite failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(out_dir("smoke").join("summary.json")).expect("summary");
    let summary = Json::parse(&text).expect("summary parses");
    assert_eq!(
        summary.get("claim"),
        Some(&Json::Null),
        "no performance claim"
    );
    assert!(
        text.trim_end().ends_with("\"claim\": null\n}"),
        "the summary ends with the claim"
    );
    assert_eq!(summary.get("correct"), Some(&Json::Bool(true)));
    for workload in &WORKLOADS {
        let w = summary
            .get("workloads")
            .and_then(|all| all.get(workload.name))
            .unwrap_or_else(|| panic!("{} missing", workload.name));
        assert_eq!(
            w.get("correct"),
            Some(&Json::Bool(true)),
            "{}",
            workload.name
        );
        assert_eq!(w.get("failed"), Some(&Json::Arr(vec![Json::Num(0.0)])));
        let median = |name: &str| {
            w.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("median"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{}/{name} missing", workload.name))
        };
        for def in &END_TO_END {
            assert!(
                median(def.name) > 0.0,
                "{}/{} is never zero",
                workload.name,
                def.name
            );
        }
        for def in TRACED.iter().chain([&TRACE_OVERHEAD]) {
            assert!(
                median(def.name).is_finite(),
                "{}/{}",
                workload.name,
                def.name
            );
        }
        // The traced run saw the stack's own instrumentation.
        assert!(median("sim.on_envelope_p50_us") > 0.0);
        assert!(median("network.client_requests") > 0.0);
        let wal = median("core.wal_fsyncs_per_block");
        assert_eq!(
            wal > 0.0,
            workload.name.contains("_wal"),
            "{}: {wal}",
            workload.name
        );
    }
    for def in &PROBES {
        assert!(
            summary
                .get("probes")
                .and_then(|p| p.get(def.name))
                .is_some(),
            "probe {} missing",
            def.name
        );
    }
    // Traced runs leave their client-side spans behind, one line a request.
    let spans = std::fs::read_to_string(out_dir("smoke").join("spans-lat_n4_wal-seed11.ndjson"))
        .expect("spans file");
    let first = Json::parse(spans.lines().next().expect("a span")).expect("span parses");
    assert!(first.get("due_us").is_some() && first.get("acked_us").is_some());
}

#[test]
fn exact_probes_repeat_bit_for_bit_across_invocations() {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let runs: Vec<Json> = ["3", "4"]
        .iter()
        .map(|seed| {
            let output = bench(&["--probes", "only", "--seed", seed], "probes");
            assert!(output.status.success());
            last_line_json(&output)
        })
        .collect();
    for name in EXACT {
        let value = |run: &Json| {
            run.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        assert_eq!(
            value(&runs[0]).to_bits(),
            value(&runs[1]).to_bits(),
            "{name} is a count from the virtual-time simulator"
        );
    }
    let level = runs[0]
        .get("metrics")
        .unwrap()
        .get("sim.n7_withhold1_max_level")
        .unwrap();
    assert_eq!(
        level.get("value").and_then(Json::as_f64),
        Some(3.0),
        "Fig. 8: 6 - f - 1"
    );
}

#[test]
fn benchmark_json_says_what_the_catalog_says() {
    let output = bench(&["--contract"], "contract");
    assert!(output.status.success());
    let generated = Json::parse(&String::from_utf8_lossy(&output.stdout)).expect("contract");
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    assert_eq!(
        committed, generated,
        "regenerate with: benchmark/run --contract > BENCHMARK.json"
    );
}

#[test]
fn a_bad_invocation_prints_no_result_and_fails() {
    let output = bench(&["--workload", "no_such_workload"], "bad");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}

#[test]
fn the_readme_names_every_metric_and_workload() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("README.md");
    let readme = std::fs::read_to_string(path).expect("README.md");
    let metrics = END_TO_END
        .iter()
        .chain(&TRACED)
        .chain(&PROBES)
        .chain([&TRACE_OVERHEAD])
        .map(|def| def.name);
    for name in metrics.chain(WORKLOADS.iter().map(|w| w.name)) {
        assert!(
            readme.contains(&format!("`{name}`")),
            "README.md does not explain {name}"
        );
    }
}
