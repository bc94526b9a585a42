//! One workload run in this process: set up several times, run once for
//! real, measure, check, print. The suite starts one such process per
//! run so that peak memory, the allocator and the lazily started crypto
//! pool are fresh each time; the accepting driver calls it directly.

use std::io::Write as _;
use std::path::Path;

use crate::cluster::{self, RunOutcome};
use crate::json::Json;
use crate::metrics::{self, Values};
use crate::workload::{Phases, Workload};
use crate::{probes, stats};

/// Set-ups per run: this many throw-away clusters are brought up to their
/// first acks before the real one, and `setup_s` is the median of all.
pub const SETUP_SAMPLES: usize = 5;

/// What one worker invocation was asked to do.
#[derive(Clone, Debug)]
pub struct WorkerArgs {
    /// The workload to run.
    pub workload: &'static Workload,
    /// Seed of payload bytes, arrival times and `ack_at` order.
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub seconds: u64,
    /// Run with the stack's metric registry recording, and report the
    /// per-layer metrics instead of the end-to-end ones.
    pub trace: bool,
    /// With `trace`: also run the layer probes and report them.
    pub probes: bool,
}

/// The median set-up time. A set-up that showed no ack within its
/// cluster's life (`None`) is a censored sample — at least that slow — so
/// it sorts last instead of failing the run; only when the median itself
/// is censored is there no answer.
pub fn setup_median(samples: &[Option<f64>]) -> Option<f64> {
    let as_slow_as_it_gets: Vec<f64> = samples
        .iter()
        .map(|sample| sample.unwrap_or(f64::INFINITY))
        .collect();
    stats::median(&stats::sorted(as_slow_as_it_gets)).filter(|median| median.is_finite())
}

/// The worker's result line: exactly the keys the driver contract names.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Values) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, value)| {
                let unit = metrics::find(name).map_or("", |def| def.unit);
                (
                    *name,
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })),
        ),
    ])
}

/// Prints `values` one per line, by name, with unit.
pub fn print_values(values: &Values) {
    for (name, value) in values {
        let unit = metrics::find(name).map_or("", |def| def.unit);
        println!("  {name:<44} {value:>16.4} {unit}");
    }
}

/// Writes the client-side spans of a traced run, one JSON object per
/// request, after the run is over.
fn write_spans(path: &Path, outcome: &RunOutcome) -> std::io::Result<()> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    let us = |d: std::time::Duration| Json::Num(d.as_micros() as f64);
    for (conn, log) in outcome.clients.iter().enumerate() {
        for (seq, span) in log.spans.iter().enumerate() {
            let line = Json::obj([
                ("conn", Json::Num(conn as f64)),
                ("seq", Json::Num(seq as f64)),
                ("due_us", us(span.due)),
                ("write_start_us", us(span.write_start)),
                ("write_end_us", span.write_end.map_or(Json::Null, us)),
                ("acked_us", span.acked.map_or(Json::Null, us)),
                ("ack_at", Json::Num(span.ack_at as f64)),
                ("strength", Json::Num(span.strength as f64)),
                ("busy_retries", Json::Num(f64::from(span.busy_retries))),
            ]);
            writeln!(file, "{}", line.encode())?;
        }
    }
    file.flush()
}

/// Runs the workload and prints its metrics; the last line of standard
/// output is the result object. Returns whether every output check held.
///
/// # Errors
///
/// Returns a message when the cluster or a connection could not run at
/// all (nothing is printed on standard output then).
pub fn run(args: &WorkerArgs, out_dir: &Path) -> Result<bool, String> {
    let workload = args.workload;
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    for sample in 1..SETUP_SAMPLES {
        let rep = cluster::run(workload, Phases::setup_only(), args.seed, args.trace)?;
        if rep.setup_s.is_none() {
            println!(
                "  set-up sample {sample} saw no ack within {:?}",
                Phases::setup_only().end()
            );
        }
        setups.push(rep.setup_s);
    }
    let outcome = cluster::run(
        workload,
        Phases::for_seconds(args.seconds),
        args.seed,
        args.trace,
    )?;
    setups.push(outcome.setup_s);
    let measured = metrics::measure(workload, &outcome, setup_median(&setups));

    let correct = measured.violations.is_empty();
    // A run that broke a check has no valid operations.
    let failed = if correct {
        measured.failed
    } else {
        measured.attempted.max(1)
    };
    println!(
        "workload {} seed {} seconds {} trace {}: attempted {} failed {}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        measured.attempted,
        failed
    );
    for violation in &measured.violations {
        println!("  CHECK FAILED: {violation}");
    }
    let reported = if args.trace {
        let spans = out_dir.join(format!("spans-{}-seed{}.ndjson", workload.name, args.seed));
        write_spans(&spans, &outcome).map_err(|e| format!("{}: {e}", spans.display()))?;
        let mut layers = measured.traced;
        if args.probes {
            layers.extend(probes::run_all(args.seed));
        }
        layers
    } else {
        measured.end_to_end
    };
    print_values(&reported);
    println!(
        "{}",
        result_line(correct, measured.attempted.max(1), failed, &reported).encode()
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_set_up_that_saw_no_ack_sorts_last_and_only_a_censored_median_fails() {
        let ms = |v: f64| Some(v / 1e3);
        assert_eq!(
            setup_median(&[ms(13.0), ms(12.0), ms(14.0), ms(11.0), ms(15.0)]),
            ms(13.0)
        );
        // One and two slow set-ups move the median up a rank, no further.
        assert_eq!(
            setup_median(&[ms(13.0), None, ms(14.0), ms(11.0), ms(15.0)]),
            ms(14.0)
        );
        assert_eq!(
            setup_median(&[None, None, ms(14.0), ms(11.0), ms(15.0)]),
            ms(15.0)
        );
        assert_eq!(setup_median(&[None, None, None, ms(11.0), ms(15.0)]), None);
        assert_eq!(setup_median(&[]), None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips() {
        let values: Values = vec![("goodput_tps", 1234.5678), ("setup_s", 0.0123456789)];
        let line = result_line(true, 6021, 0, &values).encode();
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("attempted").unwrap().as_f64(), Some(6021.0));
        assert!(line.contains("\"attempted\": 6021,"), "{line}");
        let setup = parsed.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.0123456789));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }
}
