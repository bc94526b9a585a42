//! `compare A.json B.json`: holds summary B against baseline A, one
//! verdict per end-to-end metric × workload, by the bounds the catalog
//! fixes. A pair whose own run-to-run spread is wider than its bound is
//! reported as unresolved, never as unchanged.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END};
use crate::probes::EXACT;
use crate::workload::WORKLOADS;

/// Absolute rise of the failed share that counts as a breach.
pub const FAILED_SHARE_BOUND: f64 = 0.002;

/// What one pair of summaries came to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the baseline by more than the bound.
    Regression,
    /// One side's interquartile spread exceeds the bound: the pair cannot
    /// show either.
    Unresolved,
}

/// One side's median and, with at least two repeats, its interquartile
/// range as a share of the median.
fn side(metric: &Json) -> Option<(f64, Option<f64>)> {
    let median = metric.get("median")?.as_f64()?;
    let spread = match (metric.get("q1"), metric.get("q3")) {
        (Some(q1), Some(q3)) if median != 0.0 => Some((q3.as_f64()? - q1.as_f64()?) / median.abs()),
        _ => None,
    };
    Some((median, spread))
}

/// How much worse `new` is than `base`, as a share of `base`; negative
/// when it is better.
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    let rise = (new - base) / base.abs();
    match better {
        Better::Lower => rise,
        Better::Higher => -rise,
    }
}

/// The verdict on one pair. A side summarising a single run has no
/// quartiles: its spread is unknown, which is not the same as small, so a
/// breach between such sides is unresolved — repeat the runs — and never
/// a regression.
pub fn judge(worse_by: f64, bound: f64, spreads: [Option<f64>; 2]) -> Verdict {
    let too_noisy = spreads.iter().flatten().any(|s| *s > bound);
    let unmeasured = spreads.iter().any(Option::is_none);
    if too_noisy || (unmeasured && worse_by > bound) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

fn failed_share(workload: &Json) -> Option<f64> {
    let sum = |key: &str| -> Option<f64> {
        Some(
            workload
                .get(key)?
                .as_arr()?
                .iter()
                .filter_map(Json::as_f64)
                .sum(),
        )
    };
    let attempted = sum("attempted")?;
    (attempted > 0.0).then(|| sum("failed").unwrap_or(0.0) / attempted)
}

fn workload_of<'a>(summary: &'a Json, name: &str, which: &str) -> Result<&'a Json, String> {
    summary
        .get("workloads")
        .and_then(|all| all.get(name))
        .ok_or_else(|| format!("summary {which} lacks workload {name}"))
}

/// Prints the table and returns whether B stays within every bound.
///
/// # Errors
///
/// Returns a message when a summary lacks a workload or metric.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let mut breaches = 0;
    let mut unresolved = 0;
    println!(
        "{:<18} {:<20} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "baseline", "new", "worse by", "bound"
    );
    for workload in &WORKLOADS {
        let (wa, wb) = (
            workload_of(a, workload.name, "A")?,
            workload_of(b, workload.name, "B")?,
        );
        for def in &END_TO_END {
            let metric = |w: &Json, which: &str| {
                w.get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(side)
                    .ok_or_else(|| format!("summary {which} lacks {}/{}", workload.name, def.name))
            };
            let ((base, spread_a), (new, spread_b)) = (metric(wa, "A")?, metric(wb, "B")?);
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let worse = worse_by(def.better, base, new);
            let verdict = judge(worse, bound, [spread_a, spread_b]);
            let note = match verdict {
                Verdict::Ok => "ok".to_string(),
                Verdict::Regression => {
                    breaches += 1;
                    "REGRESSION".to_string()
                }
                Verdict::Unresolved => {
                    unresolved += 1;
                    let show = |spread: Option<f64>| {
                        spread.map_or("single run".to_string(), |s| format!("{:.1}%", s * 100.0))
                    };
                    format!(
                        "unresolved (spread A {}, B {})",
                        show(spread_a),
                        show(spread_b)
                    )
                }
            };
            println!(
                "{:<18} {:<20} {base:>14.4} {new:>14.4} {:>8.1}% {:>6.0}%  {note}",
                workload.name,
                def.name,
                worse * 100.0,
                bound * 100.0
            );
        }
        let correct = |w: &Json| w.get("correct") == Some(&Json::Bool(true));
        let (fa, fb) = (
            failed_share(wa).unwrap_or(1.0),
            failed_share(wb).unwrap_or(1.0),
        );
        let failed_ok = correct(wb) && fb <= fa + FAILED_SHARE_BOUND;
        if !failed_ok {
            breaches += 1;
        }
        println!(
            "{:<18} {:<20} {fa:>14.5} {fb:>14.5} {:>9} {:>7}  {}",
            workload.name,
            "failed_share",
            "",
            format!("+{FAILED_SHARE_BOUND}"),
            if failed_ok { "ok" } else { "REGRESSION" }
        );
    }
    for name in EXACT {
        let value = |doc: &Json| doc.get("probes")?.get(name)?.get("values").cloned();
        let same = value(a).is_some() && value(a) == value(b);
        println!(
            "exact probe {name:<40} {}",
            if same { "identical" } else { "DIFFERS" }
        );
    }
    println!("{breaches} regressions, {unresolved} unresolved");
    Ok(breaches == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_is_signed_by_the_metrics_direction() {
        assert!((worse_by(Better::Lower, 100.0, 112.0) - 0.12).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 100.0, 88.0) - 0.12).abs() < 1e-12);
        assert!(
            worse_by(Better::Higher, 100.0, 130.0) < 0.0,
            "a gain is not worse"
        );
    }

    #[test]
    fn verdicts_apply_the_bound_and_refuse_to_judge_noisy_pairs() {
        let quiet = [Some(0.02), Some(0.03)];
        assert_eq!(judge(0.05, 0.10, quiet), Verdict::Ok);
        assert_eq!(judge(0.12, 0.10, quiet), Verdict::Regression);
        assert_eq!(judge(-0.30, 0.10, quiet), Verdict::Ok);
        assert_eq!(
            judge(0.12, 0.10, [Some(0.02), Some(0.15)]),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(0.01, 0.10, [Some(0.2), Some(0.01)]),
            Verdict::Unresolved
        );
        // A single run a side: within the bound is fine, beyond it cannot
        // be told from noise that was never measured.
        assert_eq!(judge(0.05, 0.10, [None, None]), Verdict::Ok);
        assert_eq!(judge(0.49, 0.25, [None, None]), Verdict::Unresolved);
        assert_eq!(judge(0.49, 0.25, [Some(0.02), None]), Verdict::Unresolved);
    }

    #[test]
    fn failed_share_sums_over_repeats() {
        let w = Json::parse(r#"{"attempted": [1000, 1000], "failed": [1, 3]}"#).unwrap();
        assert_eq!(failed_share(&w), Some(0.002));
        let none = Json::parse(r#"{"attempted": [], "failed": []}"#).unwrap();
        assert_eq!(failed_share(&none), None);
    }
}
