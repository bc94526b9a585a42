//! # sft-bench
//!
//! Micro-benchmarks and reproduction drivers for the SFT stack.
//!
//! The approved offline dependency set has no benchmarking crate, so this
//! crate ships its own [`Harness`]: a criterion-style timing loop with
//! warmup, automatic iteration calibration, and median-of-samples
//! reporting. The `benches/` directory holds the actual benchmarks (all
//! declared `harness = false` and driven by this harness), and
//! `src/bin/repro.rs` runs one simulated consensus instance end-to-end:
//!
//! ```text
//! cargo bench -p sft-bench               # all microbenchmarks
//! cargo bench -p sft-bench --bench fig8  # one experiment
//! cargo run -p sft-bench --bin repro     # end-to-end consensus run
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod gate;
pub mod node;
pub mod plot;

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One benchmark's timing summary, in nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
    /// Median ns/iteration across samples.
    pub median_ns: f64,
    /// Minimum ns/iteration across samples.
    pub min_ns: f64,
    /// Mean ns/iteration across samples.
    pub mean_ns: f64,
}

impl BenchResult {
    /// Iterations per second implied by the median sample.
    pub fn throughput(&self) -> f64 {
        1e9 / self.median_ns
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// A minimal criterion-style benchmark harness.
///
/// Each benchmark is calibrated so one sample runs for roughly the sample
/// time budget (20 ms by default), then timed over a fixed number of
/// samples (20 by default); the median per-iteration time is the headline
/// number (robust to noise spikes on shared machines).
///
/// # Examples
///
/// ```
/// use sft_bench::Harness;
///
/// let mut harness = Harness::new("example").quick();
/// let result = harness.bench("add", || std::hint::black_box(2u64) + 2);
/// assert!(result.median_ns >= 0.0);
/// ```
pub struct Harness {
    suite: String,
    samples: u32,
    sample_time: Duration,
    results: Vec<BenchResult>,
}

impl Harness {
    /// Creates a harness with the default 20 samples × 20 ms profile.
    pub fn new(suite: &str) -> Self {
        println!("== {suite} ==");
        Self {
            suite: suite.to_string(),
            samples: 20,
            sample_time: Duration::from_millis(20),
            results: Vec::new(),
        }
    }

    /// Shrinks the profile to 5 samples × 2 ms — for doctests and smoke
    /// runs where precision is irrelevant.
    pub fn quick(mut self) -> Self {
        self.samples = 5;
        self.sample_time = Duration::from_millis(2);
        self
    }

    /// Times `f`, prints one summary line, and records the result. The
    /// closure's return value is passed through [`black_box`] so the
    /// optimizer cannot delete the work.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> BenchResult {
        // Warmup + calibration: grow the iteration count until one batch
        // fills the sample budget.
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed();
            if elapsed >= self.sample_time || iters >= 1 << 30 {
                break;
            }
            // Aim directly for the budget, with a growth cap.
            let scale = self.sample_time.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
            iters = (iters as f64 * scale.clamp(1.5, 100.0)).ceil() as u64;
        }

        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));

        let median = per_iter[per_iter.len() / 2];
        let result = BenchResult {
            name: name.to_string(),
            iters_per_sample: iters,
            median_ns: median,
            min_ns: per_iter[0],
            mean_ns: per_iter.iter().sum::<f64>() / per_iter.len() as f64,
        };
        println!(
            "  {:<40} {:>12}/iter  (min {}, {:.0} iters/sample)",
            result.name,
            format_ns(result.median_ns),
            format_ns(result.min_ns),
            result.iters_per_sample
        );
        self.results.push(result.clone());
        result
    }

    /// All results so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Prints a closing line. Call at the end of a bench binary.
    pub fn finish(self) {
        println!("== {}: {} benchmarks ==", self.suite, self.results.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something() {
        let mut harness = Harness::new("test").quick();
        let result = harness.bench("sum", || (0..100u64).sum::<u64>());
        assert!(result.median_ns > 0.0);
        assert!(result.min_ns <= result.median_ns);
        assert!(result.throughput() > 0.0);
        assert_eq!(harness.results().len(), 1);
        harness.finish();
    }

    #[test]
    fn format_spans_units() {
        assert!(format_ns(5.0).ends_with("ns"));
        assert!(format_ns(5_000.0).ends_with("µs"));
        assert!(format_ns(5_000_000.0).ends_with("ms"));
        assert!(format_ns(5e9).ends_with(" s"));
    }
}
