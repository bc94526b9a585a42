//! Property tests over the histogram and the NDJSON trace sink, driven
//! by a seeded SplitMix64 PRNG so every run replays the same cases.
//!
//! The histogram invariants under test are the ones every percentile the
//! stack reports leans on: bucketing is monotone (so percentiles are
//! order-consistent), a bucketed percentile brackets the exact
//! rank-statistic within the documented 12.5 % relative error, and merge
//! is associative and equal to recording the combined stream. The sink
//! invariant is the crash-safety contract: truncating the file at an
//! arbitrary byte (a torn tail) costs at most the final line, and a
//! reopened sink appends cleanly after it.

use std::io::Write as _;
use std::path::PathBuf;

use sft_obs::{read_trace, Histogram, TraceEvent, TraceSink};

/// SplitMix64: tiny, seedable, good enough to scatter test inputs.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// A value whose magnitude spans the full u64 range: a random
    /// bit-width first, then random bits within it — plain `next()`
    /// almost never produces small values, and small values are where
    /// the linear/log bucket seam lives.
    fn spanning(&mut self) -> u64 {
        let bits = self.below(64) + 1;
        self.next() >> (64 - bits)
    }
}

#[test]
fn bucket_index_is_monotone_and_upper_bounds_its_values() {
    let mut rng = SplitMix64(0x5eed_0001);
    for _ in 0..20_000 {
        let a = rng.spanning();
        let b = rng.spanning();
        let (lo, hi) = (a.min(b), a.max(b));
        let (il, ih) = (Histogram::bucket_index(lo), Histogram::bucket_index(hi));
        assert!(
            il <= ih,
            "bucket_index not monotone: {lo} -> {il}, {hi} -> {ih}"
        );
        // Every value sits at or below its own bucket's upper bound, and
        // strictly above the previous bucket's.
        let upper = Histogram::bucket_upper(il);
        assert!(upper >= lo, "upper({il}) = {upper} < value {lo}");
        if il > 0 {
            assert!(Histogram::bucket_upper(il - 1) < lo);
        }
        // Bucket uppers themselves are strictly increasing.
        if ih > il {
            assert!(Histogram::bucket_upper(ih) > upper);
        }
    }
}

#[test]
fn percentiles_bracket_the_exact_rank_statistic() {
    let mut rng = SplitMix64(0x5eed_0002);
    for _case in 0..50 {
        let n = (rng.below(2_000) + 1) as usize;
        let mut samples: Vec<u64> = (0..n).map(|_| rng.spanning()).collect();
        let mut h = Histogram::new();
        for s in &samples {
            h.record(*s);
        }
        samples.sort_unstable();
        for q in [0.01, 0.25, 0.50, 0.90, 0.99, 1.0] {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            let exact = samples[rank - 1];
            let got = h.percentile(q);
            assert!(
                got >= exact,
                "p{q} = {got} underestimates exact rank value {exact} (n = {n})"
            );
            let bound = exact as f64 * 1.125 + 1.0;
            assert!(
                got as f64 <= bound.min(*samples.last().unwrap() as f64),
                "p{q} = {got} exceeds bucket bound {bound} for exact {exact} (n = {n})"
            );
        }
        assert_eq!(h.percentile(1.0), *samples.last().unwrap());
        assert_eq!(h.max(), *samples.last().unwrap());
    }
}

#[test]
fn merge_is_associative_and_equals_the_combined_stream() {
    let mut rng = SplitMix64(0x5eed_0003);
    for _case in 0..30 {
        let mut parts = [Histogram::new(), Histogram::new(), Histogram::new()];
        let mut combined = Histogram::new();
        for h in &mut parts {
            for _ in 0..rng.below(500) {
                let v = rng.spanning();
                h.record(v);
                combined.record(v);
            }
        }
        let [a, b, c] = parts;
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge must be associative");
        assert_eq!(left, combined, "merge must equal the combined stream");
        assert_eq!(left.summary(), combined.summary());
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sft-obs-prop-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Names the sink writes; `&'static str` per the TraceEvent contract.
const NAMES: &[&str] = &["propose", "vote", "qc", "commit", "tick"];

#[test]
fn torn_tail_costs_at_most_the_final_line() {
    let mut rng = SplitMix64(0x5eed_0004);
    let dir = temp_dir("torn");
    for case in 0..40u32 {
        let path = dir.join(format!("trace-{case}.ndjson"));
        let expected_path = dir.join(format!("expected-{case}.ndjson"));
        let _ = std::fs::remove_file(&path);

        // Write a random event stream.
        let mut sink = TraceSink::open(&path).unwrap();
        let events = rng.below(20) + 1;
        for _ in 0..events {
            let name = NAMES[rng.below(NAMES.len() as u64) as usize];
            let fields = [("round", rng.below(1 << 20)), ("n", rng.next() >> 32)];
            let take = rng.below(3) as usize;
            sink.emit(&TraceEvent::new(name, rng.below(1 << 40), &fields[..take]))
                .unwrap();
        }
        drop(sink);

        // Tear the file at a random byte offset (keep at least one byte).
        let body = std::fs::read(&path).unwrap();
        let cut = (rng.below(body.len() as u64) + 1) as usize;
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(cut as u64).unwrap();
        drop(file);

        // What a lenient reader sees in the torn prefix is exactly what
        // must survive: whole lines parse, the fragment is skipped.
        std::fs::write(&expected_path, &body[..cut]).unwrap();
        let mut expected = read_trace(&expected_path).unwrap();
        let whole_lines = body[..cut].iter().filter(|b| **b == b'\n').count();
        assert!(
            expected.len() >= whole_lines,
            "case {case}: reader lost a fully-written line ({} < {whole_lines})",
            expected.len()
        );

        // A new incarnation appends after the tear without corruption.
        let mut sink = TraceSink::open(&path).unwrap();
        sink.emit(&TraceEvent::new("restart", 1, &[("gen", 2)]))
            .unwrap();
        drop(sink);
        expected.push(read_trace_single(
            "{\"ev\":\"restart\",\"ts_us\":1,\"gen\":2}",
        ));
        let actual = read_trace(&path).unwrap();
        assert_eq!(
            actual,
            expected,
            "case {case}: torn tail must cost at most the final line (cut at {cut}/{})",
            body.len()
        );
    }
}

/// Parses one known-good line through the public reader.
fn read_trace_single(line: &str) -> sft_obs::OwnedTraceEvent {
    let path = temp_dir("single").join("one.ndjson");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "{line}").unwrap();
    drop(f);
    read_trace(&path).unwrap().remove(0)
}
