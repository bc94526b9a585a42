//! The recording [`Registry`]: named counters and histograms behind one
//! mutex, plus an optional [`TraceSink`] for event streams.
//!
//! One registry serves a whole process (or a whole simulation): engines,
//! transports, and the runner all hold `Arc` clones. Counter and
//! histogram names are `&'static str` (see [`crate::names`]) so the hot
//! path never allocates; the maps are `BTreeMap`s so snapshots come out
//! in a deterministic order.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::clock::ObsClock;
use crate::hist::{HistSummary, Histogram};
use crate::recorder::Recorder;
use crate::trace::{TraceEvent, TraceSink};

/// The recorder that actually records.
///
/// # Examples
///
/// ```
/// use sft_obs::{Recorder, Registry};
///
/// let reg = Registry::new();
/// reg.add("messages", 2);
/// reg.observe("latency_us", 120);
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("messages"), Some(2));
/// assert_eq!(snap.hist("latency_us").unwrap().count, 1);
/// ```
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
    sink: Mutex<Option<TraceSink>>,
    clock: Mutex<ObsClock>,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<&'static str, u64>,
    hists: BTreeMap<&'static str, Histogram>,
}

impl Registry {
    /// An empty registry with no trace sink and a wall clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches an NDJSON trace sink; subsequent
    /// [`trace`](Recorder::trace) calls append to it.
    pub fn set_sink(&self, sink: TraceSink) {
        *self.sink.lock().expect("sink lock") = Some(sink);
    }

    /// Replaces the clock used to stamp trace events emitted through
    /// [`Registry::trace_now`].
    pub fn set_clock(&self, clock: ObsClock) {
        *self.clock.lock().expect("clock lock") = clock;
    }

    /// Emits a trace event stamped with this registry's own clock —
    /// for call sites that have no protocol `now` in hand.
    pub fn trace_now(&self, name: &'static str, fields: &[(&'static str, u64)]) {
        let ts_us = self.clock.lock().expect("clock lock").now_us();
        self.trace(&TraceEvent::new(name, ts_us, fields));
    }

    /// Flushes the attached trace sink, if any.
    pub fn flush_sink(&self) {
        if let Some(sink) = self.sink.lock().expect("sink lock").as_mut() {
            let _ = sink.flush();
        }
    }
}

impl Recorder for Registry {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, counter: &'static str, delta: u64) {
        let mut inner = self.inner.lock().expect("registry lock");
        *inner.counters.entry(counter).or_insert(0) += delta;
    }

    fn set(&self, gauge: &'static str, value: u64) {
        let mut inner = self.inner.lock().expect("registry lock");
        inner.counters.insert(gauge, value);
    }

    fn observe(&self, hist: &'static str, value: u64) {
        let mut inner = self.inner.lock().expect("registry lock");
        inner.hists.entry(hist).or_default().record(value);
    }

    fn trace(&self, event: &TraceEvent<'_>) {
        if let Some(sink) = self.sink.lock().expect("sink lock").as_mut() {
            // A full disk or yanked path must not take consensus down;
            // the trace just goes quiet.
            let _ = sink.emit(event);
        }
    }

    fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("registry lock");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(name, value)| (name.to_string(), *value))
                .collect(),
            hists: inner
                .hists
                .iter()
                .map(|(name, hist)| (name.to_string(), hist.summary()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`Registry`]: counter values plus one
/// [`HistSummary`] per histogram, both sorted by name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, digest)` for every histogram, sorted by name.
    pub hists: Vec<(String, HistSummary)>,
}

impl MetricsSnapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    /// A counter's value, if it was ever incremented.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// A histogram's digest, if it ever saw a sample.
    pub fn hist(&self, name: &str) -> Option<HistSummary> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, s)| *s)
    }

    /// Every metric flattened to `(name, value)` scalars: counters
    /// verbatim, histograms as `<name>_{count,p50,p90,p99,max}`. This is
    /// the shape embedded in `BENCH_*.json` and banded by the perf gate.
    pub fn flat_fields(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self.counters.clone();
        for (name, s) in &self.hists {
            out.push((format!("{name}_count"), s.count));
            out.push((format!("{name}_p50"), s.p50));
            out.push((format!("{name}_p90"), s.p90));
            out.push((format!("{name}_p99"), s.p99));
            out.push((format!("{name}_max"), s.max));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let reg = Registry::new();
        reg.add("b_counter", 1);
        reg.add("a_counter", 2);
        reg.add("b_counter", 3);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a_counter".to_string(), 2), ("b_counter".to_string(), 4)]
        );
    }

    #[test]
    fn gauges_overwrite_and_snapshot_among_the_counters() {
        let reg = Registry::new();
        reg.set("resident", 7);
        reg.set("resident", 5);
        assert_eq!(reg.snapshot().counter("resident"), Some(5));
    }

    #[test]
    fn histograms_digest() {
        let reg = Registry::new();
        for v in [10u64, 20, 30] {
            reg.observe("lat", v);
        }
        let s = reg.snapshot().hist("lat").unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.max, 30);
        assert!(s.p50 >= 20);
    }

    #[test]
    fn flat_fields_expand_hists() {
        let reg = Registry::new();
        reg.add("msgs", 7);
        reg.observe("lat", 100);
        let flat = reg.snapshot().flat_fields();
        let names: Vec<&str> = flat.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "msgs",
                "lat_count",
                "lat_p50",
                "lat_p90",
                "lat_p99",
                "lat_max"
            ]
        );
    }

    #[test]
    fn registry_is_shareable() {
        use crate::recorder::SharedRecorder;
        use std::sync::Arc;
        let reg: SharedRecorder = Arc::new(Registry::new());
        let clone = Arc::clone(&reg);
        std::thread::spawn(move || clone.add("spawned", 1))
            .join()
            .unwrap();
        assert_eq!(reg.snapshot().counter("spawned"), Some(1));
    }
}
