//! The [`Recorder`] trait: the one seam every subsystem is instrumented
//! against. Hot paths hold a `&dyn Recorder` (usually via
//! [`SharedRecorder`]) and call [`add`](Recorder::add) /
//! [`observe`](Recorder::observe) / [`trace`](Recorder::trace); the
//! default no-op implementation makes every call a virtual dispatch to
//! an empty body, so instrumentation costs nothing measurable when
//! recording is off — and call sites can skip building event payloads
//! entirely by checking [`enabled`](Recorder::enabled) first.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::registry::MetricsSnapshot;
use crate::trace::TraceEvent;

/// A sink for counters, histogram samples, and trace events.
///
/// All methods default to no-ops so `dyn Recorder` is free to call when
/// nothing is listening; [`Registry`](crate::Registry) overrides them
/// all.
pub trait Recorder: Send + Sync {
    /// True when samples are actually kept. Call sites use this to skip
    /// clock reads and payload construction on the no-op path.
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `delta` to the named monotonic counter.
    fn add(&self, counter: &'static str, delta: u64) {
        let _ = (counter, delta);
    }

    /// Sets the named gauge to `value` (last write wins). Gauges share the
    /// counter namespace and come out of [`snapshot`](Recorder::snapshot)
    /// among the counters.
    fn set(&self, gauge: &'static str, value: u64) {
        let _ = (gauge, value);
    }

    /// Records one sample into the named histogram.
    fn observe(&self, hist: &'static str, value: u64) {
        let _ = (hist, value);
    }

    /// Emits one trace event to the attached sink, if any.
    fn trace(&self, event: &TraceEvent<'_>) {
        let _ = event;
    }

    /// A point-in-time copy of every counter and histogram digest.
    fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot::default()
    }
}

/// The recorder that records nothing (the default everywhere).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {}

/// A shared, thread-safe recorder handle: clone-cheap, so every engine,
/// transport, and sync manager can hold one.
pub type SharedRecorder = Arc<dyn Recorder>;

/// A fresh no-op [`SharedRecorder`].
pub fn noop() -> SharedRecorder {
    Arc::new(NoopRecorder)
}

/// A [`SharedRecorder`] wrapper that is `Clone + Debug + Default`, so it
/// can live inside derive-heavy structs (e.g. `SyncManager`) without
/// breaking their derives.
#[derive(Clone)]
pub struct RecorderCell(SharedRecorder);

impl RecorderCell {
    /// Wraps a shared recorder.
    pub fn new(recorder: SharedRecorder) -> Self {
        Self(recorder)
    }

    /// The wrapped recorder.
    pub fn get(&self) -> &SharedRecorder {
        &self.0
    }
}

impl Default for RecorderCell {
    fn default() -> Self {
        Self(noop())
    }
}

impl Deref for RecorderCell {
    type Target = dyn Recorder;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl fmt::Debug for RecorderCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("RecorderCell")
            .field(&self.0.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_swallows_everything() {
        let rec = noop();
        assert!(!rec.enabled());
        rec.add("counter", 3);
        rec.set("gauge", 9);
        rec.observe("hist", 42);
        rec.trace(&TraceEvent::new("ev", 0, &[]));
        assert!(rec.snapshot().is_empty());
    }

    #[test]
    fn cell_defaults_to_noop_and_derives_work() {
        #[derive(Clone, Debug, Default)]
        struct Holder {
            rec: RecorderCell,
        }
        let holder = Holder::default();
        let copy = holder.clone();
        assert!(!copy.rec.enabled());
        assert!(format!("{copy:?}").contains("RecorderCell"));
        copy.rec.get().add("x", 1);
    }
}
