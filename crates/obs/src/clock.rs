//! Phase timing: [`PhaseTimer`] wraps the enabled-check-then-`Instant`
//! pattern for nanosecond phase timing.

use std::time::Instant;

use crate::recorder::Recorder;

/// A nanosecond-resolution phase timer that is free when recording is
/// off: [`PhaseTimer::start`] reads the clock only if the recorder is
/// enabled, and [`PhaseTimer::finish`] records the elapsed nanoseconds
/// (floored to 1, so a recorded phase is never reported as zero even on
/// coarse clocks).
///
/// Phase timings always use wall nanoseconds — simulated time does not
/// advance *during* processing, only between events, so virtual time
/// would measure every phase as zero.
#[must_use = "a started phase timer must be finished to record anything"]
#[derive(Debug)]
pub struct PhaseTimer(Option<Instant>);

impl PhaseTimer {
    /// Starts timing if `recorder` is enabled; otherwise this is inert.
    pub fn start(recorder: &dyn Recorder) -> Self {
        Self(recorder.enabled().then(Instant::now))
    }

    /// Records the elapsed nanoseconds into the named histogram.
    pub fn finish(self, recorder: &dyn Recorder, hist: &'static str) {
        if let Some(start) = self.0 {
            recorder.observe(hist, (start.elapsed().as_nanos() as u64).max(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::NoopRecorder;
    use crate::registry::Registry;

    #[test]
    fn phase_timer_noop_never_reads_clock() {
        let timer = PhaseTimer::start(&NoopRecorder);
        assert!(timer.0.is_none());
        timer.finish(&NoopRecorder, "phase_ns");
    }

    #[test]
    fn phase_timer_records_nonzero() {
        let reg = Registry::new();
        let timer = PhaseTimer::start(&reg);
        timer.finish(&reg, "phase_ns");
        let s = Recorder::snapshot(&reg).hist("phase_ns").unwrap();
        assert_eq!(s.count, 1);
        assert!(s.max >= 1);
    }
}
