//! Wall-clock access for the observability plane — the **only** module
//! in this crate (and, together with nothing else, the only one in the
//! serving stack) that reads `Instant`/`SystemTime`.
//!
//! Confinement is the point: the workspace's `clippy::disallowed_types`
//! lint rejects both clock types everywhere, and this file alone carries
//! a justified file-level expectation for them. Everything downstream
//! (log timestamps, request latencies, span durations) is operator
//! telemetry that never enters a `results.json`.

#![expect(
    clippy::disallowed_types,
    reason = "the observability plane's one clock module; feeds telemetry only, \
              results are clock-free and diffed obs-on vs obs-off"
)]

use std::time::{Instant, SystemTime};

/// A started stopwatch; the only way to measure elapsed wall time in
/// the observability plane.
#[derive(Clone, Debug)]
pub struct Timer(Instant);

impl Timer {
    /// Starts the stopwatch now.
    pub fn start() -> Timer {
        Timer(Instant::now())
    }

    /// Microseconds elapsed since [`Timer::start`], saturating.
    pub fn elapsed_micros(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Seconds elapsed since [`Timer::start`], as a float.
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Seconds since the Unix epoch (0 if the system clock is before it).
pub fn unix_now_secs() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub fn unix_now_millis() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_is_monotonic_and_clock_is_sane() {
        let t = Timer::start();
        let a = t.elapsed_micros();
        let b = t.elapsed_micros();
        assert!(b >= a);
        assert!(t.elapsed_secs() >= 0.0);
        // Both epoch reads agree to within a generous margin.
        let (s, ms) = (unix_now_secs(), unix_now_millis());
        assert!(ms / 1000 >= s.saturating_sub(2) && ms / 1000 <= s + 2);
        assert!(s > 1_500_000_000, "system clock is before 2017?");
    }
}
