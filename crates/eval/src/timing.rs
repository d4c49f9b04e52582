//! Wall-clock measurement helpers.

use std::time::{Duration, Instant};

/// Summary statistics over repeated timed runs.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Arithmetic mean.
    pub mean: Duration,
    /// Median (robust to one-off hiccups; what the tables report).
    pub median: Duration,
    /// Fastest observed run.
    pub min: Duration,
    /// Number of runs.
    pub runs: usize,
}

/// Times a single invocation.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Runs `f` `runs` times (at least once) and aggregates the timings.
/// The closure's result is returned from the final run so the optimizer
/// cannot discard the work.
pub fn measure<R>(runs: usize, mut f: impl FnMut() -> R) -> (R, Measurement) {
    let runs = runs.max(1);
    let mut durations = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        let (out, d) = time_once(&mut f);
        durations.push(d);
        last = Some(out);
    }
    durations.sort_unstable();
    let total: Duration = durations.iter().sum();
    let measurement = Measurement {
        mean: total / runs as u32,
        median: durations[runs / 2],
        min: durations[0],
        runs,
    };
    (last.expect("runs >= 1"), measurement)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_returns_result() {
        let (v, d) = time_once(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0 || d.is_zero());
    }

    #[test]
    fn measure_aggregates() {
        let mut calls = 0;
        let (out, m) = measure(5, || {
            calls += 1;
            calls
        });
        assert_eq!(out, 5);
        assert_eq!(m.runs, 5);
        assert!(m.min <= m.median);
        assert!(m.median <= m.mean * 5); // sanity, not strict
    }

    #[test]
    fn measure_clamps_zero_runs() {
        let (_, m) = measure(0, || ());
        assert_eq!(m.runs, 1);
    }
}
