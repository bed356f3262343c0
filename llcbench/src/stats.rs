//! Summary statistics: medians, the tail-percentile rule, and open-loop
//! lateness accounting.

use std::time::Duration;

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the middle two for an even count); `0.0`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100] of ascending `sorted` samples.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// A tail latency as reported: which percentile, its value, and the
/// sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (at most the requested cap).
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The highest nearest-rank percentile, capped at `cap`, that still has
/// at least [`TAIL_SAMPLES`] samples beyond it. With `n` samples that is
/// rank `n - 10`, so `p99` needs 1000 samples and 500 samples give
/// `p98`. `None` when there are not more than [`TAIL_SAMPLES`] samples.
pub fn tail(samples: &[f64], cap: f64) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let percentile = (100.0 * (n - TAIL_SAMPLES) as f64 / n as f64).min(cap);
    Some(Tail {
        percentile,
        value: nearest_rank(&sorted, percentile),
        samples: n,
    })
}

/// One open-loop request's three instants, as offsets from the start of
/// its schedule: when it was due, when the generator actually sent it,
/// and when its response completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// Scheduled send time.
    pub due: Duration,
    /// Actual send time (never earlier than `due`).
    pub sent: Duration,
    /// Response completion time.
    pub done: Duration,
}

impl Timing {
    /// Latency as the user sees it: from the scheduled send, so a stall
    /// that delays later sends is charged to every request it delayed.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator itself sent the request.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Milliseconds of a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latencies (ms, from the scheduled send) of `timings`.
pub fn latencies_ms(timings: &[Timing]) -> Vec<f64> {
    timings.iter().map(|t| ms(t.latency())).collect()
}

/// Generator lateness (ms) of `timings`.
pub fn lateness_ms(timings: &[Timing]) -> Vec<f64> {
    timings.iter().map(|t| ms(t.lateness())).collect()
}
