//! The benchmark's own statistics: percentiles with a sample-size rule,
//! backlog detection, the saturated answer rate behind `place_max_rps`
//! and failure accounting. Pure functions, unit-tested below.

/// A percentile is reported as supported only when at least this many
/// samples lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for even counts).
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile (`0 < q < 1`) of `xs`. `NaN` when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Harrell-Davis estimate of the `q`-quantile (`0 < q < 1`) of `xs`:
/// the mean of all order statistics weighted by how much of a
/// Beta((n + 1) q, (n + 1) (1 - q)) law falls in each one's rank
/// interval. A tail quantile from a hundred samples is much less noisy
/// this way than as the single order statistic [`percentile`] picks.
/// `NaN` when empty.
pub fn hd_quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let (a, b) = ((n + 1) as f64 * q, (n + 1) as f64 * (1.0 - q));
    // Midpoint rule on SUB points per rank interval, on the log density
    // (no normalising constant needed: the weights are divided by their
    // sum).
    const SUB: usize = 16;
    let steps = n * SUB;
    let log_density = |j: usize| {
        let x = (j as f64 + 0.5) / steps as f64;
        (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln()
    };
    let peak = (0..steps)
        .map(log_density)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut weights = vec![0.0; n];
    for j in 0..steps {
        weights[j / SUB] += (log_density(j) - peak).exp();
    }
    let total: f64 = weights.iter().sum();
    weights.iter().zip(&v).map(|(w, x)| w * x).sum::<f64>() / total
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    n.saturating_sub(rank.clamp(1, n.max(1)))
}

/// Whether `n` samples support reporting the `q`-quantile: at least
/// [`MIN_BEYOND`] of them lie beyond it.
pub fn supports(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_BEYOND
}

/// The highest of the usual reporting percentiles that `n` samples
/// support, or `None` when not even the median is supported.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.99, 0.95, 0.9, 0.75, 0.5]
        .into_iter()
        .find(|&q| supports(n, q))
}

/// Whether the queue kept growing during one open-loop rung.
///
/// `outstanding[i]` is the number of requests sent but not yet answered
/// at the moment request `i` was sent. A stable queue fluctuates around
/// a constant; an overloaded one grows roughly linearly. The rung's
/// backlog counts as growing when the mean of the last third exceeds the
/// mean of the first third by more than [`BACKLOG_GROWTH`] requests.
pub fn backlog_grew(outstanding: &[usize]) -> bool {
    let third = outstanding.len() / 3;
    if third == 0 {
        return false;
    }
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    let first = mean(&outstanding[..third]);
    let last = mean(&outstanding[outstanding.len() - third..]);
    last - first > BACKLOG_GROWTH
}

/// Growth, in requests, between the first and last third of a rung that
/// marks its backlog as growing.
pub const BACKLOG_GROWTH: f64 = 4.0;

/// What one fixed offered rate produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests scheduled at this rate.
    pub attempted: usize,
    /// Failed, rejected, shed, lost or check-failing requests.
    pub failed: usize,
    /// Place latency from due time to answer, milliseconds, one per
    /// answered request.
    pub latencies_ms: Vec<f64>,
    /// When each answer arrived, seconds from the rung's start.
    pub answered_s: Vec<f64>,
    /// Whether the queue kept growing (see [`backlog_grew`]).
    pub backlog_grew: bool,
}

impl Rung {
    /// Answers after the first and the seconds from the first answer to
    /// the last; `None` with fewer than two answers.
    fn answer_span(&self) -> Option<(usize, f64)> {
        let (lo, hi) = self
            .answered_s
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &t| {
                (lo.min(t), hi.max(t))
            });
        (self.answered_s.len() >= 2 && hi > lo).then(|| (self.answered_s.len() - 1, hi - lo))
    }

    /// Answers per second between the first answer and the last: `n - 1`
    /// answers over that interval. `NaN` with fewer than two answers.
    pub fn served_rate(&self) -> f64 {
        self.answer_span()
            .map_or(f64::NAN, |(n, span)| n as f64 / span)
    }

    /// The server's capacity as this rung measured it: the served rate,
    /// provided the rung saturated the server (the backlog kept growing,
    /// so the server was never idle between its first and last answer)
    /// and nothing failed. `None` otherwise: a server that kept up only
    /// shows the offered rate.
    pub fn capacity(&self) -> Option<f64> {
        let rate = self.served_rate();
        (self.backlog_grew && self.failed == 0 && rate.is_finite()).then_some(rate)
    }
}

/// Capacity over several saturation rungs: their answers after the first
/// of each over their summed first-to-last-answer times. `None` unless
/// every rung measures a capacity on its own.
pub fn pooled_capacity(rungs: &[Rung]) -> Option<f64> {
    let (mut answers, mut span) = (0usize, 0.0);
    for r in rungs {
        r.capacity()?;
        let (n, s) = r.answer_span()?;
        answers += n;
        span += s;
    }
    (span > 0.0).then(|| answers as f64 / span)
}

/// Failures over attempts; 0 when nothing was attempted.
pub fn fail_frac(failed: usize, attempted: usize) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Failure tally for one workload: every operation attempted, and every
/// one that was rejected, lost, answered twice or failed a check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations that failed in any way.
    pub failed: usize,
}

impl Tally {
    /// Count one operation and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed / attempted`.
    pub fn frac(&self) -> f64 {
        fail_frac(self.failed, self.attempted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A rung whose `n` answers arrive every `gap` seconds.
    fn rung(n: usize, gap: f64, failed: usize, grew: bool) -> Rung {
        Rung {
            rate: 100.0,
            attempted: n + failed,
            failed,
            latencies_ms: vec![50.0; n],
            answered_s: (0..n).map(|i| 0.3 + i as f64 * gap).collect(),
            backlog_grew: grew,
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn harrell_davis_quantiles_track_the_ranks() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Evenly spaced values: the weights' mean rank is n q + 1/2.
        assert!((hd_quantile(&xs, 0.5) - 50.5).abs() < 0.05);
        assert!((hd_quantile(&xs, 0.9) - 90.5).abs() < 0.05);
        assert!((hd_quantile(&[4.0; 30], 0.9) - 4.0).abs() < 1e-12);
        assert!((hd_quantile(&[7.0], 0.9) - 7.0).abs() < 1e-12);
        assert!(hd_quantile(&[], 0.5).is_nan());
        // Order of the input does not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(hd_quantile(&rev, 0.9), hd_quantile(&xs, 0.9));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert!(supports(100, 0.9));
        assert!(!supports(99, 0.9));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(250), Some(0.95));
        assert_eq!(highest_supported(120), Some(0.9));
        assert_eq!(highest_supported(45), Some(0.75));
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn capacity_is_the_served_rate_of_a_saturated_rung() {
        // 101 answers 50 ms apart: 100 answers in 5 s.
        let r = rung(101, 0.05, 0, true);
        assert!((r.served_rate() - 20.0).abs() < 1e-9);
        assert_eq!(r.capacity(), Some(r.served_rate()));
        // Arrival order does not matter.
        let mut shuffled = r.clone();
        shuffled.answered_s.reverse();
        assert_eq!(shuffled.served_rate(), r.served_rate());
    }

    #[test]
    fn a_rung_without_a_growing_backlog_measures_no_capacity() {
        // The server kept up: the served rate is only the offered one.
        assert_eq!(rung(101, 0.05, 0, false).capacity(), None);
    }

    #[test]
    fn pooled_capacity_weighs_rungs_by_their_answers() {
        // 100 answers in 5 s and 50 in 5 s: 150 in 10 s.
        let rungs = [rung(101, 0.05, 0, true), rung(51, 0.1, 0, true)];
        assert!((pooled_capacity(&rungs).unwrap() - 15.0).abs() < 1e-9);
        // One rung that kept up spoils the measurement.
        let mixed = [rung(101, 0.05, 0, true), rung(51, 0.1, 0, false)];
        assert_eq!(pooled_capacity(&mixed), None);
        assert_eq!(pooled_capacity(&[]), None);
    }

    #[test]
    fn a_failure_or_too_few_answers_measure_no_capacity() {
        assert_eq!(rung(100, 0.05, 1, true).capacity(), None);
        assert_eq!(rung(1, 0.05, 0, true).capacity(), None);
        assert!(rung(0, 0.05, 0, true).served_rate().is_nan());
    }

    #[test]
    fn backlog_detection_separates_stable_from_growing_queues() {
        let stable: Vec<usize> = (0..120).map(|i| [0, 1, 2, 1, 3, 0][i % 6]).collect();
        assert!(!backlog_grew(&stable));
        let growing: Vec<usize> = (0..120).map(|i| i / 5).collect();
        assert!(backlog_grew(&growing));
        assert!(!backlog_grew(&[9, 9]));
    }

    #[test]
    fn fail_frac_counts_failures_over_attempts() {
        let mut t = Tally::default();
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.frac(), 0.25);
        let mut u = Tally::default();
        u.record(false);
        t.merge(u);
        assert_eq!((t.attempted, t.failed), (5, 2));
        assert_eq!(fail_frac(0, 0), 0.0);
        assert_eq!(Tally::default().frac(), 0.0);
    }
}
