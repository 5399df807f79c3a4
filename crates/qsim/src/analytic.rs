//! Closed-form results for simple queues, used to validate the simulator.
//!
//! The paper notes (Section III) that exact analysis of multi-chain
//! finite-buffer networks is intractable — these formulas cover the simple
//! special cases where exact answers exist. The M/M/1/K forms feed the
//! approximate evaluator and pin the simulator in tests; the M/M/c/K forms
//! are test-only oracles for the multi-server simulator.

/// Steady-state probability that an M/M/1/K queue holds `n` jobs.
///
/// `k` is the total capacity in jobs (queue plus server). The textbook
/// form `(1 − ρ)·ρⁿ / (1 − ρ^(K+1))` overflows for large `ρ = λ/μ`;
/// wherever it does, or its value leaves `[0, 1]`, the equivalent
/// `r = 1/ρ` form `(1 − r)·r^(K−n) / (1 − r^(K+1))` is used instead, so
/// the result is a probability for every positive pair of rates. Its
/// `ρ → ∞` limit puts all mass on `n = K`.
///
/// # Panics
///
/// Panics if `lambda <= 0`, `mu <= 0`, `k == 0` or `n > k`.
pub fn mm1k_prob(lambda: f64, mu: f64, k: usize, n: usize) -> f64 {
    assert!(lambda > 0.0 && mu > 0.0, "rates must be positive");
    assert!(k >= 1, "capacity must be at least 1");
    assert!(n <= k, "state must not exceed capacity");
    let rho = lambda / mu;
    textbook_prob(rho, k, n).unwrap_or_else(|| overloaded_prob(rho, k, n))
}

/// The textbook M/M/1/K state probability, or `None` where it overflows
/// or leaves `[0, 1]` (only for `ρ > 1`).
fn textbook_prob(rho: f64, k: usize, n: usize) -> Option<f64> {
    if (rho - 1.0).abs() < 1e-12 {
        return Some(1.0 / (k as f64 + 1.0));
    }
    let top = rho.powi(k as i32 + 1);
    let p = (1.0 - rho) * rho.powi(n as i32) / (1.0 - top);
    (top.is_finite() && (0.0..=1.0).contains(&p)).then_some(p)
}

/// The M/M/1/K state probability in powers of `r = 1/ρ`, for `ρ > 1`:
/// no term overflows, and `r^m` underflowing to `0` is its exact limit.
fn overloaded_prob(rho: f64, k: usize, n: usize) -> f64 {
    let r = 1.0 / rho;
    (1.0 - r) * r.powi((k - n) as i32) / (1.0 - r.powi(k as i32 + 1))
}

/// Loss (blocking) probability of an M/M/1/K queue: the probability an
/// arrival finds the buffer full.
///
/// # Examples
///
/// ```
/// use chainnet_qsim::analytic::mm1k_loss_probability;
///
/// let p = mm1k_loss_probability(0.9, 1.0, 5);
/// assert!(p > 0.0 && p < 1.0);
/// ```
pub fn mm1k_loss_probability(lambda: f64, mu: f64, k: usize) -> f64 {
    mm1k_prob(lambda, mu, k, k)
}

/// Mean number of jobs in an M/M/1/K queue.
pub fn mm1k_mean_jobs(lambda: f64, mu: f64, k: usize) -> f64 {
    (0..=k)
        .map(|n| n as f64 * mm1k_prob(lambda, mu, k, n))
        .sum()
}

/// Loss probabilities above this make `1 − loss` cancel away more than
/// 20 of its 53 bits; the throughput is then summed from the states
/// that admit an arrival instead.
const CANCELLING_LOSS: f64 = 1.0 - 1.0 / (1u64 << 20) as f64;

/// Effective throughput of an M/M/1/K queue: `lambda * (1 - loss)`.
///
/// Where the loss is so close to `1` that `1 − loss` cancels, the
/// throughput is `λ · Σ_{n<K} Pₙ` instead, which stays accurate (and
/// within `[0, μ]`) for any `ρ`.
pub fn mm1k_throughput(lambda: f64, mu: f64, k: usize) -> f64 {
    let loss = mm1k_loss_probability(lambda, mu, k);
    if loss <= CANCELLING_LOSS {
        lambda * (1.0 - loss)
    } else {
        lambda * (0..k).map(|n| mm1k_prob(lambda, mu, k, n)).sum::<f64>()
    }
}

/// Mean response time (sojourn) of an M/M/1/K queue by Little's law.
pub fn mm1k_response_time(lambda: f64, mu: f64, k: usize) -> f64 {
    mm1k_mean_jobs(lambda, mu, k) / mm1k_throughput(lambda, mu, k)
}

/// Steady-state probability that an M/M/c/K queue holds `n` jobs
/// (`c` parallel servers, total capacity `k >= c`).
///
/// # Panics
///
/// Panics on non-positive rates, `c == 0`, `k < c`, or `n > k`.
#[cfg(test)]
pub(crate) fn mmck_prob(lambda: f64, mu: f64, c: usize, k: usize, n: usize) -> f64 {
    assert!(lambda > 0.0 && mu > 0.0, "rates must be positive");
    assert!(c >= 1, "need at least one server");
    assert!(k >= c, "capacity must cover the servers");
    assert!(n <= k, "state must not exceed capacity");
    let a = lambda / mu;
    // Unnormalized weights, computed iteratively for stability.
    let mut weights = Vec::with_capacity(k + 1);
    let mut w = 1.0f64;
    weights.push(w);
    for m in 1..=k {
        let divisor = if m <= c { m as f64 } else { c as f64 };
        w *= a / divisor;
        weights.push(w);
    }
    let z: f64 = weights.iter().sum();
    weights[n] / z
}

/// Blocking probability of an M/M/c/K queue.
#[cfg(test)]
pub(crate) fn mmck_loss_probability(lambda: f64, mu: f64, c: usize, k: usize) -> f64 {
    mmck_prob(lambda, mu, c, k, k)
}

/// Mean number of jobs in an M/M/c/K queue.
#[cfg(test)]
pub(crate) fn mmck_mean_jobs(lambda: f64, mu: f64, c: usize, k: usize) -> f64 {
    (0..=k)
        .map(|n| n as f64 * mmck_prob(lambda, mu, c, k, n))
        .sum()
}

/// Effective throughput of an M/M/c/K queue.
#[cfg(test)]
pub(crate) fn mmck_throughput(lambda: f64, mu: f64, c: usize, k: usize) -> f64 {
    lambda * (1.0 - mmck_loss_probability(lambda, mu, c, k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_sum_to_one() {
        let total: f64 = (0..=7).map(|n| mm1k_prob(0.8, 1.0, 7, n)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn critical_load_is_uniform() {
        for n in 0..=4 {
            assert!((mm1k_prob(1.0, 1.0, 4, n) - 0.2).abs() < 1e-9);
        }
    }

    #[test]
    fn loss_grows_with_load() {
        let low = mm1k_loss_probability(0.3, 1.0, 5);
        let high = mm1k_loss_probability(1.5, 1.0, 5);
        assert!(high > low);
    }

    #[test]
    fn loss_shrinks_with_capacity() {
        let small = mm1k_loss_probability(0.9, 1.0, 2);
        let large = mm1k_loss_probability(0.9, 1.0, 20);
        assert!(large < small);
    }

    #[test]
    fn throughput_bounded_by_both_rates() {
        let x = mm1k_throughput(2.0, 1.0, 5);
        assert!(x < 1.0 + 1e-9);
        let x2 = mm1k_throughput(0.5, 1.0, 5);
        assert!(x2 <= 0.5);
    }

    #[test]
    fn mmck_reduces_to_mm1k_for_one_server() {
        for n in 0..=5 {
            let a = mmck_prob(0.8, 1.0, 1, 5, n);
            let b = mm1k_prob(0.8, 1.0, 5, n);
            assert!((a - b).abs() < 1e-12, "n={n}: {a} vs {b}");
        }
    }

    #[test]
    fn mmck_probabilities_sum_to_one() {
        let total: f64 = (0..=8).map(|n| mmck_prob(1.5, 1.0, 3, 8, n)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn more_servers_reduce_loss() {
        let one = mmck_loss_probability(1.5, 1.0, 1, 6);
        let two = mmck_loss_probability(1.5, 1.0, 2, 6);
        let three = mmck_loss_probability(1.5, 1.0, 3, 6);
        assert!(two < one);
        assert!(three < two);
    }

    #[test]
    fn mmck_throughput_bounded_by_total_service_rate() {
        let x = mmck_throughput(10.0, 1.0, 2, 6);
        assert!(x <= 2.0 + 1e-9);
    }

    #[test]
    fn response_time_consistent_with_littles_law() {
        let (lam, mu, k) = (0.8, 1.0, 6);
        let l = mm1k_mean_jobs(lam, mu, k);
        let x = mm1k_throughput(lam, mu, k);
        let w = mm1k_response_time(lam, mu, k);
        assert!((l - x * w).abs() < 1e-12);
    }
}
