//! The M/M/1/K closed forms against a log-space oracle over the whole
//! range of loads a request can reach: `ρ = λ/μ` from `1e-300` to
//! `1e300` and capacities up to 63 jobs.

use chainnet_qsim::analytic::{
    mm1k_loss_probability, mm1k_prob, mm1k_response_time, mm1k_throughput,
};
use proptest::prelude::*;

/// `ln Σ_{n<m} ρⁿ` from the terms' logarithms `n · ln ρ`, shifted by the
/// largest so that no term overflows.
fn log_sum(ln_rho: f64, m: usize) -> f64 {
    let top = if ln_rho > 0.0 {
        (m - 1) as f64 * ln_rho
    } else {
        0.0
    };
    top + (0..m)
        .map(|n| (n as f64 * ln_rho - top).exp())
        .sum::<f64>()
        .ln()
}

/// The oracle: `Pₙ = ρⁿ / Σ_{m≤K} ρᵐ`, evaluated in log space.
struct Oracle {
    probs: Vec<f64>,
    throughput: f64,
    response_time: f64,
}

fn oracle(lambda: f64, mu: f64, k: usize) -> Oracle {
    let ln_rho = (lambda / mu).ln();
    let ln_z = log_sum(ln_rho, k + 1);
    let probs: Vec<f64> = (0..=k).map(|n| (n as f64 * ln_rho - ln_z).exp()).collect();
    // Σ_{n<K} Pₙ straight from the log-sum, so it keeps its relative
    // precision when the loss is within rounding of 1.
    let throughput = lambda * (log_sum(ln_rho, k) - ln_z).exp();
    let mean_jobs: f64 = probs.iter().enumerate().map(|(n, p)| n as f64 * p).sum();
    Oracle {
        probs,
        throughput,
        response_time: mean_jobs / throughput,
    }
}

fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn mm1k_matches_log_space_oracle(
        log10_rho in -300.0f64..300.0,
        log10_lambda in -3.0f64..3.0,
        k in 1usize..64,
    ) {
        let lambda = 10f64.powf(log10_lambda);
        let mu = lambda / 10f64.powf(log10_rho);
        let want = oracle(lambda, mu, k);

        let probs: Vec<f64> = (0..=k).map(|n| mm1k_prob(lambda, mu, k, n)).collect();
        let total: f64 = probs.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "Σ Pₙ = {total}");
        for (n, (&p, &q)) in probs.iter().zip(&want.probs).enumerate() {
            prop_assert!((0.0..=1.0).contains(&p), "P{n} = {p}");
            prop_assert!((p - q).abs() < 1e-9, "P{n} = {p}, oracle {q}");
        }

        let loss = mm1k_loss_probability(lambda, mu, k);
        prop_assert!((0.0..=1.0).contains(&loss), "loss {loss}");

        let x = mm1k_throughput(lambda, mu, k);
        prop_assert!((0.0..=lambda).contains(&x), "throughput {x} for λ {lambda}");
        prop_assert!(close(x, want.throughput, 1e-8), "throughput {x}, oracle {}", want.throughput);

        let w = mm1k_response_time(lambda, mu, k);
        prop_assert!(w >= (1.0 - 1e-12) / mu, "response time {w} < 1/μ = {}", 1.0 / mu);
        prop_assert!(close(w, want.response_time, 1e-8), "response time {w}, oracle {}", want.response_time);
    }
}
