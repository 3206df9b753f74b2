//! Gaussian probe vectors for stochastic trace estimation (paper §5.1).

use rand::Rng;

/// Samples one standard normal value via the Box–Muller transform.
///
/// `rand` 0.8 without `rand_distr` has no normal distribution, so we roll the
/// classic polar-free form here; two uniforms give one normal (the second is
/// discarded for simplicity — probe generation is far from the hot path).
pub fn sample_gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A length-`n` vector of i.i.d. standard normal entries.
pub fn gaussian_vector<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<f64> {
    (0..n).map(|_| sample_gaussian(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let v = gaussian_vector(&mut rng, n);
        let mean = v.iter().sum::<f64>() / n as f64;
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let a = gaussian_vector(&mut StdRng::seed_from_u64(42), 16);
        let b = gaussian_vector(&mut StdRng::seed_from_u64(42), 16);
        assert_eq!(a, b);
    }
}
