//! A discrete Zipf sampler over ranks `0..n`: rank `k` has probability
//! proportional to `1 / (k + 1)^s`.

use crate::rng::Rng;

/// Inverse-CDF Zipf sampler.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Zipf(`s`) over `n` ranks. `n` must be positive.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// Probability mass of the `k` most likely ranks.
    pub fn head_mass(&self, k: usize) -> f64 {
        match k {
            0 => 0.0,
            k => self.cdf[k.min(self.cdf.len()) - 1],
        }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_mass_matches_the_harmonic_closed_form() {
        // Zipf(1) over 4 ranks: weights 1, 1/2, 1/3, 1/4; H_4 = 25/12.
        let z = Zipf::new(4, 1.0);
        assert!((z.head_mass(1) - 12.0 / 25.0).abs() < 1e-12);
        assert!((z.head_mass(2) - 18.0 / 25.0).abs() < 1e-12);
        assert!((z.head_mass(4) - 1.0).abs() < 1e-12);
        assert_eq!(z.head_mass(0), 0.0);
    }

    #[test]
    fn sampled_head_mass_matches_the_distribution() {
        let z = Zipf::new(40_943, 1.0);
        let mut rng = Rng::new(3, 0);
        let draws = 200_000;
        let top = 100;
        let hits = (0..draws).filter(|_| z.sample(&mut rng) < top).count();
        let observed = hits as f64 / draws as f64;
        // The 100 hottest of 40,943 ranks carry about 46% of Zipf(1) mass.
        let expected = z.head_mass(top);
        assert!((0.45..0.47).contains(&expected), "expected {expected}");
        assert!(
            (observed - expected).abs() < 0.01,
            "observed {observed} vs {expected}"
        );
    }

    #[test]
    fn uniform_when_exponent_is_zero() {
        let z = Zipf::new(10, 0.0);
        assert!((z.head_mass(5) - 0.5).abs() < 1e-12);
    }
}
