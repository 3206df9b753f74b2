//! Order statistics and the seeded request draws.

/// The `p`-quantile (nearest rank on the sorted sample), or `None` for an
/// empty sample.
pub fn quantile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    Some(sorted[idx])
}

/// The median, or `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The smallest value, or `None` for an empty sample.
pub fn minimum(values: &[f64]) -> Option<f64> {
    quantile(values, 0.0)
}

/// The arithmetic mean, or `None` for an empty sample.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// SplitMix64: the benchmark's own seeded generator for request draws, so
/// the draws never depend on the program's RNG streams.
#[derive(Debug, Clone)]
pub struct Draws(u64);

impl Draws {
    /// A generator for stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Draws {
        Draws(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `items` (Fisher–Yates).
    pub fn shuffled<T: Clone>(&mut self, items: &[T]) -> Vec<T> {
        let mut out = items.to_vec();
        for i in (1..out.len()).rev() {
            out.swap(i, self.below(i + 1));
        }
        out
    }
}

/// A request's planner parameters: route length budget `k` and weight `w`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knobs {
    /// Maximum route edges.
    pub k: usize,
    /// Demand/connectivity weight.
    pub w: f64,
}

/// The balanced (k, w) grid every workload draws from. Requests walk a
/// seeded permutation of it, so a seed changes which request meets which
/// snapshot but not the mix, which keeps medians comparable across seeds.
pub fn knob_grid(ks: &[usize], ws: &[f64]) -> Vec<Knobs> {
    ks.iter().flat_map(|&k| ws.iter().map(move |&w| Knobs { k, w })).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_pick_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(minimum(&v), Some(1.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn draws_repeat_per_seed_and_permute() {
        let grid = knob_grid(&[6, 8], &[0.3, 0.7]);
        let a = Draws::new(7, 1).shuffled(&grid);
        let b = Draws::new(7, 1).shuffled(&grid);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        for g in &grid {
            assert!(a.contains(g));
        }
    }
}
