//! Order statistics and the seeded zipf sampler the workloads draw from.

use rand::rngs::StdRng;
use rand::Rng;

/// The `p`-th percentile (0–100) by nearest rank on a sorted copy.
/// Empty input gives 0 so a layer with no samples reports 0.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the midpoint rule for even counts (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (exclusive method), so the
/// spread `repeat` prints is the one the acceptance rule uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Zipf sampler over a band of ranks with exponent `s`: rank `k` is
/// drawn with probability proportional to `(k + 1)^-s`, the weight it
/// has in a zipf distribution over all ranks from 0.
pub struct Zipf {
    first: usize,
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(ranks: std::ops::Range<usize>, s: f64) -> Zipf {
        assert!(!ranks.is_empty(), "zipf over an empty domain");
        let first = ranks.start;
        let mut cumulative = Vec::with_capacity(ranks.len());
        let mut total = 0.0;
        for k in ranks {
            total += ((k + 1) as f64).powf(-s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { first, cumulative }
    }

    fn rank_at(&self, u: f64) -> usize {
        let offset = self
            .cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1);
        self.first + offset
    }

    /// `n` ranks in ascending order, one drawn inside each of `n`
    /// equal-probability strata. Every seed then sees the same mix of
    /// popular and rare ranks, so a workload's cost distribution does
    /// not depend on how lucky the draw was.
    pub fn strata(&self, n: usize, rng: &mut StdRng) -> Vec<usize> {
        (0..n)
            .map(|i| self.rank_at((i as f64 + rng.gen_range(0.0..1.0)) / n as f64))
            .collect()
    }
}

/// Fisher–Yates.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn median_uses_the_midpoint_for_even_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[4.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 4.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_is_seeded_and_heavy_headed() {
        let z = Zipf::new(0..1000, 1.05);
        let draw = |seed| z.strata(5000, &mut StdRng::seed_from_u64(seed));
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed, same stream");
        assert_ne!(a, draw(8));
        let head = a.iter().filter(|&&r| r == 0).count();
        let tail = a.iter().filter(|&&r| r >= 500).count();
        assert!(head > 400, "rank 0 drawn {head} times of 5000");
        assert!(
            tail < head,
            "the tail half ({tail}) outweighs rank 0 ({head})"
        );
        assert!(a.iter().all(|&r| r < 1000));
        let band = Zipf::new(12..40, 1.05).strata(500, &mut StdRng::seed_from_u64(1));
        assert!(band.iter().all(|r| (12..40).contains(r)));
    }

    #[test]
    fn strata_hold_the_same_mix_for_every_seed() {
        let z = Zipf::new(0..1000, 1.05);
        let a = z.strata(200, &mut StdRng::seed_from_u64(3));
        let b = z.strata(200, &mut StdRng::seed_from_u64(4));
        assert_eq!(a.len(), 200);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "ascending");
        // Rank 0 holds ~13 % of the mass: both draws see it 26–28 times.
        let zeros = |v: &[usize]| v.iter().filter(|&&r| r == 0).count() as i64;
        assert!(
            (zeros(&a) - zeros(&b)).abs() <= 1,
            "{} vs {}",
            zeros(&a),
            zeros(&b)
        );
        assert_ne!(a, b);
    }

    #[test]
    fn shuffle_is_seeded_and_keeps_the_items() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, &mut StdRng::seed_from_u64(9));
        shuffle(&mut b, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        assert_ne!(a, (0..50).collect::<Vec<_>>());
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<_>>());
    }
}
