//! Fixed-size log-bucketed latency histogram.
//!
//! A run of `copy-small` completes millions of ops; keeping every sample
//! would make the benchmark's own buffers dominate `mem_mib`. Buckets
//! grow by 0.1%, so a reported quantile is within 0.05% of the exact
//! sample quantile — far below run-to-run noise — while the histogram
//! stays a constant 200 KiB.

const GROWTH: f64 = 1.001;
/// Covers 1 ns to ~190 s.
const BUCKETS: usize = 26_000;

/// Counts of values (nanoseconds) in geometric buckets.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn bucket(v: f64) -> usize {
    if v < 1.0 {
        0
    } else {
        ((v.ln() / GROWTH.ln()) as usize).min(BUCKETS - 1)
    }
}

impl Hist {
    pub fn add(&mut self, v: f64) {
        self.counts[bucket(v)] += 1;
        self.n += 1;
    }

    #[cfg(test)]
    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Nearest-rank quantile, reported at the geometric centre of the
    /// bucket holding rank `ceil(q * n)`; 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return GROWTH.powf(i as f64 + 0.5);
            }
        }
        unreachable!("rank {rank} is at most the sample count {}", self.n)
    }
}

/// Median of `values` (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_within_bucket_resolution() {
        let mut h = Hist::default();
        for v in 1..=10_000u32 {
            h.add(f64::from(v) * 10.0);
        }
        for (q, exact) in [(0.5, 50_000.0), (0.99, 99_000.0), (1.0, 100_000.0)] {
            let got = h.quantile(q);
            assert!((got / exact - 1.0).abs() < 0.001, "q{q}: {got} vs {exact}");
        }
        assert_eq!(h.len(), 10_000);
    }

    #[test]
    fn merge_and_empty() {
        let mut a = Hist::default();
        assert_eq!(a.quantile(0.5), 0.0);
        let mut b = Hist::default();
        b.add(1000.0);
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert!((a.quantile(0.5) / 1000.0 - 1.0).abs() < 0.001);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
