//! Order statistics over latency samples.

/// The `p`-quantile (`0.0..=1.0`) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `p` of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Latency samples of one op kind, in nanoseconds, in arrival order.
#[derive(Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    /// Sorted copy of `ns`; stale (and shorter or longer) after a change.
    sorted: Vec<u64>,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples {
            ns: Vec::with_capacity(n),
            sorted: Vec::new(),
        }
    }

    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted.clear();
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// The samples in the order they were taken.
    pub fn arrival(&self) -> &[u64] {
        &self.ns
    }

    /// Drop the first 5 % (warm-up) in arrival order.
    pub fn discard_warmup(&mut self) {
        let skip = self.ns.len() / 20;
        self.ns.drain(..skip);
        self.sorted.clear();
    }

    fn sorted(&mut self) -> &[u64] {
        if self.sorted.len() != self.ns.len() {
            self.sorted.clone_from(&self.ns);
            self.sorted.sort_unstable();
        }
        &self.sorted
    }

    /// Quantile in microseconds.
    pub fn us(&mut self, p: f64) -> f64 {
        percentile(self.sorted(), p) as f64 / 1e3
    }

    pub fn max_us(&mut self) -> f64 {
        *self.sorted().last().expect("max of no samples") as f64 / 1e3
    }
}

impl FromIterator<u64> for Samples {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Samples {
        Samples {
            ns: iter.into_iter().collect(),
            sorted: Vec::new(),
        }
    }
}

/// Median of a small set of measurements (set-up rounds).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Rng;

    /// Oracle: count the samples at or below each candidate directly.
    fn oracle(samples: &[u64], p: f64) -> u64 {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        *sorted
            .iter()
            .find(|&&v| {
                let at_or_below = samples.iter().filter(|&&s| s <= v).count();
                at_or_below as f64 >= p * samples.len() as f64
            })
            .expect("the maximum always qualifies")
    }

    #[test]
    fn percentile_matches_the_counting_oracle() {
        let mut rng = Rng::new(11);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let samples: Vec<u64> = (0..n).map(|_| u64::from(rng.range(0, 50))).collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for p in [0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(percentile(&sorted, p), oracle(&samples, p), "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentile_of_a_known_vector() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.9), 90);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
    }

    #[test]
    fn warmup_discards_the_first_twentieth_in_arrival_order() {
        let mut s = Samples::default();
        for i in 0..100u64 {
            s.push(1000 - i);
        }
        s.discard_warmup();
        assert_eq!(s.len(), 95);
        assert_eq!(s.max_us(), 0.995);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
