//! Fixed-size latency histogram and small-sample helpers.

/// Sub-bucket bits: values below `2^SUB_BITS` are exact, and every octave
/// above is split into `2^SUB_BITS` buckets, so a reported quantile is within
/// 0.1% of the recorded value.
const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS + 1) as usize) << SUB_BITS;

/// A log-linear histogram of nanosecond durations. Its memory is allocated
/// once, so recording never allocates and the harness's footprint does not
/// grow with the run. Scans cover only the used bucket range, so the
/// untouched rest of the table never faults in.
pub struct Hist {
    counts: Box<[u64]>,
    /// Lowest and highest bucket recorded into (`lo > hi` when empty).
    lo: usize,
    hi: usize,
    total: u64,
    sum: u128,
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            lo: BUCKETS,
            hi: 0,
            total: 0,
            sum: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < SUB {
            v as usize
        } else {
            let shift = 63 - v.leading_zeros() - SUB_BITS;
            (((shift + 1) as u64) * SUB + ((v >> shift) - SUB)) as usize
        }
    }

    /// The midpoint of bucket `i`.
    fn value(i: usize) -> f64 {
        let i = i as u64;
        if i < SUB {
            i as f64
        } else {
            let shift = i / SUB - 1;
            let low = ((i % SUB) + SUB) << shift;
            low as f64 + ((1u64 << shift) - 1) as f64 / 2.0
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        let i = Self::index(ns);
        self.counts[i] += 1;
        self.lo = self.lo.min(i);
        self.hi = self.hi.max(i);
        self.total += 1;
        self.sum += u128::from(ns);
    }

    /// Sum of the recorded values.
    pub fn sum(&self) -> f64 {
        self.sum as f64
    }

    pub fn mean(&self) -> f64 {
        self.sum as f64 / self.total.max(1) as f64
    }

    /// The smallest recorded value with at least `q` of the samples at or
    /// below it, in nanoseconds; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for i in self.lo..=self.hi {
            seen += self.counts[i];
            if seen >= rank {
                return Some(Self::value(i));
            }
        }
        unreachable!("rank never exceeds the total count")
    }
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_round_trip_within_a_tenth_of_a_percent() {
        for v in [
            0u64,
            1,
            999,
            1023,
            1024,
            1500,
            65_537,
            3_000_000,
            u64::MAX / 3,
        ] {
            let back = Hist::value(Hist::index(v));
            assert!(
                (back - v as f64).abs() <= v as f64 / 1000.0 + 0.5,
                "{v} -> {back}"
            );
        }
    }

    #[test]
    fn quantiles_of_a_uniform_ramp() {
        let mut h = Hist::new();
        for v in 1..=1000 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(500.0));
        assert_eq!(h.quantile(0.99), Some(990.0));
        assert_eq!(h.mean(), 500.5);
        assert_eq!(Hist::new().quantile(0.5), None);
    }
}
