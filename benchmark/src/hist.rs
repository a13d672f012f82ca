//! A fixed-bucket latency histogram.
//!
//! Log-linear buckets (128 per octave, exact below 128 ns), allocated once
//! before the latency pass: recording is an index computation and an
//! increment, and memory does not grow with the sample count — so the
//! latency pass cannot inflate `peak_rss_mb`. A bucket is at most 1/128 of
//! its value wide; percentiles interpolate inside the bucket by rank, which
//! keeps them within 1 % of a sorted-vector oracle (pinned by a test).

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Exact buckets for `0..SUB`, then one block of `SUB` buckets for each
/// power of two up to 2^63.
const BUCKETS: usize = ((64 - SUB_BITS + 1) as usize) << SUB_BITS;

#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram { counts: vec![0; BUCKETS], total: 0 }
    }

    fn index(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        let shift = 63 - value.leading_zeros() - SUB_BITS;
        (((u64::from(shift) + 1) << SUB_BITS) + ((value >> shift) & (SUB - 1))) as usize
    }

    /// The half-open value range `[lo, hi)` bucket `index` covers.
    fn bounds(index: usize) -> (u64, u64) {
        let index = index as u64;
        if index < SUB {
            return (index, index + 1);
        }
        let shift = (index >> SUB_BITS) - 1;
        let lo = (SUB + (index & (SUB - 1))) << shift;
        (lo, lo + (1 << shift))
    }

    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Histogram::index(value)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// The `q`-quantile (`0.0..=1.0`), interpolated by rank inside the
    /// bucket that holds it. 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if count > 0 && (below + count) as f64 >= rank {
                let (lo, hi) = Histogram::bounds(index);
                let inside = ((rank - below as f64) / count as f64).clamp(0.0, 1.0);
                return lo as f64 + inside * (hi - lo) as f64;
            }
            below += count;
        }
        unreachable!("rank never exceeds the total count")
    }
}
