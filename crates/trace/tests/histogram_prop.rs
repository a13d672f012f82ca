//! Property: across arbitrary value sequences, a histogram's per-bucket
//! counts always sum to the number of recorded events, the sum matches,
//! and every value lands in the bucket whose range contains it — and none
//! of that depends on *where* a value was recorded: through the handle, or
//! through any of its stripes, live or dropped.

use flexrpc_trace::{Counter, Histogram};
use proptest::prelude::*;

/// How many stripes the split properties hand values to (writer 0 is the
/// handle itself).
const STRIPES: usize = 4;

proptest! {
    #[test]
    fn bucket_counts_sum_to_event_count(values in prop::collection::vec(any::<u64>(), 0..200)) {
        let h = Histogram::detached();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);
        let bucket_total: u64 = snap.buckets.iter().map(|(_, n)| n).sum();
        prop_assert_eq!(bucket_total, snap.count);
        let expected_sum = values.iter().fold(0u64, |acc, &v| acc.wrapping_add(v));
        prop_assert_eq!(snap.sum, expected_sum);
    }

    #[test]
    fn every_value_lands_in_its_log2_bucket(v in any::<u64>()) {
        let i = Histogram::bucket_index(v);
        let floor = Histogram::bucket_floor(i);
        prop_assert!(floor <= v || (v == 0 && floor == 0));
        if i < 64 {
            let next_floor = Histogram::bucket_floor(i + 1);
            prop_assert!(v < next_floor, "value {} below next bucket floor {}", v, next_floor);
        }
        // Recording exactly one value fills exactly that bucket.
        let h = Histogram::detached();
        h.record(v);
        let snap = h.snapshot();
        prop_assert_eq!(snap.buckets.as_slice(), &[(floor, 1)]);
    }

    #[test]
    fn small_value_mixes_keep_totals(zeros in 0u64..50, ones in 0u64..50, big in 0u64..50) {
        let h = Histogram::detached();
        for _ in 0..zeros { h.record(0); }
        for _ in 0..ones { h.record(1); }
        for _ in 0..big { h.record(1 << 40); }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, zeros + ones + big);
        let bucket_total: u64 = snap.buckets.iter().map(|(_, n)| n).sum();
        prop_assert_eq!(bucket_total, snap.count);
        prop_assert_eq!(snap.sum, ones + big * (1 << 40));
    }

    /// Values split arbitrarily between the handle's own `record` and four
    /// stripes, some of them dropped before the read, fold to exactly what
    /// one plain histogram reads: count, sum, buckets.
    #[test]
    fn a_histogram_reads_the_same_however_its_records_are_striped(
        wide in prop::collection::vec((any::<u64>(), 0..STRIPES + 1), 0..120),
        narrow in prop::collection::vec((0u64..3, 0..STRIPES + 1), 0..120),
        dropped in prop::collection::vec(any::<bool>(), STRIPES),
    ) {
        let (plain, striped) = (Histogram::detached(), Histogram::detached());
        let mut stripes: Vec<_> = (0..STRIPES).map(|_| Some(striped.stripe())).collect();
        for &(value, writer) in wide.iter().chain(&narrow) {
            plain.record(value);
            match writer.checked_sub(1) {
                None => striped.record(value),
                Some(k) => stripes[k].as_mut().expect("live until the loop ends").record(value),
            }
        }
        for (stripe, gone) in stripes.iter_mut().zip(&dropped) {
            if *gone {
                *stripe = None;
            }
        }
        let snap = striped.snapshot();
        prop_assert_eq!(&snap, &plain.snapshot());
        prop_assert_eq!(snap.count, snap.buckets.iter().map(|(_, n)| n).sum::<u64>());
        prop_assert_eq!((striped.count(), striped.sum()), (snap.count, snap.sum));
        // Dropping the rest changes nothing a reader can see.
        drop(stripes);
        prop_assert_eq!(striped.snapshot(), snap);
    }

    /// The same for a counter.
    #[test]
    fn a_counter_reads_the_same_however_its_adds_are_striped(
        adds in prop::collection::vec((any::<u64>(), 0..STRIPES + 1), 0..200),
        dropped in prop::collection::vec(any::<bool>(), STRIPES),
    ) {
        let counter = Counter::detached();
        let mut stripes: Vec<_> = (0..STRIPES).map(|_| Some(counter.stripe())).collect();
        let mut total = 0u64;
        for &(n, writer) in &adds {
            total = total.wrapping_add(n);
            match writer.checked_sub(1) {
                None => {
                    counter.add(n);
                }
                Some(k) => stripes[k].as_mut().expect("live until the loop ends").add(n),
            }
        }
        for (stripe, gone) in stripes.iter_mut().zip(&dropped) {
            if *gone {
                *stripe = None;
            }
        }
        prop_assert_eq!(counter.get(), total);
        drop(stripes);
        prop_assert_eq!(counter.get(), total);
    }
}
