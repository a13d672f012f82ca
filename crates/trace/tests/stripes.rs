//! Stripes under fire: owners writing their own cells, sharers writing the
//! shared one, stripes dropped and re-taken mid-run, and a poller reading
//! throughout. Every read folds each count exactly once — the total never
//! falls, a snapshot's count is the sum of its own buckets — and the final
//! totals are exact.
//!
//! What the poller can catch is a count seen twice (a stripe folded into
//! the shared cell while still listed) or not at all (a stripe dropped
//! without folding): the first shows as a total that falls on the next
//! read, the second as a total that falls or a final that is short. A
//! stripe's life is long (`WRITES_PER_LIFE`) so the twice-counted amount
//! dwarfs what the other writers add between two reads and cannot hide in
//! it. Which reads meet which drops is timing, so `scripts/ci.sh` runs this
//! at release timing too.

use flexrpc_trace::{Counter, Histogram};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

const OWNERS: u64 = 4;
const SHARERS: u64 = 2;
const LIVES: u64 = 12_000;
const WRITES_PER_LIFE: u64 = 512;
const SHARED_WRITES: u64 = 1_000_000;

/// The value owner `i` records: a bucket of its own, so a lost or doubled
/// stripe also shows in the final buckets.
fn owner_value(owner: u64) -> u64 {
    1 << (4 * owner)
}

#[test]
fn a_poller_never_sees_a_total_fall_and_the_finals_are_exact() {
    let counter = Counter::detached();
    let histogram = Histogram::detached();
    let start = Barrier::new((OWNERS + SHARERS + 1) as usize);
    let done = AtomicBool::new(false);

    let polls = std::thread::scope(|s| {
        let writers: Vec<_> = (0..OWNERS)
            .map(|owner| {
                let (counter, histogram, start) = (&counter, &histogram, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..LIVES {
                        // Re-taken every life: the drop at the end of this
                        // block is the fold the poller races.
                        let (mut c, mut h) = (counter.stripe(), histogram.stripe());
                        for _ in 0..WRITES_PER_LIFE {
                            c.add(1);
                            h.record(owner_value(owner));
                        }
                    }
                })
            })
            .chain((0..SHARERS).map(|_| {
                let (counter, histogram, start) = (&counter, &histogram, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..SHARED_WRITES {
                        counter.inc();
                        histogram.record(0);
                    }
                })
            }))
            .collect();

        let poller = s.spawn(|| {
            start.wait();
            let (mut last_get, mut last_count, mut last_sum, mut polls) = (0, 0, 0, 0u64);
            while !done.load(Ordering::Acquire) {
                let got = counter.get();
                assert!(got >= last_get, "counter fell: {last_get} -> {got}");
                let snap = histogram.snapshot();
                assert_eq!(snap.count, snap.buckets.iter().map(|(_, n)| n).sum::<u64>());
                assert!(snap.count >= last_count, "count fell: {last_count} -> {}", snap.count);
                assert!(snap.sum >= last_sum, "sum fell: {last_sum} -> {}", snap.sum);
                (last_get, last_count, last_sum) = (got, snap.count, snap.sum);
                polls += 1;
            }
            polls
        });

        for w in writers {
            w.join().expect("writer finished");
        }
        done.store(true, Ordering::Release);
        poller.join().expect("poller saw only rising totals")
    });
    assert!(polls > 0);

    let per_owner = LIVES * WRITES_PER_LIFE;
    let writes = OWNERS * per_owner + SHARERS * SHARED_WRITES;
    assert_eq!(counter.get(), writes);
    let snap = histogram.snapshot();
    assert_eq!(snap.count, writes);
    assert_eq!(snap.sum, (0..OWNERS).map(|o| per_owner * owner_value(o)).sum::<u64>());
    let mut buckets = vec![(0, SHARERS * SHARED_WRITES)];
    buckets.extend((0..OWNERS).map(|o| (owner_value(o), per_owner)));
    assert_eq!(snap.buckets, buckets);
}
