//! The fixed-bucket histogram against a sorted-vector oracle.

use flexrpc_benchmark::hist::Histogram;
use flexrpc_benchmark::inputs::SplitMix64;

fn oracle(sorted: &[u64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q) as usize] as f64
}

fn check(samples: &mut [u64]) {
    let mut hist = Histogram::new();
    for &s in samples.iter() {
        hist.record(s);
    }
    samples.sort_unstable();
    for q in [0.10, 0.50, 0.90, 0.99, 0.999] {
        let (got, want) = (hist.quantile(q), oracle(samples, q));
        let tolerance = (want * 0.01).max(1.0);
        assert!((got - want).abs() <= tolerance, "q{q}: histogram {got}, oracle {want}");
    }
}

#[test]
fn percentiles_within_one_percent_of_the_oracle() {
    let mut rng = SplitMix64::new(7);
    // A call-latency shape: a tight body with a long tail.
    let mut latencies: Vec<u64> = (0..200_000)
        .map(|_| {
            let body = 200 + rng.below(80);
            if rng.below(100) == 0 {
                body * (2 + rng.below(50))
            } else {
                body
            }
        })
        .collect();
    check(&mut latencies);
    // Uniform over six decades.
    let mut wide: Vec<u64> =
        (0..200_000).map(|_| 1 << rng.below(20) | rng.below(1 << 20)).collect();
    check(&mut wide);
    // Small exact values.
    let mut small: Vec<u64> = (0..10_000).map(|_| rng.below(128)).collect();
    check(&mut small);
}

#[test]
fn empty_and_cleared_histograms_read_zero() {
    let mut hist = Histogram::new();
    assert!(hist.is_empty());
    assert_eq!(hist.quantile(0.5), 0.0);
    hist.record(1_000);
    assert_eq!(hist.len(), 1);
    hist.clear();
    assert_eq!(hist.quantile(0.9), 0.0);
}

#[test]
fn extremes_do_not_overflow_the_buckets() {
    let mut hist = Histogram::new();
    hist.record(0);
    hist.record(u64::MAX);
    assert!(hist.quantile(1.0) >= (u64::MAX >> 1) as f64);
}
