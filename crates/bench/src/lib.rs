//! Experiment drivers for every measured figure in the paper.
//!
//! Each module builds one experiment's setup and exposes a `run`-shaped
//! entry point; the `report` binary turns them into [`rows`] — exact
//! counts, paired shapes, and printed-only wall-clock absolutes. Timed
//! throughput and latency with bounds live in `benchmark/`, not here.

pub mod ablate;
pub mod cluster;
pub mod failover;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig2;
pub mod fig6;
pub mod fig7;
pub mod fuse;
pub mod port;
pub mod rows;
pub mod sample;
pub mod stream;
pub mod trace;

/// Mean nanoseconds per iteration of `iters` back-to-back runs of `f`.
pub fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    assert!(iters >= 1);
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

/// The median of `values` (the upper one of an even count).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    assert!(!v.is_empty(), "median of no samples");
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v[v.len() / 2]
}

/// Runs `iters` iterations `rounds` times and returns the median round's
/// mean nanoseconds per iteration.
pub fn measure_ns(rounds: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    median((0..rounds).map(|_| time_ns(iters, &mut f)))
}

/// Alternating paired rounds: every round takes one `sample` from each
/// side, back to back, starting one side later each round — so slow drift
/// in CPU frequency or cache state lands on all sides of a round alike and
/// ordering bias cancels. Returns the samples as `[round][side]`; a ratio
/// taken *within* each round and then [`median`]ed is far steadier than
/// the ratio of two independent medians when the true gap is a few percent.
pub fn paired_rounds<T>(
    rounds: usize,
    sides: &mut [T],
    mut sample: impl FnMut(&mut T) -> f64,
) -> Vec<Vec<f64>> {
    let n = sides.len();
    (0..rounds)
        .map(|round| {
            let mut row = vec![0.0; n];
            for k in 0..n {
                let side = (round + k) % n;
                row[side] = sample(&mut sides[side]);
            }
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_ns_returns_positive() {
        let ns = measure_ns(3, 10, || {
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert!(ns > 0.0);
    }

    #[test]
    fn paired_rounds_sample_every_side_once_a_round_in_rotating_order() {
        let mut order = Vec::new();
        let mut sides = [0usize, 1, 2];
        let samples = paired_rounds(3, &mut sides, |side| {
            order.push(*side);
            *side as f64
        });
        assert_eq!(order, [0, 1, 2, 1, 2, 0, 2, 0, 1]);
        assert!(samples.iter().all(|round| round == &[0.0, 1.0, 2.0]), "indexed by side");
        assert_eq!(median(samples.iter().map(|r| r[1] / r[2])), 0.5);
    }
}
