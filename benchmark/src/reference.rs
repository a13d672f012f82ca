//! The reference kernel: a fixed piece of work the benchmark owns, timed
//! immediately before and after every chunk of the workload, so that the
//! machine's own speed noise can be seen and cancelled.
//!
//! On the box this benchmark was written on, even a register-only loop
//! wanders ±15 % from one second to the next (co-tenants on the host; see
//! the probe in `README.md`). No number of rounds and no median inside a
//! 10-second run removes that from a wall-clock reading: ten runs of the
//! raw `null_loopback` loop spread 19 %. Two things together do:
//!
//! * **filter** — a ≈1 ms chunk of the workload counts only if the
//!   reference chunks on both sides of it ran in the quietest quarter of
//!   the run: the machine was undisturbed while the chunk ran;
//! * **normalise** — the chunk's time is multiplied by
//!   `NOMINAL_NS_PER_ITER / (the two reference chunks' ns per iteration)`,
//!   which removes what drift is left inside that quarter.
//!
//! Every timing metric is therefore a time *at reference speed*. On a
//! quiet machine of this box's speed the factor is 1.
//!
//! The kernel never calls the program and must never change — changing it
//! rescales every timing metric. It is a mix of what an RPC does — a
//! little interpreter over boxed steps, small variable-length copies, one
//! allocation and one free per iteration through a hash map of live
//! buffers, a lock, a reference count, a counter — because the probe showed
//! that the noise slows such code more than it slows a tight register loop:
//! a kernel that is too simple under-corrects.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What one iteration costs on the box the benchmark was calibrated on,
/// when that box is quiet. A constant of the benchmark, not a measurement:
/// it only fixes the scale, so reported numbers read like that box's
/// undisturbed wall-clock timings.
pub const NOMINAL_NS_PER_ITER: f64 = 85.0;

/// Iterations of one reference chunk (≈0.35 ms).
pub const CHUNK_ITERS: u32 = 4_000;

/// One step of the kernel's little interpreter.
trait Step {
    fn apply(&self, x: u64, scratch: &mut [u8; 256]) -> u64;
}

struct Copy(usize);
struct Mix(u64);
struct Sum;

impl Step for Copy {
    fn apply(&self, x: u64, scratch: &mut [u8; 256]) -> u64 {
        let len = 16 + (x & 63) as usize;
        let (src, dst) = scratch.split_at_mut(128);
        dst[self.0..self.0 + len].copy_from_slice(&src[..len]);
        x ^ u64::from(dst[self.0])
    }
}

impl Step for Mix {
    fn apply(&self, x: u64, _: &mut [u8; 256]) -> u64 {
        (x ^ (x >> 29)).wrapping_mul(self.0)
    }
}

impl Step for Sum {
    fn apply(&self, x: u64, scratch: &mut [u8; 256]) -> u64 {
        scratch[..32].iter().fold(x, |acc, b| acc.rotate_left(5) ^ u64::from(*b))
    }
}

pub struct Reference {
    steps: Vec<Box<dyn Step>>,
    scratch: [u8; 256],
    /// 256 live buffers, replaced one per iteration (allocate, free).
    live: HashMap<u64, Vec<u8>>,
    shared: Arc<Mutex<u64>>,
    counter: AtomicU64,
    state: u64,
}

impl Default for Reference {
    fn default() -> Reference {
        Reference::new()
    }
}

impl Reference {
    pub fn new() -> Reference {
        let mut rng = crate::inputs::SplitMix64::new(0x5EED_0F7E);
        let mut scratch = [0u8; 256];
        scratch.fill_with(|| rng.next_u64() as u8);
        let steps: Vec<Box<dyn Step>> = vec![
            Box::new(Copy(0)),
            Box::new(Mix(0xBF58_476D_1CE4_E5B9)),
            Box::new(Sum),
            Box::new(Copy(48)),
            Box::new(Mix(0x94D0_49BB_1331_11EB)),
        ];
        let mut reference = Reference {
            steps,
            scratch,
            live: HashMap::with_capacity(512),
            shared: Arc::new(Mutex::new(0)),
            counter: AtomicU64::new(0),
            state: 0x9E37_79B9_7F4A_7C15,
        };
        reference.run(1024);
        reference
    }

    /// Runs `iters` iterations; returns a value that depends on all of them.
    #[inline(never)]
    pub fn run(&mut self, iters: u32) -> u64 {
        let mut x = self.state;
        for _ in 0..iters {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            for step in &self.steps {
                x = step.apply(x, &mut self.scratch);
            }
            let len = 32 + (x & 63) as usize;
            let buffer = self.scratch[..len].to_vec();
            if let Some(old) = self.live.insert(x >> 56, buffer) {
                x = x.wrapping_add(old.len() as u64);
            }
            let shared = Arc::clone(&self.shared);
            *shared.lock().expect("reference lock") += 1;
            self.counter.fetch_add(1, Ordering::Relaxed);
        }
        self.state = x;
        x
    }
}

/// Times reference chunks.
pub struct Pacer {
    reference: Reference,
}

impl Default for Pacer {
    fn default() -> Pacer {
        Pacer::new()
    }
}

impl Pacer {
    pub fn new() -> Pacer {
        Pacer { reference: Reference::new() }
    }

    /// Runs one reference chunk; returns its nanoseconds per iteration.
    pub fn tick(&mut self) -> f64 {
        let start = std::time::Instant::now();
        std::hint::black_box(self.reference.run(CHUNK_ITERS));
        start.elapsed().as_nanos() as f64 / f64::from(CHUNK_ITERS)
    }
}

/// The factor that turns a time measured between two reference chunks into
/// a time at reference speed.
pub fn scale(before: f64, after: f64) -> f64 {
    NOMINAL_NS_PER_ITER / ((before + after) / 2.0)
}
