//! The closed-loop runner: set-up, throughput phase, latency phase, count
//! pass, and the traced run.
//!
//! One run of one workload, in its own process. The end-to-end run
//! (`--trace 0`) never records a span; the traced run (`--trace 1`) is
//! separate, and the difference between its traced and untraced chunks is
//! `bench.trace_overhead_frac`. `--seconds` is the measuring budget: the
//! phases' lengths scale with it, op counts that must repeat exactly
//! (warm-up, count pass, traced chunks) do not.
//!
//! Timed work runs in ≈1 ms *chunks* with no clock read inside a chunk,
//! each between two chunks of the reference kernel (`crate::reference`
//! says why). A phase's result is the median, over the chunks that ran
//! while the machine was quiet, of the chunk's time at reference speed.

use crate::hist::Histogram;
use crate::inputs::{InputSpec, Inputs, SplitMix64};
use crate::layers::{Ledger, PER_LAYER};
use crate::reference::{scale, Pacer};
use crate::span::{self, Trace};
use crate::workloads::Workload;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// The throughput phase is cut into this many rounds for
/// `bench.round_spread_frac`.
pub const ROUNDS: usize = 9;
/// Traced/untraced chunk pairs in the traced run: at least, at most.
pub const MIN_TRACE_PAIRS: usize = 5;
pub const MAX_TRACE_PAIRS: usize = 2_000;
/// Wall time of one chunk of workload.
pub const CHUNK: Duration = Duration::from_millis(1);
/// A latency chunk holds at least this many units, so its own 90th
/// percentile means something.
pub const MIN_LATENCY_UNITS: u64 = 256;
/// A chunk counts if both reference chunks round it were among this share
/// of the phase's quietest.
pub const QUIET_SHARE: f64 = 0.25;

/// The end-to-end metrics: `(name, unit)`. `BENCHMARK.json` fixes their
/// direction and bound (a test compares the two lists).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("lat_p50_ns", "ns"),
    ("allocs_per_op", "count"),
    ("alloc_bytes_per_op", "B"),
    ("peak_rss_mb", "MB"),
];

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub seconds: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Broken invariants, from the program's public stats.
    pub violations: Vec<String>,
    /// The contract's metrics: every end-to-end one, or every per-layer one.
    pub metrics: Vec<Metric>,
    /// Printed beside them but not part of the contract's result.
    pub extra: Vec<Metric>,
    pub warmup_units: u64,
    pub inputs_digest: u64,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.violations.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// Sorts `values` and returns their `q`-quantile (nearest rank below).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    values[((values.len() - 1) as f64 * q) as usize]
}

pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// One chunk's measurements between the two reference chunks round it
/// (`before` / `after`, in reference ns per iteration).
#[derive(Debug, Clone, Copy)]
pub struct Paired<const N: usize> {
    pub before: f64,
    pub after: f64,
    pub values: [f64; N],
}

impl<const N: usize> Paired<N> {
    fn noise(&self) -> f64 {
        self.before.max(self.after)
    }
}

/// The phase's result: for each value, the median over the quiet chunks of
/// the value at reference speed.
pub fn quiet_medians<const N: usize>(chunks: &[Paired<N>]) -> [f64; N] {
    let mut noise: Vec<f64> = chunks.iter().map(Paired::noise).collect();
    let threshold = quantile(&mut noise, QUIET_SHARE);
    std::array::from_fn(|i| {
        let mut quiet: Vec<f64> = chunks
            .iter()
            .filter(|c| c.noise() <= threshold)
            .map(|c| c.values[i] * scale(c.before, c.after))
            .collect();
        median(&mut quiet)
    })
}

/// Heap jitter. The allocator hands a loop that frees what it allocates the
/// same few addresses over and over, and some address combinations are
/// slow (a copy whose source and destination alias in the low 12 bits):
/// four phases of `null_loopback` in one process read 277, 274, 275 and
/// 231 ns a call. Between chunks, outside the timing, a few blocks of the
/// sizes the workload's own messages have are allocated and a few older
/// ones freed, so every chunk meets other addresses and the phase's median
/// is that of the mix: the same four phases then read 228, 228, 230, 228.
struct Jitter {
    rng: SplitMix64,
    held: Vec<Vec<u8>>,
    size_lo: u64,
    size_span: u64,
}

impl Jitter {
    const HELD: usize = 128;

    fn new(seed: u64, spec: InputSpec) -> Jitter {
        Jitter {
            rng: SplitMix64::new(seed),
            held: Vec::with_capacity(Jitter::HELD + 8),
            size_lo: u64::from(spec.size_lo),
            // A message is its payload plus a header's worth.
            size_span: u64::from(spec.size_hi - spec.size_lo) + 65,
        }
    }

    fn shake(&mut self) {
        for _ in 0..4 + self.rng.below(5) {
            let size = self.size_lo + self.rng.below(self.size_span);
            self.held.push(Vec::with_capacity(size as usize));
        }
        while self.held.len() > Jitter::HELD {
            let at = self.rng.below(self.held.len() as u64) as usize;
            self.held.swap_remove(at);
        }
    }
}

/// A built world plus the tally of what ran on it.
struct World<W: Workload> {
    workload: W,
    units: u64,
    failed: u64,
}

impl<W: Workload> World<W> {
    fn build(inputs: &Arc<Inputs>, trace: Option<Trace>) -> World<W> {
        World { workload: W::build(inputs, trace), units: 0, failed: 0 }
    }

    /// `units` units back to back, no clock reads in between.
    fn run(&mut self, units: u64, full: bool) -> Duration {
        let start = Instant::now();
        let mut failed = 0;
        for _ in 0..units {
            failed += self.workload.unit(full);
        }
        let took = start.elapsed();
        self.units += units;
        self.failed += failed;
        took
    }

    /// One unit per slot of `latencies`, each timed. Timestamps chain — one
    /// clock read per unit — so the latencies add up to the chunk's time.
    fn run_timed(&mut self, latencies: &mut [f64]) {
        let mut failed = 0;
        let mut last = Instant::now();
        for slot in latencies.iter_mut() {
            failed += self.workload.unit(false);
            let now = Instant::now();
            *slot = (now - last).as_nanos() as f64;
            last = now;
        }
        self.units += latencies.len() as u64;
        self.failed += failed;
    }

    fn ops(&self) -> u64 {
        self.units * W::OPS_PER_UNIT
    }
}

/// Builds a world and runs the fixed warm-up; returns the world, how long
/// both took together at reference speed, and the warm-up's raw rate in
/// units per second. No heap jitter here: the heap a world is built on is
/// the same for every seed, so its long-lived buffers land where they
/// landed last time.
fn set_up<W: Workload>(
    inputs: &Arc<Inputs>,
    trace: Option<Trace>,
    warmup: u64,
    pacer: &mut Pacer,
) -> (World<W>, f64, f64) {
    let before = pacer.tick();
    let start = Instant::now();
    let mut world = World::<W>::build(inputs, trace);
    let built = start.elapsed();
    world.run(warmup, false);
    let total = start.elapsed();
    let after = pacer.tick();
    let rate = warmup as f64 / (total - built).as_secs_f64().max(1e-9);
    (world, total.as_secs_f64() * scale(before, after), rate)
}

/// Units in one ≈1 ms chunk at `rate` units per second.
fn chunk_units(rate: f64) -> u64 {
    ((rate * CHUNK.as_secs_f64()) as u64).max(1)
}

/// What the throughput phase measured.
struct Throughput {
    ns_per_op: f64,
    /// (max − min) ÷ median of the phase's rounds.
    round_spread_frac: f64,
    /// Process CPU time per wall time while the workload (not the
    /// reference) ran: 1 for a single busy thread.
    busy_cores: f64,
}

/// Chunks of `units` units, paired with reference chunks, for `budget`.
fn throughput_phase<W: Workload>(
    world: &mut World<W>,
    pacer: &mut Pacer,
    jitter: &mut Jitter,
    units: u64,
    budget: Duration,
) -> Throughput {
    let mut chunks: Vec<Paired<1>> = Vec::with_capacity(8 * (budget.as_millis() as usize + 1));
    let (mut work, mut reference) = (Duration::ZERO, Duration::ZERO);
    let cpu_before = crate::proc::cpu_ns();
    let start = Instant::now();
    let mut before = pacer.tick();
    while start.elapsed() < budget && chunks.len() < chunks.capacity() {
        jitter.shake();
        let took = world.run(units, false);
        let tick = Instant::now();
        let after = pacer.tick();
        reference += tick.elapsed();
        work += took;
        let ns_per_op = took.as_nanos() as f64 / (units * W::OPS_PER_UNIT) as f64;
        chunks.push(Paired { before, after, values: [ns_per_op] });
        before = after;
    }
    let cpu = crate::proc::cpu_ns().saturating_sub(cpu_before) as f64;
    let [ns_per_op] = quiet_medians(&chunks);
    let mut rounds: Vec<f64> = chunks
        .chunks((chunks.len() / ROUNDS).max(1))
        .take(ROUNDS)
        .map(|round| quiet_medians(round)[0])
        .collect();
    let middle = median(&mut rounds);
    Throughput {
        ns_per_op,
        round_spread_frac: (rounds[rounds.len() - 1] - rounds[0]) / middle,
        busy_cores: ((cpu - reference.as_nanos() as f64) / work.as_nanos() as f64).max(0.0),
    }
}

/// What the latency phase measured.
struct Latency {
    p50: f64,
    p90: f64,
    /// Raw and unfiltered, from the histogram of every sample: tails belong
    /// to the noise as much as to the program and cannot carry a claim.
    p99: f64,
    p999: f64,
}

/// Chunks in which every unit is timed. Each chunk's own median and 90th
/// percentile are paired with its reference chunks like a throughput
/// chunk's time; every raw sample also goes to the fixed histogram.
fn latency_phase<W: Workload>(
    world: &mut World<W>,
    pacer: &mut Pacer,
    jitter: &mut Jitter,
    units: u64,
    budget: Duration,
) -> Latency {
    let mut latencies = vec![0f64; units.max(MIN_LATENCY_UNITS) as usize];
    let mut chunks: Vec<Paired<2>> = Vec::with_capacity(8 * (budget.as_millis() as usize + 1));
    let mut hist = Histogram::new();
    let start = Instant::now();
    let mut before = pacer.tick();
    while start.elapsed() < budget && chunks.len() < chunks.capacity() {
        jitter.shake();
        world.run_timed(&mut latencies);
        let after = pacer.tick();
        for &ns in &latencies {
            hist.record(ns as u64);
        }
        let p90 = quantile(&mut latencies, 0.90);
        let p50 = latencies[(latencies.len() - 1) / 2];
        chunks.push(Paired { before, after, values: [p50, p90] });
        before = after;
    }
    let [p50, p90] = quiet_medians(&chunks);
    Latency { p50, p90, p99: hist.quantile(0.99), p999: hist.quantile(0.999) }
}

/// What the count pass saw: allocations and public counters, per op.
struct Counts {
    allocs_per_op: f64,
    alloc_bytes_per_op: f64,
    per_op: Vec<(&'static str, f64)>,
}

/// A fixed number of units with the counting allocator on, every reply
/// compared in full, and the public counters sampled before and after.
fn count_pass<W: Workload>(world: &mut World<W>) -> Counts {
    let before = world.workload.counters();
    let ((), allocs, bytes) = crate::alloc::count(|| {
        world.run(W::COUNT_UNITS, true);
    });
    let after = world.workload.counters();
    let ops = (W::COUNT_UNITS * W::OPS_PER_UNIT) as f64;
    Counts {
        allocs_per_op: allocs as f64 / ops,
        alloc_bytes_per_op: bytes as f64 / ops,
        per_op: before
            .iter()
            .zip(&after)
            .map(|((name, b), (_, a))| (*name, a.saturating_sub(*b) as f64 / ops))
            .collect(),
    }
}

/// The tally of a whole run, over every world it built.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
}

impl Tally {
    /// Checks a world's invariants and folds its counts into the run's.
    fn retire<W: Workload>(&mut self, world: World<W>) {
        self.violations.extend(world.workload.invariants(world.units));
        self.attempted += world.ops();
        self.failed += world.failed;
    }
}

/// The end-to-end run: no spans anywhere.
pub fn end_to_end<W: Workload>(plan: Plan) -> Outcome {
    let inputs = Inputs::generate(W::NAME, W::SPEC, plan.seed);
    let mut pacer = Pacer::new();
    let mut tally = Tally::default();

    // Several set-ups, each on a fresh world (the previous one is torn
    // down first, outside the timing); the last world is measured.
    let mut setups = [0f64; SETUPS];
    let mut kept: Option<(World<W>, f64)> = None;
    for slot in &mut setups {
        if let Some((world, _)) = kept.take() {
            tally.retire(world);
        }
        let (world, secs, rate) = set_up::<W>(&inputs, None, W::WARMUP_UNITS, &mut pacer);
        *slot = secs;
        kept = Some((world, rate));
    }
    let (mut world, rate) = kept.expect("at least one set-up");

    let units = chunk_units(rate);
    let mut jitter = Jitter::new(plan.seed, W::SPEC);
    let throughput = throughput_phase(
        &mut world,
        &mut pacer,
        &mut jitter,
        units,
        Duration::from_secs_f64(0.55 * plan.seconds),
    );
    let latency = latency_phase(
        &mut world,
        &mut pacer,
        &mut jitter,
        units,
        Duration::from_secs_f64(0.33 * plan.seconds),
    );
    let counts = count_pass(&mut world);
    let peak_rss_mb = crate::proc::peak_rss_kb() as f64 / 1024.0;
    tally.retire(world);

    let values = [
        median(&mut setups),
        1e9 / throughput.ns_per_op,
        latency.p50,
        counts.allocs_per_op,
        counts.alloc_bytes_per_op,
        peak_rss_mb,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect();
    let extra = vec![
        Metric::new("failed_frac", tally.failed as f64 / tally.attempted.max(1) as f64, "ratio"),
        // Process CPU per op. With the process on one CPU this is the time
        // per op again, through a tick counter that loses what the host
        // steals (ten runs of `sunrpc_tagged`: 1705–2110 ns against
        // 2020–2110 ns of wall): printed, not bounded.
        Metric::new("cpu_ns_per_op", throughput.busy_cores * throughput.ns_per_op, "ns"),
        // The 90th percentile over the quiet chunks. On the 200 ns call it
        // sits where one slow address among the five the allocator
        // recycles shows or does not: ten runs of `null_loopback` spread
        // 1 % in one campaign and 19 % in the next. Printed, not bounded.
        Metric::new("lat_p90_ns", latency.p90, "ns"),
        Metric::new("bench.round_spread_frac", throughput.round_spread_frac, "ratio"),
        Metric::new("bench.lat_p99_ns", latency.p99, "ns"),
        Metric::new("bench.lat_p999_ns", latency.p999, "ns"),
    ];
    Outcome {
        workload: W::NAME,
        attempted: tally.attempted,
        failed: tally.failed,
        violations: tally.violations,
        metrics,
        extra,
        warmup_units: W::WARMUP_UNITS,
        inputs_digest: inputs.digest(),
    }
}

/// The traced run: a short untraced measurement for the benchmark's own
/// honesty numbers, the count pass for the counters, paired traced /
/// untraced chunks for the spans and their overhead, and the direct layer
/// timings. Writes the last chunk's spans to
/// `<out_dir>/<workload>.trace.jsonl`.
pub fn traced<W: Workload>(plan: Plan, out_dir: &Path) -> Outcome {
    let inputs = Inputs::generate(W::NAME, W::SPEC, plan.seed);
    let mut tally = Tally::default();
    let mut ledger = Ledger::default();

    let (mut plain, _, rate) = set_up::<W>(&inputs, None, W::WARMUP_UNITS, &mut ledger.pacer);
    let units = chunk_units(rate);
    let mut jitter = Jitter::new(plan.seed, W::SPEC);
    let throughput = throughput_phase(
        &mut plain,
        &mut ledger.pacer,
        &mut jitter,
        units,
        Duration::from_secs_f64(0.2 * plan.seconds),
    );
    let latency = latency_phase(
        &mut plain,
        &mut ledger.pacer,
        &mut jitter,
        units,
        Duration::from_secs_f64(0.1 * plan.seconds),
    );
    let counts = count_pass(&mut plain);
    ledger.set("bench.round_spread_frac", throughput.round_spread_frac);
    ledger.set("bench.lat_p90_ns", latency.p90);
    ledger.set("bench.lat_p99_ns", latency.p99);
    ledger.set("bench.lat_p999_ns", latency.p999);
    for (name, value) in counts.per_op {
        ledger.set(name, value);
    }
    for (name, value) in plain.workload.gauges(plain.units) {
        ledger.set(name, value);
    }

    // The traced world: same inputs, wrappers in place. Its warm-up is
    // recorded too and then forgotten, so the buffers are touched before
    // the first measured span.
    let capacity = (W::TRACED_UNITS * W::SPANS_PER_UNIT) as usize + 1024;
    let trace = Trace::new(capacity);
    let (mut spanned, ..) =
        set_up::<W>(&inputs, Some(trace.clone()), W::TRACED_UNITS, &mut ledger.pacer);
    trace.clear();
    let cost = span::calibrate(&mut ledger.pacer);
    let budget = Duration::from_secs_f64(0.3 * plan.seconds);
    let mut ratios = Vec::with_capacity(MAX_TRACE_PAIRS);
    let mut last_spans = Vec::new();
    let start = Instant::now();
    let mut before = ledger.pacer.tick();
    while ratios.len() < MIN_TRACE_PAIRS
        || (start.elapsed() < budget && ratios.len() < MAX_TRACE_PAIRS)
    {
        jitter.shake();
        let bare = plain.run(W::TRACED_UNITS, false).as_secs_f64();
        let between = ledger.pacer.tick();
        let with_spans = spanned.run(W::TRACED_UNITS, false).as_secs_f64();
        let after = ledger.pacer.tick();
        ratios.push(
            (with_spans * scale(between, after)) / (bare * scale(before, between)).max(1e-12),
        );
        last_spans = trace.take();
        span::accumulate(&mut ledger.spans, &last_spans, scale(between, after), cost);
        before = ledger.pacer.tick();
    }
    ledger.set("bench.trace_overhead_frac", median(&mut ratios) - 1.0);
    if trace.dropped() > 0 {
        tally
            .violations
            .push(format!("{} spans dropped: the span buffer is too small", trace.dropped()));
    }
    tally.retire(plain);
    tally.retire(spanned);

    crate::layers::instrument_layers(&mut ledger);
    W::layers(&inputs, &mut ledger);
    W::span_layers(&mut ledger);

    let path = out_dir.join(format!("{}.trace.jsonl", W::NAME));
    if let Err(e) =
        std::fs::create_dir_all(out_dir).and_then(|()| span::write_jsonl(&path, &last_spans))
    {
        tally.violations.push(format!("writing {}: {e}", path.display()));
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| Metric::new(name, ledger.get(name), unit))
        .collect();
    // The span ledger itself: mean and self time per span name, and what
    // was taken out of them per span.
    let mut extra: Vec<Metric> = ledger
        .spans
        .iter()
        .flat_map(|(name, totals)| {
            [
                Metric::new(format!("span.{name}.mean_ns"), totals.mean_ns(), "ns"),
                Metric::new(format!("span.{name}.self_ns"), totals.mean_self_ns(), "ns"),
            ]
        })
        .collect();
    extra.push(Metric::new("bench.span_cost_ns", cost.total_ns, "ns"));
    extra.push(Metric::new("bench.span_cost_inside_ns", cost.inside_ns, "ns"));
    Outcome {
        workload: W::NAME,
        attempted: tally.attempted,
        failed: tally.failed,
        violations: tally.violations,
        metrics,
        extra,
        warmup_units: W::WARMUP_UNITS,
        inputs_digest: inputs.digest(),
    }
}
