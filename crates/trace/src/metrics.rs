//! The unified metrics plane: named counters and log2 histograms behind
//! one registry, with a hand-rolled JSON snapshot.
//!
//! Design rule: components own their handles, the registry owns the
//! *names*. A [`Counter`] is a shared cell plus the stripes of whoever owns
//! one; a component creates it and the registry *adopts* the same handle
//! under a stable dotted name, so a component's own read and a registry
//! snapshot read the same storage — the registry is a view, not a copy.
//! Each subsystem states its instruments once, in an [`instruments!`](crate::instruments)
//! declaration: the handle struct, every registry name and the typed read
//! view come from that one list.
//!
//! **Shared cell and stripes.** Anyone holding a handle may write the
//! shared cell, one locked read-modify-write per write. A writer that
//! already has exclusive access to something — the engine's dispatch holds
//! a replica's lock — can instead take a *stripe* ([`Counter::stripe`],
//! [`Histogram::stripe`]): a cell of its own, registered with the parent,
//! written through `&mut self` with a plain load and store. The borrow
//! checker is the single-writer rule: a stripe is not `Clone` and its
//! writes need `&mut`. Every read ([`Counter::get`], [`Histogram::count`] /
//! [`Histogram::sum`] / [`Histogram::snapshot`]) folds the shared cell and
//! the live stripes under the parent's stripe-list lock, and a dropped
//! stripe folds itself into the shared cell under that same lock, so a
//! reader sees every count exactly once and a total never falls because
//! its owner went away. An instrument nobody took a stripe of has no list
//! and reads its shared cell alone, as it always did.
//!
//! [`Counter::add`] returns the updated value of the *shared cell*, which
//! is the counter's value only while it has no stripes. Watermark call
//! sites (`in_flight` feeding `peak_in_flight` through
//! [`Counter::raise_to`]) need that exact value at the instant of the add,
//! which no fold can give them — so a gauge of that kind stays one shared
//! cell and is never striped.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// What a stripe can be made of: a zeroed set of cells that can be added
/// into another of its kind.
trait Cells: Default {
    /// Adds everything recorded in `self` into `into`, with atomic adds —
    /// `into` is a shared cell set others may be writing.
    fn fold_into(&self, into: &Self);
}

/// A shared cell set plus the cells of every live stripe taken from it.
#[derive(Debug, Default)]
struct Striped<C> {
    shared: C,
    /// Readers fold under this lock and a dropped stripe moves its counts
    /// into `shared` under it: no read can see a count in both places or
    /// in neither. Behind a pointer that stays empty until the first
    /// `stripe()`: nearly every counter in the workspace never has one,
    /// and keeps its small heap cell and its lock-free `get`.
    stripes: OnceLock<Box<Mutex<Vec<Arc<C>>>>>,
}

impl<C: Cells> Striped<C> {
    fn stripe(self: &Arc<Self>) -> Stripe<C> {
        let cells = Arc::new(C::default());
        self.stripes.get_or_init(Box::default).lock().push(Arc::clone(&cells));
        Stripe { cells, parent: Arc::clone(self) }
    }

    /// Folds `f` over the shared cells and every live stripe's, with the
    /// stripe list held still. (A first `stripe()` racing a read that found
    /// no list is a stripe taken after that read.)
    fn fold<R>(&self, init: R, mut f: impl FnMut(R, &C) -> R) -> R {
        let Some(live) = self.stripes.get() else { return f(init, &self.shared) };
        let live = live.lock();
        live.iter().fold(f(init, &self.shared), |acc, cells| f(acc, cells))
    }
}

/// One owner's cells of a striped instrument; folds into the parent's
/// shared cells when dropped.
#[derive(Debug)]
struct Stripe<C: Cells> {
    cells: Arc<C>,
    parent: Arc<Striped<C>>,
}

impl<C: Cells> Drop for Stripe<C> {
    fn drop(&mut self) {
        // Always there: `Striped::stripe` made this stripe and the list.
        let Some(live) = self.parent.stripes.get() else { return };
        let mut live = live.lock();
        self.cells.fold_into(&self.parent.shared);
        live.retain(|cells| !Arc::ptr_eq(cells, &self.cells));
    }
}

/// `cell += n` by the cell's only writer: a load and a store, no locked
/// instruction. Readers on other threads see the old value or the new.
#[inline]
fn owner_add(cell: &AtomicU64, n: u64) {
    cell.store(cell.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
}

impl Cells for AtomicU64 {
    fn fold_into(&self, into: &AtomicU64) {
        into.fetch_add(self.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// A shared monotonic (or gauge-style, via [`Counter::sub`]) counter.
/// Cloning shares the underlying cell. All operations are relaxed atomics:
/// counters are statistics, not synchronization.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<Striped<AtomicU64>>);

impl Counter {
    /// A fresh counter not (yet) registered anywhere.
    pub fn detached() -> Counter {
        Counter::default()
    }

    /// A cell of this counter for one owner to write without a locked
    /// instruction. [`Counter::get`] includes it while it lives and keeps
    /// what it counted after it is dropped.
    pub fn stripe(&self) -> CounterStripe {
        CounterStripe(self.0.stripe())
    }

    /// Adds `n` to the shared cell, returning that cell's updated value —
    /// the counter's value only if it has no stripes (watermark call sites
    /// pair this with [`Counter::raise_to`] on counters that have none).
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.0.shared.fetch_add(n, Ordering::Relaxed).wrapping_add(n)
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts `n` (gauge-style counters: in-flight, queue depth).
    #[inline]
    pub fn sub(&self, n: u64) {
        self.0.shared.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises the value to at least `v` (watermark counters). A mark that
    /// already stands is one load.
    #[inline]
    pub fn raise_to(&self, v: u64) {
        if self.0.shared.load(Ordering::Relaxed) < v {
            self.0.shared.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Overwrites the value (last-observation counters).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.shared.store(v, Ordering::Relaxed);
    }

    /// The current value: the shared cell plus every live stripe.
    pub fn get(&self) -> u64 {
        self.0.fold(0u64, |total, cell| total.wrapping_add(cell.load(Ordering::Relaxed)))
    }
}

/// One owner's cell of a [`Counter`] ([`Counter::stripe`]). Not `Clone`,
/// and written through `&mut self`: the single writer the plain store
/// relies on is enforced by the borrow checker.
#[derive(Debug)]
pub struct CounterStripe(Stripe<AtomicU64>);

impl CounterStripe {
    /// Adds `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        owner_add(&self.0.cells, n);
    }
}

/// Number of histogram buckets: one for 0, one per power of two of `u64`.
const HIST_BUCKETS: usize = 65;

/// One set of histogram cells — the shared set or a stripe's. There is no
/// count cell: the count *is* the sum of the buckets, so no snapshot can
/// disagree with its own buckets.
#[derive(Debug)]
struct HistogramCells {
    /// `buckets[0]` counts zeros; `buckets[i]` (i ≥ 1) counts values in
    /// `[2^(i-1), 2^i)`.
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Default for HistogramCells {
    fn default() -> HistogramCells {
        HistogramCells {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            sum: AtomicU64::new(0),
        }
    }
}

impl HistogramCells {
    fn count(&self) -> u64 {
        self.buckets.iter().fold(0, |n, b| n.wrapping_add(b.load(Ordering::Relaxed)))
    }
}

impl Cells for HistogramCells {
    fn fold_into(&self, into: &HistogramCells) {
        for (mine, theirs) in self.buckets.iter().zip(&into.buckets) {
            let n = mine.load(Ordering::Relaxed);
            if n > 0 {
                theirs.fetch_add(n, Ordering::Relaxed);
            }
        }
        into.sum.fetch_add(self.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// A fixed-size log2-bucketed histogram. Recording is a `leading_zeros`
/// and two relaxed atomic adds — one for a zero, which adds nothing to the
/// sum — no float math, no allocation — which is all a hot path can afford
/// and all a latency distribution needs at order-of-magnitude resolution.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<Striped<HistogramCells>>);

impl Histogram {
    /// A fresh histogram not (yet) registered anywhere.
    pub fn detached() -> Histogram {
        Histogram::default()
    }

    /// A set of cells of this histogram for one owner to record into
    /// without a locked instruction. Every read includes it while it lives
    /// and keeps what it recorded after it is dropped.
    pub fn stripe(&self) -> HistogramStripe {
        HistogramStripe(self.0.stripe())
    }

    /// The bucket index for `value`: 0 for 0, else `floor(log2) + 1`.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The smallest value landing in bucket `index`.
    pub fn bucket_floor(index: usize) -> u64 {
        if index == 0 {
            0
        } else {
            1u64 << (index - 1)
        }
    }

    /// Records one observation in the shared cells.
    #[inline]
    pub fn record(&self, value: u64) {
        let cells = &self.0.shared;
        cells.buckets[Histogram::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        if value != 0 {
            cells.sum.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// Observations recorded: every bucket of the shared cells and of each
    /// live stripe.
    pub fn count(&self) -> u64 {
        self.0.fold(0u64, |n, cells| n.wrapping_add(cells.count()))
    }

    /// Sum of all observed values (mean = sum / count).
    pub fn sum(&self) -> u64 {
        self.0.fold(0u64, |sum, cells| sum.wrapping_add(cells.sum.load(Ordering::Relaxed)))
    }

    /// A point-in-time copy (non-empty buckets only). Its `count` is the
    /// sum of its own buckets, whatever recorders are doing meanwhile.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let (totals, sum) =
            self.0.fold(([0u64; HIST_BUCKETS], 0u64), |(mut totals, sum), cells| {
                for (total, bucket) in totals.iter_mut().zip(&cells.buckets) {
                    *total = total.wrapping_add(bucket.load(Ordering::Relaxed));
                }
                (totals, sum.wrapping_add(cells.sum.load(Ordering::Relaxed)))
            });
        HistogramSnapshot {
            count: totals.iter().fold(0, |n, t| n.wrapping_add(*t)),
            sum,
            buckets: totals
                .iter()
                .enumerate()
                .filter(|(_, n)| **n > 0)
                .map(|(i, n)| (Histogram::bucket_floor(i), *n))
                .collect(),
        }
    }
}

/// One owner's cells of a [`Histogram`] ([`Histogram::stripe`]). Not
/// `Clone`, and written through `&mut self`, like [`CounterStripe`].
#[derive(Debug)]
pub struct HistogramStripe(Stripe<HistogramCells>);

impl HistogramStripe {
    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let cells = &self.0.cells;
        owner_add(&cells.buckets[Histogram::bucket_index(value)], 1);
        if value != 0 {
            owner_add(&cells.sum, value);
        }
    }
}

/// A point-in-time histogram copy: `(bucket floor, count)` pairs in
/// ascending floor order, plus totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded at snapshot time.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Non-empty buckets as `(smallest value in bucket, observations)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The mean observation, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// The registry: stable dotted names → live handles. Registration is
/// adoption — the registry clones the handle's `Arc`, so reads through a
/// snapshot see exactly what the owning component sees.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, creating it detached-from-nothing if this
    /// is the first request. Cloned handles share the cell.
    pub fn counter(&self, name: &str) -> Counter {
        self.counters.lock().entry(name.to_string()).or_default().clone()
    }

    /// Registers an *existing* counter handle under `name` (the component
    /// keeps its handle; the registry shares the cell). Re-adopting a name
    /// rebinds it.
    pub fn adopt_counter(&self, name: &str, counter: &Counter) {
        self.counters.lock().insert(name.to_string(), counter.clone());
    }

    /// The histogram named `name`, creating it on first request.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histograms.lock().entry(name.to_string()).or_default().clone()
    }

    /// Registers an existing histogram handle under `name`.
    pub fn adopt_histogram(&self, name: &str, histogram: &Histogram) {
        self.histograms.lock().insert(name.to_string(), histogram.clone());
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.lock().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Declares one subsystem's instruments, each once: `field: Counter = "name"`
/// or `field: Histogram = "name"`, with its doc comment. From that list
/// come:
///
/// - the handle struct: a public [`Counter`] / [`Histogram`] per field,
///   `Debug` and `Default`;
/// - `register_metrics(&registry)`, which adopts every handle under its
///   name, and `register_metrics_under(&registry, prefix)`, which adopts it
///   under `prefix.name`;
/// - the read view: a `Copy + PartialEq + Default` struct with one `u64` per
///   counter (histograms are read through their handles), plus the values
///   that are not counters, each declared once in the view's braces and
///   passed to `snapshot` by name;
/// - `snapshot(..)` on the handles, and on the view `named()` (each
///   counter's name and value, in declaration order) and `since(&earlier)`
///   (counter deltas; the other values are `self`'s).
///
/// ```
/// flexrpc_trace::instruments! {
///     /// A queue's live instruments.
///     pub struct QueueCounters {
///         /// Jobs pushed.
///         pushed: Counter = "queue.push",
///         /// Time each job waited, ns.
///         wait_ns: Histogram = "queue.wait_ns",
///     }
///     /// A point-in-time reading of [`QueueCounters`].
///     pub struct QueueStats {
///         /// Jobs queued right now.
///         depth: usize,
///     }
/// }
/// let counters = QueueCounters::default();
/// counters.pushed.add(3);
/// let registry = flexrpc_trace::MetricsRegistry::new();
/// counters.register_metrics_under(&registry, "lane.1");
/// assert_eq!(registry.snapshot().counter("lane.1.queue.push"), 3);
/// let stats = counters.snapshot(2);
/// assert_eq!((stats.pushed, stats.depth), (3, 2));
/// assert_eq!(stats.named(), [("queue.push", 3)]);
/// ```
///
/// A view with no other values ends in `;` instead of braces.
#[macro_export]
macro_rules! instruments {
    (
        $(#[$hmeta:meta])* $hvis:vis struct $Handles:ident { $($decl:tt)* }
        $(#[$vmeta:meta])* $vvis:vis struct $View:ident;
    ) => {
        $crate::instruments! {
            $(#[$hmeta])* $hvis struct $Handles { $($decl)* }
            $(#[$vmeta])* $vvis struct $View {}
        }
    };
    (
        $(#[$hmeta:meta])* $hvis:vis struct $Handles:ident { $($decl:tt)* }
        $(#[$vmeta:meta])* $vvis:vis struct $View:ident { $($other:tt)* }
    ) => {
        $crate::instruments!(@split
            [[$(#[$hmeta])*] $hvis $Handles] [[$(#[$vmeta])*] $vvis $View { $($other)* }]
            [] [] $($decl)*
        );
    };
    // Sorts the declaration into counters and histograms, one field a step.
    (@split $h:tt $v:tt [$($c:tt)*] [$($g:tt)*]
        $(#[$m:meta])* $f:ident : Counter = $n:literal $(, $($rest:tt)*)?
    ) => {
        $crate::instruments!(@split $h $v [$($c)* [[$(#[$m])*] $f $n]] [$($g)*] $($($rest)*)?);
    };
    (@split $h:tt $v:tt [$($c:tt)*] [$($g:tt)*]
        $(#[$m:meta])* $f:ident : Histogram = $n:literal $(, $($rest:tt)*)?
    ) => {
        $crate::instruments!(@split $h $v [$($c)*] [$($g)* [[$(#[$m])*] $f $n]] $($($rest)*)?);
    };
    (@split
        [[$(#[$hmeta:meta])*] $hvis:vis $Handles:ident]
        [[$(#[$vmeta:meta])*] $vvis:vis $View:ident {
            $($(#[$om:meta])* $o:ident : $oty:ty),* $(,)?
        }]
        [$([[$(#[$cm:meta])*] $c:ident $cn:literal])*]
        [$([[$(#[$gm:meta])*] $g:ident $gn:literal])*]
    ) => {
        $(#[$hmeta])*
        #[derive(Debug, Default)]
        $hvis struct $Handles {
            $($(#[$cm])* pub $c: $crate::Counter,)*
            $($(#[$gm])* pub $g: $crate::Histogram,)*
        }

        impl $Handles {
            /// Adopts every instrument into `registry` under its declared
            /// name.
            pub fn register_metrics(&self, registry: &$crate::MetricsRegistry) {
                $(registry.adopt_counter($cn, &self.$c);)*
                $(registry.adopt_histogram($gn, &self.$g);)*
            }

            /// Adopts every instrument into `registry` as `prefix.name`.
            pub fn register_metrics_under(&self, registry: &$crate::MetricsRegistry, prefix: &str) {
                $(registry.adopt_counter(&format!("{prefix}.{}", $cn), &self.$c);)*
                $(registry.adopt_histogram(&format!("{prefix}.{}", $gn), &self.$g);)*
            }

            /// Reads every counter; the values that are not counters come
            /// in as arguments.
            pub fn snapshot(&self, $($o: $oty),*) -> $View {
                $View { $($c: self.$c.get(),)* $($o,)* }
            }
        }

        $(#[$vmeta])*
        #[derive(Debug, Clone, Copy, PartialEq, Default)]
        $vvis struct $View {
            $($(#[$cm])* pub $c: u64,)*
            $($(#[$om])* pub $o: $oty,)*
        }

        impl $View {
            /// Every counter's declared name and value, in declaration
            /// order.
            pub fn named(&self) -> [(&'static str, u64); <[&str]>::len(&[$($cn),*])] {
                [$(($cn, self.$c)),*]
            }

            /// Counter deltas since `earlier`; the values that are not
            /// counters are `self`'s.
            ///
            /// # Panics
            ///
            /// Panics in debug builds if a counter fell since `earlier`.
            pub fn since(&self, earlier: &$View) -> $View {
                $View { $($c: self.$c - earlier.$c,)* $($o: self.$o,)* }
            }
        }
    };
}

/// A point-in-time copy of a registry: plain values, ordered by name
/// (`BTreeMap`), so JSON export is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The counter's value at snapshot time (0 if never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram's snapshot, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Hand-rolled JSON:
    /// `{"counters":{"name":value,…},"histograms":{"name":{"count":…,"sum":…,"buckets":[[floor,count],…]},…}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(name), value);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"buckets\":[",
                escape(name),
                h.count,
                h.sum
            );
            for (j, (floor, n)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{floor},{n}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

/// Minimal JSON string escaping (names are dotted identifiers in practice,
/// but the exporter must never emit malformed JSON).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_cells_through_the_registry() {
        let reg = MetricsRegistry::new();
        let mine = Counter::detached();
        mine.add(3);
        reg.adopt_counter("engine.shed", &mine);
        let theirs = reg.counter("engine.shed");
        theirs.add(2);
        assert_eq!(mine.get(), 5);
        assert_eq!(reg.snapshot().counter("engine.shed"), 5);
        assert_eq!(reg.snapshot().counter("never.registered"), 0);
    }

    #[test]
    fn counter_gauge_ops() {
        let c = Counter::detached();
        c.add(10);
        c.sub(4);
        assert_eq!(c.get(), 6);
        c.raise_to(3);
        assert_eq!(c.get(), 6, "raise_to never lowers");
        c.raise_to(9);
        assert_eq!(c.get(), 9);
        c.set(1);
        assert_eq!(c.get(), 1);
    }

    /// A stripe's counts are in every read while it lives and stay after
    /// it is dropped; `add`'s return value is the shared cell alone.
    #[test]
    fn counter_stripes_fold_on_read_and_on_drop() {
        let c = Counter::detached();
        let (mut a, mut b) = (c.stripe(), c.stripe());
        a.add(5);
        b.add(7);
        assert_eq!(c.add(1), 1, "the shared cell's value, not the fold");
        assert_eq!(c.get(), 13);
        let live = |c: &Counter| c.0.stripes.get().map_or(0, |list| list.lock().len());
        assert_eq!(live(&c), 2);
        drop(a);
        assert_eq!(c.get(), 13, "a dropped stripe folds, it does not vanish");
        assert_eq!(c.0.shared.load(Ordering::Relaxed), 6);
        b.add(2);
        let reader = c.clone();
        drop(c);
        assert_eq!(reader.get(), 15, "a stripe keeps counting for the handles that remain");
        drop(b);
        assert_eq!(reader.get(), 15);
        assert_eq!(live(&reader), 0);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_floor(0), 0);
        assert_eq!(Histogram::bucket_floor(1), 1);
        assert_eq!(Histogram::bucket_floor(11), 1024);
        // Floors and indices agree.
        for i in 0..HIST_BUCKETS {
            assert_eq!(Histogram::bucket_index(Histogram::bucket_floor(i)), i);
        }
    }

    #[test]
    fn histogram_snapshot_totals() {
        let h = Histogram::detached();
        for v in [0u64, 1, 1, 2, 100, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 6);
        assert_eq!(snap.sum, 1104);
        assert_eq!(snap.mean(), 184);
        let total: u64 = snap.buckets.iter().map(|(_, n)| n).sum();
        assert_eq!(total, snap.count, "bucket counts sum to event count");
        assert_eq!(snap.buckets[0], (0, 1), "one zero observation");
        assert_eq!(snap.buckets[1], (1, 2), "two ones");
    }

    #[test]
    fn snapshot_json_is_deterministic_and_wellformed() {
        let reg = MetricsRegistry::new();
        reg.counter("b.second").add(2);
        reg.counter("a.first").add(1);
        let h = reg.histogram("lat.ns");
        h.record(5);
        h.record(9);
        let json = reg.snapshot().to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"a.first\":1,\"b.second\":2},\
             \"histograms\":{\"lat.ns\":{\"count\":2,\"sum\":14,\"buckets\":[[4,1],[8,1]]}}}"
        );
        assert_eq!(json, reg.snapshot().to_json(), "stable across snapshots");
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain.name"), "plain.name");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("a\nb"), "a\\u000ab");
    }
}
