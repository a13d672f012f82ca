//! Deterministic credit-window accounting.
//!
//! Flow control without nondeterminism: instead of a receiver thread
//! racing credit messages back, the window tracks *when* (in sim time)
//! each outstanding credit returns. A sender that exhausts the window
//! blocks by advancing the shared [`SimClock`] to the earliest return —
//! the same stall a real receiver would impose, with an exact, replayable
//! duration.

use flexrpc_clock::SimClock;
use flexrpc_trace::MetricsRegistry;
use std::collections::VecDeque;
use std::sync::Arc;

flexrpc_trace::instruments! {
    /// A stream's instruments, adopted under `stream.*` names: the frames
    /// its window let through and the stalls it imposed.
    pub struct StreamCounters {
        /// Frames sent: credits consumed.
        frames: Counter = "stream.frames",
        /// Sends that found the window exhausted; `waited_ns`'s count
        /// mirrors it.
        stalls: Counter = "stream.credit_stalls",
        /// Log2 histogram of credit-stall durations, sim-time nanoseconds.
        waited_ns: Histogram = "stream.credits_waited_ns",
    }
    /// A point-in-time copy of [`StreamCounters`].
    #[derive(Eq)]
    pub struct StreamStats;
}

/// A negotiated credit window: at most `window` frames may be outstanding
/// (sent but not yet drained by the receiver) at once.
///
/// The owning sender takes a credit (`acquire`) before each frame —
/// blocking on the sim clock if none is free — and spends it (`consume`,
/// both crate-internal) after, with the sim time at which the receiver
/// will hand the credit back. Return times must be non-decreasing (frames drain in FIFO order).
#[derive(Debug)]
pub struct CreditWindow {
    window: u32,
    clock: Arc<SimClock>,
    /// Sim times at which outstanding frames' credits return, oldest first.
    returns: VecDeque<u64>,
    pub(crate) counters: StreamCounters,
}

impl CreditWindow {
    /// A window of `window` credits (at least 1) over `clock`.
    pub fn new(window: u32, clock: Arc<SimClock>) -> CreditWindow {
        CreditWindow {
            window: window.max(1),
            clock,
            returns: VecDeque::new(),
            counters: StreamCounters::default(),
        }
    }

    /// The negotiated window size.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Frames currently outstanding (credits consumed and not yet back as
    /// of the current sim time). Never exceeds [`CreditWindow::window`].
    pub fn outstanding(&self) -> usize {
        let now = self.clock.now_ns();
        self.returns.iter().filter(|&&t| t > now).count()
    }

    /// Adopts the stream metrics into `registry` under their `stream.*`
    /// names.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        self.counters.register_metrics(registry);
    }

    /// Total sim time this window has stalled its sender.
    pub fn waited_ns(&self) -> u64 {
        self.counters.waited_ns.sum()
    }

    /// Number of sends that found the window exhausted.
    pub fn stalls(&self) -> u64 {
        self.counters.stalls.get()
    }

    /// Claims one credit. If all `window` credits are outstanding, blocks
    /// by advancing the sim clock to the earliest credit return and
    /// records the stall; returns the stall duration, or `None` when a
    /// credit was free.
    pub(crate) fn acquire(&mut self) -> Option<u64> {
        let now = self.clock.now_ns();
        while self.returns.front().is_some_and(|&t| t <= now) {
            self.returns.pop_front();
        }
        if (self.returns.len() as u32) < self.window {
            return None;
        }
        let at = self.returns.pop_front().expect("window >= 1 implies a front");
        let waited = at - now;
        self.clock.advance_ns(waited);
        self.counters.stalls.inc();
        self.counters.waited_ns.record(waited);
        Some(waited)
    }

    /// Marks one credit consumed by a frame the receiver will finish
    /// draining at `return_ns` (absolute sim time, non-decreasing across
    /// frames — FIFO drain).
    pub(crate) fn consume(&mut self, return_ns: u64) {
        debug_assert!(
            self.returns.back().is_none_or(|&t| t <= return_ns),
            "credits return in FIFO order"
        );
        debug_assert!(
            (self.returns.len() as u32) < self.window,
            "consume without acquire would exceed the window"
        );
        self.returns.push_back(return_ns);
        self.counters.frames.inc();
    }

    /// Blocks until every outstanding credit is back (end-of-stream
    /// barrier): advances the sim clock to the last return time. Returns
    /// the time waited.
    pub fn drain(&mut self) -> u64 {
        let now = self.clock.now_ns();
        let Some(&last) = self.returns.back() else { return 0 };
        self.returns.clear();
        let waited = last.saturating_sub(now);
        self.clock.advance_ns(waited);
        waited
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_never_stalls_until_exhausted() {
        let clock = SimClock::new();
        let mut w = CreditWindow::new(3, Arc::clone(&clock));
        for i in 0..3u64 {
            assert_eq!(w.acquire(), None, "credit {i} is free");
            w.consume((i + 1) * 100);
        }
        assert_eq!(w.outstanding(), 3);
        // Fourth frame must wait for the first credit (returns at 100).
        assert_eq!(w.acquire(), Some(100));
        assert_eq!(clock.now_ns(), 100);
        assert_eq!(w.stalls(), 1);
        assert_eq!(w.waited_ns(), 100);
    }

    #[test]
    fn returned_credits_free_without_stall() {
        let clock = SimClock::new();
        let mut w = CreditWindow::new(2, Arc::clone(&clock));
        assert!(w.acquire().is_none());
        w.consume(50);
        assert!(w.acquire().is_none());
        w.consume(60);
        clock.advance_ns(70);
        // Both credits are back: no stall, clock untouched.
        assert!(w.acquire().is_none());
        assert_eq!(clock.now_ns(), 70);
        assert_eq!(w.outstanding(), 0);
    }

    #[test]
    fn drain_advances_to_the_last_return() {
        let clock = SimClock::new();
        let mut w = CreditWindow::new(4, Arc::clone(&clock));
        for i in 0..3u64 {
            assert!(w.acquire().is_none());
            w.consume((i + 1) * 10);
        }
        assert_eq!(w.drain(), 30);
        assert_eq!(clock.now_ns(), 30);
        assert_eq!(w.drain(), 0, "drain is idempotent");
    }

    #[test]
    fn metrics_adopt_under_stream_names() {
        let clock = SimClock::new();
        let mut w = CreditWindow::new(1, Arc::clone(&clock));
        let reg = MetricsRegistry::new();
        w.register_metrics(&reg);
        assert!(w.acquire().is_none());
        w.consume(40);
        assert_eq!(w.acquire(), Some(40));
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("stream.credit_stalls"), Some(&1));
        let h = snap.histograms.get("stream.credits_waited_ns").expect("adopted");
        assert_eq!((h.count, h.sum), (1, 40));
    }
}
