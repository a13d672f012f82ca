//! Per-call spans: a fixed stage taxonomy, a pre-allocated event ring, and
//! a pluggable (but deterministic-by-default) time source.

use crate::sink::TraceSink;
use flexrpc_clock::SimClock;
use parking_lot::Mutex;
use std::sync::Arc;

/// The fixed stage taxonomy — every span names one of these. The set is
/// closed on purpose: a stable, enumerable vocabulary is what lets two
/// traces (or a trace and a report table) be compared mechanically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Bind-time negotiation: resolving the combination (service ×
    /// presentations × trust × format) to a served program.
    Bind = 0,
    /// Stub-program specialization (fusion / presize) or a program-cache
    /// compile on a miss.
    Specialize = 1,
    /// Client-side argument marshal into the request buffer.
    Marshal = 2,
    /// Queue dwell: enqueue on the engine until a worker picks the job up.
    Enqueue = 3,
    /// The transport round trip (loopback, kernel IPC, or Sun RPC wire).
    Transport = 4,
    /// Server-side dispatch: unmarshal args, run the handler, marshal the
    /// reply.
    Dispatch = 5,
    /// Client-side reply unmarshal back into the call frame.
    Unmarshal = 6,
    /// A retry attempt's backoff window (detail = attempt number).
    Retry = 7,
    /// A supervisor replay of the in-flight call on a new endpoint.
    Replay = 8,
    /// A supervisor failover episode: disconnect detected → standby serving.
    Failover = 9,
    /// A one-way notification send: marshal + transmit, no reply wait
    /// (detail = request bytes).
    Notify = 10,
}

impl Stage {
    /// Number of stages (histogram/accumulator array size).
    pub const COUNT: usize = 11;

    /// Every stage, in id order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Bind,
        Stage::Specialize,
        Stage::Marshal,
        Stage::Enqueue,
        Stage::Transport,
        Stage::Dispatch,
        Stage::Unmarshal,
        Stage::Retry,
        Stage::Replay,
        Stage::Failover,
        Stage::Notify,
    ];

    /// The stage's stable lowercase name (what exporters emit).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Bind => "bind",
            Stage::Specialize => "specialize",
            Stage::Marshal => "marshal",
            Stage::Enqueue => "enqueue",
            Stage::Transport => "transport",
            Stage::Dispatch => "dispatch",
            Stage::Unmarshal => "unmarshal",
            Stage::Retry => "retry",
            Stage::Replay => "replay",
            Stage::Failover => "failover",
            Stage::Notify => "notify",
        }
    }
}

/// One recorded span: stage, half-open `[start, end)` timestamps on the
/// trace's time source, the logical call it belongs to, and one
/// stage-specific detail word (bytes marshalled, attempt number, op
/// index — whatever the recording site finds most useful).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Logical call number on this ring (from [`CallTrace::begin_call`]).
    pub call: u64,
    /// Which stage of the call path this span covers.
    pub stage: Stage,
    /// Span start, in time-source nanoseconds.
    pub start_ns: u64,
    /// Span end, in time-source nanoseconds.
    pub end_ns: u64,
    /// Stage-specific detail (bytes, attempt number, op index, …).
    pub detail: u64,
}

impl TraceEvent {
    const EMPTY: TraceEvent =
        TraceEvent { call: 0, stage: Stage::Bind, start_ns: 0, end_ns: 0, detail: 0 };

    /// Span duration in nanoseconds.
    pub(crate) fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A pre-allocated ring of [`TraceEvent`]s. Recording is a bounds-checked
/// store and two integer increments — no allocation ever, which is what
/// the allocator-audited zero-alloc test pins. When the ring is full the
/// oldest events are overwritten (a flight recorder, not a log).
#[derive(Debug)]
pub struct TraceRing {
    events: Box<[TraceEvent]>,
    /// Next write position.
    head: usize,
    /// Events ever recorded (≥ `len()`; the overflow count is the gap).
    total: u64,
    /// Next logical call number to hand out.
    next_call: u64,
}

impl TraceRing {
    /// A ring holding up to `capacity` events (at least 1).
    pub fn with_capacity(capacity: usize) -> TraceRing {
        TraceRing {
            events: vec![TraceEvent::EMPTY; capacity.max(1)].into_boxed_slice(),
            head: 0,
            total: 0,
            next_call: 0,
        }
    }

    /// Allocates the next logical call number.
    #[inline]
    pub fn begin_call(&mut self) -> u64 {
        let c = self.next_call;
        self.next_call += 1;
        c
    }

    /// Records one event (overwrites the oldest when full).
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        self.events[self.head] = ev;
        self.head += 1;
        if self.head == self.events.len() {
            self.head = 0;
        }
        self.total += 1;
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        (self.total as usize).min(self.events.len())
    }

    /// True if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Events ever recorded, including any the ring has since overwritten.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.events.len()
    }

    /// Retained events, oldest first.
    pub(crate) fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (tail, recent) = if (self.total as usize) > self.events.len() {
            // Wrapped: oldest retained event sits at `head`.
            (&self.events[self.head..], &self.events[..self.head])
        } else {
            (&self.events[..self.head], &self.events[..0])
        };
        tail.iter().chain(recent.iter())
    }
}

/// Where timestamps come from.
///
/// [`TimeSource::Sim`] is the default throughout the workspace: spans
/// carry sim-clock nanoseconds, so a trace is a pure function of the
/// workload and two identical runs are byte-identical. [`TimeSource::Wall`]
/// measures real elapsed time (monotonic, from the source's creation) for
/// profiling paths the simulation does not charge — it is explicitly
/// non-deterministic and excluded from determinism tests.
/// [`TimeSource::Disabled`] stamps zeros: span *structure* (stages, order,
/// details) still records at near-zero cost on transports with no clock.
#[derive(Debug, Clone, Default)]
pub enum TimeSource {
    /// All timestamps are 0 — structure-only tracing.
    #[default]
    Disabled,
    /// Deterministic sim-clock nanoseconds.
    Sim(Arc<SimClock>),
    /// Real monotonic nanoseconds since the source was created.
    Wall(std::time::Instant),
}

impl TimeSource {
    /// A wall-clock source anchored at "now".
    pub fn wall() -> TimeSource {
        TimeSource::Wall(std::time::Instant::now())
    }

    /// The current timestamp in nanoseconds.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match self {
            TimeSource::Disabled => 0,
            TimeSource::Sim(clock) => clock.now_ns(),
            TimeSource::Wall(t0) => t0.elapsed().as_nanos() as u64,
        }
    }
}

/// A per-connection trace: an event ring plus the time source its spans
/// are stamped from. Single-writer by `&mut` — this is what a client stub
/// owns. Cross-thread recorders (the engine's workers, a supervisor) use
/// [`SharedCallTrace`].
#[derive(Debug)]
pub struct CallTrace {
    time: TimeSource,
    ring: TraceRing,
}

impl CallTrace {
    /// A trace with the given ring capacity and time source.
    pub fn new(capacity: usize, time: TimeSource) -> CallTrace {
        CallTrace { time, ring: TraceRing::with_capacity(capacity) }
    }

    /// A deterministic trace on `clock`.
    pub fn sim(capacity: usize, clock: Arc<SimClock>) -> CallTrace {
        CallTrace::new(capacity, TimeSource::Sim(clock))
    }

    /// The trace's time source.
    pub fn time(&self) -> &TimeSource {
        &self.time
    }

    /// Current timestamp on the trace's time source.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.time.now_ns()
    }

    /// Allocates the next logical call number.
    #[inline]
    pub fn begin_call(&mut self) -> u64 {
        self.ring.begin_call()
    }

    /// Records one span.
    #[inline]
    pub fn record(&mut self, call: u64, stage: Stage, start_ns: u64, end_ns: u64, detail: u64) {
        self.ring.record(TraceEvent { call, stage, start_ns, end_ns, detail });
    }

    /// The underlying ring.
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    /// Retained events, oldest first.
    pub(crate) fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.events()
    }

    /// Sum of span durations per stage (indexed by stage id) — the raw
    /// material of a per-stage breakdown table.
    pub fn stage_totals(&self) -> [u64; Stage::COUNT] {
        let mut totals = [0u64; Stage::COUNT];
        for ev in self.events() {
            totals[ev.stage as usize] += ev.dur_ns();
        }
        totals
    }

    /// Feeds every retained event (oldest first) to `sink` on `track`.
    pub fn export(&self, track: u64, sink: &mut dyn TraceSink) {
        for ev in self.events() {
            sink.event(track, ev);
        }
    }
}

/// A [`CallTrace`] shareable across threads: the time source rides outside
/// the lock (timestamps never block), the ring behind a mutex. Cloning
/// shares the ring. Engine workers, acceptors, and supervisors record
/// through this; their spans are microseconds long, so the lock never
/// shows up in a profile — the client stub's nanosecond-scale hot path
/// uses the unshared [`CallTrace`] instead.
#[derive(Debug, Clone)]
pub struct SharedCallTrace {
    time: TimeSource,
    ring: Arc<Mutex<TraceRing>>,
}

impl SharedCallTrace {
    /// A shared trace with the given ring capacity and time source.
    pub fn new(capacity: usize, time: TimeSource) -> SharedCallTrace {
        SharedCallTrace { time, ring: Arc::new(Mutex::new(TraceRing::with_capacity(capacity))) }
    }

    /// A deterministic shared trace on `clock`.
    pub fn sim(capacity: usize, clock: Arc<SimClock>) -> SharedCallTrace {
        SharedCallTrace::new(capacity, TimeSource::Sim(clock))
    }

    /// The trace's time source.
    pub fn time(&self) -> &TimeSource {
        &self.time
    }

    /// Current timestamp (no lock taken).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.time.now_ns()
    }

    /// Allocates the next logical call number.
    pub fn begin_call(&self) -> u64 {
        self.ring.lock().begin_call()
    }

    /// Records one span.
    pub fn record(&self, call: u64, stage: Stage, start_ns: u64, end_ns: u64, detail: u64) {
        self.ring.lock().record(TraceEvent { call, stage, start_ns, end_ns, detail });
    }

    /// Events ever recorded.
    pub fn total(&self) -> u64 {
        self.ring.lock().total()
    }

    /// A copy of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.ring.lock().events().copied().collect()
    }

    /// Sum of span durations per stage (indexed by stage id).
    pub fn stage_totals(&self) -> [u64; Stage::COUNT] {
        let ring = self.ring.lock();
        let mut totals = [0u64; Stage::COUNT];
        for ev in ring.events() {
            totals[ev.stage as usize] += ev.dur_ns();
        }
        totals
    }

    /// Feeds every retained event (oldest first) to `sink` on `track`.
    pub fn export(&self, track: u64, sink: &mut dyn TraceSink) {
        for ev in self.ring.lock().events() {
            sink.event(track, ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_records_and_wraps() {
        let mut ring = TraceRing::with_capacity(3);
        assert!(ring.is_empty());
        for i in 0..5u64 {
            ring.record(TraceEvent {
                call: i,
                stage: Stage::Marshal,
                start_ns: i,
                end_ns: i + 1,
                detail: 0,
            });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total(), 5);
        let calls: Vec<u64> = ring.events().map(|e| e.call).collect();
        assert_eq!(calls, vec![2, 3, 4], "oldest first, overwritten events gone");
    }

    #[test]
    fn ring_order_before_wrap() {
        let mut ring = TraceRing::with_capacity(8);
        for i in 0..3u64 {
            ring.record(TraceEvent {
                call: i,
                stage: Stage::Transport,
                start_ns: 0,
                end_ns: 0,
                detail: 0,
            });
        }
        let calls: Vec<u64> = ring.events().map(|e| e.call).collect();
        assert_eq!(calls, vec![0, 1, 2]);
    }

    #[test]
    fn sim_time_source_reads_the_clock() {
        let clock = SimClock::new();
        let t = TimeSource::Sim(Arc::clone(&clock));
        assert_eq!(t.now_ns(), 0);
        clock.advance_ns(42);
        assert_eq!(t.now_ns(), 42);
    }

    #[test]
    fn stage_totals_accumulate_per_stage() {
        let clock = SimClock::new();
        let mut trace = CallTrace::sim(16, clock);
        let call = trace.begin_call();
        trace.record(call, Stage::Marshal, 0, 10, 0);
        trace.record(call, Stage::Transport, 10, 110, 0);
        trace.record(call, Stage::Unmarshal, 110, 115, 0);
        let call2 = trace.begin_call();
        trace.record(call2, Stage::Marshal, 115, 130, 0);
        let totals = trace.stage_totals();
        assert_eq!(totals[Stage::Marshal as usize], 25);
        assert_eq!(totals[Stage::Transport as usize], 100);
        assert_eq!(totals[Stage::Unmarshal as usize], 5);
        assert_eq!(totals[Stage::Bind as usize], 0);
    }

    #[test]
    fn shared_trace_is_readable_while_shared() {
        let shared = SharedCallTrace::new(4, TimeSource::Disabled);
        let other = shared.clone();
        let c = shared.begin_call();
        shared.record(c, Stage::Dispatch, 1, 5, 7);
        let snap = other.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].stage, Stage::Dispatch);
        assert_eq!(snap[0].detail, 7);
        assert_eq!(other.stage_totals()[Stage::Dispatch as usize], 4);
    }

    #[test]
    fn stage_names_are_stable() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "bind",
                "specialize",
                "marshal",
                "enqueue",
                "transport",
                "dispatch",
                "unmarshal",
                "retry",
                "replay",
                "failover",
                "notify"
            ]
        );
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i, "ids are dense and ordered");
        }
    }
}
