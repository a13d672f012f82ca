//! The benchmark's own spans: recorded round calls *into* the program,
//! from outside it (spans inside the program are a later change).
//!
//! A [`SpanLog`] is a preallocated in-memory buffer; recording is two clock
//! reads and one push under an uncontended lock, nothing is formatted or
//! written until the run ends. Two logs share one epoch: the client log
//! (the benchmark thread: `stub.call`, `transport.call`, `submit`, `wait`,
//! bind steps, ...) and the server log (the handler wrapper, which may run
//! on an engine worker thread). Every span carries the sequence number of
//! the request it belongs to, so spans of one request join across threads.
//!
//! [`resolve_parents`] rebuilds the tree afterwards — by nesting inside the
//! client log, by request id for handler spans — and [`self_times`] applies
//! the ledger rule: a span's self time is its duration minus the part of
//! that interval its children cover.

use flexrpc_core::program::CompiledOp;
use flexrpc_runtime::policy::CallControl;
use flexrpc_runtime::Transport;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// "No parent": the span is a root.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// First request (op sequence number) this span belongs to ...
    pub request: u64,
    /// ... and how many consecutive requests it covers (32 for a batch).
    pub requests: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span, filled in by [`resolve_parents`].
    pub parent: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    fn covers_request(&self, request: u64) -> bool {
        self.request <= request && request < self.request + u64::from(self.requests)
    }

    fn contains(&self, other: &Span) -> bool {
        self.start_ns <= other.start_ns && other.end_ns <= self.end_ns
    }
}

/// A shared handle to one preallocated span buffer.
#[derive(Debug, Clone)]
pub struct SpanLog {
    epoch: Instant,
    buffer: Arc<Mutex<Buffer>>,
}

#[derive(Debug)]
struct Buffer {
    spans: Vec<Span>,
    /// Spans turned away because the buffer was full.
    dropped: u64,
}

impl SpanLog {
    pub fn new(epoch: Instant, capacity: usize) -> SpanLog {
        let buffer = Buffer { spans: Vec::with_capacity(capacity), dropped: 0 };
        SpanLog { epoch, buffer: Arc::new(Mutex::new(buffer)) }
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span. A full buffer drops the span (and counts
    /// it) instead of growing: the buffer never allocates while timing.
    #[inline]
    pub fn push(
        &self,
        name: &'static str,
        request: u64,
        requests: u32,
        start_ns: u64,
        end_ns: u64,
    ) {
        let mut buffer = self.buffer.lock().expect("span log lock");
        if buffer.spans.len() < buffer.spans.capacity() {
            buffer.spans.push(Span { name, request, requests, start_ns, end_ns, parent: ROOT });
        } else {
            buffer.dropped += 1;
        }
    }

    /// Times `f` as one span.
    #[inline]
    pub fn span<R>(&self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let start = self.now();
        let result = f();
        self.push(name, request, 1, start, self.now());
        result
    }

    /// Copies out what the buffer holds and empties it. The buffer itself
    /// stays: the next chunk writes to memory that is already mapped.
    pub fn drain(&self) -> Vec<Span> {
        let mut buffer = self.buffer.lock().expect("span log lock");
        let spans = buffer.spans.clone();
        buffer.spans.clear();
        spans
    }

    pub fn dropped(&self) -> u64 {
        self.buffer.lock().expect("span log lock").dropped
    }
}

/// The two logs of a traced world plus the request counter handler
/// wrappers draw their sequence numbers from.
#[derive(Debug, Clone)]
pub struct Trace {
    pub client: SpanLog,
    pub server: SpanLog,
    /// Requests the handlers have seen. One connection, FIFO service: the
    /// n-th handler invocation is the n-th request the client issued.
    pub handled: Arc<AtomicU64>,
}

impl Trace {
    pub fn new(capacity: usize) -> Trace {
        let epoch = Instant::now();
        Trace {
            client: SpanLog::new(epoch, capacity),
            server: SpanLog::new(epoch, capacity),
            handled: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Forgets everything recorded so far (after the traced warm-up) but
    /// keeps the request numbering, which both sides continue from.
    pub fn clear(&self) {
        self.client.drain();
        self.server.drain();
    }

    /// Takes both logs, merged, with parents resolved.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = self.client.drain();
        let client_len = spans.len();
        spans.extend(self.server.drain());
        resolve_parents(&mut spans, client_len);
        spans
    }

    pub fn dropped(&self) -> u64 {
        self.client.dropped() + self.server.dropped()
    }
}

/// Times `f` as a client-side span when tracing, runs it bare otherwise.
#[inline]
pub fn spanned<R>(
    trace: &Option<Trace>,
    name: &'static str,
    request: u64,
    f: impl FnOnce() -> R,
) -> R {
    match trace {
        Some(t) => t.client.span(name, request, f),
        None => f(),
    }
}

/// A wrapper round the real transport that records one `transport.call`
/// span per call. It numbers requests itself: every op of a stub-driven
/// workload crosses its transport exactly once.
pub struct Spanned<T: Transport> {
    inner: T,
    log: SpanLog,
    calls: u64,
}

impl<T: Transport> Spanned<T> {
    pub fn new(inner: T, log: SpanLog) -> Spanned<T> {
        Spanned::starting_at(inner, log, 0)
    }

    /// For a transport built mid-run: its first call is request `first`.
    pub fn starting_at(inner: T, log: SpanLog, first: u64) -> Spanned<T> {
        Spanned { inner, log, calls: first }
    }
}

impl<T: Transport> Transport for Spanned<T> {
    fn call(
        &mut self,
        op: &CompiledOp,
        request: &[u8],
        rights: &[u32],
        reply: &mut Vec<u8>,
        rights_out: &mut Vec<u32>,
    ) -> flexrpc_runtime::Result<usize> {
        self.call_with(op, request, rights, reply, rights_out, &CallControl::none())
    }

    fn call_with(
        &mut self,
        op: &CompiledOp,
        request: &[u8],
        rights: &[u32],
        reply: &mut Vec<u8>,
        rights_out: &mut Vec<u32>,
        ctl: &CallControl,
    ) -> flexrpc_runtime::Result<usize> {
        let seq = self.calls;
        self.calls += 1;
        let inner = &mut self.inner;
        self.log.span("transport.call", seq, || {
            inner.call_with(op, request, rights, reply, rights_out, ctl)
        })
    }

    fn clock(&self) -> Option<Arc<flexrpc_clock::SimClock>> {
        self.inner.clock()
    }
}

/// Fills in `parent` for every span. `spans[..client_len]` were recorded
/// by one thread, so they nest properly and a sweep with a stack finds
/// each one's innermost enclosing span. The rest are handler spans from
/// whatever thread dispatched them: each hangs under the innermost client
/// span that covers its request *and* its interval (the `transport.call`
/// it ran inside, or the batch that was waiting for it).
pub fn resolve_parents(spans: &mut [Span], client_len: usize) {
    let mut order: Vec<u32> = (0..client_len as u32).collect();
    order.sort_by_key(|&i| {
        let s = &spans[i as usize];
        (s.start_ns, std::cmp::Reverse(s.end_ns))
    });
    let mut stack: Vec<u32> = Vec::new();
    for &i in &order {
        while let Some(&top) = stack.last() {
            if spans[top as usize].contains(&spans[i as usize]) {
                break;
            }
            stack.pop();
        }
        spans[i as usize].parent = stack.last().copied().unwrap_or(ROOT);
        stack.push(i);
    }
    // Client spans by first request, for the handler join.
    let mut by_request: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for &i in &order {
        by_request.entry(spans[i as usize].request).or_default().push(i);
    }
    for h in client_len..spans.len() {
        let handler = spans[h];
        // A covering span starts at most `requests - 1` before; batches are
        // small, so a bounded look-back over the request index suffices.
        let lookback = handler.request.saturating_sub(MAX_GROUP);
        let mut best: Option<u32> = None;
        for (_, candidates) in by_request.range(lookback..=handler.request) {
            for &c in candidates {
                let cand = &spans[c as usize];
                if cand.covers_request(handler.request)
                    && cand.contains(&handler)
                    && best.is_none_or(|b| cand.start_ns >= spans[b as usize].start_ns)
                {
                    best = Some(c);
                }
            }
        }
        spans[h].parent = best.unwrap_or(ROOT);
    }
}

/// The most requests one span may cover (a batch is 32).
const MAX_GROUP: u64 = 64;

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if a < b {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// What recording one span costs, in nanoseconds at reference speed:
/// `total_ns` from entering [`SpanLog::span`] to leaving it with an empty
/// body, of which `inside_ns` falls between the two timestamps and so
/// lands in the span's own duration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanCost {
    pub total_ns: f64,
    pub inside_ns: f64,
}

/// Measures [`SpanCost`] on a log of its own: batches of empty spans
/// between reference chunks.
pub fn calibrate(pacer: &mut crate::reference::Pacer) -> SpanCost {
    const BATCH: usize = 10_000;
    let log = SpanLog::new(Instant::now(), BATCH);
    let mut totals = [0f64; 9];
    let mut insides = [0f64; 9];
    let mut before = pacer.tick();
    for (total, inside) in totals.iter_mut().zip(&mut insides) {
        let start = Instant::now();
        for i in 0..BATCH {
            log.span("calibrate", i as u64, || std::hint::black_box(()));
        }
        let took = start.elapsed().as_nanos() as f64 / BATCH as f64;
        let after = pacer.tick();
        let scale = crate::reference::scale(before, after);
        let spans = log.drain();
        *total = took * scale;
        *inside = spans.iter().map(|s| s.dur_ns() as f64).sum::<f64>() / BATCH as f64 * scale;
        before = after;
    }
    SpanCost {
        total_ns: crate::measure::median(&mut totals),
        inside_ns: crate::measure::median(&mut insides),
    }
}

/// Per-name totals over a set of resolved spans, in nanoseconds at
/// reference speed, with the cost of recording taken out.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: f64,
    pub self_ns: f64,
}

impl NameTotals {
    pub fn mean_ns(&self) -> f64 {
        self.total_ns / self.count.max(1) as f64
    }

    pub fn mean_self_ns(&self) -> f64 {
        self.self_ns / self.count.max(1) as f64
    }
}

/// Adds `spans` (resolved) into the per-name ledger. Every duration is
/// multiplied by `scale` (the reference-speed factor of the chunk the
/// spans were recorded in) and relieved of what recording cost it: a
/// span's duration holds its own `inside_ns` and every descendant's
/// `total_ns`; its self time holds its own `inside_ns` and, per child, the
/// part of the child's cost outside the child's own interval.
pub fn accumulate(
    ledger: &mut BTreeMap<&'static str, NameTotals>,
    spans: &[Span],
    scale: f64,
    cost: SpanCost,
) {
    let mut children = vec![0u32; spans.len()];
    let mut descendants = vec![0u32; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize] += 1;
        }
        let mut up = s.parent;
        while up != ROOT {
            descendants[up as usize] += 1;
            up = spans[up as usize].parent;
        }
    }
    for (i, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        let entry = ledger.entry(s.name).or_default();
        entry.count += 1;
        let total =
            s.dur_ns() as f64 * scale - cost.inside_ns - f64::from(descendants[i]) * cost.total_ns;
        let own = self_ns as f64 * scale
            - cost.inside_ns
            - f64::from(children[i]) * (cost.total_ns - cost.inside_ns);
        entry.total_ns += total.max(0.0);
        entry.self_ns += own.max(0.0);
    }
}

/// Writes one JSON object per span: `{"id":3,"name":"transport.call",
/// "request":17,"requests":1,"start_ns":..,"end_ns":..,"parent":2}`
/// (`"parent":null` for a root).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT { "null".to_owned() } else { s.parent.to_string() };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"requests\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.name, s.request, s.requests, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
