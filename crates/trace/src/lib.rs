//! `flexrpc-trace` — the observability plane: deterministic per-call
//! tracing plus a unified metrics registry.
//!
//! The rest of the workspace *makes* calls fast; this crate makes the
//! claim falsifiable. Two halves:
//!
//! * **Spans** ([`span`]): every call decomposes into a fixed taxonomy of
//!   stages ([`Stage`]: bind, specialize, marshal, enqueue, transport,
//!   dispatch, unmarshal, retry, replay, failover). Stage timings are
//!   recorded as [`TraceEvent`]s into a pre-allocated ring
//!   ([`TraceRing`]) — no allocation, no formatting, no float math on the
//!   hot path — with timestamps from a [`TimeSource`]. The default source
//!   is the workspace's deterministic [`SimClock`](flexrpc_clock::SimClock),
//!   so two identical runs produce byte-identical trace streams; a
//!   wall-clock source exists for profiling real elapsed time and is
//!   documented as non-deterministic.
//! * **Metrics** ([`metrics`]): named [`Counter`]s and log2-bucketed
//!   [`Histogram`]s behind one [`MetricsRegistry`]. Components keep their
//!   own counter handles (a shared atomic cell behind an `Arc`, plus a
//!   stripe for any owner that can write without contention) and *adopt*
//!   them into a registry under stable names (`engine.shed`, `cache.hit`,
//!   `breaker.trip`, `supervisor.replay`, …), so one
//!   [`MetricsSnapshot`] — with a hand-rolled JSON export — sees the whole
//!   stack without any component giving up its existing stats API.
//!
//! Exporters ([`sink`]): [`JsonLinesSink`] (one JSON object per event) and
//! [`ChromeTraceSink`] (the `chrome://tracing` / Perfetto trace-event
//! format, so a call's lifetime renders as nested spans on a timeline).

pub mod metrics;
pub mod sink;
pub mod span;

pub use metrics::{
    Counter, CounterStripe, Histogram, HistogramSnapshot, HistogramStripe, MetricsRegistry,
    MetricsSnapshot,
};
pub use sink::{ChromeTraceSink, JsonLinesSink, TraceSink};
pub use span::{CallTrace, SharedCallTrace, Stage, TimeSource, TraceEvent, TraceRing};
