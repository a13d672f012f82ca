//! Engine-level counters and point-in-time snapshots.
//!
//! The counters are [`Counter`] handles, declared once with their
//! `engine.*` names; an engine's [`flexrpc_trace::MetricsRegistry`] adopts
//! them, so `engine.stats()` and a registry snapshot read through the very
//! same handles and can never disagree.
//!
//! Which tally is written where. The five a *dispatch* produces —
//! `calls_served`, `bytes_in`, `bytes_out`, `dispatch_errors`,
//! `inline_calls` — are never written here: each replica of each pool holds
//! a stripe of them (and of `engine.dwell_ns`) and `Engine::serve` writes
//! it under the replica lock the dispatch already holds, a plain store.
//! Reading them ([`Counter::get`]) folds the stripes under the counter's
//! own stripe-list lock — never a replica lock, so a stalled handler
//! stalls no reader — and a pool that dies folds its stripes into the
//! shared cells. `in_flight` / `peak_in_flight` are one shared exact gauge:
//! the watermark is fed by the value `in_flight`'s add returns, which only
//! a single cell can give. `calls_helped` is striped per serve token: a
//! caller serving its own queued job writes the stripe of the token it
//! holds. Everything else (sheds, expiries, cancels, connections) is off
//! the served path and written shared. Jobs served from the queue are
//! `calls_served − inline_calls`.
//!
//! [`Counter`]: flexrpc_trace::Counter
//! [`Counter::get`]: flexrpc_trace::Counter::get

use crate::breaker::BreakerStats;
use crate::cache::CacheStats;
use flexrpc_runtime::replycache::ReplyCacheStats;

flexrpc_trace::instruments! {
    /// Live counters, updated by acceptors and workers.
    pub struct EngineCounters {
        /// Calls fully served (dispatched and replied).
        calls_served: Counter = "engine.calls_served",
        /// Request bytes copied into the engine.
        bytes_in: Counter = "engine.bytes_in",
        /// Reply bytes copied out of the engine.
        bytes_out: Counter = "engine.bytes_out",
        /// Jobs currently queued or executing.
        in_flight: Counter = "engine.in_flight",
        /// High-water mark of `in_flight`.
        peak_in_flight: Counter = "engine.peak_in_flight",
        /// Connections accepted (same-domain and network exposures).
        connections: Counter = "engine.connections",
        /// Dispatches that returned an error to the client.
        dispatch_errors: Counter = "engine.dispatch_errors",
        /// Calls refused at admission (queue above high water).
        calls_shed: Counter = "engine.shed",
        /// Queued-but-unstarted calls failed by a graceful drain.
        calls_cancelled: Counter = "engine.cancelled",
        /// Calls whose deadline passed before a worker could start them.
        deadline_expired: Counter = "engine.expired",
        /// Blocking calls served inline on the caller's thread (LRPC-style
        /// direct dispatch — no queue, no worker handoff).
        inline_calls: Counter = "engine.inline_calls",
        /// Queued calls their own waiting caller dequeued and ran
        /// (`CallTicket::wait`) instead of a worker, counted in
        /// `calls_served` like any other and never in `inline_calls`.
        /// Striped per serve token: the helper writes the stripe of the
        /// token it holds.
        calls_helped: Counter = "engine.helped",
        /// Live connection rebinds (`EngineConnection::rebind`).
        rebinds: Counter = "engine.rebinds",
        /// Sim-time nanoseconds jobs spend queued before a worker starts
        /// them.
        dwell_ns: Histogram = "engine.dwell_ns",
    }
    /// A consistent-enough snapshot of one engine's state (individual
    /// counters are read atomically; the set is racy, as stats snapshots
    /// are).
    pub struct EngineStatsSnapshot {
        /// Jobs waiting in the queue right now.
        queue_depth: usize,
        /// Worker threads serving the queue.
        workers: usize,
        /// Program-cache counters.
        cache: CacheStats,
        /// At-most-once reply-cache counters (all zero when disabled).
        reply_cache: ReplyCacheStats,
        /// Circuit-breaker counters and gate (all zero and closed when no
        /// breaker is armed).
        breaker: BreakerStats,
    }
}

impl EngineCounters {
    pub(crate) fn job_enqueued(&self) {
        let now = self.in_flight.add(1);
        self.peak_in_flight.raise_to(now);
    }

    /// A call refused at admission — it was never enqueued, so `in_flight`
    /// is untouched.
    pub(crate) fn job_shed(&self) {
        self.calls_shed.inc();
    }

    /// An enqueued job whose deadline expired before dispatch.
    pub(crate) fn job_expired(&self) {
        self.in_flight.sub(1);
        self.deadline_expired.inc();
    }

    /// An enqueued job failed by shutdown before a worker started it.
    pub(crate) fn job_cancelled(&self) {
        self.in_flight.sub(1);
        self.calls_cancelled.inc();
    }
}

impl EngineStatsSnapshot {
    /// Fraction of program-cache lookups served from the cache (0 before
    /// the first).
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }
}
