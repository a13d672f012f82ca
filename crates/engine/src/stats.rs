//! Engine-level counters and point-in-time snapshots.
//!
//! The counters are [`flexrpc_trace::Counter`] handles that an engine's
//! [`flexrpc_trace::MetricsRegistry`] adopts under the unified `engine.*`
//! names, so `engine.stats()` and a registry snapshot read through the
//! very same handles and can never disagree.
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

use crate::breaker::BreakerStats;
use crate::cache::CacheStats;
use flexrpc_runtime::replycache::ReplyCacheStats;
use flexrpc_trace::{Counter, MetricsRegistry};

/// Live counters, updated by acceptors and workers.
#[derive(Debug, Default)]
pub struct EngineCounters {
    /// Calls fully served (dispatched and replied).
    pub calls_served: Counter,
    /// Request bytes copied into the engine.
    pub bytes_in: Counter,
    /// Reply bytes copied out of the engine.
    pub bytes_out: Counter,
    /// Jobs currently queued or executing.
    pub in_flight: Counter,
    /// High-water mark of `in_flight`.
    pub peak_in_flight: Counter,
    /// Connections accepted (same-domain and network exposures).
    pub connections: Counter,
    /// Dispatches that returned an error to the client.
    pub dispatch_errors: Counter,
    /// Calls refused at admission (queue above high water).
    pub calls_shed: Counter,
    /// Queued-but-unstarted calls failed by a graceful drain.
    pub calls_cancelled: Counter,
    /// Calls whose deadline passed before a worker could start them.
    pub deadline_expired: Counter,
    /// Blocking calls served inline on the caller's thread (LRPC-style
    /// direct dispatch — no queue, no worker handoff).
    pub inline_calls: Counter,
    /// Queued calls their own waiting caller dequeued and ran
    /// (`CallTicket::wait`) instead of a worker. Striped per serve token:
    /// the helper writes the stripe of the token it holds.
    pub calls_helped: Counter,
}

impl EngineCounters {
    /// Adopts every counter into `registry` under its `engine.*` name.
    pub(crate) fn register_into(&self, registry: &MetricsRegistry) {
        registry.adopt_counter("engine.calls_served", &self.calls_served);
        registry.adopt_counter("engine.bytes_in", &self.bytes_in);
        registry.adopt_counter("engine.bytes_out", &self.bytes_out);
        registry.adopt_counter("engine.in_flight", &self.in_flight);
        registry.adopt_counter("engine.peak_in_flight", &self.peak_in_flight);
        registry.adopt_counter("engine.connections", &self.connections);
        registry.adopt_counter("engine.dispatch_errors", &self.dispatch_errors);
        registry.adopt_counter("engine.shed", &self.calls_shed);
        registry.adopt_counter("engine.cancelled", &self.calls_cancelled);
        registry.adopt_counter("engine.expired", &self.deadline_expired);
        registry.adopt_counter("engine.inline_calls", &self.inline_calls);
        registry.adopt_counter("engine.helped", &self.calls_helped);
    }

    pub(crate) fn job_enqueued(&self) {
        let now = self.in_flight.add(1);
        self.peak_in_flight.raise_to(now);
    }

    /// Reads every cell into a snapshot. Only what is not an engine counter
    /// comes in as arguments: the instantaneous queue depth and worker
    /// count, and the program cache's, reply cache's and breaker's own
    /// stats.
    pub(crate) fn snapshot(
        &self,
        queue_depth: usize,
        workers: usize,
        cache: CacheStats,
        reply_cache: ReplyCacheStats,
        breaker: BreakerStats,
    ) -> EngineStatsSnapshot {
        EngineStatsSnapshot {
            calls_served: self.calls_served.get(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
            in_flight: self.in_flight.get(),
            peak_in_flight: self.peak_in_flight.get(),
            queue_depth,
            connections: self.connections.get(),
            dispatch_errors: self.dispatch_errors.get(),
            calls_shed: self.calls_shed.get(),
            calls_cancelled: self.calls_cancelled.get(),
            deadline_expired: self.deadline_expired.get(),
            inline_calls: self.inline_calls.get(),
            calls_helped: self.calls_helped.get(),
            workers,
            cache,
            reply_cache,
            breaker_trips: breaker.trips,
            breaker_probes: breaker.probes,
            breaker_recoveries: breaker.recoveries,
            breaker_open: breaker.open,
        }
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

/// A consistent-enough snapshot of one engine's state (individual counters
/// are read atomically; the set is racy, as stats snapshots are).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineStatsSnapshot {
    /// Calls fully served.
    pub calls_served: u64,
    /// Request bytes copied in.
    pub bytes_in: u64,
    /// Reply bytes copied out.
    pub bytes_out: u64,
    /// Jobs queued or executing right now.
    pub in_flight: u64,
    /// High-water mark of in-flight jobs.
    pub peak_in_flight: u64,
    /// Jobs waiting in the queue right now.
    pub queue_depth: usize,
    /// Connections accepted so far.
    pub connections: u64,
    /// Dispatches that failed.
    pub dispatch_errors: u64,
    /// Calls refused at admission (queue above high water).
    pub calls_shed: u64,
    /// Queued-but-unstarted calls failed by a graceful drain.
    pub calls_cancelled: u64,
    /// Calls whose deadline passed before a worker started them.
    pub deadline_expired: u64,
    /// Blocking calls served inline on the caller's thread.
    pub inline_calls: u64,
    /// Queued calls run by their own waiting caller, not a worker (counted
    /// in `calls_served` like any other, and never in `inline_calls`).
    pub calls_helped: u64,
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Program-cache counters.
    pub cache: CacheStats,
    /// At-most-once reply-cache counters (all zero when disabled).
    pub reply_cache: ReplyCacheStats,
    /// Circuit-breaker trips (closed/half-open → open).
    pub breaker_trips: u64,
    /// Circuit-breaker probes admitted while half-open.
    pub breaker_probes: u64,
    /// Circuit-breaker recoveries (probe succeeded, breaker closed).
    pub breaker_recoveries: u64,
    /// True while the breaker refuses admission.
    pub breaker_open: bool,
}

impl EngineStatsSnapshot {
    /// Fraction of program-cache lookups served from the cache (0 before
    /// the first).
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }
}
