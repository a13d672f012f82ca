//! Every `instruments!` declaration binds each registry name to its own
//! field. Per subsystem the handles are registered into a fresh registry,
//! each pinned field is bumped by its own amount (a counter added to, a
//! histogram recorded into), and then the registry's names are exactly the
//! pinned ones, every name reads the amount of the field pinned to it, and
//! the typed view reads the same through `named()`.
//!
//! The pins are this file's own `field: "name"` lists, so two names swapped
//! in a declaration — the mistake a hand-kept list invites — read each
//! other's amounts here and fail. They also pin that no registry name
//! changes unnoticed.

use flexrpc_trace::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};
use std::collections::BTreeMap;

/// An instrument a test can bump and find again in a registry snapshot.
trait Bump {
    fn bump(&self, n: u64);
    fn read(snapshot: &MetricsSnapshot, name: &str) -> Option<u64>;
}

impl Bump for Counter {
    fn bump(&self, n: u64) {
        self.add(n);
    }
    fn read(snapshot: &MetricsSnapshot, name: &str) -> Option<u64> {
        snapshot.counters.get(name).copied()
    }
}

impl Bump for Histogram {
    fn bump(&self, n: u64) {
        self.record(n);
    }
    fn read(snapshot: &MetricsSnapshot, name: &str) -> Option<u64> {
        snapshot.histograms.get(name).map(|h| h.sum)
    }
}

/// Bumps `field` by `n` and returns how to read it back from a snapshot.
fn bump<B: Bump>(field: &B, n: u64) -> fn(&MetricsSnapshot, &str) -> Option<u64> {
    field.bump(n);
    B::read
}

/// `check!(handles, prefix, (snapshot args), { field: "name", … })`:
/// bumps the i-th pinned field by `i + 1`, registers the handles (under
/// `prefix.` when one is given) and checks the registry and the view
/// against the pins.
macro_rules! check {
    ($handles:expr, $prefix:expr, ($($arg:expr),*), { $($field:ident: $name:literal),* $(,)? }) => {{
        let handles = $handles;
        let prefix: Option<&str> = $prefix;
        let full = |name: &str| prefix.map_or(name.to_string(), |p| format!("{p}.{name}"));
        let mut pinned = BTreeMap::new();
        let mut amount = 0;
        $(
            amount += 1;
            pinned.insert(full($name), (amount, bump(&handles.$field, amount)));
        )*
        let registry = MetricsRegistry::new();
        match prefix {
            None => handles.register_metrics(&registry),
            Some(p) => handles.register_metrics_under(&registry, p),
        }
        let snapshot = registry.snapshot();
        let mut registered: Vec<&String> =
            snapshot.counters.keys().chain(snapshot.histograms.keys()).collect();
        registered.sort();
        assert_eq!(registered, pinned.keys().collect::<Vec<_>>(), "{}", stringify!($handles));
        for (name, (amount, read)) in &pinned {
            assert_eq!(read(&snapshot, name), Some(*amount), "{name} reads its own field");
        }
        let named = handles.snapshot($($arg),*).named();
        assert_eq!(named.len(), snapshot.counters.len(), "the view has every counter");
        for (name, value) in named {
            assert_eq!(value, pinned[&full(name)].0, "the view's {name} reads its own field");
        }
    }};
}

#[test]
fn engine() {
    check!(
        flexrpc_engine::stats::EngineCounters::default(),
        None,
        (0, 0, Default::default(), Default::default(), Default::default()),
        {
            calls_served: "engine.calls_served",
            bytes_in: "engine.bytes_in",
            bytes_out: "engine.bytes_out",
            in_flight: "engine.in_flight",
            peak_in_flight: "engine.peak_in_flight",
            connections: "engine.connections",
            dispatch_errors: "engine.dispatch_errors",
            calls_shed: "engine.shed",
            calls_cancelled: "engine.cancelled",
            deadline_expired: "engine.expired",
            inline_calls: "engine.inline_calls",
            calls_helped: "engine.helped",
            rebinds: "engine.rebinds",
            dwell_ns: "engine.dwell_ns",
        }
    );
    check!(flexrpc_engine::breaker::BreakerCounters::default(), None, (false), {
        trips: "breaker.trip",
        probes: "breaker.probe",
        recoveries: "breaker.recovery",
    });
    check!(flexrpc_engine::cache::CacheCounters::default(), None, (0), {
        hits: "cache.hit",
        misses: "cache.miss",
    });
}

#[test]
fn kernel() {
    check!(flexrpc_kernel::KernelStats::default(), None, (), {
        bytes_copied_in: "kernel.bytes_copied_in",
        bytes_copied_out: "kernel.bytes_copied_out",
        bytes_copied_user_to_user: "kernel.bytes_copied_user_to_user",
        messages: "kernel.message",
        rights_transferred: "kernel.rights_transferred",
        name_table_probes: "kernel.name_table_probe",
        register_ops: "kernel.register_op",
    });
}

#[test]
fn net_and_what_it_carries() {
    check!(flexrpc_net::NetStats::default(), None, (), {
        messages: "net.message",
        packets: "net.packet",
        bytes: "net.bytes",
    });
    check!(flexrpc_runtime::replycache::ReplyCacheCounters::default(), None, (), {
        executions: "replycache.execution",
        suppressions: "replycache.suppression",
        evictions: "replycache.eviction",
        entries: "replycache.entries",
    });
    check!(flexrpc_runtime::supervisor::SupervisorCounters::default(), None, (), {
        disconnects: "supervisor.disconnect",
        rebinds: "supervisor.rebind",
        replays: "supervisor.replay",
        recovery_ns_last: "supervisor.recovery_ns_last",
        recovery_ns_max: "supervisor.recovery_ns_max",
        recovery_ns: "supervisor.recovery_ns",
    });
}

#[test]
fn control_under_a_tenant_prefix() {
    check!(flexrpc_control::TenantMetrics::default(), Some("tenant.7"), (), {
        admitted: "admitted",
        shed: "shed",
        served: "served",
        expired: "expired",
        policy_swaps: "policy_swaps",
        dwell_ns: "dwell_ns",
    });
}

#[test]
fn stream() {
    check!(flexrpc_stream::credit::StreamCounters::default(), None, (), {
        frames: "stream.frames",
        stalls: "stream.credit_stalls",
        waited_ns: "stream.credits_waited_ns",
    });
    check!(flexrpc_stream::callback::CallbackCounters::default(), None, (), {
        delivered: "engine.callbacks_delivered",
    });
}

#[test]
fn unregistered_copy_counters() {
    check!(flexrpc_fbufs::FbufStats::default(), None, (), {
        allocs: "fbufs.alloc",
        recycles: "fbufs.recycle",
        maps: "fbufs.map",
        bytes_written: "fbufs.bytes_written",
        bytes_read: "fbufs.bytes_read",
        splices: "fbufs.splice",
    });
    check!(flexrpc_runtime::samedomain::SdStats::default(), None, (), {
        stub_copies: "samedomain.stub_copy",
        bytes_copied: "samedomain.bytes_copied",
        stub_allocs: "samedomain.stub_alloc",
    });
}
