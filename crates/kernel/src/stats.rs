//! Kernel-wide event counters.
//!
//! The reproduction separates *correctness of an optimization* from *timing*:
//! tests assert these counters (e.g. "the `dealloc(never)` presentation
//! removed exactly one payload-sized copy per read"), `report` states them
//! as exact rows, and wall-clock time is `benchmark/`'s (`pipe_ipc_bulk`).
//! Counters only grow and can be read concurrently with IPC activity: each
//! is a shared atomic cell plus, for the ones an IPC call writes, one
//! stripe per bound connection (`CallTallies`), and every read folds
//! both.

use flexrpc_trace::{Counter, CounterStripe, MetricsRegistry};

/// Monotonic counters of simulated-kernel events. Each is a
/// registry-adoptable [`Counter`] handle, so a metrics plane can absorb
/// them under `kernel.*` names ([`KernelStats::register_metrics`]) while
/// the kernel keeps updating the same cells.
#[derive(Debug, Default)]
pub struct KernelStats {
    /// Bytes moved from a user arena into kernel space (`copyin`).
    pub bytes_copied_in: Counter,
    /// Bytes moved from kernel space into a user arena (`copyout`).
    pub bytes_copied_out: Counter,
    /// Bytes moved directly between two user arenas (the streamlined path).
    pub bytes_copied_user_to_user: Counter,
    /// IPC messages sent over the streamlined path.
    pub messages: Counter,
    /// Port rights transferred between tasks.
    pub rights_transferred: Counter,
    /// Hash-table probes performed by port-name translation (the cost the
    /// `[nonunique]` presentation removes).
    pub name_table_probes: Counter,
    /// Individual register save/restore/scrub operations performed by the
    /// trust-parameterized path.
    pub register_ops: Counter,
}

impl KernelStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn add(counter: &Counter, n: u64) {
        counter.add(n);
    }

    /// One connection's stripes of the counters an IPC call writes.
    pub(crate) fn call_tallies(&self) -> CallTallies {
        CallTallies {
            messages: self.messages.stripe(),
            bytes_copied_user_to_user: self.bytes_copied_user_to_user.stripe(),
            register_ops: self.register_ops.stripe(),
            rights_transferred: self.rights_transferred.stripe(),
            name_table_probes: self.name_table_probes.stripe(),
        }
    }

    /// Adopts every counter into `registry` under its `kernel.*` name.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        registry.adopt_counter("kernel.bytes_copied_in", &self.bytes_copied_in);
        registry.adopt_counter("kernel.bytes_copied_out", &self.bytes_copied_out);
        registry.adopt_counter("kernel.bytes_copied_user_to_user", &self.bytes_copied_user_to_user);
        registry.adopt_counter("kernel.message", &self.messages);
        registry.adopt_counter("kernel.rights_transferred", &self.rights_transferred);
        registry.adopt_counter("kernel.name_table_probe", &self.name_table_probes);
        registry.adopt_counter("kernel.register_op", &self.register_ops);
    }

    /// Snapshot of all counters, for before/after deltas in tests.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            bytes_copied_in: self.bytes_copied_in.get(),
            bytes_copied_out: self.bytes_copied_out.get(),
            bytes_copied_user_to_user: self.bytes_copied_user_to_user.get(),
            messages: self.messages.get(),
            rights_transferred: self.rights_transferred.get(),
            name_table_probes: self.name_table_probes.get(),
            register_ops: self.register_ops.get(),
        }
    }
}

/// A connection's own cells of the counters [`Kernel::ipc_call`] writes
/// ([`Counter::stripe`]): written with a plain load and store by the call
/// that holds the connection's lock, folded into every read of the
/// [`KernelStats`] field of the same name, and kept there when the
/// connection is dropped.
///
/// [`Kernel::ipc_call`]: crate::Kernel::ipc_call
#[derive(Debug)]
pub(crate) struct CallTallies {
    pub(crate) messages: CounterStripe,
    pub(crate) bytes_copied_user_to_user: CounterStripe,
    pub(crate) register_ops: CounterStripe,
    pub(crate) rights_transferred: CounterStripe,
    pub(crate) name_table_probes: CounterStripe,
}

/// A point-in-time copy of [`KernelStats`], supporting subtraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// See [`KernelStats::bytes_copied_in`].
    pub bytes_copied_in: u64,
    /// See [`KernelStats::bytes_copied_out`].
    pub bytes_copied_out: u64,
    /// See [`KernelStats::bytes_copied_user_to_user`].
    pub bytes_copied_user_to_user: u64,
    /// See [`KernelStats::messages`].
    pub messages: u64,
    /// See [`KernelStats::rights_transferred`].
    pub rights_transferred: u64,
    /// See [`KernelStats::name_table_probes`].
    pub name_table_probes: u64,
    /// See [`KernelStats::register_ops`].
    pub register_ops: u64,
}

impl StatsSnapshot {
    /// Total bytes copied by the kernel in any direction.
    pub fn total_bytes_copied(&self) -> u64 {
        self.bytes_copied_in + self.bytes_copied_out + self.bytes_copied_user_to_user
    }

    /// Counter deltas since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is a later snapshot (counters are
    /// monotonic, so that is always a caller bug).
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            bytes_copied_in: self.bytes_copied_in - earlier.bytes_copied_in,
            bytes_copied_out: self.bytes_copied_out - earlier.bytes_copied_out,
            bytes_copied_user_to_user: self.bytes_copied_user_to_user
                - earlier.bytes_copied_user_to_user,
            messages: self.messages - earlier.messages,
            rights_transferred: self.rights_transferred - earlier.rights_transferred,
            name_table_probes: self.name_table_probes - earlier.name_table_probes,
            register_ops: self.register_ops - earlier.register_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta() {
        let s = KernelStats::new();
        KernelStats::add(&s.messages, 2);
        let a = s.snapshot();
        KernelStats::add(&s.messages, 3);
        KernelStats::add(&s.bytes_copied_in, 100);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.messages, 3);
        assert_eq!(d.bytes_copied_in, 100);
        assert_eq!(d.total_bytes_copied(), 100);
    }
}
