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

use flexrpc_trace::CounterStripe;

flexrpc_trace::instruments! {
    /// Monotonic counters of simulated-kernel events, adopted by a metrics
    /// plane under `kernel.*` names while the kernel keeps updating the
    /// same cells.
    pub struct KernelStats {
        /// Bytes moved from a user arena into kernel space (`copyin`).
        bytes_copied_in: Counter = "kernel.bytes_copied_in",
        /// Bytes moved from kernel space into a user arena (`copyout`).
        bytes_copied_out: Counter = "kernel.bytes_copied_out",
        /// Bytes moved directly between two user arenas (the streamlined path).
        bytes_copied_user_to_user: Counter = "kernel.bytes_copied_user_to_user",
        /// IPC messages sent over the streamlined path.
        messages: Counter = "kernel.message",
        /// Port rights transferred between tasks.
        rights_transferred: Counter = "kernel.rights_transferred",
        /// Hash-table probes performed by port-name translation (the cost the
        /// `[nonunique]` presentation removes).
        name_table_probes: Counter = "kernel.name_table_probe",
        /// Individual register save/restore/scrub operations performed by the
        /// trust-parameterized path.
        register_ops: Counter = "kernel.register_op",
    }
    /// A point-in-time copy of [`KernelStats`], supporting subtraction.
    #[derive(Eq)]
    pub struct StatsSnapshot;
}

impl KernelStats {
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
}

/// A connection's own cells of the counters [`Kernel::ipc_call`] writes
/// ([`Counter::stripe`](flexrpc_trace::Counter::stripe)): written with a plain load and store by the call
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

impl StatsSnapshot {
    /// Total bytes copied by the kernel in any direction.
    pub fn total_bytes_copied(&self) -> u64 {
        self.bytes_copied_in + self.bytes_copied_out + self.bytes_copied_user_to_user
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta() {
        let s = KernelStats::default();
        s.messages.add(2);
        let a = s.snapshot();
        s.messages.add(3);
        s.bytes_copied_in.add(100);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.messages, 3);
        assert_eq!(d.bytes_copied_in, 100);
        assert_eq!(d.total_bytes_copied(), 100);
    }
}
