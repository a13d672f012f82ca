//! A simulated microkernel substrate for the flexrpc reproduction.
//!
//! The paper's measurements ran on Mach 3.0 with a new "streamlined" IPC path
//! (HP730, Lites single server). We cannot reproduce that hardware or kernel,
//! so this crate builds the closest synthetic equivalent in which **all the
//! work the paper measures is real work**:
//!
//! * Every task owns a real byte arena standing in for its address space;
//!   [`Kernel::copyin`]/[`Kernel::copyout`] and the IPC body transfer are
//!   real `memcpy`s between arenas ([`task`]).
//! * Port rights live in real per-task hash tables with Mach's unique-name
//!   rule (reverse lookup + reference counting) and the paper's relaxed
//!   `[nonunique]` fast path ([`ports`]).
//! * Cross-domain control transfer saves/scrubs/restores a real register
//!   file, with the amount of work chosen by the pairwise trust levels the
//!   endpoints declared — compiled at bind time into a threaded-code list of
//!   register ops, the paper's "combination signature" ([`regs`], [`ipc`]).
//!
//! What is *not* simulated: privilege transitions and TLB/cache effects.
//! Those scale absolute numbers but not the relative costs the paper's
//! figures compare (who copies, how many name-table probes, how much
//! register traffic), which is what the reproduction's shape criteria need.
//!
//! # Examples
//!
//! ```
//! use flexrpc_kernel::{Kernel, ipc::{MsgOut, ServerOptions, BindOptions}};
//!
//! let k = Kernel::new();
//! let client = k.create_task("client", 4096).unwrap();
//! let server = k.create_task("server", 4096).unwrap();
//!
//! // The server registers a port and an echo handler.
//! let port = k.port_allocate(server).unwrap();
//! k.register_server(server, port, ServerOptions::default(), move |_k, msg| {
//!     Ok(MsgOut { regs: msg.regs, body: msg.body.to_vec(), rights: vec![] })
//! }).unwrap();
//!
//! // The client gets a send right and binds a connection.
//! let send = k.extract_send_right(server, port, client).unwrap();
//! let conn = k.ipc_bind(client, send, BindOptions::default()).unwrap();
//! let reply = k.ipc_call(&conn, &[1, 2, 3], &[]).unwrap();
//! assert_eq!(reply.body, vec![1, 2, 3]);
//! ```

pub mod error;
pub mod ipc;
pub mod ports;
pub mod regs;
pub mod stats;
pub mod task;

pub use error::KernelError;
pub use ipc::Connection;
pub use ports::{NameMode, PortName};
pub use regs::TrustLevel;
pub use stats::KernelStats;
pub use task::{TaskId, UserAddr};

use flexrpc_clock::{FaultInjector, SimClock};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

use ipc::ServerEntry;
use ports::{PortId, PortTable};
use task::Task;

/// Result alias for kernel operations.
pub type Result<T> = core::result::Result<T, KernelError>;

/// The simulated kernel: task table, port space, server registry, statistics.
///
/// All methods take `&self`; internal state is guarded by fine-grained locks
/// so server handlers (which run holding their caller's [`Connection`] and no
/// kernel-wide lock) may re-enter the kernel, as real servers do.
pub struct Kernel {
    pub(crate) tasks: RwLock<Vec<Arc<Task>>>,
    pub(crate) ports: Mutex<PortTable>,
    pub(crate) servers: Mutex<HashMap<PortId, ServerEntry>>,
    stats: KernelStats,
    clock: Arc<SimClock>,
    faults: FaultInjector,
}

impl Kernel {
    /// Creates a fresh kernel with no tasks or ports.
    pub fn new() -> Arc<Kernel> {
        Self::with_clock(SimClock::new())
    }

    /// Creates a kernel sharing a [`SimClock`] with other substrates.
    ///
    /// The kernel itself charges no virtual time for IPC (its work is real
    /// CPU work) but induced [`flexrpc_clock::Fault::Delay`] faults advance
    /// this clock, and deadline checks on calls through this kernel measure
    /// against it.
    pub fn with_clock(clock: Arc<SimClock>) -> Arc<Kernel> {
        Arc::new(Kernel {
            tasks: RwLock::new(Vec::new()),
            ports: Mutex::new(PortTable::new()),
            servers: Mutex::new(HashMap::new()),
            stats: KernelStats::default(),
            clock,
            faults: FaultInjector::new(),
        })
    }

    /// Global event counters (copies, probes, messages).
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// The simulated clock deadlines on this kernel's IPC measure against.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.clock
    }

    /// The fault-injection plan consulted once per IPC call.
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    pub(crate) fn task(&self, id: TaskId) -> Result<Arc<Task>> {
        self.tasks.read().get(id.0).cloned().ok_or(KernelError::NoSuchTask(id))
    }

    /// `id` if it names a task, without taking a reference to the task.
    /// Tasks are never removed, so the answer does not go stale.
    pub(crate) fn existing_task(&self, id: TaskId) -> Result<TaskId> {
        if id.0 < self.tasks.read().len() {
            Ok(id)
        } else {
            Err(KernelError::NoSuchTask(id))
        }
    }
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel").field("tasks", &self.tasks.read().len()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_debug_is_printable() {
        let k = Kernel::new();
        k.create_task("t", 128).unwrap();
        let s = format!("{k:?}");
        assert!(s.contains("Kernel"));
    }
}
