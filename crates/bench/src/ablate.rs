//! Ablations: the design knobs DESIGN.md calls out, measured.
//!
//! * The pipe read/write path, presentation by presentation: default →
//!   `dealloc(never)` (Figure 6) → plus the wrap-around optimization the
//!   paper skipped → plus the §4.2.1 write-path enhancement (kernel direct
//!   receive).
//! * The trust result (Figure 12) swept over payload size, and the
//!   transport ladder — what the flexible presentation saves on the
//!   negotiated same-domain path, over kernel IPC and over Sun RPC — the
//!   paper's closing observation that presentation matters most when
//!   everything else is fast — and the same-domain call against the
//!   marshalled one it short-circuits.
//! * What specialization buys ([`crate::fuse::ProgramRunner`]): the four
//!   `read` programs through the executor against the threaded oracle.

use crate::fig10;
use flexrpc_kernel::ipc::{BindOptions, MsgOut, ServerOptions};
use flexrpc_kernel::regs::MSG_REGS;
use flexrpc_kernel::{Connection, Kernel, TrustLevel};
use flexrpc_pipes::ipc::PipeIpcHarness;
use flexrpc_pipes::server::ReadPresentation;
use std::sync::Arc;

/// The pipe-path ablation ladder, in cumulative order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipeStep {
    /// Default presentation everywhere (the Figure 6 baseline).
    Baseline,
    /// `[dealloc(never)]` read replies (the Figure 6 optimization).
    DeallocNever,
    /// Plus the wrap-around gather the paper left unimplemented.
    WrapOptimized,
    /// Plus the §4.2.1 write-path enhancement (direct receive).
    DirectWrite,
}

impl PipeStep {
    /// All steps in ladder order.
    pub const ALL: [PipeStep; 4] = [
        PipeStep::Baseline,
        PipeStep::DeallocNever,
        PipeStep::WrapOptimized,
        PipeStep::DirectWrite,
    ];

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            PipeStep::Baseline => "baseline",
            PipeStep::DeallocNever => "+dealloc(never)",
            PipeStep::WrapOptimized => "+wrap-gather",
            PipeStep::DirectWrite => "+direct-write",
        }
    }

    /// Builds the harness for this step.
    pub fn harness(self, pipe_cap: usize) -> PipeIpcHarness {
        match self {
            PipeStep::Baseline => {
                PipeIpcHarness::with_options(pipe_cap, ReadPresentation::Default, false)
            }
            PipeStep::DeallocNever => {
                PipeIpcHarness::with_options(pipe_cap, ReadPresentation::DeallocNever, false)
            }
            PipeStep::WrapOptimized => PipeIpcHarness::with_options(
                pipe_cap,
                ReadPresentation::DeallocNeverWrapOptimized,
                false,
            ),
            PipeStep::DirectWrite => PipeIpcHarness::with_options(
                pipe_cap,
                ReadPresentation::DeallocNeverWrapOptimized,
                true,
            ),
        }
    }
}

/// A null-vs-payload RPC cell for the size sweeps: echoes `size` bytes over
/// the kernel path under a trust pair.
pub struct SweepCell {
    kernel: Arc<Kernel>,
    conn: Connection,
    payload: Vec<u8>,
    reply: Vec<u8>,
}

impl SweepCell {
    /// Builds the cell.
    pub fn new(client_trust: TrustLevel, server_trust: TrustLevel, size: usize) -> SweepCell {
        let kernel = Kernel::new();
        let client = kernel.create_task("client", 4096).expect("task");
        let server = kernel.create_task("server", 4096).expect("task");
        let port = kernel.port_allocate(server).expect("port");
        kernel
            .register_server(
                server,
                port,
                ServerOptions { trust_of_client: server_trust, ..Default::default() },
                |_k, m| Ok(MsgOut { regs: m.regs, body: m.body.to_vec(), rights: vec![] }),
            )
            .expect("register");
        let send = kernel.extract_send_right(server, port, client).expect("right");
        let conn = kernel
            .ipc_bind(
                client,
                send,
                BindOptions { trust_of_server: client_trust, ..Default::default() },
            )
            .expect("bind");
        SweepCell { kernel, conn, payload: vec![0xEE; size], reply: Vec::new() }
    }

    /// One echo RPC.
    pub fn call(&mut self) {
        self.kernel
            .ipc_call_into(&self.conn, [0; MSG_REGS], &self.payload, &[], &mut self.reply)
            .expect("call");
    }
}

/// Figure 10's group where the client's buffer is trashable and the server
/// modifies it.
const TRASHABLE: fig10::Group = fig10::Group { client_needs_buffer: false, server_modifies: true };

/// Builds the Figure 10 fixed-copy-vs-flexible pair at a given size, in
/// the trashable group: the same-domain rung of the transport ladder.
pub fn fig10_pair(size: usize) -> (fig10::Runner, fig10::Runner) {
    (
        fig10::Runner::new(fig10::System::FixedCopy, TRASHABLE, size),
        fig10::Runner::new(fig10::System::Flexible, TRASHABLE, size),
    )
}

/// The comparison §4.4 drew: the same registered `write` (flexible
/// presentations, the trashable group) marshalled over `Loopback`, then
/// called direct through the same-domain binding.
pub fn direct_pair(size: usize) -> [fig10::Runner; 2] {
    [
        fig10::Runner::marshalled(fig10::System::Flexible, TRASHABLE, size),
        fig10::Runner::new(fig10::System::Flexible, TRASHABLE, size),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_all_run() {
        for step in PipeStep::ALL {
            let mut h = step.harness(4096);
            h.transfer(32 * 1024, 2048).expect("transfer");
        }
    }

    #[test]
    fn direct_write_removes_the_kernel_receive_copy() {
        let total = 32 * 1024;
        let mut base = PipeStep::WrapOptimized.harness(4096);
        let before = base.kernel().stats().snapshot();
        base.transfer(total, 2048).expect("transfer");
        let base_copies = base.kernel().stats().snapshot().since(&before).bytes_copied_user_to_user;

        let mut direct = PipeStep::DirectWrite.harness(4096);
        let before = direct.kernel().stats().snapshot();
        direct.transfer(total, 2048).expect("transfer");
        let direct_copies =
            direct.kernel().stats().snapshot().since(&before).bytes_copied_user_to_user;

        assert!(
            direct_copies + total as u64 <= base_copies,
            "direct receive must save at least the write-payload volume: {direct_copies} vs {base_copies}"
        );
    }

    #[test]
    fn sweep_cells_echo() {
        let mut c = SweepCell::new(TrustLevel::None, TrustLevel::None, 256);
        c.call();
        assert_eq!(c.reply, vec![0xEE; 256]);
    }

    #[test]
    fn fig10_pair_builds() {
        let (mut a, mut b) = fig10_pair(512);
        a.call();
        b.call();
        for mut r in direct_pair(512) {
            r.call();
        }
    }
}
