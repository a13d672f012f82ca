//! `pipe_ipc_bulk` — Figure 6: 64 KiB transfers through `PipeIpcHarness`
//! (8 KiB pipe, 4 KiB I/O) over the simulated kernel's IPC, on a `Default`
//! and a `DeallocNever` pipe server in seeded, balanced order.
//!
//! Kernel IPC and bulk bytes: copy-bound, writes (`in`, borrowed) beside
//! reads (`out`, sink). A per-call-overhead win that costs a copy, or the
//! reverse, shows here and not in `null_loopback`.
//!
//! `PipeIpcHarness` owns its stubs, its payload (a fixed `0xA5` fill) and
//! its reply checks (`transfer` fails unless every byte written was read
//! back), so the seed decides the order of the two servers, the spans stop
//! at `transfer`, and the byte counts are verified from the kernel's and
//! the pipe server's public counters.

use super::Workload;
use crate::inputs::{Cursor, InputSpec, Inputs};
use crate::layers::{self, Ledger};
use crate::span::{spanned, Trace};
use flexrpc_core::program::CompiledInterface;
use flexrpc_marshal::WireFormat;
use flexrpc_pipes::ipc::PipeIpcHarness;
use flexrpc_pipes::server::{server_presentation, ReadPresentation};
use std::sync::atomic::Ordering;
use std::sync::Arc;

const PIPE_CAP: usize = 8 * 1024;
const IO_SIZE: usize = 4 * 1024;
const TRANSFER: usize = 64 * 1024;
/// FileIO RPCs in one transfer: a write and a read per I/O block.
const RPCS: u64 = 2 * (TRANSFER / IO_SIZE) as u64;
const MODES: [(ReadPresentation, &str); 2] = [
    (ReadPresentation::Default, "transfer.default"),
    (ReadPresentation::DeallocNever, "transfer.dealloc_never"),
];

pub struct PipeIpcBulk {
    harnesses: [PipeIpcHarness; 2],
    /// Transfers run on each harness, and RPCs they took.
    transfers: [u64; 2],
    rpcs: u64,
    inputs: Arc<Inputs>,
    cursor: Cursor,
    trace: Option<Trace>,
}

impl Workload for PipeIpcBulk {
    const NAME: &'static str = "pipe_ipc_bulk";
    const SPEC: InputSpec =
        InputSpec { size_lo: 1, size_hi: 1, size_repeats: 1, alternatives: 2, pick_repeats: 512 };
    const OPS_PER_UNIT: u64 = RPCS;
    const WARMUP_UNITS: u64 = 2_048;
    const COUNT_UNITS: u64 = 1_024 * 2;
    const TRACED_UNITS: u64 = 64;
    const SPANS_PER_UNIT: u64 = 1;

    fn build(inputs: &Arc<Inputs>, trace: Option<Trace>) -> PipeIpcBulk {
        PipeIpcBulk {
            harnesses: MODES.map(|(mode, _)| PipeIpcHarness::new(PIPE_CAP, mode)),
            transfers: [0; 2],
            rpcs: 0,
            inputs: Arc::clone(inputs),
            cursor: Cursor::new(inputs.picks.len()),
            trace,
        }
    }

    #[inline]
    fn unit(&mut self, _full: bool) -> u64 {
        let pick = usize::from(self.inputs.picks[self.cursor.advance()]);
        let harness = &mut self.harnesses[pick];
        let seq = self.transfers[0] + self.transfers[1];
        self.transfers[pick] += 1;
        match spanned(&self.trace, MODES[pick].1, seq, || harness.transfer(TRANSFER, IO_SIZE)) {
            // Every RPC beyond one write and one read per block was refused
            // by flow control and re-sent.
            Ok((writes, reads)) => {
                self.rpcs += writes + reads;
                (writes + reads).saturating_sub(RPCS)
            }
            Err(_) => RPCS,
        }
    }

    fn invariants(&self, units: u64) -> Vec<String> {
        let mut broken = Vec::new();
        if self.transfers[0] + self.transfers[1] != units {
            broken.push(format!("{:?} transfers for {units} units", self.transfers));
        }
        for (harness, (&transfers, (mode, _))) in
            self.harnesses.iter().zip(self.transfers.iter().zip(MODES))
        {
            let stats = harness.kernel().stats().snapshot();
            let moved = transfers * TRANSFER as u64;
            // Bytes written == bytes read: each crosses the kernel once on
            // the way in and once on the way out.
            let copied =
                stats.bytes_copied_in + stats.bytes_copied_out + stats.bytes_copied_user_to_user;
            if copied < 2 * moved {
                broken.push(format!("{mode:?}: kernel copied {copied} B for {moved} B each way"));
            }
            if stats.messages != transfers * RPCS {
                broken.push(format!(
                    "{mode:?}: {} kernel messages for {} RPCs",
                    stats.messages,
                    transfers * RPCS
                ));
            }
            // The copy `dealloc(never)` deletes: every byte read under the
            // default presentation, none under the annotated one.
            let rebuffered = harness.server_stats().intermediate_copy_bytes.load(Ordering::Relaxed);
            let expected = if mode == ReadPresentation::Default { moved } else { 0 };
            if rebuffered != expected {
                broken.push(format!("{mode:?}: {rebuffered} B re-buffered, expected {expected}"));
            }
        }
        broken
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut sums = [0u64; 5];
        for harness in &self.harnesses {
            let k = harness.kernel().stats().snapshot();
            sums[0] += k.bytes_copied_in + k.bytes_copied_out + k.bytes_copied_user_to_user;
            sums[1] += k.messages;
            sums[2] += k.name_table_probes;
            sums[3] += k.register_ops;
            sums[4] += harness.server_stats().intermediate_copy_bytes.load(Ordering::Relaxed);
        }
        vec![
            ("kernel.copied_bytes_per_op", sums[0]),
            ("kernel.messages_per_op", sums[1]),
            ("kernel.name_probes_per_op", sums[2]),
            ("kernel.register_ops_per_op", sums[3]),
            ("pipes.intermediate_copy_bytes_per_op", sums[4]),
        ]
    }

    fn gauges(&self, units: u64) -> Vec<(&'static str, f64)> {
        let refused = self.rpcs.saturating_sub(units * RPCS);
        vec![("pipes.wouldblock_frac", refused as f64 / self.rpcs.max(1) as f64)]
    }

    fn layers(_inputs: &Arc<Inputs>, ledger: &mut Ledger) {
        layers::kernel_layers(ledger);
        // The bulk variants of the interpreter metrics: 4 KiB `write` and
        // `read` through the Default pipe server's own programs.
        let (_, client) = super::fileio_default();
        let module = flexrpc_pipes::fileio_module();
        let iface = module.interface("FileIO").expect("FileIO exists");
        let server_pres = server_presentation(ReadPresentation::Default);
        let server = CompiledInterface::compile(&module, iface, &server_pres).expect("compiles");
        layers::runtime_bulk_layers(ledger, &client, &server, WireFormat::Cdr, IO_SIZE, PIPE_CAP);
    }

    fn span_layers(ledger: &mut Ledger) {
        let default = ledger.span_mean(MODES[0].1) / RPCS as f64;
        let never = ledger.span_mean(MODES[1].1) / RPCS as f64;
        ledger.set("pipes.default_ns_per_rpc", default);
        ledger.set("pipes.dealloc_never_ns_per_rpc", never);
        ledger.set("pipes.dealloc_never_speedup", if never > 0.0 { default / never } else { 0.0 });
    }
}
