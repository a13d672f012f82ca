//! Specialization experiment — op fusion + presize, A/B'd on the hot path.
//!
//! Two measurements back the "specialize the hot call path" claim:
//!
//! 1. **Dispatches per call** for the Figure 6 pipe-read signature
//!    (`read(count: u32) -> sequence<octet>`): interpreter dispatches
//!    across all four stub programs of one call, fused vs unfused. This is
//!    the static count the fusion pass promises — no timer involved — and
//!    it is what `report fuse` gates.
//! 2. **Fused vs threaded call time** through real stubs ([`FuseRunner`])
//!    on the loopback transport and on the kernel-IPC transport. Both
//!    sides of each A/B run identical handlers; only `SpecializeOptions`
//!    differs. `report ablate` takes the ratio from paired rounds.

use flexrpc_core::fuse::SpecializeOptions;
use flexrpc_core::present::{InterfacePresentation, Trust};
use flexrpc_core::program::{CompiledInterface, CompiledOp};
use flexrpc_core::value::Value;
use flexrpc_kernel::{Kernel, NameMode};
use flexrpc_marshal::WireFormat;
use flexrpc_pipes::fileio_module;
use flexrpc_runtime::transport::{connect_kernel, serve_on_kernel, Loopback};
use flexrpc_runtime::{ClientStub, ServerInterface};
use parking_lot::Mutex;
use std::sync::Arc;

/// Reply payload bytes per `read` call (small, so dispatch overhead — the
/// thing fusion removes — is a visible fraction of the call).
pub const READ_SIZE: usize = 64;

/// Compiles the FileIO interface with the given specialization.
pub fn compile(opts: SpecializeOptions) -> CompiledInterface {
    let m = fileio_module();
    let iface = m.interface("FileIO").expect("FileIO exists");
    let pres = InterfacePresentation::default_for(&m, iface).expect("defaults");
    CompiledInterface::compile_with(&m, iface, &pres, opts).expect("compiles")
}

/// (threaded ops, interpreter dispatches) summed over all four programs of
/// one compiled op — the per-call dispatch budget.
pub fn dispatches_per_call(op: &CompiledOp) -> (usize, usize) {
    let programs =
        [&op.request_marshal, &op.request_unmarshal, &op.reply_marshal, &op.reply_unmarshal];
    let ops = programs.iter().map(|p| p.ops.len()).sum();
    let dispatches = programs.iter().map(|p| p.dispatch_count()).sum();
    (ops, dispatches)
}

fn fileio_server(opts: SpecializeOptions, format: WireFormat) -> Arc<Mutex<ServerInterface>> {
    let compiled = Arc::new(compile(opts));
    let mut server = ServerInterface::new_shared(compiled, format);
    server
        .on("read", |call| {
            let count = call.u32("count").expect("count arg") as usize;
            call.set("return", Value::Bytes(vec![0u8; count])).expect("set");
            0
        })
        .expect("read registers");
    Arc::new(Mutex::new(server))
}

/// A ready-to-call `read` stub over one of the two measured transports.
pub struct FuseRunner {
    stub: ClientStub,
    frame: Vec<Value>,
}

impl FuseRunner {
    /// Stub and server in one address space over the [`Loopback`]
    /// transport: marshalled bytes handed across a function call. (Not the
    /// paper's same-domain path — that is `runtime::SameDomain`, which
    /// skips marshalling altogether; Figures 10 and 11 measure it.)
    pub fn loopback(opts: SpecializeOptions, format: WireFormat) -> FuseRunner {
        let server = fileio_server(opts, format);
        let stub = ClientStub::new(compile(opts), format, Box::new(Loopback::new(server)));
        FuseRunner::finish(stub)
    }

    /// Kernel IPC: client and server tasks on the simulated kernel, the
    /// message crossing the streamlined IPC path.
    pub fn kernel_ipc(opts: SpecializeOptions, format: WireFormat) -> FuseRunner {
        let kernel = Kernel::new();
        let client_task = kernel.create_task("client", 1 << 16).expect("task");
        let server_task = kernel.create_task("server", 1 << 16).expect("task");
        let server = fileio_server(opts, format);
        let port = serve_on_kernel(&kernel, server_task, server, Trust::None, NameMode::Unique)
            .expect("serve");
        let send = kernel.extract_send_right(server_task, port, client_task).expect("right");
        let compiled = compile(opts);
        let signature = compiled.signature.hash();
        let transport =
            connect_kernel(&kernel, client_task, send, signature, Trust::None, NameMode::Unique)
                .expect("connect");
        let stub = ClientStub::new(compiled, format, Box::new(transport));
        FuseRunner::finish(stub)
    }

    fn finish(stub: ClientStub) -> FuseRunner {
        let mut frame = stub.new_frame("read").expect("frame");
        frame[0] = Value::U32(READ_SIZE as u32);
        FuseRunner { stub, frame }
    }

    /// One synchronous `read` RPC.
    pub fn call(&mut self) {
        self.frame[0] = Value::U32(READ_SIZE as u32);
        self.stub.call("read", &mut self.frame).expect("call succeeds");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_read_fuses_at_least_thirty_percent() {
        let fused = compile(SpecializeOptions::default());
        let (ops, dispatches) = dispatches_per_call(fused.op("read").expect("read"));
        assert!(ops > 0 && dispatches < ops);
        let reduction = (ops - dispatches) as f64 / ops as f64;
        assert!(reduction >= 0.30, "read fuses {ops} ops to {dispatches} dispatches");
    }

    #[test]
    fn unfused_compile_keeps_one_dispatch_per_op() {
        let plain = compile(SpecializeOptions::none());
        let (ops, dispatches) = dispatches_per_call(plain.op("read").expect("read"));
        assert_eq!(ops, dispatches);
    }

    #[test]
    fn both_transports_run_fused_and_unfused() {
        for opts in [SpecializeOptions::default(), SpecializeOptions::none()] {
            for format in [WireFormat::Xdr, WireFormat::Cdr] {
                FuseRunner::loopback(opts, format).call();
                FuseRunner::kernel_ipc(opts, format).call();
            }
        }
    }
}
