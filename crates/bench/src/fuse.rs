//! Specialization experiment — what fusion + presize buy, measured at the
//! programs themselves.
//!
//! Two measurements back the "specialize the hot call path" claim, both
//! read off **one** compilation (a program has one form; there is no
//! unspecialized interface to compile beside it):
//!
//! 1. **Dispatches per call** for the Figure 6 pipe-read signature
//!    (`read(count: u32) -> sequence<octet>`): `ops.len()` against
//!    `dispatch_count()` across all four stub programs of one call. This
//!    is the static count the fusion pass promises — no timer involved —
//!    and it is what `report fuse` gates.
//! 2. **Executor vs threaded-oracle time** over those four programs
//!    ([`ProgramRunner`]): request marshal → request unmarshal → reply
//!    marshal → reply unmarshal of one `read`, buffers and frames kept,
//!    through `interp::{marshal, unmarshal}` on one side and
//!    `interp::{marshal_threaded, unmarshal_threaded}` on the other.
//!    `report ablate` takes the ratio from paired rounds. No transport, no
//!    handler, no stub glue: the two sides differ only in how the same
//!    programs are run, so the ratio is the programs' difference and not
//!    that difference diluted by a call around it.

use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::program::{CompiledInterface, CompiledOp, StubProgram};
use flexrpc_core::value::Value;
use flexrpc_marshal::WireFormat;
use flexrpc_pipes::fileio_module;
use flexrpc_runtime::interp;
use flexrpc_runtime::wire::{AnyReader, AnyWriter};
use flexrpc_runtime::HookMap;

/// Reply payload bytes per `read` call (small, so dispatch overhead — the
/// thing fusion removes — is a visible fraction of the call).
pub(crate) const READ_SIZE: usize = 64;

/// Compiles the FileIO interface under its default presentation.
pub fn compile() -> CompiledInterface {
    let m = fileio_module();
    let iface = m.interface("FileIO").expect("FileIO exists");
    let pres = InterfacePresentation::default_for(&m, iface).expect("defaults");
    CompiledInterface::compile(&m, iface, &pres).expect("compiles")
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

/// Which entry points run the programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// `interp::{marshal, unmarshal}`: the executor every call path runs.
    Executor,
    /// `interp::{marshal_threaded, unmarshal_threaded}`: the oracle.
    Oracle,
}

/// The four compiled `read` programs, run back to back over kept buffers
/// and frames: what one call's marshalling costs, and nothing else.
pub struct ProgramRunner {
    op: CompiledOp,
    wire: Wire,
    /// The client's frame: `count` in, the payload and status out.
    client: Vec<Value>,
    /// The server's frame, holding the [`READ_SIZE`]-byte result a work
    /// function would have set.
    server: Vec<Value>,
    request: Vec<u8>,
    reply: Vec<u8>,
}

/// How a runner runs a program: entry points, transfer syntax, and the
/// hooks `read` never consults (it has no `[special]` parameter).
struct Wire {
    via: Via,
    format: WireFormat,
    hooks: HookMap,
}

impl ProgramRunner {
    /// A runner for `read` on `format` through `via`'s entry points.
    pub fn new(via: Via, format: WireFormat) -> ProgramRunner {
        let op = compile().op("read").expect("read").clone();
        let client = op.slots.new_frame();
        let mut server = op.slots.new_frame();
        let result = op.slots.slot("return").expect("read returns its payload");
        server[result.0] = Value::Bytes(vec![0xA5; READ_SIZE]);
        let wire = Wire { via, format, hooks: HookMap::new() };
        ProgramRunner { op, wire, client, server, request: Vec::new(), reply: Vec::new() }
    }

    /// One call's worth of marshalling: all four programs, in call order.
    pub fn call(&mut self) {
        let ProgramRunner { op, wire, client, server, request, reply } = self;
        client[0] = Value::U32(READ_SIZE as u32);
        wire.put(&op.request_marshal, client, request);
        wire.get(&op.request_unmarshal, server, request);
        wire.put(&op.reply_marshal, server, reply);
        wire.get(&op.reply_unmarshal, client, reply);
    }

    /// The request and reply messages the last [`ProgramRunner::call`] built.
    pub fn messages(&self) -> (&[u8], &[u8]) {
        (&self.request, &self.reply)
    }
}

impl Wire {
    /// Marshals `frame` through `program` into the kept buffer `into`.
    fn put(&self, program: &StubProgram, frame: &[Value], into: &mut Vec<u8>) {
        let mut buf = std::mem::take(into);
        buf.clear();
        let mut w = AnyWriter::over(self.format, buf);
        let run = match self.via {
            Via::Executor => interp::marshal,
            Via::Oracle => interp::marshal_threaded,
        };
        run(program, frame, &[], &mut w, &self.hooks, &mut Vec::new()).expect("marshals");
        *into = w.into_bytes();
    }

    /// Unmarshals `msg` through `program` into the kept frame.
    fn get(&self, program: &StubProgram, frame: &mut [Value], msg: &[u8]) {
        let mut r = AnyReader::new(self.format, msg).expect("message opens");
        let rights = &mut std::iter::empty();
        match self.via {
            Via::Executor => interp::unmarshal(program, frame, msg, &mut r, &self.hooks, rights),
            Via::Oracle => {
                interp::unmarshal_threaded(program, frame, msg, &mut r, &self.hooks, rights)
            }
        }
        .expect("unmarshals");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_read_fuses_at_least_thirty_percent() {
        let compiled = compile();
        let (ops, dispatches) = dispatches_per_call(compiled.op("read").expect("read"));
        assert!(ops > 0 && dispatches < ops);
        let reduction = (ops - dispatches) as f64 / ops as f64;
        assert!(reduction >= 0.30, "read fuses {ops} ops to {dispatches} dispatches");
    }

    #[test]
    fn both_entry_points_round_trip_the_same_bytes_on_both_formats() {
        for format in [WireFormat::Xdr, WireFormat::Cdr] {
            let mut sides = [Via::Executor, Via::Oracle].map(|via| ProgramRunner::new(via, format));
            for side in &mut sides {
                // Twice: the second call runs over dirty kept buffers.
                side.call();
                side.call();
                let frame = &side.client;
                assert_eq!(frame[0], Value::U32(READ_SIZE as u32), "{format:?}");
                assert_eq!(frame[1], Value::Bytes(vec![0xA5; READ_SIZE]), "{format:?}");
                assert_eq!(frame[2], Value::U32(0), "{format:?}: status");
            }
            let [executor, oracle] = &sides;
            assert_eq!(executor.messages(), oracle.messages(), "{format:?}");
            let (request, reply) = executor.messages();
            assert!(!request.is_empty() && reply.len() > READ_SIZE, "{format:?}");
        }
    }
}
