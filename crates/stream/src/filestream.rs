//! A streaming remote file service: `[stream(window)]` writes into a
//! remote file, with at-most-once delivery.
//!
//! Two claims, checked exactly:
//!
//! * **The credit stall is a closed-form number.** Over a loopback
//!   transport nothing but the credit window charges sim time, so a
//!   fault-free stream of `n` frames against a window of `w` with a
//!   receiver draining one frame per `drain_ns` stalls for exactly
//!   `(n - w) * drain_ns` (when `n > w`), and the whole stream occupies
//!   exactly `n * drain_ns` of sim time once drained. `report stream
//!   --check` gates on this equality.
//! * **Writes are at-most-once.** With the binding tagged and the server
//!   behind a reply cache, a connection that dies after the server wrote
//!   (induced [`Fault::Close`]) is retried without re-executing: the file
//!   contents come out byte-identical to the sent stream — no lost frame,
//!   no duplicated frame — and the handler ran exactly once per frame.

use crate::StreamSender;
use flexrpc_clock::{Fault, SimClock};
use flexrpc_core::annot::apply_pdl;
use flexrpc_core::ir::Module;
use flexrpc_core::present::{CallShape, InterfacePresentation};
use flexrpc_core::program::CompiledInterface;
use flexrpc_core::value::Value;
use flexrpc_marshal::WireFormat;
use flexrpc_runtime::replycache::ReplyCache;
use flexrpc_runtime::transport::Loopback;
use flexrpc_runtime::{CallOptions, ClientStub, RetryPolicy, ServerInterface};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One run of the streaming writer.
#[derive(Debug, Clone, PartialEq)]
pub struct FileStreamRun {
    /// Frames streamed.
    pub frames: usize,
    /// The negotiated window.
    pub window: u32,
    /// `Close` faults injected (reply lost after the write landed).
    pub faults: usize,
    /// Handler executions (must equal `frames`).
    pub executions: u64,
    /// Sends that found the window exhausted.
    pub credit_stalls: u64,
    /// Total credit-stall sim time.
    pub credits_waited_ns: u64,
    /// The closed-form stall prediction `(frames - window) * drain_ns`
    /// (0 when the stream fits in the window). Only exact in the
    /// fault-free run — retries spend backoff time on the same clock.
    pub predicted_stall_ns: u64,
    /// Sim time of the whole run, stream drained.
    pub sim_ns: u64,
    /// Whether the remote file came out byte-identical to the sent stream.
    pub contents_ok: bool,
}

fn file_interface(window: u32) -> (Module, InterfacePresentation) {
    let src = format!(
        r#"
        interface RemoteFile {{
            [stream({window})] void write(in unsigned long seq, in string data);
        }};
        "#
    );
    let (module, pdl) =
        flexrpc_idl::corba::parse_annotated("remote_file", &src).expect("file IDL parses");
    let iface = module.interface("RemoteFile").expect("declared");
    let base = InterfacePresentation::default_for(&module, iface).expect("defaults");
    let pres = apply_pdl(&module, iface, &base, &pdl).expect("annotations apply");
    (module, pres)
}

fn compiled_for(window: u32) -> CompiledInterface {
    let (module, pres) = file_interface(window);
    let iface = module.interface("RemoteFile").expect("declared");
    CompiledInterface::compile(&module, iface, &pres).expect("compiles")
}

/// Streams `frames` writes. `close_every > 0` loses every n-th reply
/// after the server executed (the at-most-once path); `0` is the
/// fault-free run whose stall time must hit the closed-form prediction.
///
/// The client declares a window twice the server's, so the negotiated
/// minimum — the server's — is what actually pacing the stream proves
/// negotiation happened.
pub fn run(
    frames: usize,
    server_window: u32,
    drain_ns: u64,
    close_every: usize,
    format: WireFormat,
) -> FileStreamRun {
    let clock = SimClock::new();
    let executions = Arc::new(AtomicU64::new(0));
    let file: Arc<Mutex<String>> = Arc::new(Mutex::new(String::new()));

    let mut srv = ServerInterface::new(compiled_for(server_window), format);
    if close_every > 0 {
        srv.set_reply_cache(ReplyCache::new(Arc::clone(&clock), Duration::from_secs(60)));
    }
    {
        let (ex, file) = (Arc::clone(&executions), Arc::clone(&file));
        srv.on("write", move |call| {
            ex.fetch_add(1, Ordering::SeqCst);
            file.lock().push_str(call.str("data").expect("data"));
            0
        })
        .expect("write handler registers");
    }
    let transport = Loopback::with_clock(Arc::new(Mutex::new(srv)), Arc::clone(&clock));
    let faults = Arc::clone(transport.faults());

    let client_window = server_window * 2;
    let mut stub = ClientStub::new(compiled_for(client_window), format, Box::new(transport));
    let options = if close_every > 0 {
        stub.enable_at_most_once();
        CallOptions::default().retry(RetryPolicy::new(4).backoff(Duration::from_micros(50)).seed(3))
    } else {
        CallOptions::default()
    };
    let mut sender = StreamSender::negotiate(
        stub,
        "write",
        CallShape::Stream { window: server_window },
        drain_ns,
    )
    .expect("windows negotiate")
    .with_options(options);

    let mut sent = String::new();
    let mut injected = 0usize;
    for seq in 0..frames {
        if close_every > 0 && seq % close_every == close_every - 1 {
            faults.on_next_call(Fault::Close);
            injected += 1;
        }
        let data = format!("[frame {seq}]");
        sent.push_str(&data);
        let mut frame = sender.new_frame().expect("frame");
        frame[0] = Value::U32(seq as u32);
        frame[1] = Value::Str(data);
        sender.send(&mut frame).expect("write survives reply loss");
    }
    sender.drain();

    let window = sender.window();
    let contents_ok = *file.lock() == sent;
    FileStreamRun {
        frames,
        window,
        faults: injected,
        executions: executions.load(Ordering::SeqCst),
        credit_stalls: sender.credit().stalls(),
        credits_waited_ns: sender.credit().waited_ns(),
        predicted_stall_ns: (frames as u64).saturating_sub(window as u64) * drain_ns,
        sim_ns: clock.now_ns(),
        contents_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_stall_matches_the_closed_form() {
        for (frames, window, drain) in [(40, 8u32, 250_000u64), (6, 8, 250_000), (100, 1, 1_000)] {
            let r = run(frames, window, drain, 0, WireFormat::Xdr);
            assert_eq!(r.credits_waited_ns, r.predicted_stall_ns, "{r:?}");
            assert_eq!(r.sim_ns, frames as u64 * drain, "drained stream occupies n*drain: {r:?}");
            assert!(r.contents_ok, "{r:?}");
            assert_eq!(r.executions, frames as u64);
            let expected_stalls = (frames as u64).saturating_sub(window as u64);
            assert_eq!(r.credit_stalls, expected_stalls, "{r:?}");
        }
    }

    #[test]
    fn reply_loss_never_loses_or_duplicates_a_write() {
        for format in [WireFormat::Xdr, WireFormat::Cdr] {
            let r = run(30, 4, 100_000, 3, format);
            assert!(r.faults > 0);
            assert!(r.contents_ok, "file is byte-identical to the stream: {r:?}");
            assert_eq!(r.executions, r.frames as u64, "one write per frame: {r:?}");
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(30, 4, 100_000, 3, WireFormat::Cdr);
        let b = run(30, 4, 100_000, 3, WireFormat::Cdr);
        assert_eq!(a, b);
    }

    #[test]
    fn oneway_against_stream_refuses_to_negotiate() {
        let stub = {
            let srv = ServerInterface::new(compiled_for(4), WireFormat::Xdr);
            let t = Loopback::new(Arc::new(Mutex::new(srv)));
            ClientStub::new(compiled_for(4), WireFormat::Xdr, Box::new(t))
        };
        let err = StreamSender::negotiate(stub, "write", CallShape::Oneway, 1_000)
            .expect_err("stream vs oneway is a mismatch");
        assert_eq!(err.kind(), flexrpc_runtime::ErrorKind::ContractViolation, "{err}");
    }
}
