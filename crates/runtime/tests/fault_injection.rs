//! Fault injection: the stub runtime against hostile and broken inputs.
//!
//! Server dispatch consumes messages written by another protection domain;
//! the client unmarshals replies from an untrusted transport. Neither may
//! ever panic — every failure must surface as a value.

use flexrpc_core::ir::fileio_example;
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::program::{CompiledInterface, CompiledOp};
use flexrpc_core::value::Value;
use flexrpc_marshal::WireFormat;
use flexrpc_runtime::transport::Transport;
use flexrpc_runtime::{CallControl, ClientStub, RpcError, ServerInterface};
use proptest::prelude::*;

fn compiled() -> CompiledInterface {
    let m = fileio_example();
    let iface = m.interface("FileIO").unwrap();
    let pres = InterfacePresentation::default_for(&m, iface).unwrap();
    CompiledInterface::compile(&m, iface, &pres).unwrap()
}

fn server(format: WireFormat) -> ServerInterface {
    let mut srv = ServerInterface::new(compiled(), format);
    srv.on("read", |call| {
        let n = call.u32("count").unwrap_or(0).min(1024) as usize;
        call.set("return", Value::Bytes(vec![1; n])).unwrap();
        0
    })
    .unwrap();
    srv.on("write", |_| 0).unwrap();
    srv
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary request bytes never panic the server; they produce a reply
    /// or an error.
    #[test]
    fn dispatch_survives_garbage_requests(
        data in prop::collection::vec(any::<u8>(), 0..256),
        op in 0usize..4,
        xdr in any::<bool>(),
    ) {
        let format = if xdr { WireFormat::Xdr } else { WireFormat::Cdr };
        let mut srv = server(format);
        let mut reply = Vec::new();
        let _ = srv.dispatch(op, &data, &[], &mut reply, &mut Vec::new());
    }

    /// Arbitrary reply bytes never panic the client stub.
    #[test]
    fn client_survives_garbage_replies(
        data in prop::collection::vec(any::<u8>(), 0..256),
        xdr in any::<bool>(),
    ) {
        struct Evil(Vec<u8>);
        impl Transport for Evil {
            fn call_with(
                &mut self,
                _op: &CompiledOp,
                _request: &[u8],
                _rights: &[u32],
                reply: &mut Vec<u8>,
                _rights_out: &mut Vec<u32>,
                _ctl: &CallControl,
            ) -> flexrpc_runtime::Result<usize> {
                reply.clear();
                reply.extend_from_slice(&self.0);
                Ok(0)
            }
        }
        let format = if xdr { WireFormat::Xdr } else { WireFormat::Cdr };
        let mut client = ClientStub::new(compiled(), format, Box::new(Evil(data)));
        let mut frame = client.new_frame("read").unwrap();
        frame[0] = Value::U32(16);
        let _ = client.call("read", &mut frame);
    }

    /// Truncating a valid reply at every byte boundary yields an error (or,
    /// for prefix-complete cuts, a valid decode) — never a panic, and never
    /// fabricated payload bytes.
    #[test]
    fn truncated_replies_detected(cut_at in 0usize..64) {
        // Produce one valid reply by dispatching a real request.
        let mut srv = server(WireFormat::Cdr);
        let request;
        {
            // Marshal a read(32) request via a working client.
            struct Capture(std::sync::Arc<parking_lot::Mutex<Vec<u8>>>);
            impl Transport for Capture {
                fn call_with(
                    &mut self,
                    _op: &CompiledOp,
                    request: &[u8],
                    _rights: &[u32],
                    _reply: &mut Vec<u8>,
                    _rights_out: &mut Vec<u32>,
                    _ctl: &CallControl,
                ) -> flexrpc_runtime::Result<usize> {
                    *self.0.lock() = request.to_vec();
                    Err(RpcError::Dropped)
                }
            }
            let captured = std::sync::Arc::new(parking_lot::Mutex::new(Vec::new()));
            let mut c = ClientStub::new(
                compiled(),
                WireFormat::Cdr,
                Box::new(Capture(std::sync::Arc::clone(&captured))),
            );
            let mut frame = c.new_frame("read").unwrap();
            frame[0] = Value::U32(32);
            let _ = c.call("read", &mut frame);
            request = captured.lock().clone();
        }
        let mut reply = Vec::new();
        srv.dispatch(0, &request, &[], &mut reply, &mut Vec::new()).unwrap();
        prop_assume!(cut_at < reply.len());

        struct Short(Vec<u8>);
        impl Transport for Short {
            fn call_with(
                &mut self,
                _op: &CompiledOp,
                _request: &[u8],
                _rights: &[u32],
                reply: &mut Vec<u8>,
                _rights_out: &mut Vec<u32>,
                _ctl: &CallControl,
            ) -> flexrpc_runtime::Result<usize> {
                reply.clear();
                reply.extend_from_slice(&self.0);
                Ok(0)
            }
        }
        let mut client =
            ClientStub::new(compiled(), WireFormat::Cdr, Box::new(Short(reply[..cut_at].to_vec())));
        let mut frame = client.new_frame("read").unwrap();
        frame[0] = Value::U32(32);
        let r = client.call("read", &mut frame);
        prop_assert!(r.is_err(), "a truncated reply cannot decode completely");
    }
}

/// A transport error mid-call leaves the stub reusable.
#[test]
fn client_recovers_after_transport_failure() {
    struct Flaky {
        fail_next: bool,
        srv: ServerInterface,
    }
    impl Transport for Flaky {
        fn call_with(
            &mut self,
            op: &CompiledOp,
            request: &[u8],
            rights: &[u32],
            reply: &mut Vec<u8>,
            rights_out: &mut Vec<u32>,
            _ctl: &CallControl,
        ) -> flexrpc_runtime::Result<usize> {
            if self.fail_next {
                self.fail_next = false;
                return Err(RpcError::Dropped);
            }
            self.srv.dispatch(op.index, request, rights, reply, rights_out)?;
            Ok(0)
        }
    }
    let mut client = ClientStub::new(
        compiled(),
        WireFormat::Cdr,
        Box::new(Flaky { fail_next: true, srv: server(WireFormat::Cdr) }),
    );
    let mut frame = client.new_frame("read").unwrap();
    frame[0] = Value::U32(8);
    assert!(client.call("read", &mut frame).is_err(), "first call fails");
    let mut frame = client.new_frame("read").unwrap();
    frame[0] = Value::U32(8);
    client.call("read", &mut frame).expect("stub recovered");
    assert_eq!(frame[1].as_bytes().unwrap(), &[1u8; 8][..]);
}

/// A handler that misuses the sink gets an error, not a corrupted message.
#[test]
fn sink_overflow_is_an_error() {
    let mut srv = ServerInterface::new(compiled(), WireFormat::Cdr);
    srv.on("read", |call| {
        // No sink params are declared under the default presentation.
        assert!(call.sink.put(b"unexpected").is_err());
        call.set("return", Value::Bytes(vec![])).unwrap();
        0
    })
    .unwrap();
    let mut w = flexrpc_runtime::wire::AnyWriter::new(WireFormat::Cdr);
    w.put_u32(1);
    let request = w.into_bytes();
    let mut reply = Vec::new();
    srv.dispatch(0, &request, &[], &mut reply, &mut Vec::new()).unwrap();
}
