//! The pipe server as a `FileIO` RPC server.
//!
//! One server object per pipe. The reply presentation of `read` is chosen
//! by an actual PDL file (the paper's Figure 5): with the default CORBA
//! move semantics the work function copies out of the circular buffer into
//! a fresh buffer which the stub marshals and frees; with `[dealloc(never)]`
//! the work function marshals straight out of the circular buffer through
//! the reply sink and keeps ownership.
//!
//! The unoptimized wrap-around case the paper kept ("this case as well
//! could be optimized ... but we did not implement this") is reproduced
//! faithfully, with the optimization available behind
//! [`ReadPresentation::DeallocNeverWrapOptimized`] as an ablation.

use crate::circ::CircBuf;
use crate::{fileio_module, DEALLOC_NEVER_PDL, SERVER_WRITE_PDL, WOULDBLOCK};
use flexrpc_core::annot::apply_pdl;
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::program::CompiledInterface;
use flexrpc_core::value::Value;
use flexrpc_marshal::WireFormat;
use flexrpc_runtime::ServerInterface;
use parking_lot::Mutex;
use std::sync::Arc;

/// How the pipe server presents the `read` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadPresentation {
    /// Default CORBA move semantics: copy out of the pipe buffer, donate.
    Default,
    /// `[dealloc(never)]`: marshal directly from the pipe buffer; the
    /// wrap-around case falls back to an assembly copy (as in the paper).
    DeallocNever,
    /// `[dealloc(never)]` plus the paper's unimplemented wrap optimization:
    /// gather both ring slices into the reply without assembly.
    DeallocNeverWrapOptimized,
}

impl ReadPresentation {
    /// Short label for reports and bench ids.
    pub fn label(self) -> &'static str {
        match self {
            ReadPresentation::Default => "default",
            ReadPresentation::DeallocNever => "dealloc-never",
            ReadPresentation::DeallocNeverWrapOptimized => "dealloc-never+wrapopt",
        }
    }
}

/// Counters a pipe server keeps about its own work-function behaviour.
#[derive(Debug, Default)]
pub struct PipeServerStats {
    /// Bytes the work function copied into intermediate buffers (the copy
    /// `dealloc(never)` deletes).
    pub intermediate_copy_bytes: std::sync::atomic::AtomicU64,
    /// Reads that hit the unoptimized wrap-around fallback.
    pub wrap_fallbacks: std::sync::atomic::AtomicU64,
}

/// Builds the server-side presentation for a given read mode.
pub fn server_presentation(mode: ReadPresentation) -> InterfacePresentation {
    let m = fileio_module();
    let iface = m.interface("FileIO").expect("FileIO exists");
    let base = InterfacePresentation::default_for(&m, iface).expect("defaults");
    // All variants: the C mapping passes `write`'s data by reference.
    let write_pdl = flexrpc_idl::pdl::parse(SERVER_WRITE_PDL).expect("write PDL parses");
    let mut pres = apply_pdl(&m, iface, &base, &write_pdl).expect("write PDL applies");
    if mode != ReadPresentation::Default {
        let pdl = flexrpc_idl::pdl::parse(DEALLOC_NEVER_PDL).expect("figure 5 PDL parses");
        pres = apply_pdl(&m, iface, &pres, &pdl).expect("figure 5 PDL applies");
    }
    pres
}

/// Creates a pipe server over a `cap`-byte pipe buffer, with its stats.
pub fn build_pipe_server(
    cap: usize,
    mode: ReadPresentation,
    format: WireFormat,
) -> (Arc<Mutex<ServerInterface>>, Arc<PipeServerStats>) {
    let m = fileio_module();
    let iface = m.interface("FileIO").expect("FileIO exists");
    let pres = server_presentation(mode);
    let compiled = CompiledInterface::compile(&m, iface, &pres).expect("compiles");
    let mut srv = ServerInterface::new(compiled, format);

    let pipe = Arc::new(Mutex::new(CircBuf::new(cap)));
    let stats = Arc::new(PipeServerStats::default());
    register_pipe_handlers(&mut srv, &pipe, &stats, mode);
    (Arc::new(Mutex::new(srv)), stats)
}

/// Registers the pipe work functions on `srv`, backed by a shared ring and
/// shared counters.
///
/// Separated from compilation so a serving engine can build many dispatch
/// replicas over one shared compilation: every replica's handlers capture
/// the same `Arc`'d ring, so concurrent dispatches serialize only on the
/// ring mutex, exactly like concurrent writers on a Unix pipe.
pub fn register_pipe_handlers(
    srv: &mut ServerInterface,
    pipe: &Arc<Mutex<CircBuf>>,
    stats: &Arc<PipeServerStats>,
    mode: ReadPresentation,
) {
    use std::sync::atomic::Ordering;

    let p = Arc::clone(pipe);
    srv.on("write", move |call| {
        let data = call.bytes("data").expect("data arg");
        let mut pipe = p.lock();
        if pipe.space() < data.len() {
            // Unix pipe semantics for writes ≤ capacity: all-or-nothing.
            return WOULDBLOCK;
        }
        pipe.write(data);
        0
    })
    .expect("write registers");

    let p = Arc::clone(pipe);
    let st = Arc::clone(stats);
    srv.on("read", move |call| {
        let count = call.u32("count").expect("count arg") as usize;
        let mut pipe = p.lock();
        if pipe.is_empty() {
            if mode == ReadPresentation::Default {
                call.set("return", Value::Bytes(Vec::new())).expect("set");
            } else {
                call.sink.put(&[]).expect("sink");
            }
            return WOULDBLOCK;
        }
        match mode {
            ReadPresentation::Default => {
                // Move semantics: the extra copy + allocation.
                let data = pipe.read_move(count);
                st.intermediate_copy_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
                call.set("return", Value::Bytes(data)).expect("set");
            }
            ReadPresentation::DeallocNever => {
                let (a, b) = pipe.peek_front(count);
                if b.is_empty() {
                    // Contiguous: marshal straight from the ring.
                    call.sink.put(a).expect("sink");
                    let n = a.len();
                    pipe.consume(n);
                } else {
                    // Wrap-around fallback: assemble (the paper's
                    // unimplemented case costs one copy).
                    st.wrap_fallbacks.fetch_add(1, Ordering::Relaxed);
                    let n = a.len() + b.len();
                    st.intermediate_copy_bytes.fetch_add(n as u64, Ordering::Relaxed);
                    let mut tmp = Vec::with_capacity(n);
                    tmp.extend_from_slice(a);
                    tmp.extend_from_slice(b);
                    call.sink.put(&tmp).expect("sink");
                    pipe.consume(n);
                }
            }
            ReadPresentation::DeallocNeverWrapOptimized => {
                let (a, b) = pipe.peek_front(count);
                let n = a.len() + b.len();
                call.sink
                    .put_gather(n, |emit| {
                        emit(a);
                        emit(b);
                    })
                    .expect("sink gather");
                pipe.consume(n);
            }
        }
        0
    })
    .expect("read registers");
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrpc_runtime::transport::Loopback;
    use flexrpc_runtime::ClientStub;

    fn client_for(server: Arc<Mutex<ServerInterface>>) -> ClientStub {
        let m = fileio_module();
        let iface = m.interface("FileIO").unwrap();
        let pres = InterfacePresentation::default_for(&m, iface).unwrap();
        let compiled = CompiledInterface::compile(&m, iface, &pres).unwrap();
        ClientStub::new(compiled, WireFormat::Cdr, Box::new(Loopback::new(server)))
    }

    fn write(client: &mut ClientStub, data: &[u8]) -> u32 {
        let mut frame = client.new_frame("write").unwrap();
        frame[0] = Value::Bytes(data.to_vec());
        match client.call("write", &mut frame) {
            Ok(s) => s,
            Err(flexrpc_runtime::RpcError::Remote(s)) => s,
            Err(e) => panic!("unexpected failure: {e}"),
        }
    }

    fn read(client: &mut ClientStub, count: u32) -> (u32, Vec<u8>) {
        let mut frame = client.new_frame("read").unwrap();
        frame[0] = Value::U32(count);
        let status = match client.call("read", &mut frame) {
            Ok(s) => s,
            Err(flexrpc_runtime::RpcError::Remote(s)) => s,
            Err(e) => panic!("unexpected failure: {e}"),
        };
        let data = match std::mem::take(&mut frame[1]) {
            Value::Bytes(b) => b,
            other => panic!("bad return slot {other:?}"),
        };
        (status, data)
    }

    fn pipe_roundtrip(mode: ReadPresentation) {
        let (server, _stats) = build_pipe_server(16, mode, WireFormat::Cdr);
        let mut client = client_for(server);
        assert_eq!(write(&mut client, b"hello "), 0);
        assert_eq!(write(&mut client, b"pipes"), 0);
        let (s, d) = read(&mut client, 11);
        assert_eq!(s, 0);
        assert_eq!(d, b"hello pipes");
    }

    #[test]
    fn roundtrip_default() {
        pipe_roundtrip(ReadPresentation::Default);
    }

    #[test]
    fn roundtrip_dealloc_never() {
        pipe_roundtrip(ReadPresentation::DeallocNever);
    }

    #[test]
    fn roundtrip_wrap_optimized() {
        pipe_roundtrip(ReadPresentation::DeallocNeverWrapOptimized);
    }

    #[test]
    fn flow_control_wouldblock() {
        let (server, _) = build_pipe_server(8, ReadPresentation::Default, WireFormat::Cdr);
        let mut client = client_for(server);
        assert_eq!(write(&mut client, b"12345678"), 0);
        assert_eq!(write(&mut client, b"x"), crate::WOULDBLOCK, "full pipe refuses");
        let (s, d) = read(&mut client, 4);
        assert_eq!((s, d.as_slice()), (0, &b"1234"[..]));
        assert_eq!(write(&mut client, b"x"), 0, "space freed");
        let (s, _) = read(&mut client, 8);
        assert_eq!(s, 0);
        let (s, d) = read(&mut client, 8);
        assert_eq!(s, crate::WOULDBLOCK);
        assert!(d.is_empty());
    }

    #[test]
    fn dealloc_never_skips_intermediate_copy() {
        let (server, stats) =
            build_pipe_server(64, ReadPresentation::DeallocNever, WireFormat::Cdr);
        let mut client = client_for(server);
        write(&mut client, &[7; 32]);
        let (s, d) = read(&mut client, 32);
        assert_eq!((s, d.len()), (0, 32));
        assert_eq!(
            stats.intermediate_copy_bytes.load(std::sync::atomic::Ordering::Relaxed),
            0,
            "contiguous read must not copy inside the server"
        );

        let (server, stats) = build_pipe_server(64, ReadPresentation::Default, WireFormat::Cdr);
        let mut client = client_for(server);
        write(&mut client, &[7; 32]);
        read(&mut client, 32);
        assert_eq!(
            stats.intermediate_copy_bytes.load(std::sync::atomic::Ordering::Relaxed),
            32,
            "move semantics costs the intermediate copy"
        );
    }

    #[test]
    fn wrap_fallback_copies_once_unless_optimized() {
        use std::sync::atomic::Ordering;
        for (mode, expect_fallback) in [
            (ReadPresentation::DeallocNever, true),
            (ReadPresentation::DeallocNeverWrapOptimized, false),
        ] {
            let (server, stats) = build_pipe_server(8, mode, WireFormat::Cdr);
            let mut client = client_for(server);
            // Force a wrap: fill, drain some, refill past the end.
            write(&mut client, b"abcdef");
            read(&mut client, 4);
            write(&mut client, b"wxyz");
            let (s, d) = read(&mut client, 6);
            assert_eq!((s, d.as_slice()), (0, &b"efwxyz"[..]));
            assert_eq!(
                stats.wrap_fallbacks.load(Ordering::Relaxed) > 0,
                expect_fallback,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn the_same_work_functions_serve_a_direct_caller() {
        use flexrpc_runtime::samedomain::SameDomain;
        let m = fileio_module();
        let iface = m.interface("FileIO").unwrap();
        let pres = InterfacePresentation::default_for(&m, iface).unwrap();
        let compiled = CompiledInterface::compile(&m, iface, &pres).unwrap();
        for mode in [
            ReadPresentation::Default,
            ReadPresentation::DeallocNever,
            ReadPresentation::DeallocNeverWrapOptimized,
        ] {
            let pipe = Arc::new(Mutex::new(CircBuf::new(8)));
            let stats = Arc::new(PipeServerStats::default());
            let register = |srv: &mut ServerInterface| {
                register_pipe_handlers(srv, &pipe, &stats, mode);
            };
            let mut sd =
                SameDomain::bind(&m, iface, &pres, &server_presentation(mode), register).unwrap();
            let mut call = |op: usize, arg: Value| {
                let mut frame = compiled.ops[op].slots.new_frame();
                frame[0] = arg;
                (sd.call_index(op, &mut frame).unwrap(), std::mem::take(&mut frame[1]))
            };
            // A read that wraps: the sink's put, its fallback, its gather.
            call(1, Value::Bytes(b"abcdef".to_vec()));
            assert_eq!(call(0, Value::U32(4)), (0, Value::Bytes(b"abcd".to_vec())), "{mode:?}");
            call(1, Value::Bytes(b"wxyz".to_vec()));
            assert_eq!(call(0, Value::U32(6)), (0, Value::Bytes(b"efwxyz".to_vec())), "{mode:?}");
            let empty = call(0, Value::U32(6));
            assert_eq!(empty, (crate::WOULDBLOCK, Value::Bytes(vec![])), "{mode:?}");
        }
    }

    #[test]
    fn stream_integrity_across_presentations() {
        for mode in [
            ReadPresentation::Default,
            ReadPresentation::DeallocNever,
            ReadPresentation::DeallocNeverWrapOptimized,
        ] {
            let (server, _) = build_pipe_server(4096, mode, WireFormat::Cdr);
            let mut client = client_for(server);
            let src: Vec<u8> = (0..=255u8).cycle().take(20_000).collect();
            let mut fed = 0;
            let mut got = Vec::new();
            while got.len() < src.len() {
                if fed < src.len() {
                    let chunk = &src[fed..(fed + 1500).min(src.len())];
                    if write(&mut client, chunk) == 0 {
                        fed += chunk.len();
                    }
                }
                let (s, d) = read(&mut client, 1000);
                if s == 0 {
                    got.extend_from_slice(&d);
                }
            }
            assert_eq!(got, src, "{mode:?}");
        }
    }
}
