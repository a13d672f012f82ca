//! `flexrpc-engine` — a concurrent multi-client serving engine.
//!
//! The rest of the workspace reproduces the paper's mechanisms — flexible
//! presentations, combination-signature stub programs, streamlined IPC —
//! one client/server pair at a time. This crate is the server-side runtime
//! a real deployment of those mechanisms needs: one process serving many
//! clients, across many presentation combinations, without recompiling a
//! stub program per connection.
//!
//! Pieces:
//!
//! * [`engine::Engine`] — **one weighted-fair queue** drained by a worker
//!   pool, plus the service registry. Every worker drains the one
//!   [`WfqQueue`](flexrpc_control::WfqQueue) under a serve token of its
//!   own, so weighted-fair order holds across all workers, and an idle
//!   worker parks on that queue's own consumer park. Blocking calls
//!   with no deadline and no backlog dispatch **inline** on the caller's
//!   thread (LRPC-style — no handoff at all), and a *queued* call whose
//!   caller reaches [`engine::CallTicket::wait`] first runs there too, when
//!   it is next in the queue's fair order and a serve token is free (same
//!   checks, same tallies, `engine.helped`).
//! * [`slot::ReplySlot`] — the completion slot a submitter blocks on when
//!   its reply is another thread's to publish, one-shot per use and recycled
//!   with its call's job cell: a `Mutex` and a `Condvar`, plus one atomic
//!   flag so "not yet" costs a load and no lock.
//! * [`cache::ProgramCache`] — compiled programs keyed by *combination
//!   signature* (wire signature × the two presentation fingerprints × the
//!   negotiated trust pair × wire format): one table behind one `RwLock`.
//!   Each combination compiles once; hit/miss counters prove it.
//! * The bind path — [`Engine::register_service`], [`ConnectBuilder`],
//!   pool resolution, shape negotiation — lives in `bind.rs` beside that
//!   cache, as a child module of `engine`; the call path (`admit` →
//!   `enqueue` | inline → `serve`) is what `engine.rs` keeps.
//! * [`engine::EngineConnection`] — same-domain client transport with
//!   multiple outstanding calls ([`engine::EngineConnection::submit`]).
//! * [`acceptor`] — Sun RPC exposure on the simulated network, including
//!   pipelined record streams (several XIDs per message) batched into one
//!   gather write per flush, and the matching
//!   [`acceptor::SunRpcPipeline`] client.

pub mod acceptor;
pub mod breaker;
pub mod cache;
pub mod engine;
pub mod error;
pub mod slot;
pub mod stats;

pub use acceptor::{expose_on_net, SunRpcPipeline};
pub use breaker::{BreakerStats, CircuitBreaker};
pub use cache::{CacheStats, ProgramCache, ProgramKey};
pub use engine::{
    CallTicket, ClientInfo, ConnectBuilder, Engine, EngineBuilder, EngineConnection, Reply,
};
pub use error::EngineError;
pub use flexrpc_control::{ControlPlane, Policy, PolicyHandle, TenantId, TenantMetrics};
pub use slot::ReplySlot;
pub use stats::EngineStatsSnapshot;

#[cfg(test)]
mod tests {
    use super::*;
    use flexrpc_core::ir::fileio_example;
    use flexrpc_core::present::{InterfacePresentation, Trust};
    use flexrpc_core::value::Value;
    use flexrpc_marshal::WireFormat;
    use flexrpc_runtime::ClientStub;
    use std::sync::Arc;

    fn fileio_presentation() -> InterfacePresentation {
        let m = fileio_example();
        let iface = m.interface("FileIO").unwrap();
        InterfacePresentation::default_for(&m, iface).unwrap()
    }

    /// Registers a FileIO echo service: `write` stores into a shared byte
    /// log, `read` returns `count` bytes of a fixed pattern.
    fn register_echo(engine: &Arc<Engine>, name: &str) {
        let m = fileio_example();
        let pres = fileio_presentation();
        engine
            .register_service(name, m, "FileIO", pres, WireFormat::Cdr, |srv| {
                srv.on("read", |call| {
                    let count = call.u32("count").unwrap() as usize;
                    call.set("return", Value::Bytes(vec![0x5A; count])).unwrap();
                    0
                })
                .unwrap();
                srv.on("write", |call| {
                    let data = call.bytes("data").unwrap();
                    data.len() as u32
                })
                .unwrap();
            })
            .unwrap();
    }

    fn client_info(trust: Trust) -> ClientInfo {
        let mut pres = fileio_presentation();
        pres.trust = trust;
        ClientInfo::of(&pres)
    }

    fn stub_for(conn: EngineConnection) -> ClientStub {
        let m = fileio_example();
        let iface = m.interface("FileIO").unwrap();
        let pres = fileio_presentation();
        let compiled = flexrpc_core::program::CompiledInterface::compile(&m, iface, &pres).unwrap();
        ClientStub::new(compiled, WireFormat::Cdr, Box::new(conn))
    }

    #[test]
    fn single_client_roundtrip() {
        let engine = Engine::builder().workers(2).queue_depth(8).build();
        register_echo(&engine, "echo");
        let conn = engine.connect("echo").client(client_info(Trust::None)).establish().unwrap();
        let mut client = stub_for(conn);
        let mut frame = client.new_frame("read").unwrap();
        frame[0] = Value::U32(6);
        client.call("read", &mut frame).unwrap();
        assert_eq!(frame[1], Value::Bytes(vec![0x5A; 6]));
        let stats = engine.stats();
        assert_eq!(stats.calls_served, 1);
        assert!(stats.bytes_out > 0);
        engine.shutdown();
    }

    #[test]
    fn same_combination_compiles_once() {
        let engine = Engine::builder().build();
        register_echo(&engine, "echo");
        for _ in 0..5 {
            engine.connect("echo").client(client_info(Trust::None)).establish().unwrap();
        }
        let cache = engine.cache().stats();
        assert_eq!(cache.misses, 1, "one combination, one compile");
        assert_eq!(cache.hits, 4, "four connections reused it");
        assert_eq!(engine.stats().connections, 5);
    }

    #[test]
    fn distinct_trust_is_a_distinct_combination() {
        let engine = Engine::builder().build();
        register_echo(&engine, "echo");
        engine.connect("echo").client(client_info(Trust::None)).establish().unwrap();
        engine.connect("echo").client(client_info(Trust::LeakyUnprotected)).establish().unwrap();
        assert_eq!(engine.cache().stats().misses, 2);
    }

    #[test]
    fn pipelined_submits_complete() {
        let engine = Engine::builder().workers(4).queue_depth(32).build();
        register_echo(&engine, "echo");
        let conn = engine.connect("echo").client(client_info(Trust::None)).establish().unwrap();
        // Marshal a read(count=4) request by hand (CDR: payloads first —
        // read has none in its request — then scalars).
        let compiled = conn.program();
        let op = compiled.op("read").unwrap();
        let mut w = flexrpc_runtime::wire::AnyWriter::new(WireFormat::Cdr);
        w.put_u32(4);
        let request = w.into_bytes();
        let tickets: Vec<_> =
            (0..16).map(|_| conn.submit(op.index, &request, &[]).unwrap()).collect();
        for t in tickets {
            let reply = t.wait().unwrap();
            assert!(!reply.body.is_empty());
        }
        assert_eq!(engine.stats().calls_served, 16);
    }

    #[test]
    fn unknown_service_rejected() {
        let engine = Engine::builder().build();
        assert!(matches!(
            engine.connect("ghost").client(client_info(Trust::None)).establish(),
            Err(EngineError::UnknownService(_))
        ));
    }

    #[test]
    fn duplicate_service_rejected() {
        let engine = Engine::builder().build();
        register_echo(&engine, "echo");
        let err = engine.register_service(
            "echo",
            fileio_example(),
            "FileIO",
            fileio_presentation(),
            WireFormat::Cdr,
            |_| {},
        );
        assert!(matches!(err, Err(EngineError::DuplicateService(_))));
    }

    #[test]
    fn shutdown_refuses_new_work_but_drains() {
        let engine = Engine::builder().workers(1).queue_depth(8).build();
        register_echo(&engine, "echo");
        let conn = engine.connect("echo").client(client_info(Trust::None)).establish().unwrap();
        engine.shutdown();
        let err = conn.submit(0, &[], &[]);
        assert!(matches!(err, Err(EngineError::Closed)));
    }

    /// Registers `read` so that a call asking for `count == 0` reports on
    /// `entered` and then holds its replica until `release` yields.
    fn register_holding(
        engine: &Arc<Engine>,
        entered: std::sync::mpsc::Sender<()>,
        release: std::sync::mpsc::Receiver<()>,
    ) {
        let release = Arc::new(parking_lot::Mutex::new(release));
        engine
            .register_service(
                "hold",
                fileio_example(),
                "FileIO",
                fileio_presentation(),
                WireFormat::Cdr,
                move |srv| {
                    let (entered, release) = (entered.clone(), Arc::clone(&release));
                    srv.on("read", move |call| {
                        let count = call.u32("count").unwrap();
                        if count == 0 {
                            entered.send(()).unwrap();
                            release.lock().recv().unwrap();
                        }
                        call.set("return", Value::Bytes(vec![0x5A; count as usize])).unwrap();
                        0
                    })
                    .unwrap();
                },
            )
            .unwrap();
    }

    fn read(engine: &Arc<Engine>, count: u32) -> Vec<u8> {
        let conn = engine.connect("hold").client(client_info(Trust::None)).establish().unwrap();
        let mut client = stub_for(conn);
        let mut frame = client.new_frame("read").unwrap();
        frame[0] = Value::U32(count);
        client.call("read", &mut frame).unwrap();
        match std::mem::replace(&mut frame[1], Value::U32(0)) {
            Value::Bytes(b) => b,
            other => panic!("read returned {other:?}"),
        }
    }

    /// Replicas are checked out one lock each: with one held by a stalled
    /// handler, the next inline call must take the free one, whichever
    /// replica either connection tries first, rather than queue up behind
    /// the stall.
    #[test]
    fn inline_call_takes_any_free_replica() {
        let engine = Engine::builder().workers(2).build();
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel();
        register_holding(&engine, entered_tx, release_rx);
        let eng = Arc::clone(&engine);
        let stalled = std::thread::spawn(move || read(&eng, 0));
        entered.recv().unwrap(); // one of the two replicas is now held
        assert_eq!(read(&engine, 3), vec![0x5A; 3], "served while the other call stalls");
        release.send(()).unwrap();
        assert!(stalled.join().unwrap().is_empty());
        assert_eq!(engine.stats().inline_calls, 2);
    }

    #[test]
    fn many_threads_one_engine() {
        let engine = Engine::builder().workers(4).queue_depth(16).build();
        register_echo(&engine, "echo");
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let conn =
                    engine.connect("echo").client(client_info(Trust::None)).establish().unwrap();
                std::thread::spawn(move || {
                    let mut client = stub_for(conn);
                    for round in 0..25u32 {
                        let n = (i + round) % 32 + 1;
                        let mut frame = client.new_frame("read").unwrap();
                        frame[0] = Value::U32(n);
                        client.call("read", &mut frame).unwrap();
                        assert_eq!(frame[1], Value::Bytes(vec![0x5A; n as usize]));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = engine.stats();
        assert_eq!(stats.calls_served, 8 * 25);
        assert_eq!(stats.in_flight, 0, "everything drained");
        assert_eq!(stats.cache.misses, 1);
    }
}
