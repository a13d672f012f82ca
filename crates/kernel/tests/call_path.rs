//! The IPC call path's bookkeeping: counts written through per-connection
//! stripes read exactly, and the one connection lock held across the
//! handler admits everything a handler may do.
//!
//! Which read of a striped counter meets which connection's drop is timing,
//! so `scripts/ci.sh` runs this crate's tests in `--release` as well.

use flexrpc_clock::Fault;
use flexrpc_kernel::ipc::{BindOptions, MsgOut, ServerOptions};
use flexrpc_kernel::regs::MSG_REGS;
use flexrpc_kernel::stats::StatsSnapshot;
use flexrpc_kernel::{Connection, Kernel, KernelError, PortName, TaskId, TrustLevel};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

/// A kernel with an echo server, and a way to bind clients to it.
struct Echo {
    kernel: Arc<Kernel>,
    server: TaskId,
    port: PortName,
}

impl Echo {
    fn new() -> Echo {
        let kernel = Kernel::new();
        let server = kernel.create_task("server", 4096).unwrap();
        let port = kernel.port_allocate(server).unwrap();
        kernel
            .register_server(server, port, ServerOptions::default(), |_k, m| {
                Ok(MsgOut { regs: m.regs, body: m.body.to_vec(), rights: m.rights })
            })
            .unwrap();
        Echo { kernel, server, port }
    }

    fn bind(&self, name: &str, trust_of_server: TrustLevel) -> Connection {
        let client = self.kernel.create_task(name, 4096).unwrap();
        let send = self.kernel.extract_send_right(self.server, self.port, client).unwrap();
        self.kernel
            .ipc_bind(client, send, BindOptions { trust_of_server, ..Default::default() })
            .unwrap()
    }
}

/// `messages`, `bytes_copied_user_to_user`, `register_ops` of `s`.
fn call_counts(s: &StatsSnapshot) -> [u64; 3] {
    [s.messages, s.bytes_copied_user_to_user, s.register_ops]
}

#[test]
fn counts_through_stripes_are_exact_across_threads_and_a_drop() {
    const CALLS_A: u64 = 20_000;
    const READS_AFTER_DROP: usize = 1_000;
    const BODY_A: usize = 100;
    const BODY_B: usize = 33;
    // What thread A is doing, as the reader sees it before each read.
    const CALLING: u32 = 0;
    const DONE_STILL_BOUND: u32 = 1;
    const DROPPED: u32 = 2;

    let echo = Echo::new();
    let k = &echo.kernel;
    // Different trust pairs, so the two connections' register paths differ.
    let conn_a = echo.bind("a", TrustLevel::None);
    let conn_b = echo.bind("b", TrustLevel::LeakyUnprotected);
    let (ops_a, ops_b) = (conn_a.reg_path().len() as u64, conn_b.reg_path().len() as u64);
    assert_ne!(ops_a, ops_b);

    let before = k.stats().snapshot();
    let phase = AtomicU32::new(CALLING);
    let read_while_bound = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let mut samples = Vec::new();
    let calls_b = std::thread::scope(|s| {
        // B calls from before A's first call until after the last read.
        let b = s.spawn(|| {
            let mut calls = 0u64;
            while !stop.load(Ordering::SeqCst) {
                k.ipc_call(&conn_b, &[2; BODY_B], &[]).unwrap();
                calls += 1;
            }
            calls
        });
        // A makes its calls, holds its connection until the reader has
        // read with all of them in its stripes, then drops it — the stripes
        // fold into the shared cells — while B calls and the reader reads.
        s.spawn(|| {
            let conn_a = conn_a;
            for _ in 0..CALLS_A {
                k.ipc_call(&conn_a, &[1; BODY_A], &[]).unwrap();
            }
            phase.store(DONE_STILL_BOUND, Ordering::SeqCst);
            while !read_while_bound.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            drop(conn_a);
            phase.store(DROPPED, Ordering::SeqCst);
        });
        let mut after_drop = 0;
        while after_drop < READS_AFTER_DROP {
            let seen = phase.load(Ordering::SeqCst);
            samples.push((seen, call_counts(&k.stats().snapshot().since(&before))));
            match seen {
                DONE_STILL_BOUND => read_while_bound.store(true, Ordering::SeqCst),
                DROPPED => after_drop += 1,
                _ => {}
            }
        }
        stop.store(true, Ordering::SeqCst);
        b.join().unwrap()
    });

    // The echo server returns the body: each call copies it once each way.
    let a_alone = [CALLS_A, 2 * CALLS_A * BODY_A as u64, CALLS_A * ops_a];
    let b_alone = [calls_b, 2 * calls_b * BODY_B as u64, calls_b * ops_b];
    let expected = [0, 1, 2].map(|c| a_alone[c] + b_alone[c]);
    let total = k.stats().snapshot().since(&before);
    assert_eq!(call_counts(&total), expected, "A's counts outlive its connection");
    assert_eq!((total.rights_transferred, total.name_table_probes), (0, 0));

    // No read saw a count twice, lost one, or went back — not while both
    // were calling, not with A's counts in its stripes, not across A's drop.
    let mut last = [0; 3];
    for (i, (seen, sample)) in samples.iter().enumerate() {
        for c in 0..3 {
            assert!(sample[c] >= last[c], "read {i}, counter {c}: {} < {}", sample[c], last[c]);
            assert!(sample[c] <= expected[c], "read {i}, counter {c} exceeds the final total");
            if *seen != CALLING {
                assert!(sample[c] >= a_alone[c], "read {i}, counter {c} lost some of A's");
            }
        }
        last = *sample;
    }

    // The surviving connection keeps counting, exactly.
    k.ipc_call(&conn_b, &[2; BODY_B], &[]).unwrap();
    let one_more = k.stats().snapshot().since(&before);
    assert_eq!(
        call_counts(&one_more),
        [expected[0] + 1, expected[1] + 2 * BODY_B as u64, expected[2] + ops_b]
    );
    drop(conn_b);
    assert_eq!(k.stats().snapshot().since(&before), one_more, "and B's outlive B");
}

#[test]
fn rights_count_through_stripes_also_when_the_message_fails() {
    let echo = Echo::new();
    let k = &echo.kernel;
    let conn = echo.bind("client", TrustLevel::None);
    let client = conn.client_task();
    let obj = k.port_allocate(client).unwrap();

    let before = k.stats().snapshot();
    let reply = k.ipc_call(&conn, &[], &[obj]).unwrap();
    assert_eq!(reply.rights, vec![obj], "unique mode names the echoed right as before");
    let d = k.stats().snapshot().since(&before);
    assert_eq!(d.rights_transferred, 2, "client→server and server→client");
    // First delivery into the server installs (probe, install ×2); the
    // reply finds the client's own name (probe, validate, bump).
    assert_eq!(d.name_table_probes, 6);

    // A message whose second right does not resolve fails after its first
    // was moved, and the first stays counted.
    let before = k.stats().snapshot();
    let err = k.ipc_call(&conn, &[], &[obj, PortName(999)]).unwrap_err();
    assert_eq!(err, KernelError::InvalidName(PortName(999)));
    let d = k.stats().snapshot().since(&before);
    assert_eq!((d.messages, d.rights_transferred, d.name_table_probes), (1, 1, 3));
    assert_eq!(d.register_ops, 0, "the message never reached the register path");
    drop(conn);
    assert_eq!(k.stats().snapshot().since(&before), d);
}

#[test]
fn handler_calls_a_second_server_over_its_own_connection() {
    // The front server's handler runs with its caller's connection locked.
    // It re-enters the kernel the way the pipe server does (user memory
    // allocated and copied) and makes a nested call — over a connection of
    // its own, which is another lock.
    let k = Kernel::new();
    let client = k.create_task("client", 4096).unwrap();
    let front = k.create_task("front", 4096).unwrap();
    let back = k.create_task("back", 4096).unwrap();

    let back_port = k.port_allocate(back).unwrap();
    k.register_server(back, back_port, ServerOptions::default(), |_k, m| {
        let mut body = m.body.to_vec();
        body.reverse();
        Ok(MsgOut { regs: m.regs, body, rights: vec![] })
    })
    .unwrap();
    let to_back = k.extract_send_right(back, back_port, front).unwrap();
    let front_to_back = k.ipc_bind(front, to_back, BindOptions::default()).unwrap();

    let front_port = k.port_allocate(front).unwrap();
    k.register_server(front, front_port, ServerOptions::default(), move |kk, m| {
        let addr = kk.user_alloc(front, m.body.len()).map_err(|_| 1u32)?;
        kk.copyout(front, addr, m.body).map_err(|_| 2u32)?;
        let staged = kk.copyin_vec(front, addr, m.body.len()).map_err(|_| 3u32)?;
        let nested = kk.ipc_call(&front_to_back, &staged, &[]).map_err(|_| 4u32)?;
        Ok(MsgOut { regs: m.regs, body: nested.body, rights: vec![] })
    })
    .unwrap();
    let to_front = k.extract_send_right(front, front_port, client).unwrap();
    let conn = k.ipc_bind(client, to_front, BindOptions::default()).unwrap();

    let before = k.stats().snapshot();
    for _ in 0..3 {
        assert_eq!(k.ipc_call(&conn, b"nested", &[]).unwrap().body, b"detsen");
    }
    let d = k.stats().snapshot().since(&before);
    assert_eq!(d.messages, 6, "an outer and a nested message per call");
    assert_eq!(d.bytes_copied_user_to_user, 3 * 4 * 6);
}

#[test]
fn duplicate_runs_the_shared_handler_twice_with_rights_on_the_second_only() {
    let k = Kernel::new();
    let client = k.create_task("client", 64).unwrap();
    let server = k.create_task("server", 64).unwrap();
    let obj = k.port_allocate(client).unwrap();
    let port = k.port_allocate(server).unwrap();
    // The handler is `Fn`: what it records sits behind its own lock.
    let seen = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&seen);
    k.register_server(server, port, ServerOptions::default(), move |_k, m| {
        log.lock().unwrap().push((m.body.to_vec(), m.rights.len()));
        Ok(MsgOut { regs: m.regs, body: m.body.to_vec(), rights: vec![] })
    })
    .unwrap();
    let send = k.extract_send_right(server, port, client).unwrap();
    let conn = k.ipc_bind(client, send, BindOptions::default()).unwrap();

    let before = k.stats().snapshot();
    k.faults().on_next_call(Fault::Duplicate);
    assert_eq!(k.ipc_call(&conn, b"dup", &[obj]).unwrap().body, b"dup");
    assert_eq!(*seen.lock().unwrap(), vec![(b"dup".to_vec(), 0), (b"dup".to_vec(), 1)]);
    let d = k.stats().snapshot().since(&before);
    assert_eq!((d.messages, d.rights_transferred), (1, 1), "one message, its rights moved once");
}

#[test]
fn close_after_the_handler_leaves_the_reply_buffer_alone() {
    let k = Kernel::new();
    let client = k.create_task("client", 64).unwrap();
    let server = k.create_task("server", 64).unwrap();
    let port = k.port_allocate(server).unwrap();
    let hits = Arc::new(AtomicU32::new(0));
    let h = Arc::clone(&hits);
    k.register_server(server, port, ServerOptions::default(), move |_k, m| {
        h.fetch_add(1, Ordering::SeqCst);
        Ok(MsgOut { regs: m.regs, body: b"never delivered".to_vec(), rights: vec![] })
    })
    .unwrap();
    let send = k.extract_send_right(server, port, client).unwrap();
    let conn = k.ipc_bind(client, send, BindOptions::default()).unwrap();

    let mut reply_body = b"as the caller passed it".to_vec();
    k.faults().on_next_call(Fault::Close);
    let before = k.stats().snapshot();
    let err = k.ipc_call_into(&conn, [0; MSG_REGS], b"req", &[], &mut reply_body).unwrap_err();
    assert_eq!(err, KernelError::ConnectionDead);
    assert_eq!(hits.load(Ordering::SeqCst), 1, "the server did the work");
    assert_eq!(reply_body, b"as the caller passed it");
    let d = k.stats().snapshot().since(&before);
    assert_eq!(d.bytes_copied_user_to_user, 3, "the request was copied, no reply was");
    assert_eq!(d.register_ops, conn.reg_path().len() as u64, "both register halves ran");

    // The connection is usable again: the lock was released on the way out.
    k.ipc_call_into(&conn, [0; MSG_REGS], b"req", &[], &mut reply_body).unwrap();
    assert_eq!(reply_body, b"never delivered");
}
