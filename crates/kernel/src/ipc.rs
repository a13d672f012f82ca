//! The streamlined synchronous IPC path.
//!
//! Models the paper's "new, streamlined low-level Mach IPC mechanism":
//! messages travel through processor registers and/or a simple buffer copied
//! directly between address spaces; there is no copy-on-write machinery.
//! Control transfer is synchronous — the server's handler runs on the
//! caller's (simulated) thread, the migrating-threads model of the authors'
//! earlier work.
//!
//! *Binding* is where flexible presentation meets the kernel: both sides
//! register type signatures and presentation attributes, the kernel checks
//! the signatures against each other (a PDL can never change the network
//! contract, so compatible interfaces always bind), and compiles a
//! *combination signature*: the [`RegPath`] threaded code for the declared
//! trust pair plus the name-translation mode for transferred port rights.

use crate::error::KernelError;
use crate::ports::{NameMode, PortName, RightsTally};
use crate::regs::{run_ops, RegPath, RegisterFile, TrustLevel, MSG_REGS};
use crate::stats::CallTallies;
use crate::task::TaskId;
use crate::{Kernel, Result};
use flexrpc_clock::Lost;
use parking_lot::Mutex;
use std::mem::take;
use std::sync::Arc;

/// Maximum body size accepted by the streamlined path.
///
/// The real path existed for small control transfers; bulk data goes through
/// fbufs or the network. 256 KiB comfortably covers every experiment.
pub const MAX_BODY: usize = 256 * 1024;

/// A server handler: runs with no kernel-wide lock held (only its caller's
/// [`Connection`]) and may re-enter the kernel. Returns the reply message or
/// an application-defined failure code.
///
/// Shared by every connection bound to the server and called through `&`:
/// the kernel serializes nothing here, so state a handler mutates sits
/// behind the server's own lock or atomic.
pub type Handler = dyn Fn(&Kernel, MsgIn<'_>) -> core::result::Result<MsgOut, u32> + Send + Sync;

/// The request as seen by a server handler.
#[derive(Debug)]
pub struct MsgIn<'a> {
    /// Inline register words (first [`MSG_REGS`] registers of the caller).
    pub regs: [u64; MSG_REGS],
    /// Message body in the server's receive buffer.
    pub body: &'a [u8],
    /// Port rights, already translated into the server's name table.
    pub rights: Vec<PortName>,
    /// The connection's send window, empty, with the capacity earlier
    /// replies left in it: a handler that builds its reply body here and
    /// returns it as [`MsgOut::body`] allocates nothing once the window has
    /// grown to its replies' size.
    pub reply: Vec<u8>,
}

/// The reply produced by a server handler.
#[derive(Debug, Default)]
pub struct MsgOut {
    /// Inline register words returned to the caller.
    pub regs: [u64; MSG_REGS],
    /// Reply body (server-side buffer; the kernel copies it to the client
    /// and keeps the buffer as the connection's send window, which the
    /// next call hands the handler as [`MsgIn::reply`]).
    pub body: Vec<u8>,
    /// Port rights to transfer, named in the server's table.
    pub rights: Vec<PortName>,
}

/// The reply as seen by the client.
#[derive(Debug, Default)]
pub struct Reply {
    /// Inline register words from the server.
    pub regs: [u64; MSG_REGS],
    /// Reply body, copied into client-side memory.
    pub body: Vec<u8>,
    /// Port rights, translated into the client's name table.
    pub rights: Vec<PortName>,
}

/// Presentation attributes a server declares when registering
/// (its half of the combination signature).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerOptions {
    /// How far the server trusts its clients.
    pub trust_of_client: TrustLevel,
    /// How incoming rights are installed in the server's name table.
    pub name_mode: NameMode,
    /// Interface type signature; `None` opts out of checking (tests only).
    pub signature: Option<u64>,
    /// Direct receive: the handler reads the sender's message in place
    /// instead of through a copied receive buffer. Sound in the migrating-
    /// threads model (the sender is blocked for the call's duration); this
    /// is the "slight enhancement to the underlying IPC mechanism" §4.2.1
    /// says would delete one more copy from the pipe write path.
    pub direct_receive: bool,
}

/// Presentation attributes a client declares at bind time.
#[derive(Debug, Clone, Copy, Default)]
pub struct BindOptions {
    /// How far the client trusts the server.
    pub trust_of_server: TrustLevel,
    /// How reply rights are installed in the client's name table.
    pub name_mode: NameMode,
    /// Interface type signature; `None` opts out of checking (tests only).
    pub signature: Option<u64>,
}

pub(crate) struct ServerEntry {
    pub(crate) task: TaskId,
    pub(crate) options: ServerOptions,
    pub(crate) handler: Arc<Handler>,
}

/// A bound client↔server connection with its compiled combination signature.
///
/// Cheap to call through repeatedly; all bind-time decisions (register path,
/// name modes, signature check) are already baked in.
///
/// A call locks `state` once, at its top, and holds it across the server's
/// handler: the handler reads the request out of the receive buffer in
/// there, and the call's counts are written through it. That cannot
/// deadlock, because synchronous RPC never re-enters the *same* connection
/// — its one caller is blocked inside it until the handler returns — and a
/// handler that calls out does so over a connection of its own, which is
/// another lock.
pub struct Connection {
    pub(crate) client: TaskId,
    pub(crate) server: TaskId,
    handler: Arc<Handler>,
    reg_path: RegPath,
    /// Name mode for rights moving client → server.
    req_name_mode: NameMode,
    /// Name mode for rights moving server → client.
    reply_name_mode: NameMode,
    direct_receive: bool,
    state: Mutex<ConnState>,
}

/// What a call mutates, under the connection's one lock.
///
/// Both windows are bounded by [`MAX_BODY`]: a request over it is refused
/// before the copy into `recv`, which grows only to the request it holds,
/// and a reply buffer over it (a refused reply's among them) is dropped,
/// not kept as `send`.
struct ConnState {
    regs: RegisterFile,
    /// The server-side receive buffer for this connection, reused across
    /// calls (the streamlined path pre-registers receive windows).
    recv: Vec<u8>,
    /// The server-side send buffer: handed to the handler, emptied, as
    /// [`MsgIn::reply`], and taken back from [`MsgOut::body`] once the reply
    /// is copied out. The lock around the call makes it this call's alone.
    send: Vec<u8>,
    /// This connection's stripes of the kernel's counters, taken at bind:
    /// the lock makes the call their single writer.
    tallies: CallTallies,
}

impl Connection {
    /// The client task of this connection.
    pub fn client_task(&self) -> TaskId {
        self.client
    }

    /// The server task of this connection.
    pub fn server_task(&self) -> TaskId {
        self.server
    }

    /// The compiled register path (diagnostics: its length is the register
    /// cost the trust pair bought).
    pub fn reg_path(&self) -> &RegPath {
        &self.reg_path
    }
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("client", &self.client)
            .field("server", &self.server)
            .field("reg_ops", &self.reg_path.len())
            .finish_non_exhaustive()
    }
}

/// Keeps a reply body the handler returned, emptied, as the next call's
/// send window, unless it holds more than [`MAX_BODY`]: such a buffer is
/// dropped, and the next handler starts from an empty window.
fn keep_window(send: &mut Vec<u8>, mut body: Vec<u8>) {
    if body.capacity() <= MAX_BODY {
        body.clear();
        *send = body;
    }
}

impl Kernel {
    /// Registers `handler` as the server on the port `task` names `port_name`.
    ///
    /// Requires the receive right. The `options` are the server's half of the
    /// combination signature built later by [`Kernel::ipc_bind`].
    pub fn register_server(
        &self,
        task: TaskId,
        port_name: PortName,
        options: ServerOptions,
        handler: impl Fn(&Kernel, MsgIn<'_>) -> core::result::Result<MsgOut, u32>
            + Send
            + Sync
            + 'static,
    ) -> Result<()> {
        if !self.is_receiver(task, port_name)? {
            return Err(KernelError::NotReceiver);
        }
        let port = self.resolve_port(task, port_name)?;
        let mut servers = self.servers.lock();
        if servers.contains_key(&port) {
            return Err(KernelError::ServerExists);
        }
        servers.insert(port, ServerEntry { task, options, handler: Arc::new(handler) });
        Ok(())
    }

    /// Binds `client_task` (holding a send right named `send_name`) to the
    /// server registered on that port, compiling the combination signature.
    ///
    /// Fails with [`KernelError::SignatureMismatch`] if both sides declared
    /// type signatures and they differ — the "network contract" check that
    /// presentation annotations can never influence.
    pub fn ipc_bind(
        &self,
        client_task: TaskId,
        send_name: PortName,
        options: BindOptions,
    ) -> Result<Connection> {
        let port = self.resolve_port(client_task, send_name)?;
        let servers = self.servers.lock();
        let entry = servers.get(&port).ok_or(KernelError::NoServer)?;
        if let (Some(c), Some(s)) = (options.signature, entry.options.signature) {
            if c != s {
                return Err(KernelError::SignatureMismatch { client: c, server: s });
            }
        }
        let reg_path = RegPath::compile(options.trust_of_server, entry.options.trust_of_client);
        Ok(Connection {
            client: client_task,
            server: entry.task,
            handler: Arc::clone(&entry.handler),
            reg_path,
            req_name_mode: entry.options.name_mode,
            reply_name_mode: options.name_mode,
            direct_receive: entry.options.direct_receive,
            state: Mutex::new(ConnState {
                regs: RegisterFile::default(),
                recv: Vec::new(),
                send: Vec::new(),
                tallies: self.stats().call_tallies(),
            }),
        })
    }

    /// Performs a synchronous RPC over `conn` with empty register words.
    pub fn ipc_call(&self, conn: &Connection, body: &[u8], rights: &[PortName]) -> Result<Reply> {
        self.ipc_call_regs(conn, [0; MSG_REGS], body, rights)
    }

    /// Performs a synchronous RPC carrying register words and a body.
    pub fn ipc_call_regs(
        &self,
        conn: &Connection,
        regs: [u64; MSG_REGS],
        body: &[u8],
        rights: &[PortName],
    ) -> Result<Reply> {
        let mut reply_body = Vec::new();
        let out = self.call_inner(conn, regs, body, rights, &mut reply_body)?;
        Ok(Reply { regs: out.0, body: reply_body, rights: out.1 })
    }

    /// Like [`Kernel::ipc_call_regs`] but writes the reply body into a
    /// caller-provided buffer, so steady-state calls allocate nothing on the
    /// client side (used by the throughput benches).
    pub fn ipc_call_into(
        &self,
        conn: &Connection,
        regs: [u64; MSG_REGS],
        body: &[u8],
        rights: &[PortName],
        reply_body: &mut Vec<u8>,
    ) -> Result<([u64; MSG_REGS], Vec<PortName>)> {
        self.call_inner(conn, regs, body, rights, reply_body)
    }

    fn call_inner(
        &self,
        conn: &Connection,
        regs: [u64; MSG_REGS],
        body: &[u8],
        rights: &[PortName],
        reply_body: &mut Vec<u8>,
    ) -> Result<([u64; MSG_REGS], Vec<PortName>)> {
        if body.len() > MAX_BODY {
            return Err(KernelError::MsgTooLarge(body.len()));
        }
        let mut state = conn.state.lock();
        let ConnState { regs: rf, recv, send, tallies } = &mut *state;
        tallies.messages.add(1);

        // The kernel's fault gate: a lost message fails before any transfer
        // (a dropped one retryably; a crashed server task or a partitioned
        // connection as a dead port — from the caller's side the two differ
        // only in that a partitioned server is still alive). A stalled
        // receiver has already been charged to the sim clock. Duplicates
        // run the handler again below; a close shuts the connection down
        // after the handler ran but before the reply message is sent.
        let verdict = self.faults().gate(self.clock());
        match verdict.lost {
            Some(Lost::Dropped) => return Err(KernelError::Dropped),
            Some(Lost::PeerDown | Lost::LinkCut) => return Err(KernelError::ConnectionDead),
            None => {}
        }

        // Translate request rights into the server's name table.
        let server_rights =
            self.move_rights(conn.client, rights, conn.server, conn.req_name_mode, tallies)?;

        // Single direct copy of the body into the connection's (reused)
        // server-side receive buffer — unless the server opted into direct
        // receive, in which case the handler reads the sender's message in
        // place and the copy disappears.
        let served_body: &[u8] = if conn.direct_receive {
            body
        } else {
            recv.clear();
            recv.reserve_exact(body.len());
            recv.extend_from_slice(body);
            tallies.bytes_copied_user_to_user.add(body.len() as u64);
            recv
        };

        // Register half of the combination signature: call path.
        rf.live[..MSG_REGS].copy_from_slice(&regs);
        run_ops(&conn.reg_path.pre, rf);
        tallies.register_ops.add(conn.reg_path.pre.len() as u64);

        // Enter the server, holding this connection and nothing else.
        if verdict.duplicate {
            // At-least-once delivery: the duplicate arrives first (rights
            // travel only once — on the copy whose reply the caller
            // sees). Its reply is lost; a failure is the server's answer
            // to the duplicate, not to the call, so it is ignored too.
            let dup = MsgIn { regs, body: served_body, rights: Vec::new(), reply: take(send) };
            if let Ok(out) = (conn.handler)(self, dup) {
                keep_window(send, out.body);
            }
        }
        let msg = MsgIn { regs, body: served_body, rights: server_rights, reply: take(send) };
        let out = (conn.handler)(self, msg).map_err(KernelError::ServerFailure)?;

        // Register half: reply path.
        run_ops(&conn.reg_path.post, rf);
        tallies.register_ops.add(conn.reg_path.post.len() as u64);

        if verdict.close_after {
            // The connection was torn down between the handler completing
            // and the reply send: the server's work (and any reply-cache
            // entry) survives, but this caller never hears back.
            keep_window(send, out.body);
            return Err(KernelError::ConnectionDead);
        }

        if out.body.len() > MAX_BODY {
            return Err(KernelError::MsgTooLarge(out.body.len()));
        }

        // Translate reply rights into the client's name table; the reply
        // travels only if they all do.
        let client_rights =
            self.move_rights(conn.server, &out.rights, conn.client, conn.reply_name_mode, tallies);
        if client_rights.is_ok() {
            // Single direct copy of the reply body back to the client.
            reply_body.clear();
            reply_body.extend_from_slice(&out.body);
            tallies.bytes_copied_user_to_user.add(out.body.len() as u64);
        }
        keep_window(send, out.body);

        Ok((out.regs, client_rights?))
    }

    /// A message's rights, moved under one hold of the port table and
    /// counted in the calling connection's stripes — also when a right
    /// part-way through fails the message.
    fn move_rights(
        &self,
        from: TaskId,
        names: &[PortName],
        to: TaskId,
        mode: NameMode,
        tallies: &mut CallTallies,
    ) -> Result<Vec<PortName>> {
        if names.is_empty() {
            return Ok(Vec::new());
        }
        let mut tally = RightsTally::default();
        let moved = self.transfer_rights(from, names, to, mode, &mut tally);
        tallies.rights_transferred.add(tally.transferred);
        tallies.name_table_probes.add(tally.probes);
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn setup_echo(
        server_opts: ServerOptions,
    ) -> (std::sync::Arc<Kernel>, TaskId, TaskId, PortName) {
        let k = Kernel::new();
        let client = k.create_task("client", 4096).unwrap();
        let server = k.create_task("server", 4096).unwrap();
        let port = k.port_allocate(server).unwrap();
        k.register_server(server, port, server_opts, |_k, m| {
            Ok(MsgOut { regs: m.regs, body: m.body.to_vec(), rights: m.rights })
        })
        .unwrap();
        let send = k.extract_send_right(server, port, client).unwrap();
        (k, client, server, send)
    }

    #[test]
    fn echo_roundtrip() {
        let (k, client, _server, send) = setup_echo(ServerOptions::default());
        let conn = k.ipc_bind(client, send, BindOptions::default()).unwrap();
        let mut regs = [0u64; MSG_REGS];
        regs[0] = 7;
        let reply = k.ipc_call_regs(&conn, regs, b"payload", &[]).unwrap();
        assert_eq!(reply.regs[0], 7);
        assert_eq!(reply.body, b"payload");
    }

    #[test]
    fn body_copied_twice_total() {
        // One direct copy per direction — the streamlined path's contract.
        let (k, client, _server, send) = setup_echo(ServerOptions::default());
        let conn = k.ipc_bind(client, send, BindOptions::default()).unwrap();
        let before = k.stats().snapshot();
        k.ipc_call(&conn, &[9; 100], &[]).unwrap();
        let d = k.stats().snapshot().since(&before);
        assert_eq!(d.bytes_copied_user_to_user, 200);
        assert_eq!(d.messages, 1);
    }

    #[test]
    fn reply_into_reuses_buffer() {
        let (k, client, _server, send) = setup_echo(ServerOptions::default());
        let conn = k.ipc_bind(client, send, BindOptions::default()).unwrap();
        let mut reply = Vec::new();
        for i in 0..3u8 {
            k.ipc_call_into(&conn, [0; MSG_REGS], &[i; 16], &[], &mut reply).unwrap();
            assert_eq!(reply, vec![i; 16]);
        }
    }

    #[test]
    fn signature_mismatch_refused_at_bind() {
        let (k, client, _server, send) =
            setup_echo(ServerOptions { signature: Some(0xAAAA), ..Default::default() });
        let err = k
            .ipc_bind(client, send, BindOptions { signature: Some(0xBBBB), ..Default::default() })
            .unwrap_err();
        assert!(matches!(err, KernelError::SignatureMismatch { .. }));
        // Matching signatures bind fine.
        k.ipc_bind(client, send, BindOptions { signature: Some(0xAAAA), ..Default::default() })
            .unwrap();
        // A client that does not declare a signature also binds (wildcard).
        k.ipc_bind(client, send, BindOptions::default()).unwrap();
    }

    #[test]
    fn no_server_registered_reported() {
        let k = Kernel::new();
        let a = k.create_task("a", 64).unwrap();
        let b = k.create_task("b", 64).unwrap();
        let p = k.port_allocate(a).unwrap();
        let send = k.extract_send_right(a, p, b).unwrap();
        assert!(matches!(k.ipc_bind(b, send, BindOptions::default()), Err(KernelError::NoServer)));
    }

    #[test]
    fn register_requires_receive_right() {
        let k = Kernel::new();
        let a = k.create_task("a", 64).unwrap();
        let b = k.create_task("b", 64).unwrap();
        let p = k.port_allocate(a).unwrap();
        let send = k.extract_send_right(a, p, b).unwrap();
        let err = k
            .register_server(b, send, ServerOptions::default(), |_k, _m| Ok(MsgOut::default()))
            .unwrap_err();
        assert_eq!(err, KernelError::NotReceiver);
    }

    #[test]
    fn double_register_refused() {
        let (k, _client, server, _send) = setup_echo(ServerOptions::default());
        // `setup_echo` registered on the server's port name 1; find it again.
        let err = k
            .register_server(server, PortName(1), ServerOptions::default(), |_k, _m| {
                Ok(MsgOut::default())
            })
            .unwrap_err();
        assert_eq!(err, KernelError::ServerExists);
    }

    #[test]
    fn oversized_body_refused() {
        let (k, client, _server, send) = setup_echo(ServerOptions::default());
        let conn = k.ipc_bind(client, send, BindOptions::default()).unwrap();
        let big = vec![0u8; MAX_BODY + 1];
        assert!(matches!(k.ipc_call(&conn, &big, &[]), Err(KernelError::MsgTooLarge(_))));
    }

    #[test]
    fn server_failure_code_propagates() {
        let k = Kernel::new();
        let client = k.create_task("client", 64).unwrap();
        let server = k.create_task("server", 64).unwrap();
        let port = k.port_allocate(server).unwrap();
        k.register_server(server, port, ServerOptions::default(), |_k, _m| Err(42)).unwrap();
        let send = k.extract_send_right(server, port, client).unwrap();
        let conn = k.ipc_bind(client, send, BindOptions::default()).unwrap();
        assert_eq!(k.ipc_call(&conn, &[], &[]).unwrap_err(), KernelError::ServerFailure(42));
    }

    #[test]
    fn rights_travel_in_messages() {
        // Client sends the server a send right to a third port; the server
        // sends it back; the client ends up holding it under some name.
        let k = Kernel::new();
        let client = k.create_task("client", 64).unwrap();
        let server = k.create_task("server", 64).unwrap();
        let third = k.create_task("third", 64).unwrap();
        let third_port = k.port_allocate(third).unwrap();
        let client_third = k.extract_send_right(third, third_port, client).unwrap();

        let port = k.port_allocate(server).unwrap();
        k.register_server(server, port, ServerOptions::default(), |_k, m| {
            Ok(MsgOut { regs: m.regs, body: vec![], rights: m.rights })
        })
        .unwrap();
        let send = k.extract_send_right(server, port, client).unwrap();
        let conn = k.ipc_bind(client, send, BindOptions::default()).unwrap();

        let before = k.stats().snapshot();
        let reply = k.ipc_call(&conn, &[], &[client_third]).unwrap();
        assert_eq!(reply.rights.len(), 1);
        let d = k.stats().snapshot().since(&before);
        assert_eq!(d.rights_transferred, 2, "client→server and server→client");
        // The returned right resolves to the third task's port.
        let got = k.resolve_port(client, reply.rights[0]).unwrap();
        let orig = k.resolve_port(client, client_third).unwrap();
        assert_eq!(got, orig);
    }

    #[test]
    fn nonunique_bindings_mint_fresh_reply_names() {
        let k = Kernel::new();
        let client = k.create_task("client", 64).unwrap();
        let server = k.create_task("server", 64).unwrap();
        let obj = k.port_allocate(server).unwrap();
        let port = k.port_allocate(server).unwrap();
        // Server hands out a right to `obj` on every call.
        k.register_server(server, port, ServerOptions::default(), move |_k, m| {
            Ok(MsgOut { regs: m.regs, body: vec![], rights: vec![obj] })
        })
        .unwrap();
        let send = k.extract_send_right(server, port, client).unwrap();

        let unique_conn = k.ipc_bind(client, send, BindOptions::default()).unwrap();
        let r1 = k.ipc_call(&unique_conn, &[], &[]).unwrap().rights[0];
        let r2 = k.ipc_call(&unique_conn, &[], &[]).unwrap().rights[0];
        assert_eq!(r1, r2, "unique mode coalesces to one name");

        let nonunique_conn = k
            .ipc_bind(
                client,
                send,
                BindOptions { name_mode: NameMode::NonUnique, ..Default::default() },
            )
            .unwrap();
        let r3 = k.ipc_call(&nonunique_conn, &[], &[]).unwrap().rights[0];
        let r4 = k.ipc_call(&nonunique_conn, &[], &[]).unwrap().rights[0];
        assert_ne!(r3, r4, "[nonunique] mints a fresh name per transfer");
    }

    #[test]
    fn trust_pair_compiles_into_connection() {
        let (k, client, _server, send) =
            setup_echo(ServerOptions { trust_of_client: TrustLevel::Leaky, ..Default::default() });
        let strict = k.ipc_bind(client, send, BindOptions::default()).unwrap();
        let trusting = k
            .ipc_bind(
                client,
                send,
                BindOptions { trust_of_server: TrustLevel::LeakyUnprotected, ..Default::default() },
            )
            .unwrap();
        assert!(strict.reg_path().len() > trusting.reg_path().len());
        // Both still function.
        assert_eq!(k.ipc_call(&strict, b"x", &[]).unwrap().body, b"x");
        assert_eq!(k.ipc_call(&trusting, b"x", &[]).unwrap().body, b"x");
    }

    #[test]
    fn register_ops_counter_scales_with_trust() {
        let (k, client, _server, send) = setup_echo(ServerOptions::default());
        let strict = k.ipc_bind(client, send, BindOptions::default()).unwrap();
        let before = k.stats().snapshot();
        k.ipc_call(&strict, &[], &[]).unwrap();
        let strict_ops = k.stats().snapshot().since(&before).register_ops;
        assert_eq!(strict_ops, strict.reg_path().len() as u64);
    }

    #[test]
    fn drop_fault_loses_one_call() {
        let (k, client, _server, send) = setup_echo(ServerOptions::default());
        let conn = k.ipc_bind(client, send, BindOptions::default()).unwrap();
        k.faults().on_next_call(flexrpc_clock::Fault::Drop);
        assert_eq!(k.ipc_call(&conn, b"x", &[]).unwrap_err(), KernelError::Dropped);
        assert_eq!(k.ipc_call(&conn, b"x", &[]).unwrap().body, b"x");
    }

    #[test]
    fn delay_fault_advances_kernel_clock() {
        let (k, client, _server, send) = setup_echo(ServerOptions::default());
        let conn = k.ipc_bind(client, send, BindOptions::default()).unwrap();
        k.faults().on_next_call(flexrpc_clock::Fault::Delay(2_000_000));
        let t0 = k.clock().now_ns();
        k.ipc_call(&conn, b"x", &[]).unwrap();
        assert_eq!(k.clock().now_ns(), t0 + 2_000_000);
    }

    #[test]
    fn duplicate_fault_runs_handler_twice() {
        let k = Kernel::new();
        let client = k.create_task("client", 64).unwrap();
        let server = k.create_task("server", 64).unwrap();
        let port = k.port_allocate(server).unwrap();
        let hits = std::sync::Arc::new(std::sync::atomic::AtomicU32::new(0));
        let h = std::sync::Arc::clone(&hits);
        k.register_server(server, port, ServerOptions::default(), move |_k, m| {
            h.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(MsgOut { regs: m.regs, body: m.body.to_vec(), rights: vec![] })
        })
        .unwrap();
        let send = k.extract_send_right(server, port, client).unwrap();
        let conn = k.ipc_bind(client, send, BindOptions::default()).unwrap();
        k.faults().on_next_call(flexrpc_clock::Fault::Duplicate);
        assert_eq!(k.ipc_call(&conn, b"dup", &[]).unwrap().body, b"dup");
        assert_eq!(hits.load(std::sync::atomic::Ordering::SeqCst), 2);
    }

    /// A server that echoes into its send window and records the window's
    /// capacity as it was handed over. A request starting `big` answers
    /// with a body over [`MAX_BODY`]; one starting `bad` returns a right
    /// its task does not hold, which fails to transfer.
    fn window_probe() -> (std::sync::Arc<Kernel>, Connection, std::sync::Arc<AtomicUsize>) {
        let k = Kernel::new();
        let client = k.create_task("client", 64).unwrap();
        let server = k.create_task("server", 64).unwrap();
        let port = k.port_allocate(server).unwrap();
        let handed = std::sync::Arc::new(AtomicUsize::new(usize::MAX));
        let seen = std::sync::Arc::clone(&handed);
        k.register_server(server, port, ServerOptions::default(), move |_k, m| {
            seen.store(m.reply.capacity(), Ordering::SeqCst);
            if m.body.starts_with(b"big") {
                return Ok(MsgOut { regs: m.regs, body: vec![0; MAX_BODY + 1], rights: vec![] });
            }
            let rights = if m.body.starts_with(b"bad") { vec![PortName(999)] } else { vec![] };
            let mut body = m.reply;
            body.extend_from_slice(m.body);
            Ok(MsgOut { regs: m.regs, body, rights })
        })
        .unwrap();
        let send = k.extract_send_right(server, port, client).unwrap();
        let conn = k.ipc_bind(client, send, BindOptions::default()).unwrap();
        (k, conn, handed)
    }

    #[test]
    fn an_oversized_reply_body_is_never_kept_as_the_send_window() {
        let (k, conn, handed) = window_probe();
        k.ipc_call(&conn, &[7; 64], &[]).unwrap();
        let err = k.ipc_call(&conn, b"big", &[]).unwrap_err();
        assert_eq!(err, KernelError::MsgTooLarge(MAX_BODY + 1));
        k.ipc_call(&conn, &[7; 64], &[]).unwrap();
        let cap = handed.load(Ordering::SeqCst);
        assert!(cap <= MAX_BODY, "the window after a refused reply holds {cap} B");

        // Nor is one whose call closed before the size check was reached.
        k.faults().on_next_call(flexrpc_clock::Fault::Close);
        assert_eq!(k.ipc_call(&conn, b"big", &[]).unwrap_err(), KernelError::ConnectionDead);
        k.ipc_call(&conn, &[7; 64], &[]).unwrap();
        let cap = handed.load(Ordering::SeqCst);
        assert!(cap <= MAX_BODY, "the window after a closed oversized reply holds {cap} B");
    }

    #[test]
    fn a_reply_lost_after_the_handler_still_returns_its_body_to_the_window() {
        let (k, conn, handed) = window_probe();
        // Closed between the handler and the reply send.
        k.faults().on_next_call(flexrpc_clock::Fault::Close);
        assert_eq!(k.ipc_call(&conn, &[1; 300], &[]).unwrap_err(), KernelError::ConnectionDead);
        k.ipc_call(&conn, b"x", &[]).unwrap();
        assert!(handed.load(Ordering::SeqCst) >= 300, "the closed call's body was kept");

        // A reply right that fails to transfer fails the call.
        let mut bad = b"bad".to_vec();
        bad.resize(500, 0);
        assert!(k.ipc_call(&conn, &bad, &[]).is_err());
        let reply = k.ipc_call(&conn, b"y", &[]).unwrap();
        assert!(handed.load(Ordering::SeqCst) >= 500, "the failed transfer's body was kept");
        assert_eq!(reply.body, b"y", "a kept window starts empty");
    }

    #[test]
    fn handler_may_reenter_kernel() {
        // The pipe server allocates user memory and copies inside handlers;
        // make sure no kernel-wide lock is held across the handler call
        // (the caller's connection is — see `Connection`).
        let k = Kernel::new();
        let client = k.create_task("client", 4096).unwrap();
        let server = k.create_task("server", 4096).unwrap();
        let port = k.port_allocate(server).unwrap();
        k.register_server(server, port, ServerOptions::default(), move |kk, m| {
            let addr = kk.user_alloc(server, m.body.len()).map_err(|_| 1u32)?;
            kk.copyout(server, addr, m.body).map_err(|_| 2u32)?;
            let copy = kk.copyin_vec(server, addr, m.body.len()).map_err(|_| 3u32)?;
            Ok(MsgOut { regs: m.regs, body: copy, rights: vec![] })
        })
        .unwrap();
        let send = k.extract_send_right(server, port, client).unwrap();
        let conn = k.ipc_bind(client, send, BindOptions::default()).unwrap();
        assert_eq!(k.ipc_call(&conn, b"reenter", &[]).unwrap().body, b"reenter");
    }
}
