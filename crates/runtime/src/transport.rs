//! Transports: how marshalled messages reach the server.
//!
//! Three transports cover the paper's environments:
//!
//! * [`Loopback`] — direct in-process dispatch (the baseline harness and
//!   the LRPC-like lower bound in tests).
//! * [`KernelIpc`] — the simulated kernel's streamlined IPC path, carrying
//!   the operation index in a message register, bodies via the single
//!   direct copy, and port rights out-of-band (§4.2, §4.5).
//! * [`SunRpc`] — Sun RPC call/reply messages over the simulated Ethernet
//!   (§4.1's NFS experiment).
//!
//! Bind-time signature checking: [`serve_on_kernel`] registers the server's
//! wire-signature hash with the kernel, and [`connect_kernel`] presents the
//! client's — incompatible contracts fail at bind, not at call.

use crate::error::RpcError;
use crate::policy::CallControl;
use crate::server::ServerInterface;
use crate::Result;
use flexrpc_clock::{Disconnect, FaultInjector, Lost, SimClock, Verdict};
use flexrpc_core::present::Trust;
use flexrpc_core::program::{CompiledInterface, CompiledOp};
use flexrpc_kernel::ipc::{BindOptions, MsgOut, ServerOptions, MAX_BODY};
use flexrpc_kernel::regs::MSG_REGS;
use flexrpc_kernel::{Connection, Kernel, KernelError, NameMode, PortName, TaskId, TrustLevel};
use flexrpc_net::sunrpc::{self, AcceptStat, CallHeader};
use flexrpc_net::{HostId, Link, NetError, SimNet};
use parking_lot::Mutex;
use std::sync::Arc;

/// A client-side transport: delivers a marshalled request, returns the
/// marshalled reply and translated port rights.
pub trait Transport: Send {
    /// Performs one call for `op` under a [`CallControl`], filling `reply`
    /// with the received message and returning the offset where the reply
    /// *body* starts (transport framing, if any, precedes it). Returning an
    /// offset instead of re-copying keeps generated stubs on par with
    /// hand-coded ones — the protocol-stack receive copy happens exactly
    /// once.
    ///
    /// Transports with a clock check the control's absolute sim-clock
    /// deadline before sending and after the reply lands — a reply that
    /// arrives after the deadline is a [`RpcError::DeadlineExceeded`],
    /// exactly and deterministically. A transport with no notion of time
    /// (a test double) may ignore it.
    fn call_with(
        &mut self,
        op: &CompiledOp,
        request: &[u8],
        rights: &[u32],
        reply: &mut Vec<u8>,
        rights_out: &mut Vec<u32>,
        ctl: &CallControl,
    ) -> Result<usize>;

    /// [`Transport::call_with`] with no deadline and no tag.
    fn call(
        &mut self,
        op: &CompiledOp,
        request: &[u8],
        rights: &[u32],
        reply: &mut Vec<u8>,
        rights_out: &mut Vec<u32>,
    ) -> Result<usize> {
        self.call_with(op, request, rights, reply, rights_out, &CallControl::none())
    }

    /// Delivers a `[oneway]` request: no reply slot is allocated and no
    /// reply is waited for. At-most-once tags in `ctl` still travel with
    /// the message, so a duplicated notification is suppressed by the
    /// server's reply cache exactly like a duplicated call.
    ///
    /// The default routes through [`Transport::call_with`] and discards the
    /// reply — correct for any transport, merely not cheaper. Transports
    /// with a genuine datagram path (the simulated Ethernet, in-process
    /// dispatch) override this to skip the reply machinery entirely.
    fn send_oneway(
        &mut self,
        op: &CompiledOp,
        request: &[u8],
        rights: &[u32],
        ctl: &CallControl,
    ) -> Result<()> {
        let mut reply = Vec::new();
        let mut rights_out = Vec::new();
        self.call_with(op, request, rights, &mut reply, &mut rights_out, ctl)?;
        Ok(())
    }

    /// The sim clock this transport's world runs on, if it has one.
    /// Deadlines are resolved against it and retry backoff advances it.
    fn clock(&self) -> Option<Arc<SimClock>> {
        None
    }
}

/// Maps the core presentation's trust level onto the kernel's.
pub(crate) fn trust_to_kernel(t: Trust) -> TrustLevel {
    match t {
        Trust::None => TrustLevel::None,
        Trust::Leaky => TrustLevel::Leaky,
        Trust::LeakyUnprotected => TrustLevel::LeakyUnprotected,
    }
}

/// Direct in-process dispatch to a [`ServerInterface`].
pub struct Loopback {
    server: Held,
    clock: Arc<SimClock>,
    faults: Arc<FaultInjector>,
}

/// The server a [`Loopback`] dispatches into.
enum Held {
    /// Handed over with no other handle left: nothing else can reach it,
    /// so a call locks nothing.
    Owned(ServerInterface),
    /// Someone else holds a handle too: each call takes the lock.
    Shared(Arc<Mutex<ServerInterface>>),
}

impl Held {
    /// [`ServerInterface::dispatch_tagged`] on the held server: in place
    /// when owned; when shared, under the lock, out of line, so the owned
    /// call's code holds no lock instruction at all.
    #[inline(always)]
    fn dispatch_tagged(
        &mut self,
        op: &CompiledOp,
        request: &[u8],
        rights: &[u32],
        ctl: &CallControl,
        reply: &mut Vec<u8>,
        rights_out: &mut Vec<u32>,
    ) -> Result<()> {
        #[inline(never)]
        fn locked<R>(srv: &Mutex<ServerInterface>, f: impl FnOnce(&mut ServerInterface) -> R) -> R {
            f(&mut srv.lock())
        }
        let mut dispatch = |srv: &mut ServerInterface| {
            srv.dispatch_tagged(op.index, request, rights, ctl.tag, 0, reply, rights_out)
        };
        match self {
            Held::Owned(srv) => dispatch(srv),
            Held::Shared(srv) => locked(srv, dispatch),
        }
    }
}

impl Loopback {
    /// Wraps a server for direct dispatch (private clock).
    pub fn new(server: Arc<Mutex<ServerInterface>>) -> Loopback {
        Loopback::with_clock(server, SimClock::new())
    }

    /// Wraps a server, sharing a [`SimClock`] with the rest of the world.
    /// Given the only handle to `server`, the loopback keeps the server
    /// itself and calls it without locking; while another handle lives,
    /// every call locks it.
    pub fn with_clock(server: Arc<Mutex<ServerInterface>>, clock: Arc<SimClock>) -> Loopback {
        let server = match Arc::try_unwrap(server) {
            Ok(only) => Held::Owned(only.into_inner()),
            Err(shared) => Held::Shared(shared),
        };
        Loopback { server, clock, faults: Arc::new(FaultInjector::new()) }
    }

    /// The fault plan consulted once per call (a stalled in-process server
    /// is modeled as a `Delay` that advances the sim clock). Shared, so a
    /// test can keep a handle after boxing the transport into a stub.
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// What a call and a one-way send share ahead of the delivery proper:
    /// the deadline, the fault plan's verdict on this message and, when the
    /// verdict duplicates a message it does not lose, the extra delivery,
    /// whose reply goes nowhere. Inlining is forced, as for the client
    /// stub's `marshal_request`: out of line, the `Result` costs the call.
    #[inline(always)]
    fn admit(
        &mut self,
        op: &CompiledOp,
        request: &[u8],
        rights: &[u32],
        ctl: &CallControl,
    ) -> Result<Verdict> {
        if ctl.expired(&self.clock) {
            return Err(RpcError::DeadlineExceeded);
        }
        let verdict = self.faults.gate(&self.clock);
        if verdict.duplicate && verdict.lost.is_none() {
            self.deliver_unanswered(op, request, rights, ctl);
        }
        Ok(verdict)
    }

    /// Delivers a message whose reply nobody reads — a duplicate's, a
    /// one-way send's. Dispatch failures evaporate with it: the sender has
    /// no channel to learn of them (the server's own diagnostics do).
    fn deliver_unanswered(
        &mut self,
        op: &CompiledOp,
        request: &[u8],
        rights: &[u32],
        ctl: &CallControl,
    ) {
        let (mut reply, mut rights_out) = (Vec::new(), Vec::new());
        let _ = self.server.dispatch_tagged(op, request, rights, ctl, &mut reply, &mut rights_out);
    }
}

impl Transport for Loopback {
    fn call_with(
        &mut self,
        op: &CompiledOp,
        request: &[u8],
        rights: &[u32],
        reply: &mut Vec<u8>,
        rights_out: &mut Vec<u32>,
        ctl: &CallControl,
    ) -> Result<usize> {
        let verdict = self.admit(op, request, rights, ctl)?;
        match verdict.lost {
            Some(Lost::Dropped) => return Err(RpcError::Dropped),
            // The server object is gone before dispatch: nothing executes
            // until the injector's scheduled restart passes.
            Some(Lost::PeerDown) => return Err(RpcError::Disconnected(Disconnect::PeerDown)),
            // The link is severed but the server is alive: the caller sees
            // a disconnect it can retry elsewhere.
            Some(Lost::LinkCut) => return Err(RpcError::Disconnected(Disconnect::LinkCut)),
            None => {}
        }
        self.server.dispatch_tagged(op, request, rights, ctl, reply, rights_out)?;
        if verdict.close_after {
            // The server executed (and an at-most-once server cached the
            // reply), but the connection died before the reply returned.
            reply.clear();
            rights_out.clear();
            return Err(RpcError::Disconnected(Disconnect::ClosedBeforeReply));
        }
        if ctl.expired(&self.clock) {
            return Err(RpcError::DeadlineExceeded);
        }
        Ok(0)
    }

    fn send_oneway(
        &mut self,
        op: &CompiledOp,
        request: &[u8],
        rights: &[u32],
        ctl: &CallControl,
    ) -> Result<()> {
        // A one-way message has no reply to miss: a drop, crash, or
        // partition loses it silently, exactly as the datagram would be.
        if self.admit(op, request, rights, ctl)?.lost.is_some() {
            return Ok(());
        }
        self.deliver_unanswered(op, request, rights, ctl);
        Ok(())
    }

    fn clock(&self) -> Option<Arc<SimClock>> {
        Some(Arc::clone(&self.clock))
    }
}

/// The streamlined kernel IPC path.
pub struct KernelIpc {
    kernel: Arc<Kernel>,
    conn: Connection,
    /// Where a one-way send's reply lands before it is thrown away, kept so
    /// a warm send allocates none.
    discarded: Vec<u8>,
}

impl KernelIpc {
    /// Wraps an established connection.
    pub fn new(kernel: Arc<Kernel>, conn: Connection) -> KernelIpc {
        KernelIpc { kernel, conn, discarded: Vec::new() }
    }
}

impl Transport for KernelIpc {
    fn call_with(
        &mut self,
        op: &CompiledOp,
        request: &[u8],
        rights: &[u32],
        reply: &mut Vec<u8>,
        rights_out: &mut Vec<u32>,
        ctl: &CallControl,
    ) -> Result<usize> {
        if request.len() > MAX_BODY {
            return Err(RpcError::Kernel(KernelError::MsgTooLarge(request.len())));
        }
        if ctl.expired(self.kernel.clock()) {
            return Err(RpcError::DeadlineExceeded);
        }
        let mut regs = [0u64; MSG_REGS];
        regs[0] = op.index as u64;
        // At-most-once tag rides in registers 2 and 3 (binding ids start at
        // 1, so binding 0 means "untagged" without an option encoding);
        // register 4 carries the tenant the call is charged to.
        if let Some(tag) = ctl.tag {
            regs[2] = tag.binding;
            regs[3] = tag.seq;
            regs[4] = tag.tenant.as_u64();
        }
        let port_rights: Vec<PortName> = rights.iter().map(|&r| PortName(r)).collect();
        let (reply_regs, reply_rights) =
            self.kernel.ipc_call_into(&self.conn, regs, request, &port_rights, reply)?;
        // The kernel's fault plan may have stalled the receive (a `Delay`
        // advancing the sim clock); a reply landing past the deadline is a
        // deadline miss, deterministically.
        if ctl.expired(self.kernel.clock()) {
            return Err(RpcError::DeadlineExceeded);
        }
        // regs[1] carries a server-side dispatch failure, if any: the
        // server ran the call and it failed, so it is not resent.
        if reply_regs[1] != 0 {
            return Err(RpcError::Kernel(KernelError::ServerFailure(reply_regs[1] as u32)));
        }
        rights_out.clear();
        rights_out.extend(reply_rights.iter().map(|p| p.0));
        Ok(0)
    }

    fn send_oneway(
        &mut self,
        op: &CompiledOp,
        request: &[u8],
        rights: &[u32],
        ctl: &CallControl,
    ) -> Result<()> {
        // Kernel IPC is synchronous, so a one-way send is a call whose
        // reply is discarded — and, as on every transport, one whose loss
        // (a dropped message, a dead or closed connection) is silent: there
        // is no reply to miss.
        let mut reply = std::mem::take(&mut self.discarded);
        let outcome = self.call_with(op, request, rights, &mut reply, &mut Vec::new(), ctl);
        reply.clear();
        self.discarded = reply;
        match outcome {
            Err(RpcError::Kernel(KernelError::Dropped | KernelError::ConnectionDead)) => Ok(()),
            outcome => outcome.map(|_| ()),
        }
    }

    fn clock(&self) -> Option<Arc<SimClock>> {
        Some(Arc::clone(self.kernel.clock()))
    }
}

/// Registers `server` on a kernel port: allocates the port, registers a
/// handler that dispatches into the server, and returns the port name in
/// the server task's space.
///
/// The server's wire-signature hash and presentation-derived attributes
/// (trust of clients, `[nonunique]` name mode) become its half of the
/// combination signature. Each reply marshals into the calling
/// connection's send window ([`MsgIn::reply`](flexrpc_kernel::ipc::MsgIn::reply)),
/// so a warm call allocates only what the work function itself does.
pub fn serve_on_kernel(
    kernel: &Arc<Kernel>,
    task: TaskId,
    server: Arc<Mutex<ServerInterface>>,
    trust_of_client: Trust,
    name_mode: NameMode,
) -> Result<PortName> {
    serve_on_kernel_direct(kernel, task, server, trust_of_client, name_mode, false)
}

/// Like [`serve_on_kernel`], optionally enabling the kernel's direct-receive
/// enhancement (the §4.2.1 write-path ablation): handlers read the sender's
/// message in place, deleting the receive-buffer copy.
pub fn serve_on_kernel_direct(
    kernel: &Arc<Kernel>,
    task: TaskId,
    server: Arc<Mutex<ServerInterface>>,
    trust_of_client: Trust,
    name_mode: NameMode,
    direct_receive: bool,
) -> Result<PortName> {
    let port = kernel.port_allocate(task)?;
    let signature = server.lock().compiled().signature.hash();
    let options = ServerOptions {
        trust_of_client: trust_to_kernel(trust_of_client),
        name_mode,
        signature: Some(signature),
        direct_receive,
    };
    let srv = Arc::clone(&server);
    kernel.register_server(task, port, options, move |_k, msg| {
        let op_index = msg.regs[0] as usize;
        // Registers 2/3 carry the at-most-once tag (binding 0 = untagged);
        // register 4 the tenant it is charged to.
        let tag = (msg.regs[2] != 0).then(|| {
            crate::policy::CallTag::for_tenant(
                msg.regs[2],
                msg.regs[3],
                crate::policy::TenantId(msg.regs[4]),
            )
        });
        let rights: Vec<u32> = msg.rights.iter().map(|p| p.0).collect();
        // The reply marshals into the connection's send window, which the
        // kernel takes back once it has copied the reply out.
        let mut reply = msg.reply;
        let mut rights_out = Vec::new();
        let mut out_regs = msg.regs;
        match srv.lock().dispatch_tagged(
            op_index,
            msg.body,
            &rights,
            tag,
            0,
            &mut reply,
            &mut rights_out,
        ) {
            Ok(()) => out_regs[1] = 0,
            Err(_) => out_regs[1] = 1,
        }
        Ok(MsgOut {
            regs: out_regs,
            body: reply,
            rights: rights_out.into_iter().map(PortName).collect(),
        })
    })?;
    Ok(port)
}

/// Binds a client to a served port, presenting the client's signature hash
/// and presentation-derived attributes. Fails on contract mismatch.
pub fn connect_kernel(
    kernel: &Arc<Kernel>,
    client_task: TaskId,
    send_name: PortName,
    client_signature: u64,
    trust_of_server: Trust,
    name_mode: NameMode,
) -> Result<KernelIpc> {
    let conn = kernel.ipc_bind(
        client_task,
        send_name,
        BindOptions {
            trust_of_server: trust_to_kernel(trust_of_server),
            name_mode,
            signature: Some(client_signature),
        },
    )?;
    Ok(KernelIpc::new(Arc::clone(kernel), conn))
}

/// Sun RPC over the simulated network.
pub struct SunRpc {
    /// The `from → to` pair, resolved here where the binding is made and
    /// not again per call.
    link: Link,
    prog: u32,
    vers: u32,
    next_xid: u32,
    /// The outgoing call frame, re-encoded in place for every call.
    frame: Vec<u8>,
}

impl SunRpc {
    /// Creates a client transport to `(prog, vers)` served on `to`.
    pub fn new(net: Arc<SimNet>, from: HostId, to: HostId, prog: u32, vers: u32) -> SunRpc {
        SunRpc { link: net.link(from, to), prog, vers, next_xid: 1, frame: Vec::new() }
    }

    /// Frames `request` as call `xid` of `op` into the kept frame buffer.
    /// The at-most-once identity travels in the credential, stable across
    /// retries of one logical call.
    fn encode_frame(&mut self, xid: u32, op: &CompiledOp, request: &[u8], ctl: &CallControl) {
        let proc = op.opnum.unwrap_or(op.index as u32);
        self.frame.clear();
        sunrpc::encode_call_tagged_into(
            &mut self.frame,
            CallHeader { xid, prog: self.prog, vers: self.vers, proc },
            ctl.tag.map(|t| (t.binding, t.seq, t.tenant.as_u64())),
            &[request],
        );
    }
}

impl Transport for SunRpc {
    fn call_with(
        &mut self,
        op: &CompiledOp,
        request: &[u8],
        rights: &[u32],
        reply: &mut Vec<u8>,
        rights_out: &mut Vec<u32>,
        ctl: &CallControl,
    ) -> Result<usize> {
        if !rights.is_empty() {
            return Err(RpcError::RightsUnsupported);
        }
        if ctl.expired(self.link.net().clock()) {
            return Err(RpcError::DeadlineExceeded);
        }
        // XIDs stay per-attempt: they match replies to requests on the
        // stream.
        let xid = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);
        self.encode_frame(xid, op, request, ctl);
        // `reply` is the buffer the server writes: it marshals the reply
        // body there behind the header room and seals the header in place
        // (`serve_on_net`), so the body the stub unmarshals is the one the
        // server marshalled. The body offset comes from the decoded frame.
        self.link.call(&self.frame, reply)?;
        // The net charged wire time (and any induced stall) to the sim
        // clock; a reply landing past the deadline is a deadline miss.
        if ctl.expired(self.link.net().clock()) {
            return Err(RpcError::DeadlineExceeded);
        }
        let (rxid, stat, results) = match sunrpc::decode_reply(reply) {
            Ok(decoded) => decoded,
            Err(e) => {
                // As for an error from the net: no bytes are left to
                // misread as a reply.
                reply.clear();
                return Err(e.into());
            }
        };
        if rxid != xid {
            return Err(NetError::Malformed("reply xid does not match the call").into());
        }
        match stat {
            AcceptStat::Success => {}
            // SYSTEM_ERR is how an overloaded engine sheds over the wire.
            AcceptStat::SystemErr => return Err(RpcError::Overloaded),
            refusal => return Err(RpcError::Net(NetError::Refused(refusal))),
        }
        let offset = results.as_ptr() as usize - reply.as_ptr() as usize;
        rights_out.clear();
        Ok(offset)
    }

    fn send_oneway(
        &mut self,
        op: &CompiledOp,
        request: &[u8],
        rights: &[u32],
        ctl: &CallControl,
    ) -> Result<()> {
        if !rights.is_empty() {
            return Err(RpcError::RightsUnsupported);
        }
        if ctl.expired(self.link.net().clock()) {
            return Err(RpcError::DeadlineExceeded);
        }
        // XID 0 marks "no reply expected": nothing will ever match it, and
        // the client allocates no reply-wait state. The at-most-once tag
        // still rides in the credential, so a duplicated notification is
        // deduplicated by the server's reply cache.
        self.encode_frame(0, op, request, ctl);
        self.link.send(&self.frame)?;
        Ok(())
    }

    fn clock(&self) -> Option<Arc<SimClock>> {
        Some(Arc::clone(self.link.net().clock()))
    }
}

/// What a Sun RPC server answers before it dispatches anything: the index
/// of the operation `hdr` names in `compiled`, served as `(prog, vers)`, or
/// the `PROG_UNAVAIL` / `PROG_MISMATCH` / `PROC_UNAVAIL` the call is
/// refused with. The one check [`serve_on_net`] and the engine's acceptor
/// share.
pub fn accept_call(
    compiled: &CompiledInterface,
    hdr: &CallHeader,
    prog: u32,
    vers: u32,
) -> std::result::Result<usize, AcceptStat> {
    if hdr.prog != prog {
        return Err(AcceptStat::ProgUnavail);
    }
    if hdr.vers != vers {
        return Err(AcceptStat::ProgMismatch);
    }
    compiled.op_by_proc(hdr.proc).ok_or(AcceptStat::ProcUnavail)
}

/// The reply stat a Sun RPC server answers a failed dispatch with, or
/// `None` when the failure has no stat and the connection fails instead:
/// undecodable arguments are `GARBAGE_ARGS`, a call refused under policy
/// (deadline, shed, drain) is `SYSTEM_ERR`, so the client can tell "the
/// server refused" from "the server is broken". The one mapping
/// [`serve_on_net`] and the engine's acceptor share.
pub fn dispatch_stat(e: &RpcError) -> Option<AcceptStat> {
    match e {
        RpcError::Marshal(_) => Some(AcceptStat::GarbageArgs),
        RpcError::DeadlineExceeded | RpcError::Overloaded | RpcError::Cancelled => {
            Some(AcceptStat::SystemErr)
        }
        _ => None,
    }
}

/// Registers `server` as the Sun RPC service on `host`: decodes call
/// frames, dispatches by procedure number, and marshals each reply once,
/// where it goes: `out`, the buffer the caller reads. The server leaves
/// [`sunrpc::REPLY_HDR_LEN`] bytes of header room at the front of `out`,
/// marshals the reply body behind it (a replay copies the cached body
/// there), and [`sunrpc::seal_reply`] patches the record mark, XID and
/// status into the room — no intermediate buffer, no second copy of the
/// body. The one lock a call takes is the server's. A refusal is framed
/// whole instead; `PROG_MISMATCH` names `vers` as the one version served.
/// A call with a credential other than null or the at-most-once tag is
/// denied (`MSG_DENIED` / `AUTH_ERROR`, [`sunrpc::decode_call_tagged`] says
/// why) before the server is locked.
/// Port rights a work function returns are dropped: Sun RPC has no way to
/// carry them.
pub fn serve_on_net(
    net: &Arc<SimNet>,
    host: HostId,
    server: Arc<Mutex<ServerInterface>>,
    prog: u32,
    vers: u32,
) -> Result<()> {
    net.register_handler(host, move |msg, out| {
        let (hdr, credential, args) = sunrpc::decode_call_tagged(msg)?;
        let wire_tag = match credential {
            Ok(wire_tag) => wire_tag,
            Err(why) => {
                sunrpc::encode_denial_into(out, hdr.xid, why);
                return Ok(());
            }
        };
        let tag = wire_tag.map(|(binding, seq, tenant)| {
            crate::policy::CallTag::for_tenant(binding, seq, crate::policy::TenantId(tenant))
        });
        let mut srv = server.lock();
        let refusal = match accept_call(srv.compiled(), &hdr, prog, vers) {
            Ok(op_index) => {
                let head = sunrpc::REPLY_HDR_LEN;
                match srv.dispatch_tagged(op_index, args, &[], tag, head, out, &mut Vec::new()) {
                    Ok(()) => {
                        sunrpc::seal_reply(out, hdr.xid, AcceptStat::Success);
                        return Ok(());
                    }
                    Err(e) => dispatch_stat(&e).ok_or(NetError::ServiceFailure)?,
                }
            }
            Err(refusal) => refusal,
        };
        out.clear();
        sunrpc::encode_refusal_into(out, hdr.xid, refusal, vers);
        Ok(())
    })?;
    Ok(())
}
