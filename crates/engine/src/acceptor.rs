//! The network acceptor: engine-hosted Sun RPC services on [`SimNet`]
//! hosts, with call pipelining (multiple outstanding XIDs per message).
//!
//! [`expose_on_net`] registers a host handler that accepts either a single
//! call record or a *stream* of concatenated records — the Sun RPC analogue
//! of a TCP connection with several calls in flight. Every record becomes a
//! job on the engine queue, so the records of one batch execute across the
//! worker pool concurrently; replies are re-framed in completion-wait order
//! and the client matches them back to calls by XID.
//!
//! [`SunRpcPipeline`] is the matching client: it queues calls locally and
//! gather-encodes everything pending into one record stream on
//! [`SunRpcPipeline::flush`] — adaptive batching with no nagle delay
//! (whatever is ready ships immediately, coalesced). The acceptor's reply
//! half mirrors it: each batch's replies are gather-encoded straight into
//! a single outgoing stream, marshalled body slices spliced behind their
//! record marks with no intermediate per-reply frame.

use crate::engine::{Call, CallTicket, ClientInfo, Engine, ReplicaPool};
use crate::error::EngineError;
use flexrpc_control::TenantCells;
use flexrpc_core::program::CompiledInterface;
use flexrpc_net::sunrpc::{self, AcceptStat, AuthStat, CallHeader};
use flexrpc_net::{HostId, Link, NetError, SimNet};
use flexrpc_runtime::policy::CallTag;
use flexrpc_runtime::transport::{accept_call, dispatch_stat};
use flexrpc_runtime::TenantId;
use std::sync::Arc;

/// Registers `service_name` as the Sun RPC program `(prog, vers)` on
/// `host`, served by `engine`'s worker pool.
///
/// `client` describes the presentation half remote peers are assumed to
/// speak (network peers marshal through the service's wire format; their
/// binding is fixed at expose time, exactly one program combination per
/// exposure). The combination resolves through the engine's program cache,
/// so exposing the same service on several hosts compiles once.
pub fn expose_on_net(
    engine: &Arc<Engine>,
    net: &Arc<SimNet>,
    host: HostId,
    service_name: &str,
    prog: u32,
    vers: u32,
    client: ClientInfo,
) -> Result<(), EngineError> {
    let (pool, _compiled) = engine.pool_for(&*engine.service(service_name)?, client)?;
    let exposure = Exposure {
        engine: Arc::clone(engine),
        compiled: pool.compiled(),
        pool,
        // Untagged calls are the anonymous tenant's; like a connection, the
        // exposure resolves those cells once, here.
        anonymous: engine.control().resolve(TenantId::DEFAULT),
        prog,
        vers,
    };
    engine.counters().connections.inc();
    net.register_handler(host, move |stream, out| {
        let records = sunrpc::split_records(stream)?;
        // Phase 1: decode and submit everything — all XIDs go outstanding
        // before any reply is awaited, so one batch spreads across workers.
        let mut outcomes: Vec<(u32, Outcome)> = Vec::with_capacity(records.len());
        for record in records {
            let (hdr, credential, args) = sunrpc::decode_call_tagged(record)?;
            let outcome = match credential {
                Ok(tag) => {
                    let tag = tag.map(|(binding, seq, tenant)| {
                        CallTag::for_tenant(binding, seq, TenantId(tenant))
                    });
                    exposure.submit_one(hdr, tag, args)
                }
                Err(why) => Outcome::Denied(why),
            };
            outcomes.push((hdr.xid, outcome));
        }
        // Phase 2: await and re-frame. Waiting in submit order is fine —
        // execution already overlapped; XIDs let the client reorder freely.
        // Every reply is gather-encoded straight into the one outgoing
        // stream: the marshalled body slice is spliced behind its record
        // mark in place, with no per-reply staging frame, and the whole
        // batch leaves as a single write — into `out`, the buffer the
        // caller reads.
        for (xid, outcome) in outcomes {
            match outcome {
                Outcome::Immediate(stat) => {
                    sunrpc::encode_refusal_into(out, xid, stat, exposure.vers);
                }
                Outcome::Denied(why) => sunrpc::encode_denial_into(out, xid, why),
                Outcome::Pending(ticket) => match ticket.wait() {
                    Ok(reply) => sunrpc::encode_reply_gather_into(
                        out,
                        xid,
                        AcceptStat::Success,
                        &[&reply.body],
                    ),
                    Err(e) => match dispatch_stat(&e) {
                        Some(stat) => sunrpc::encode_refusal_into(out, xid, stat, exposure.vers),
                        None => return Err(NetError::ServiceFailure),
                    },
                },
            }
        }
        Ok(())
    })
    .map_err(EngineError::Net)
}

enum Outcome {
    /// Rejected before dispatch (wrong program/version/procedure).
    Immediate(AcceptStat),
    /// Denied for its credential, before anything else was read.
    Denied(AuthStat),
    /// Dispatched into the worker pool.
    Pending(CallTicket),
}

/// One program `(prog, vers)` served from one replica pool: what
/// [`expose_on_net`] fixed at expose time and every record is checked and
/// submitted against.
struct Exposure {
    engine: Arc<Engine>,
    pool: Arc<ReplicaPool>,
    compiled: Arc<CompiledInterface>,
    anonymous: TenantCells,
    prog: u32,
    vers: u32,
}

impl Exposure {
    fn submit_one(&self, hdr: CallHeader, tag: Option<CallTag>, args: &[u8]) -> Outcome {
        let op_index = match accept_call(&self.compiled, &hdr, self.prog, self.vers) {
            Ok(op_index) => op_index,
            Err(refusal) => return Outcome::Immediate(refusal),
        };
        // Tenancy rides the tag when the wire credential carried one. No
        // caller deadline crosses the wire, but the dwell limit still
        // applies. Every record is queued, and a queued job starts at the
        // replica of whoever runs it, so the replica hint is never read.
        let call = Call {
            bound: &self.anonymous,
            policy: None,
            home: 0,
            op_index,
            request: args,
            rights: &[],
            deadline_ns: None,
            tag,
            trace: None,
        };
        match self.engine.submit(&call, Arc::clone(&self.pool)) {
            Ok(ticket) => Outcome::Pending(ticket),
            // Shed, shutdown, induced failures, and an open breaker are all
            // SYSTEM_ERR (RFC 1057's "server is having trouble"), distinct
            // from the dispatch-table rejections above.
            Err(
                EngineError::Overloaded
                | EngineError::Closed
                | EngineError::Dropped
                | EngineError::Disconnected(_),
            ) => Outcome::Immediate(AcceptStat::SystemErr),
            Err(
                EngineError::UnknownService(_)
                | EngineError::DuplicateService(_)
                | EngineError::Compile(_)
                | EngineError::Net(_)
                | EngineError::ShapeMismatch(_),
            ) => Outcome::Immediate(AcceptStat::ProcUnavail),
        }
    }
}

/// A pipelining Sun RPC client: queue several calls, flush them as one
/// record stream, get every reply back matched by XID. A batch is sent
/// once; a retry is the stub's to license and run
/// ([`ClientStub::call_with`](flexrpc_runtime::ClientStub::call_with)).
pub struct SunRpcPipeline {
    /// The client → server pair, resolved once for every flush.
    link: Link,
    prog: u32,
    vers: u32,
    next_xid: u32,
    /// Calls queued since the last flush, kept as (header, argument
    /// bytes) pairs — encoding is deferred so the whole batch can be
    /// gathered into one record stream at flush time.
    pending: Vec<(CallHeader, Vec<u8>)>,
}

impl SunRpcPipeline {
    /// Creates a pipeline to `(prog, vers)` served on `to`.
    pub fn new(net: Arc<SimNet>, from: HostId, to: HostId, prog: u32, vers: u32) -> SunRpcPipeline {
        SunRpcPipeline { link: net.link(from, to), prog, vers, next_xid: 1, pending: Vec::new() }
    }

    /// Queues one call locally, returning its XID. Nothing is sent until
    /// [`SunRpcPipeline::flush`].
    pub fn submit(&mut self, proc: u32, args: &[u8]) -> u32 {
        let xid = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);
        let hdr = CallHeader { xid, prog: self.prog, vers: self.vers, proc };
        self.pending.push((hdr, args.to_vec()));
        xid
    }

    /// Calls currently queued.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Ships the queued batch as one stream and returns each call's
    /// `(status, results)` in XID submit order — regardless of the order
    /// the server's workers completed them in.
    ///
    /// Adaptive batching, nagle-free: nothing is delayed waiting for more
    /// calls — whatever is queued *right now* is coalesced. Every pending
    /// record is gather-encoded into one stream here (no per-call frame
    /// vector) and the stream goes out as a single write.
    pub fn flush(&mut self) -> flexrpc_net::Result<Vec<(AcceptStat, Vec<u8>)>> {
        if self.pending.is_empty() {
            return Ok(Vec::new());
        }
        let pending = std::mem::take(&mut self.pending);
        let mut batch = Vec::new();
        let mut expected = Vec::with_capacity(pending.len());
        for (hdr, args) in &pending {
            sunrpc::encode_call_tagged_into(&mut batch, *hdr, None, &[args]);
            expected.push(hdr.xid);
        }
        let mut reply_stream = Vec::new();
        self.link.call(&batch, &mut reply_stream)?;
        let records = sunrpc::split_records(&reply_stream)?;
        if records.len() != expected.len() {
            return Err(NetError::ReplyCount { sent: expected.len(), received: records.len() });
        }
        // Index replies by XID, then return them in submit order.
        let mut by_xid: std::collections::HashMap<u32, (AcceptStat, Vec<u8>)> = records
            .iter()
            .map(|rec| {
                let (xid, stat, results) = sunrpc::decode_reply(rec)?;
                Ok((xid, (stat, results.to_vec())))
            })
            .collect::<flexrpc_net::Result<_>>()?;
        expected.into_iter().map(|xid| by_xid.remove(&xid).ok_or(NetError::NoReply(xid))).collect()
    }
}

impl std::fmt::Debug for SunRpcPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SunRpcPipeline({} outstanding)", self.pending.len())
    }
}
