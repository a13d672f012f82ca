//! Non-unary call models over the unary substrate.
//!
//! The paper's presentation language describes *how* a call moves its
//! data; this crate extends the same idea to *whether* a call is a
//! request/reply pair at all. Three shapes beyond unary RPC, all declared
//! as presentation attributes and settled at bind time:
//!
//! * **One-way notifications** (`[oneway]`) — no reply slot is allocated,
//!   no XID is waited on. [`ClientStub::notify`](flexrpc_runtime::ClientStub)
//!   is the entry point; the transports' datagram paths carry it.
//! * **Server→client callbacks** — the reverse direction of an existing
//!   duplex connection. [`CallbackChannel`] binds a client-registered
//!   callback interface so server work functions can push notifications
//!   back without opening a second connection.
//! * **Credit-window streams** (`[stream(window)]`) — a sender may have at
//!   most `window` unconsumed frames outstanding; the receiver returns
//!   credits as it drains, and an exhausted sender blocks
//!   *deterministically* on the sim clock ([`CreditWindow`]). Frames ride
//!   the existing fused marshal paths as tagged calls, so an at-most-once
//!   binding gives zero lost and zero duplicated frames even when the
//!   connection dies mid-stream.
//!
//! Both ends annotate independently;
//! [`negotiate_call_shape`](flexrpc_core::compat::negotiate_call_shape)
//! reconciles the two
//! declarations at bind time — stream windows settle to the minimum, and a
//! shape disagreement fails the bind, not some later call.
//!
//! Two end-to-end scenarios exercise the machinery: [`editfeed`] (a
//! broadcast edit feed fanning out to a thousand subscribers over
//! callbacks) and [`filestream`] (a streaming remote file service whose
//! writes are at-most-once, with an exactly-predicted credit-stall time).

pub mod callback;
pub mod credit;
pub mod editfeed;
pub mod filestream;
pub mod sender;

pub use callback::CallbackChannel;
pub use credit::CreditWindow;
pub use sender::StreamSender;
