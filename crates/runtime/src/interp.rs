//! The stub-program interpreter.
//!
//! Executes a [`StubProgram`] against a call frame of [`Value`] slots and a
//! wire writer/reader. Payload ops do bulk `memcpy` work (or none, for the
//! borrowed/window forms), so the interpreter's copy schedule — not its
//! dispatch — dominates exactly as it did for the paper's generated C stubs.
//! On the fastest transport the dispatch is what is left, so it is kept
//! short: the stub does what the presentation says and little else.
//!
//! # One loop per transfer syntax
//!
//! [`marshal`] / [`unmarshal`] take the format-erased [`AnyWriter`] /
//! [`AnyReader`], match on it **once per program**, and run everything
//! below monomorphised over the concrete `CdrWriter` / `XdrWriter`
//! (`CdrReader` / `XdrReader`) through [`crate::wire`]'s crate-private
//! traits: no format match per primitive, and the writers' primitives
//! inline into the loop.
//!
//! # One executor, and an oracle you call
//!
//! * [`marshal`] / [`unmarshal`] run a program's
//!   [`FusedProgram`](flexrpc_core::fuse::FusedProgram) — the form every
//!   [`StubProgram`] carries, built with it by `StubProgram::from_ops` —
//!   through the **executor**, one loop over the `fops` that bind-time
//!   specialization left behind; nothing about the program is re-checked
//!   per call. What presentations commonly say is a step written inline in
//!   that loop, over `(slots, writer)` alone: a scalar — lone, or the one
//!   a payload head carries behind it (`FOp::Tail`) — goes through the
//!   writer's own primitive; counted bytes (`PutBytes`; `GetBytesOwned`,
//!   which refills the buffer the slot already holds) are one bulk copy;
//!   a block of two or more scalars is one buffer extend + N stores on the
//!   way out and **one up-front bounds check** + N loads on the way in,
//!   through the layout precomputed at bind time for the syntax (and, for
//!   CDR, the block's start phase). Everything else — checked and `length_is`
//!   strings, fixed opaques, `[special]` hooks, ports, borrowed and
//!   caller-allocated payloads — is a cold head and goes out of line
//!   through the six-argument `exec_put` / `exec_get`. The program's
//!   [`SizeHint`] reserves the marshal buffer once, up front.
//! * [`marshal_threaded`] / [`unmarshal_threaded`] walk the same program's
//!   `ops`, one `exec_put` / `exec_get` at a time — no inline step, no
//!   block, no presize, a fresh `Vec` per owned payload. Nothing on a call
//!   path runs them: they are the executor's byte-for-byte **oracle**, a
//!   function a test (or a code generator's check) calls on any program it
//!   holds (`tests/fuse_differential.rs`: same bytes and `bytes_written`,
//!   same values, the same kind of typed error on every strict prefix, the
//!   same `SlotKind` error for a wrong slot).
//!
//! # What is inline, and why
//!
//! The benchmark's profile has no LTO, so a non-generic function in another
//! crate is inlined only if it says `#[inline]`: without it each
//! `AnyWriter::put_u32` → `CdrWriter::put_u32` → `MsgBuf` was three
//! out-of-line calls per primitive. The leaves of `flexrpc-marshal`, the
//! forwarders of [`crate::wire`], the `Value` / `SlotMap` accessors and
//! `ServerCall`'s by-name accessors carry the attribute. Within this file
//! `put_scalar` / `get_scalar` are `#[inline(always)]`: left to the
//! optimiser they stayed out of line, and a `null_loopback` call executed
//! 1,880 instructions that way against 1,787 with them in the loop.
//!
//! # What is written in place, and why
//!
//! A value built in a temporary and then copied to where it is kept is
//! reloaded by wide loads that span the narrower stores which just built
//! it, and such a load cannot be forwarded from the store buffer: it waits
//! for those stores to reach the cache. An instruction count cannot see
//! this; a sampler can (`report sample`), and on `null_loopback` five such
//! reloads held a fifth of the call's samples. So every per-call value is
//! written where it lives. A scalar unmarshals into its slot — only the
//! payload when the slot already holds that variant, as `reset_frame` and
//! the previous call leave it (`store_in_place!`, which the server's status
//! word and `ServerCall::set` use too). A message is sealed into the buffer
//! that carries it by the function that wrote it, the writer never moved out
//! to a caller (`marshal_into` for the client's request, `marshal_then_seal`
//! for the server's reply). The marshal loop's error comes back boxed, so a
//! successful run returns in a register rather than as 48 bytes for its
//! caller to copy out. The client stub checks its unmarshal's outcome where
//! it lands and builds its `Ok(status)` at the return. Together they took
//! `null_loopback` from 5.9 M to 8.0 M calls/s (EXPERIMENTS.md, "Where the
//! stub's time went").

use crate::error::RpcError;
use crate::hooks::HookMap;
use crate::wire::{on_wire, AnyReader, AnyWriter, WireRead, WireWrite};
use crate::Result;
use flexrpc_core::fuse::{BlockField, FOp, ScalarBlock, ScalarKind, SizeHint};
use flexrpc_core::program::{MOp, Slot, StubProgram};
use flexrpc_core::value::Value;
use flexrpc_marshal::cdr::CdrWriter;
use flexrpc_marshal::xdr::XdrWriter;
use flexrpc_marshal::{MarshalError, WireFormat};

fn kind_err(op: &MOp, found: &Value, expected: &'static str) -> RpcError {
    RpcError::SlotKind { slot: op.slot().0, expected, found: found.kind() }
}

fn kind_name(kind: ScalarKind) -> &'static str {
    match kind {
        ScalarKind::U32 => "u32",
        ScalarKind::I32 => "i32",
        ScalarKind::U64 => "u64",
        ScalarKind::I64 => "i64",
        ScalarKind::Bool => "bool",
        ScalarKind::F64 => "f64",
    }
}

/// The field a scalar op moves. Fusion leaves a scalar as a bare
/// [`FOp::One`] only when it opens the program with nothing to merge with
/// (`read`'s whole request); the executor runs it as the scalar a head
/// would otherwise have carried.
#[inline]
fn lone_scalar(op: &MOp) -> Option<BlockField> {
    let (slot, kind) = match *op {
        MOp::PutU32(s) | MOp::GetU32(s) => (s, ScalarKind::U32),
        MOp::PutI32(s) | MOp::GetI32(s) => (s, ScalarKind::I32),
        MOp::PutU64(s) | MOp::GetU64(s) => (s, ScalarKind::U64),
        MOp::PutI64(s) | MOp::GetI64(s) => (s, ScalarKind::I64),
        MOp::PutBool(s) | MOp::GetBool(s) => (s, ScalarKind::Bool),
        MOp::PutF64(s) | MOp::GetF64(s) => (s, ScalarKind::F64),
        _ => return None,
    };
    Some(BlockField { slot, kind })
}

/// What runs after a fused op's head: nothing, one scalar, or a block of
/// two or more.
enum Tail<'p> {
    None,
    Scalar(BlockField),
    Block(&'p ScalarBlock),
}

/// A fused op as the executor takes it: the head that runs first (never a
/// scalar), and what runs after it. Every scalar the executor moves alone —
/// a lone leading one, or one a head carries — is the same [`Tail::Scalar`].
#[inline]
fn parts<'p>(fop: &'p FOp, blocks: &'p [ScalarBlock]) -> (Option<&'p MOp>, Tail<'p>) {
    match fop {
        FOp::One(op) => match lone_scalar(op) {
            Some(f) => (None, Tail::Scalar(f)),
            None => (Some(op), Tail::None),
        },
        FOp::Tail { head, field } => (Some(head), Tail::Scalar(*field)),
        FOp::Fused { head, block } => (head.as_ref(), Tail::Block(&blocks[*block])),
    }
}

/// Runs a marshal (Put) program: slots → writer.
///
/// `src_msg` resolves `Window` slots (payloads borrowed from the *request*
/// message when a server echoes them into a reply). `rights_out` collects
/// port rights in op order for out-of-band transfer.
pub fn marshal(
    program: &StubProgram,
    slots: &[Value],
    src_msg: &[u8],
    w: &mut AnyWriter,
    hooks: &HookMap,
    rights_out: &mut Vec<u32>,
) -> Result<()> {
    on_wire!(AnyWriter, w, w => marshal_on(program, slots, src_msg, w, hooks, rights_out))
        .map_err(|e| *e)
}

/// [`marshal`] as the client stub runs it: the whole message, in `format`,
/// into `buf`, where the stub keeps it. The concrete writer is built over
/// `buf`'s allocation here and the message sealed back into `buf` here — on
/// the error path too, so a failed marshal costs the next call nothing.
pub(crate) fn marshal_into(
    program: &StubProgram,
    slots: &[Value],
    format: WireFormat,
    buf: &mut Vec<u8>,
    hooks: &HookMap,
    rights_out: &mut Vec<u32>,
) -> Result<()> {
    let taken = std::mem::take(buf);
    match format {
        WireFormat::Xdr => {
            let mut w = XdrWriter::over_vec(taken);
            marshal_sealed(program, slots, &[], &mut w, buf, hooks, rights_out)
        }
        WireFormat::Cdr => {
            let mut w = CdrWriter::native_over(taken);
            marshal_sealed(program, slots, &[], &mut w, buf, hooks, rights_out)
        }
    }
}

/// [`marshal`] onto a message already under way in `w` (a reply whose sink
/// payloads a work function wrote), then the message sealed into `dst` by
/// the same hand, on the error path too: the server's reply.
pub(crate) fn marshal_then_seal(
    program: &StubProgram,
    slots: &[Value],
    src_msg: &[u8],
    w: &mut AnyWriter,
    dst: &mut Vec<u8>,
    hooks: &HookMap,
    rights_out: &mut Vec<u32>,
) -> Result<()> {
    on_wire!(AnyWriter, w, w => marshal_sealed(program, slots, src_msg, w, dst, hooks, rights_out))
}

/// The program, then the seal, with the concrete writer already chosen: no
/// writer crosses a call boundary to be finished by a caller. A writer
/// that an out-of-line `marshal` returned and its caller then moved out
/// or matched on again was reloaded by wide loads over the narrow stores
/// the callee had just made to its length and counters — a load the store
/// buffer cannot forward, which waits for it to drain.
#[inline(always)]
fn marshal_sealed<W: WireWrite>(
    program: &StubProgram,
    slots: &[Value],
    src_msg: &[u8],
    w: &mut W,
    dst: &mut Vec<u8>,
    hooks: &HookMap,
    rights_out: &mut Vec<u32>,
) -> Result<()> {
    let marshalled = marshal_on(program, slots, src_msg, w, hooks, rights_out);
    let sealed = w.seal_into(dst);
    marshalled.map_err(|e| *e)?;
    Ok(sealed?)
}

/// The executor's marshal loop. Its error comes back boxed: then a
/// successful run returns in a register, where a `Result<()>` of an
/// [`RpcError`]'s 48 bytes came back through memory, and its caller copied
/// all of it out with wide loads over the callee's narrower stores — a
/// stall on every call. A failed marshal pays one allocation instead.
fn marshal_on<W: WireWrite>(
    program: &StubProgram,
    slots: &[Value],
    src_msg: &[u8],
    w: &mut W,
    hooks: &HookMap,
    rights_out: &mut Vec<u32>,
) -> core::result::Result<(), Box<RpcError>> {
    let fused = &program.fused;
    reserve_for(&fused.presize, slots, w);
    for fop in &fused.fops {
        let (head, tail) = parts(fop, &fused.blocks);
        if let Some(op) = head {
            match *op {
                MOp::PutBytes(slot) => match slots[slot.0].window_of(src_msg) {
                    Some(bytes) => w.put_bytes(bytes),
                    None => return Err(kind_err(op, &slots[slot.0], "bytes").into()),
                },
                _ => exec_put(op, slots, src_msg, w, hooks, rights_out)?,
            }
        }
        match tail {
            Tail::None => {}
            Tail::Scalar(f) => put_scalar(&f, slots, w)?,
            Tail::Block(blk) => put_block(blk, slots, w)?,
        }
    }
    Ok(())
}

/// The oracle for [`marshal`]: the same program run as plain threaded code
/// — `program.ops` one op at a time, no inline step, no block, no presize.
/// Same arguments, and for any program and frame the same bytes, the same
/// `rights_out` and the same kind of error.
pub fn marshal_threaded(
    program: &StubProgram,
    slots: &[Value],
    src_msg: &[u8],
    w: &mut AnyWriter,
    hooks: &HookMap,
    rights_out: &mut Vec<u32>,
) -> Result<()> {
    on_wire!(AnyWriter, w, w => {
        program.ops.iter().try_for_each(|op| exec_put(op, slots, src_msg, w, hooks, rights_out))
    })
}

/// Executes one Put op: every op of the threaded oracle, and the cold heads
/// (strings, fixed opaques, hooks, ports) of the executor — which must reach
/// it by a call: its loop stays small, and its inline steps the only code
/// the common presentations run. (With two callers the optimiser leaves it
/// out of line, `nm` on the benchmark binary shows; if it ever stops, say
/// `#[inline(never)]`.)
fn exec_put<W: WireWrite>(
    op: &MOp,
    slots: &[Value],
    src_msg: &[u8],
    w: &mut W,
    hooks: &HookMap,
    rights_out: &mut Vec<u32>,
) -> Result<()> {
    let v = &slots[op.slot().0];
    match op {
        MOp::PutU32(_) => match v {
            Value::U32(x) => w.put_u32(*x),
            Value::Bool(b) => w.put_u32(*b as u32),
            other => return Err(kind_err(op, other, "u32")),
        },
        MOp::PutI32(_) => match v {
            Value::I32(x) => w.put_i32(*x),
            other => return Err(kind_err(op, other, "i32")),
        },
        MOp::PutU64(_) => match v {
            Value::U64(x) => w.put_u64(*x),
            other => return Err(kind_err(op, other, "u64")),
        },
        MOp::PutI64(_) => match v {
            Value::I64(x) => w.put_i64(*x),
            other => return Err(kind_err(op, other, "i64")),
        },
        MOp::PutBool(_) => match v {
            Value::Bool(x) => w.put_bool(*x),
            other => return Err(kind_err(op, other, "bool")),
        },
        MOp::PutF64(_) => match v {
            Value::F64(x) => w.put_f64(*x),
            other => return Err(kind_err(op, other, "f64")),
        },
        MOp::PutStr(_) => match v {
            Value::Str(s) => w.put_str(s),
            other => return Err(kind_err(op, other, "str")),
        },
        MOp::PutStrFromBytes(_) => match v.window_of(src_msg) {
            Some(bytes) => w.put_str_bytes(bytes),
            None => return Err(kind_err(op, v, "bytes")),
        },
        MOp::PutBytes(_) => match v.window_of(src_msg) {
            Some(bytes) => w.put_bytes(bytes),
            None => return Err(kind_err(op, v, "bytes")),
        },
        MOp::PutBytesFixed(_, n) => match v.window_of(src_msg) {
            Some(bytes) if bytes.len() == *n as usize => w.put_bytes_fixed(bytes),
            // An unset slot (error replies never filled it) marshals as
            // zeros: failed calls still produce decodable messages.
            Some([]) => w.put_bytes_fixed(&vec![0u8; *n as usize]),
            Some(bytes) => {
                let (expected, found) = (*n as usize, bytes.len());
                return Err(RpcError::FixedLen { slot: op.slot().0, expected, found });
            }
            None => return Err(kind_err(op, v, "bytes")),
        },
        MOp::PutBytesSpecial { hook, .. } => {
            let h = hooks.get(*hook).ok_or(RpcError::MissingHook(*hook))?.clone();
            let len = h.put_len(slots);
            let win = w.reserve_payload(len);
            w.fill_window_with(win, |dst| h.put_fill(slots, dst))?;
        }
        MOp::PutPort(_) => match v {
            Value::Port(p) => rights_out.push(*p),
            other => return Err(kind_err(op, other, "port")),
        },
        _ => unreachable!("Get op {op:?} in a marshal program is a compiler bug"),
    }
    Ok(())
}

/// Reserves the writer for the program's whole message, once: precomputed
/// fixed bytes plus the runtime lengths of payload slots (with length-word
/// and padding overhead budgeted per payload).
#[inline]
fn reserve_for<W: WireWrite>(hint: &SizeHint, slots: &[Value], w: &mut W) {
    // 8 covers the length word plus worst-case padding/NUL on either
    // format; over-reserving by a few bytes is harmless.
    let payload = |s: &Slot| 8 + slots[s.0].byte_len().unwrap_or(0);
    let payloads = match &hint.payload_slots[..] {
        [] => 0,
        [s] => payload(s),
        many => many.iter().map(payload).sum(),
    };
    w.reserve(W::fixed_bytes(hint) + payloads);
}

/// Executes one fused block of two or more scalars as a bulk write: one
/// zeroed extend of the message, then a direct slot→offset store per field.
/// Alignment was folded into the layout at bind time; nothing here pads or
/// dispatches.
#[inline]
fn put_block<W: WireWrite>(blk: &ScalarBlock, slots: &[Value], w: &mut W) -> Result<()> {
    let (layout, big, dst) = w.append_block(blk);
    for (f, &off) in blk.fields().iter().zip(layout.offsets) {
        let off = off as usize;
        macro_rules! store {
            ($x:expr) => {{
                let raw = if big { $x.to_be_bytes() } else { $x.to_le_bytes() };
                dst[off..off + raw.len()].copy_from_slice(&raw);
            }};
        }
        match (f.kind, &slots[f.slot.0]) {
            (ScalarKind::U32, Value::U32(x)) => store!(*x),
            // Same coercion the threaded PutU32 applies (enum-like bools).
            (ScalarKind::U32, Value::Bool(b)) => store!(*b as u32),
            (ScalarKind::I32, Value::I32(x)) => store!(*x),
            (ScalarKind::U64, Value::U64(x)) => store!(*x),
            (ScalarKind::I64, Value::I64(x)) => store!(*x),
            (ScalarKind::F64, Value::F64(x)) => store!(x.to_bits()),
            (ScalarKind::Bool, Value::Bool(b)) => {
                if W::BOOL_WORD {
                    store!(*b as u32)
                } else {
                    dst[off] = *b as u8;
                }
            }
            (kind, other) => return Err(scalar_kind_err(f.slot, kind, other)),
        }
    }
    Ok(())
}

#[cold]
fn scalar_kind_err(slot: Slot, kind: ScalarKind, found: &Value) -> RpcError {
    RpcError::SlotKind { slot: slot.0, expected: kind_name(kind), found: found.kind() }
}

/// Writes a single scalar field through the writer's own primitive
/// (identical bytes to the threaded op, without the block layout detour).
#[inline(always)]
fn put_scalar<W: WireWrite>(f: &BlockField, slots: &[Value], w: &mut W) -> Result<()> {
    match (f.kind, &slots[f.slot.0]) {
        (ScalarKind::U32, Value::U32(x)) => w.put_u32(*x),
        // Same coercion the threaded PutU32 applies (enum-like bools).
        (ScalarKind::U32, Value::Bool(b)) => w.put_u32(*b as u32),
        (ScalarKind::I32, Value::I32(x)) => w.put_i32(*x),
        (ScalarKind::U64, Value::U64(x)) => w.put_u64(*x),
        (ScalarKind::I64, Value::I64(x)) => w.put_i64(*x),
        (ScalarKind::F64, Value::F64(x)) => w.put_f64(*x),
        (ScalarKind::Bool, Value::Bool(b)) => w.put_bool(*b),
        (kind, other) => return Err(scalar_kind_err(f.slot, kind, other)),
    }
    Ok(())
}

/// Runs an unmarshal (Get) program: reader → slots.
///
/// `msg` is the full receive buffer (window offsets resolve against it);
/// `rights_in` yields port rights in op order.
pub fn unmarshal(
    program: &StubProgram,
    slots: &mut [Value],
    msg: &[u8],
    r: &mut AnyReader<'_>,
    hooks: &HookMap,
    rights_in: &mut dyn Iterator<Item = u32>,
) -> Result<()> {
    on_wire!(AnyReader, r, r => unmarshal_on(program, slots, msg, r, hooks, rights_in))
}

fn unmarshal_on<'a, R: WireRead<'a>>(
    program: &StubProgram,
    slots: &mut [Value],
    msg: &[u8],
    r: &mut R,
    hooks: &HookMap,
    rights_in: &mut dyn Iterator<Item = u32>,
) -> Result<()> {
    let fused = &program.fused;
    for fop in &fused.fops {
        let (head, tail) = parts(fop, &fused.blocks);
        if let Some(op) = head {
            match *op {
                // Unlike the threaded oracle's op, refill the buffer the
                // slot already holds: in steady state a reused frame
                // receives its payload with zero allocations, the same
                // buffer-recycling the paper's annotated stubs perform.
                // The resulting `Value` is bit-for-bit the oracle's.
                MOp::GetBytesOwned(slot) => {
                    let src = r.get_bytes_borrowed()?;
                    match &mut slots[slot.0] {
                        Value::Bytes(dst) => {
                            dst.clear();
                            dst.extend_from_slice(src);
                        }
                        other => *other = Value::Bytes(src.to_vec()),
                    }
                }
                _ => exec_get(op, slots, msg, r, hooks, rights_in)?,
            }
        }
        match tail {
            Tail::None => {}
            Tail::Scalar(f) => get_scalar(&f, slots, r)?,
            Tail::Block(blk) => get_block(blk, slots, r)?,
        }
    }
    Ok(())
}

/// The oracle for [`unmarshal`]: `program.ops` one op at a time, a fresh
/// `Vec` per owned payload. Same arguments, and for any program and message
/// the same slot values and the same kind of error.
pub fn unmarshal_threaded(
    program: &StubProgram,
    slots: &mut [Value],
    msg: &[u8],
    r: &mut AnyReader<'_>,
    hooks: &HookMap,
    rights_in: &mut dyn Iterator<Item = u32>,
) -> Result<()> {
    on_wire!(AnyReader, r, r => {
        program.ops.iter().try_for_each(|op| exec_get(op, slots, msg, r, hooks, rights_in))
    })
}

/// Executes one Get op: every op of the threaded oracle, and the cold heads
/// of the executor. Out of line for the reason `exec_put` is.
fn exec_get<'a, R: WireRead<'a>>(
    op: &MOp,
    slots: &mut [Value],
    msg: &[u8],
    r: &mut R,
    hooks: &HookMap,
    rights_in: &mut dyn Iterator<Item = u32>,
) -> Result<()> {
    let slot = op.slot().0;
    match op {
        MOp::GetU32(_) => slots[slot] = Value::U32(r.get_u32()?),
        MOp::GetI32(_) => slots[slot] = Value::I32(r.get_i32()?),
        MOp::GetU64(_) => slots[slot] = Value::U64(r.get_u64()?),
        MOp::GetI64(_) => slots[slot] = Value::I64(r.get_i64()?),
        MOp::GetBool(_) => slots[slot] = Value::Bool(r.get_bool()?),
        MOp::GetF64(_) => slots[slot] = Value::F64(r.get_f64()?),
        MOp::GetStr(_) => slots[slot] = Value::Str(r.get_str()?),
        MOp::GetStrAsBytes(_) => slots[slot] = Value::Bytes(r.get_str_bytes()?),
        MOp::GetBytesOwned(_) => slots[slot] = Value::Bytes(r.get_bytes_borrowed()?.to_vec()),
        MOp::GetBytesBorrowed(_) => {
            let s = r.get_bytes_borrowed()?;
            let off = s.as_ptr() as usize - msg.as_ptr() as usize;
            slots[slot] = Value::Window { off, len: s.len() };
        }
        MOp::GetBytesInto(_) => {
            let src = r.get_bytes_borrowed()?;
            match &mut slots[slot] {
                Value::Bytes(dst) => {
                    if src.len() > dst.capacity().max(dst.len()) {
                        return Err(RpcError::Marshal(
                            flexrpc_marshal::MarshalError::LengthOutOfRange {
                                claimed: src.len(),
                                max: dst.capacity().max(dst.len()),
                            },
                        ));
                    }
                    // Fill the caller's buffer in place: no allocation.
                    dst.clear();
                    dst.extend_from_slice(src);
                }
                other => {
                    let found = other.kind();
                    return Err(RpcError::SlotKind { slot, expected: "bytes", found });
                }
            }
        }
        MOp::GetBytesSpecial { hook, .. } => {
            let h = hooks.get(*hook).ok_or(RpcError::MissingHook(*hook))?.clone();
            let payload = r.get_bytes_borrowed()?;
            h.get(slots, payload);
            slots[slot] = Value::U32(payload.len() as u32);
        }
        MOp::GetBytesFixed(_, n) => {
            slots[slot] = Value::Bytes(r.get_bytes_fixed_owned(*n as usize)?)
        }
        MOp::GetPort(_) => {
            let p = rights_in.next().ok_or(RpcError::MissingRight(slot))?;
            slots[slot] = Value::Port(p);
        }
        _ => unreachable!("Put op {op:?} in an unmarshal program is a compiler bug"),
    }
    Ok(())
}

/// Stores payload `$x` (a scalar, or a work function's `Vec` / `String`)
/// into the `Value` slot `$slot` as variant `$v`, where it lives: a slot that
/// already holds that variant — what `reset_frame` and the previous call
/// leave there — has its payload overwritten and nothing else; any other
/// slot takes the whole value. The result is the oracle's
/// `*slot = Value::$v(x)` either way. `$x` is evaluated first, so a read that
/// fails leaves the slot as it was.
macro_rules! store_in_place {
    ($slot:expr, $v:ident, $x:expr) => {{
        let x = $x;
        match $slot {
            flexrpc_core::value::Value::$v(dst) => *dst = x,
            other => *other = flexrpc_core::value::Value::$v(x),
        }
    }};
}
pub(crate) use store_in_place;

/// Reads a single scalar field through the reader's own primitive (same
/// bytes, same error behavior as the threaded op, no layout detour) into
/// its slot in place.
#[inline(always)]
fn get_scalar<'a, R: WireRead<'a>>(f: &BlockField, slots: &mut [Value], r: &mut R) -> Result<()> {
    let slot = &mut slots[f.slot.0];
    match f.kind {
        ScalarKind::U32 => store_in_place!(slot, U32, r.get_u32()?),
        ScalarKind::I32 => store_in_place!(slot, I32, r.get_i32()?),
        ScalarKind::U64 => store_in_place!(slot, U64, r.get_u64()?),
        ScalarKind::I64 => store_in_place!(slot, I64, r.get_i64()?),
        ScalarKind::F64 => store_in_place!(slot, F64, r.get_f64()?),
        ScalarKind::Bool => store_in_place!(slot, Bool, r.get_bool()?),
    }
    Ok(())
}

/// Executes one fused block of two or more scalars as a bulk read: a single
/// prefix bounds check consumes the whole block, then each field decodes
/// straight into its slot. Scalar `Value`s are plain copies — no heap work
/// happens here.
#[inline]
fn get_block<'a, R: WireRead<'a>>(blk: &ScalarBlock, slots: &mut [Value], r: &mut R) -> Result<()> {
    let (layout, big, src) = r.take_block(blk)?;
    for (f, &off) in blk.fields().iter().zip(layout.offsets) {
        let off = off as usize;
        macro_rules! load {
            ($ty:ty, $n:expr) => {{
                let raw: [u8; $n] = src[off..off + $n].try_into().expect("layout bounds");
                if big {
                    <$ty>::from_be_bytes(raw)
                } else {
                    <$ty>::from_le_bytes(raw)
                }
            }};
        }
        let slot = &mut slots[f.slot.0];
        match f.kind {
            ScalarKind::U32 => store_in_place!(slot, U32, load!(u32, 4)),
            ScalarKind::I32 => store_in_place!(slot, I32, load!(i32, 4)),
            ScalarKind::U64 => store_in_place!(slot, U64, load!(u64, 8)),
            ScalarKind::I64 => store_in_place!(slot, I64, load!(i64, 8)),
            ScalarKind::F64 => store_in_place!(slot, F64, f64::from_bits(load!(u64, 8))),
            ScalarKind::Bool => {
                let v = if R::BOOL_WORD { load!(u32, 4) } else { src[off] as u32 };
                let b = match v {
                    0 => false,
                    1 => true,
                    v => return Err(MarshalError::BadBool(v).into()),
                };
                store_in_place!(slot, Bool, b)
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::SpecialMarshal;
    use flexrpc_core::program::Slot;
    use std::sync::Arc;
    use std::sync::Mutex;

    fn prog(ops: Vec<MOp>) -> StubProgram {
        StubProgram::from_ops(ops)
    }

    #[test]
    fn scalar_slots_roundtrip() {
        let p_put = prog(vec![
            MOp::PutU32(Slot(0)),
            MOp::PutI64(Slot(1)),
            MOp::PutBool(Slot(2)),
            MOp::PutF64(Slot(3)),
            MOp::PutStr(Slot(4)),
        ]);
        let p_get = prog(vec![
            MOp::GetU32(Slot(0)),
            MOp::GetI64(Slot(1)),
            MOp::GetBool(Slot(2)),
            MOp::GetF64(Slot(3)),
            MOp::GetStr(Slot(4)),
        ]);
        let slots = vec![
            Value::U32(7),
            Value::I64(-9),
            Value::Bool(true),
            Value::F64(1.5),
            Value::Str("flex".into()),
        ];
        for format in [WireFormat::Xdr, WireFormat::Cdr] {
            let mut w = AnyWriter::new(format);
            let mut rights = Vec::new();
            marshal(&p_put, &slots, &[], &mut w, &HookMap::new(), &mut rights).unwrap();
            let msg = w.into_bytes();
            let mut out = vec![Value::Null; 5];
            let mut r = AnyReader::new(format, &msg).unwrap();
            unmarshal(&p_get, &mut out, &msg, &mut r, &HookMap::new(), &mut std::iter::empty())
                .unwrap();
            assert_eq!(out, slots);
        }
    }

    #[test]
    fn the_empty_program_writes_and_reads_nothing() {
        // A null RPC's body, through the executor and through the oracle.
        let empty = StubProgram::default();
        assert_eq!(empty, prog(vec![]));
        for format in [WireFormat::Xdr, WireFormat::Cdr] {
            let header = AnyWriter::new(format).into_bytes();
            for threaded in [false, true] {
                let put = if threaded { marshal_threaded } else { marshal };
                let get = if threaded { unmarshal_threaded } else { unmarshal };
                let mut w = AnyWriter::new(format);
                let mut rights = Vec::new();
                put(&empty, &[], &[], &mut w, &HookMap::new(), &mut rights).unwrap();
                assert!(rights.is_empty());
                let msg = w.into_bytes();
                assert_eq!(msg, header, "{format:?}: nothing beyond the writer's own header");
                let mut r = AnyReader::new(format, &msg).unwrap();
                let before = r.remaining();
                get(&empty, &mut [], &msg, &mut r, &HookMap::new(), &mut std::iter::empty())
                    .unwrap();
                assert_eq!(r.remaining(), before, "{format:?}: nothing consumed");
            }
        }
    }

    #[test]
    fn fused_wire_bytes_match_unfused() {
        // A program mixing payloads, every scalar kind, and a fused tail —
        // the executor must be byte-identical to the oracle on both formats.
        let p = prog(vec![
            MOp::PutBytes(Slot(0)),
            MOp::PutU32(Slot(1)),
            MOp::PutBool(Slot(2)),
            MOp::PutU64(Slot(3)),
            MOp::PutI32(Slot(4)),
            MOp::PutF64(Slot(5)),
            MOp::PutI64(Slot(6)),
        ]);
        assert!(p.dispatch_count() < p.ops.len(), "fusion engaged");
        let slots = vec![
            Value::Bytes(b"abc".to_vec()),
            Value::U32(0xAABB),
            Value::Bool(true),
            Value::U64(1 << 40),
            Value::I32(-3),
            Value::F64(2.25),
            Value::I64(-(1 << 33)),
        ];
        for format in [WireFormat::Xdr, WireFormat::Cdr] {
            let mut w_plain = AnyWriter::new(format);
            marshal_threaded(&p, &slots, &[], &mut w_plain, &HookMap::new(), &mut Vec::new())
                .unwrap();
            let plain = w_plain.into_bytes();

            let mut w_fused = AnyWriter::new(format);
            marshal(&p, &slots, &[], &mut w_fused, &HookMap::new(), &mut Vec::new()).unwrap();
            assert_eq!(w_fused.into_bytes(), plain, "{format:?} fused bytes differ");
        }
    }

    #[test]
    fn fused_unmarshal_matches_unfused() {
        let put = prog(vec![
            MOp::PutBytes(Slot(0)),
            MOp::PutU32(Slot(1)),
            MOp::PutBool(Slot(2)),
            MOp::PutF64(Slot(3)),
        ]);
        let get = prog(vec![
            MOp::GetBytesOwned(Slot(0)),
            MOp::GetU32(Slot(1)),
            MOp::GetBool(Slot(2)),
            MOp::GetF64(Slot(3)),
        ]);
        let slots =
            vec![Value::Bytes(b"xyz".to_vec()), Value::U32(9), Value::Bool(false), Value::F64(0.5)];
        for format in [WireFormat::Xdr, WireFormat::Cdr] {
            let mut w = AnyWriter::new(format);
            marshal(&put, &slots, &[], &mut w, &HookMap::new(), &mut Vec::new()).unwrap();
            let msg = w.into_bytes();

            let mut plain_out = vec![Value::Null; 4];
            let mut r = AnyReader::new(format, &msg).unwrap();
            unmarshal_threaded(
                &get,
                &mut plain_out,
                &msg,
                &mut r,
                &HookMap::new(),
                &mut std::iter::empty(),
            )
            .unwrap();
            assert_eq!(r.remaining(), 0);

            let mut fused_out = vec![Value::Null; 4];
            let mut r = AnyReader::new(format, &msg).unwrap();
            unmarshal(&get, &mut fused_out, &msg, &mut r, &HookMap::new(), &mut std::iter::empty())
                .unwrap();
            assert_eq!(r.remaining(), 0, "{format:?} fused read consumed everything");
            assert_eq!(fused_out, plain_out);
            assert_eq!(fused_out, slots);
        }
    }

    #[test]
    fn fused_block_rejects_bad_bool() {
        for format in [WireFormat::Xdr, WireFormat::Cdr] {
            let mut w = AnyWriter::new(format);
            // Write a 2 where the bool belongs (valid u32, invalid bool).
            marshal(
                &prog(vec![MOp::PutU32(Slot(0)), MOp::PutU32(Slot(1))]),
                &[Value::U32(1), Value::U32(7)],
                &[],
                &mut w,
                &HookMap::new(),
                &mut Vec::new(),
            )
            .unwrap();
            let msg = {
                // CDR bools are 1 byte: build the message from matching puts.
                let mut w = AnyWriter::new(format);
                marshal(
                    &prog(vec![MOp::PutU32(Slot(0)), MOp::PutBool(Slot(1))]),
                    &[Value::U32(1), Value::Bool(true)],
                    &[],
                    &mut w,
                    &HookMap::new(),
                    &mut Vec::new(),
                )
                .unwrap();
                let mut bytes = w.into_bytes();
                // Corrupt the bool byte (last byte on XDR word and CDR octet).
                let last = bytes.len() - 1;
                bytes[last] = 2;
                bytes
            };
            let mut out = vec![Value::Null; 2];
            let mut r = AnyReader::new(format, &msg).unwrap();
            let err = unmarshal(
                &prog(vec![MOp::GetU32(Slot(0)), MOp::GetBool(Slot(1))]),
                &mut out,
                &msg,
                &mut r,
                &HookMap::new(),
                &mut std::iter::empty(),
            )
            .unwrap_err();
            assert!(matches!(err, RpcError::Marshal(MarshalError::BadBool(2))), "{format:?}");
        }
    }

    #[test]
    fn fused_block_truncation_detected_up_front() {
        let mut w = AnyWriter::new(WireFormat::Xdr);
        marshal(
            &prog(vec![MOp::PutU32(Slot(0))]),
            &[Value::U32(5)],
            &[],
            &mut w,
            &HookMap::new(),
            &mut Vec::new(),
        )
        .unwrap();
        let msg = w.into_bytes();
        // The fused block wants u32 + u64 = 12 bytes; only 4 are present,
        // and the single prefix check reports it before any slot changes.
        let mut out = vec![Value::Null; 2];
        let mut r = AnyReader::new(WireFormat::Xdr, &msg).unwrap();
        let err = unmarshal(
            &prog(vec![MOp::GetU32(Slot(0)), MOp::GetU64(Slot(1))]),
            &mut out,
            &msg,
            &mut r,
            &HookMap::new(),
            &mut std::iter::empty(),
        )
        .unwrap_err();
        assert!(matches!(err, RpcError::Marshal(MarshalError::Truncated { .. })));
        assert_eq!(out[0], Value::Null, "no partial decode past the prefix check");
    }

    #[test]
    fn fused_block_reports_slot_kind_mismatch() {
        let mut w = AnyWriter::new(WireFormat::Xdr);
        let err = marshal(
            &prog(vec![MOp::PutU32(Slot(0)), MOp::PutU64(Slot(1))]),
            &[Value::U32(1), Value::Str("wrong".into())],
            &[],
            &mut w,
            &HookMap::new(),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(matches!(err, RpcError::SlotKind { slot: 1, expected: "u64", .. }));
    }

    #[test]
    fn presize_reserves_exact_fixed_size() {
        // A fixed-size program must land in one allocation: capacity after
        // marshal covers the message with no growth reallocation.
        let p = prog(vec![MOp::PutU32(Slot(0)), MOp::PutU64(Slot(1))]);
        let mut w = AnyWriter::over(WireFormat::Xdr, Vec::new());
        marshal(&p, &[Value::U32(1), Value::U64(2)], &[], &mut w, &HookMap::new(), &mut Vec::new())
            .unwrap();
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 12);
    }

    #[test]
    fn owned_and_borrowed_payloads_interoperate() {
        let p_put = prog(vec![MOp::PutBytes(Slot(0))]);
        let slots = vec![Value::Bytes(b"payload".to_vec())];
        let mut w = AnyWriter::new(WireFormat::Cdr);
        marshal(&p_put, &slots, &[], &mut w, &HookMap::new(), &mut Vec::new()).unwrap();
        let msg = w.into_bytes();

        // Borrowed consumer gets a window into the message.
        let mut out = vec![Value::Null];
        let mut r = AnyReader::new(WireFormat::Cdr, &msg).unwrap();
        unmarshal(
            &prog(vec![MOp::GetBytesBorrowed(Slot(0))]),
            &mut out,
            &msg,
            &mut r,
            &HookMap::new(),
            &mut std::iter::empty(),
        )
        .unwrap();
        assert_eq!(out[0].window_of(&msg).unwrap(), b"payload");

        // A window slot can be re-marshalled (echo server shape).
        let mut w2 = AnyWriter::new(WireFormat::Cdr);
        marshal(&p_put, &out, &msg, &mut w2, &HookMap::new(), &mut Vec::new()).unwrap();
        let msg2 = w2.into_bytes();
        let mut out2 = vec![Value::Null];
        let mut r2 = AnyReader::new(WireFormat::Cdr, &msg2).unwrap();
        unmarshal(
            &prog(vec![MOp::GetBytesOwned(Slot(0))]),
            &mut out2,
            &msg2,
            &mut r2,
            &HookMap::new(),
            &mut std::iter::empty(),
        )
        .unwrap();
        assert_eq!(out2[0].as_bytes().unwrap(), b"payload");
    }

    #[test]
    fn caller_allocated_buffer_filled_in_place() {
        let mut w = AnyWriter::new(WireFormat::Xdr);
        marshal(
            &prog(vec![MOp::PutBytes(Slot(0))]),
            &[Value::Bytes(vec![5; 100])],
            &[],
            &mut w,
            &HookMap::new(),
            &mut Vec::new(),
        )
        .unwrap();
        let msg = w.into_bytes();

        let mut out = vec![Value::Bytes(Vec::with_capacity(128))];
        let ptr_before = out[0].as_bytes().unwrap().as_ptr();
        let mut r = AnyReader::new(WireFormat::Xdr, &msg).unwrap();
        unmarshal(
            &prog(vec![MOp::GetBytesInto(Slot(0))]),
            &mut out,
            &msg,
            &mut r,
            &HookMap::new(),
            &mut std::iter::empty(),
        )
        .unwrap();
        assert_eq!(out[0].as_bytes().unwrap(), &[5u8; 100][..]);
        assert_eq!(out[0].as_bytes().unwrap().as_ptr(), ptr_before, "no reallocation");
    }

    #[test]
    fn caller_buffer_too_small_rejected() {
        let mut w = AnyWriter::new(WireFormat::Xdr);
        marshal(
            &prog(vec![MOp::PutBytes(Slot(0))]),
            &[Value::Bytes(vec![5; 100])],
            &[],
            &mut w,
            &HookMap::new(),
            &mut Vec::new(),
        )
        .unwrap();
        let msg = w.into_bytes();
        let mut out = vec![Value::Bytes(Vec::with_capacity(10))];
        let mut r = AnyReader::new(WireFormat::Xdr, &msg).unwrap();
        let err = unmarshal(
            &prog(vec![MOp::GetBytesInto(Slot(0))]),
            &mut out,
            &msg,
            &mut r,
            &HookMap::new(),
            &mut std::iter::empty(),
        )
        .unwrap_err();
        assert!(matches!(err, RpcError::Marshal(_)));
    }

    #[test]
    fn special_hooks_on_both_sides() {
        // Sender: hook produces payload from out-of-band state.
        struct Produce;
        impl SpecialMarshal for Produce {
            fn put_len(&self, _: &[Value]) -> usize {
                4
            }
            fn put_fill(&self, _: &[Value], dst: &mut [u8]) -> usize {
                dst.copy_from_slice(b"hook");
                4
            }
        }
        let mut send_hooks = HookMap::new();
        send_hooks.set(0, Arc::new(Produce));
        let mut w = AnyWriter::new(WireFormat::Xdr);
        marshal(
            &prog(vec![MOp::PutBytesSpecial { slot: Slot(0), hook: 0 }]),
            &[Value::Null],
            &[],
            &mut w,
            &send_hooks,
            &mut Vec::new(),
        )
        .unwrap();
        let msg = w.into_bytes();

        // Receiver: hook captures the payload.
        struct Capture(Arc<Mutex<Vec<u8>>>);
        impl SpecialMarshal for Capture {
            fn get(&self, _: &mut [Value], payload: &[u8]) {
                self.0.lock().unwrap().extend_from_slice(payload);
            }
        }
        let captured = Arc::new(Mutex::new(Vec::new()));
        let mut recv_hooks = HookMap::new();
        recv_hooks.set(0, Arc::new(Capture(Arc::clone(&captured))));
        let mut out = vec![Value::Null];
        let mut r = AnyReader::new(WireFormat::Xdr, &msg).unwrap();
        unmarshal(
            &prog(vec![MOp::GetBytesSpecial { slot: Slot(0), hook: 0 }]),
            &mut out,
            &msg,
            &mut r,
            &recv_hooks,
            &mut std::iter::empty(),
        )
        .unwrap();
        assert_eq!(*captured.lock().unwrap(), b"hook");
        assert_eq!(out[0], Value::U32(4), "slot records the payload length");
    }

    #[test]
    fn missing_hook_reported() {
        let mut w = AnyWriter::new(WireFormat::Xdr);
        let err = marshal(
            &prog(vec![MOp::PutBytesSpecial { slot: Slot(0), hook: 3 }]),
            &[Value::Null],
            &[],
            &mut w,
            &HookMap::new(),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(err, RpcError::MissingHook(3));
    }

    #[test]
    fn ports_travel_out_of_band() {
        let mut w = AnyWriter::new(WireFormat::Cdr);
        let mut rights = Vec::new();
        marshal(
            &prog(vec![MOp::PutPort(Slot(0)), MOp::PutU32(Slot(1))]),
            &[Value::Port(42), Value::U32(1)],
            &[],
            &mut w,
            &HookMap::new(),
            &mut rights,
        )
        .unwrap();
        assert_eq!(rights, vec![42]);
        let msg = w.into_bytes();
        let mut out = vec![Value::Null, Value::Null];
        let mut r = AnyReader::new(WireFormat::Cdr, &msg).unwrap();
        unmarshal(
            &prog(vec![MOp::GetPort(Slot(0)), MOp::GetU32(Slot(1))]),
            &mut out,
            &msg,
            &mut r,
            &HookMap::new(),
            &mut vec![99u32].into_iter(),
        )
        .unwrap();
        assert_eq!(out[0], Value::Port(99), "receiver-side name, translated");
        assert_eq!(out[1], Value::U32(1));
    }

    #[test]
    fn missing_right_reported() {
        let msg = {
            let w = AnyWriter::new(WireFormat::Cdr);
            w.into_bytes()
        };
        let mut out = vec![Value::Null];
        let mut r = AnyReader::new(WireFormat::Cdr, &msg).unwrap();
        let err = unmarshal(
            &prog(vec![MOp::GetPort(Slot(0))]),
            &mut out,
            &msg,
            &mut r,
            &HookMap::new(),
            &mut std::iter::empty(),
        )
        .unwrap_err();
        assert_eq!(err, RpcError::MissingRight(0));
    }

    #[test]
    fn wrong_slot_kind_reported() {
        let mut w = AnyWriter::new(WireFormat::Xdr);
        let err = marshal(
            &prog(vec![MOp::PutU32(Slot(0))]),
            &[Value::Str("not a number".into())],
            &[],
            &mut w,
            &HookMap::new(),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(matches!(err, RpcError::SlotKind { slot: 0, expected: "u32", .. }));
    }

    #[test]
    fn fixed_bytes_length_enforced() {
        let mut w = AnyWriter::new(WireFormat::Xdr);
        let err = marshal(
            &prog(vec![MOp::PutBytesFixed(Slot(0), 32)]),
            &[Value::Bytes(vec![0; 16])],
            &[],
            &mut w,
            &HookMap::new(),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert_eq!(err, RpcError::FixedLen { slot: 0, expected: 32, found: 16 });
    }
}
