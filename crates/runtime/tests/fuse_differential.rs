//! Differential property tests for the specialized interpreter.
//!
//! The executor ([`flexrpc_runtime::interp`]'s per-syntax loop over the
//! bind-time `FusedProgram`: `interp::{marshal, unmarshal}`) is checked
//! against the threaded loop (`interp::{marshal_threaded,
//! unmarshal_threaded}`: the same program's `ops` one at a time, no blocks,
//! no presize), which exists as its byte-for-byte oracle — a function
//! called on the very program under test. For random sequences of typed
//! fields — every scalar kind, counted bytes, checked strings, `length_is`
//! strings and fixed opaques, so every head the executor runs inline or
//! hands to the cold path — on both wire formats:
//!
//! * marshal produces byte-identical messages and the same `bytes_written`
//!   (the copy schedule), and unmarshal value-identical frames — including
//!   when the destination frame is dirty, which exercises the fused path's
//!   buffer-reuse refill of `GetBytesOwned` slots;
//! * blocks of two or more scalars — the ones that run through a
//!   precomputed layout — are started at every CDR alignment phase in turn;
//! * **every strict prefix** of a message is refused by both paths with
//!   the same kind of typed error, without a panic, and allocating no more
//!   than the whole message does (a fused block is refused by its one
//!   up-front bounds check, so the numbers inside a `Truncated` may differ;
//!   the kind may not);
//! * unmarshal into a frame whose slots already hold something — any kind
//!   of `Value`, the very variant a field decodes to with a stale value
//!   (the slot the executor writes in place, payload only), a byte buffer
//!   with room to spare — ends in the oracle's frame, and every strict
//!   prefix in the oracle's kind of error;
//! * a slot holding the wrong kind of `Value` is the same `SlotKind` error
//!   (slot, expected, found) from both;
//! * all of the above but the last holds for every program shape of 0 to 3
//!   ops with 0 to 2 payloads — the programs either side of what a program
//!   keeps in place (2 ops, 1 fused op, 1 payload slot) rather than on the
//!   heap, one-scalar tails and blocks of two or more among them.
//!
//! The generator (`Field`, `field()`, `programs()`) is the one ROADMAP
//! items 1 and 4a share: a hostile-bytes mutator starts from its messages.

use flexrpc_core::fuse::FOp;
use flexrpc_core::program::{MOp, Slot, StubProgram};
use flexrpc_core::value::Value;
use flexrpc_marshal::{MarshalError, WireFormat};
use flexrpc_runtime::interp::{marshal, marshal_threaded, unmarshal, unmarshal_threaded};
use flexrpc_runtime::wire::{AnyReader, AnyWriter};
use flexrpc_runtime::{HookMap, RpcError};
use proptest::prelude::*;
use std::mem::{discriminant, Discriminant};

mod counting_alloc;
use counting_alloc::allocs;

/// One marshalled field: the value plus its op pair.
#[derive(Clone, Debug)]
enum Field {
    U32(u32),
    I32(i32),
    U64(u64),
    I64(i64),
    Bool(bool),
    F64(f64),
    Str(String),
    Bytes(Vec<u8>),
    /// A string presented as raw bytes (`length_is`).
    StrBytes(Vec<u8>),
    /// A fixed opaque field of exactly this many bytes.
    Fixed(Vec<u8>),
}

impl Field {
    fn is_scalar(&self) -> bool {
        !matches!(self, Field::Str(_) | Field::Bytes(_) | Field::StrBytes(_) | Field::Fixed(_))
    }

    fn value(&self) -> Value {
        match self {
            Field::U32(x) => Value::U32(*x),
            Field::I32(x) => Value::I32(*x),
            Field::U64(x) => Value::U64(*x),
            Field::I64(x) => Value::I64(*x),
            Field::Bool(x) => Value::Bool(*x),
            Field::F64(x) => Value::F64(*x),
            Field::Str(s) => Value::Str(s.clone()),
            Field::Bytes(b) | Field::StrBytes(b) | Field::Fixed(b) => Value::Bytes(b.clone()),
        }
    }

    fn put_op(&self, slot: Slot) -> MOp {
        match self {
            Field::U32(_) => MOp::PutU32(slot),
            Field::I32(_) => MOp::PutI32(slot),
            Field::U64(_) => MOp::PutU64(slot),
            Field::I64(_) => MOp::PutI64(slot),
            Field::Bool(_) => MOp::PutBool(slot),
            Field::F64(_) => MOp::PutF64(slot),
            Field::Str(_) => MOp::PutStr(slot),
            Field::Bytes(_) => MOp::PutBytes(slot),
            Field::StrBytes(_) => MOp::PutStrFromBytes(slot),
            Field::Fixed(b) => MOp::PutBytesFixed(slot, b.len() as u32),
        }
    }

    fn get_op(&self, slot: Slot) -> MOp {
        match self {
            Field::U32(_) => MOp::GetU32(slot),
            Field::I32(_) => MOp::GetI32(slot),
            Field::U64(_) => MOp::GetU64(slot),
            Field::I64(_) => MOp::GetI64(slot),
            Field::Bool(_) => MOp::GetBool(slot),
            Field::F64(_) => MOp::GetF64(slot),
            Field::Str(_) => MOp::GetStr(slot),
            Field::Bytes(_) => MOp::GetBytesOwned(slot),
            Field::StrBytes(_) => MOp::GetStrAsBytes(slot),
            Field::Fixed(b) => MOp::GetBytesFixed(slot, b.len() as u32),
        }
    }
}

impl Field {
    /// The variant this field decodes to, holding a value derived from
    /// `seed` — as a reused frame holds the previous call's.
    fn stale(&self, seed: u64) -> Value {
        match self {
            Field::U32(_) => Value::U32(seed as u32),
            Field::I32(_) => Value::I32(seed as i32),
            Field::U64(_) => Value::U64(seed),
            Field::I64(_) => Value::I64(seed as i64),
            Field::Bool(_) => Value::Bool(seed & 1 == 1),
            Field::F64(_) => Value::F64((seed >> 11) as f64 * 0.25),
            Field::Str(_) => Value::Str(format!("stale {seed}")),
            Field::Bytes(_) | Field::StrBytes(_) | Field::Fixed(_) => {
                let mut b = Vec::with_capacity(64);
                b.extend_from_slice(&seed.to_le_bytes()[..(seed % 9) as usize]);
                Value::Bytes(b)
            }
        }
    }
}

/// Any kind of `Value` a slot may hold when a decode begins, a `Bytes` with
/// spare capacity among them.
fn any_value() -> impl Strategy<Value = Value> {
    let bytes = || prop::collection::vec(any::<u8>(), 0..16);
    prop_oneof![
        Just(Value::Null),
        any::<u32>().prop_map(Value::U32),
        any::<i32>().prop_map(Value::I32),
        any::<u64>().prop_map(Value::U64),
        any::<i64>().prop_map(Value::I64),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(|x| Value::F64(x as f64 * 0.5)),
        bytes().prop_map(|v| Value::Str(v.iter().map(|b| (b'a' + b % 26) as char).collect())),
        (bytes(), 0usize..64).prop_map(|(v, spare)| {
            let mut b = Vec::with_capacity(v.len() + spare);
            b.extend_from_slice(&v);
            Value::Bytes(b)
        }),
        (0usize..64, 0usize..64).prop_map(|(off, len)| Value::Window { off, len }),
        any::<u32>().prop_map(Value::Port),
        bytes().prop_map(|v| Value::Shared(v.into())),
    ]
}

/// What one slot of a dirty frame holds: any value, or (`Same`) the variant
/// its field decodes to, stale.
#[derive(Clone, Debug)]
enum Prior {
    Any(Value),
    Same(u64),
}

fn prior() -> impl Strategy<Value = Prior> {
    prop_oneof![any_value().prop_map(Prior::Any), any::<u64>().prop_map(Prior::Same)]
}

fn field() -> impl Strategy<Value = Field> {
    prop_oneof![
        any::<u32>().prop_map(Field::U32),
        any::<i32>().prop_map(Field::I32),
        any::<u64>().prop_map(Field::U64),
        any::<i64>().prop_map(Field::I64),
        any::<bool>().prop_map(Field::Bool),
        // Finite doubles only: NaN breaks value equality, not marshalling.
        any::<i64>().prop_map(|x| Field::F64(x as f64 * 0.125)),
        prop::collection::vec(any::<u8>(), 0..24)
            .prop_map(|v| Field::Str(v.iter().map(|b| (b'a' + b % 26) as char).collect())),
        prop::collection::vec(any::<u8>(), 0..48).prop_map(Field::Bytes),
        prop::collection::vec(any::<u8>(), 0..24).prop_map(Field::StrBytes),
        prop::collection::vec(any::<u8>(), 0..40).prop_map(Field::Fixed),
    ]
}

/// A fixed-size scalar field.
fn scalar() -> impl Strategy<Value = Field> {
    field().prop_filter("a scalar", Field::is_scalar)
}

/// A counted field: one whose length the size hint adds at call time.
fn counted() -> impl Strategy<Value = Field> {
    field().prop_filter("a counted field", |f| {
        matches!(f, Field::Str(_) | Field::Bytes(_) | Field::StrBytes(_))
    })
}

/// Every program shape of up to three ops with at most two counted
/// payloads, as one flag per op (`true`: counted, `false`: scalar). A
/// program keeps two ops, one fused op and one payload slot in place, so
/// these straddle each boundary, and among them are one-scalar tails
/// (`[P, S]`), blocks of two or more (`[S, S]`, `[P, S, S]`) and the
/// empty program.
fn boundary_shapes() -> impl Iterator<Item = Vec<bool>> {
    (0..=3usize)
        .flat_map(|n| (0..1u32 << n).map(move |bits| (0..n).map(|i| bits >> i & 1 == 1).collect()))
        .filter(|shape: &Vec<bool>| shape.iter().filter(|&&counted| counted).count() <= 2)
}

fn programs(fields: &[Field]) -> (StubProgram, StubProgram) {
    let puts: Vec<MOp> = fields.iter().enumerate().map(|(i, f)| f.put_op(Slot(i))).collect();
    let gets: Vec<MOp> = fields.iter().enumerate().map(|(i, f)| f.get_op(Slot(i))).collect();
    (StubProgram::from_ops(puts), StubProgram::from_ops(gets))
}

/// Which entry point runs a program: the executor under test, or the
/// threaded oracle it is compared against.
#[derive(Clone, Copy)]
enum Via {
    Fused,
    Plain,
}
use Via::{Fused, Plain};

/// The message and the payload bytes the writer counted into it.
fn marshal_with(
    via: Via,
    prog: &StubProgram,
    slots: &[Value],
    format: WireFormat,
) -> (Vec<u8>, u64) {
    let mut w = AnyWriter::new(format);
    try_marshal(via, prog, slots, &mut w).expect("marshal succeeds");
    let written = match &w {
        AnyWriter::Xdr(w) => w.bytes_written(),
        AnyWriter::Cdr(w) => w.bytes_written(),
    };
    (w.into_bytes(), written)
}

fn try_marshal(
    via: Via,
    prog: &StubProgram,
    slots: &[Value],
    w: &mut AnyWriter,
) -> Result<(), RpcError> {
    let run = match via {
        Fused => marshal,
        Plain => marshal_threaded,
    };
    run(prog, slots, &[], w, &HookMap::new(), &mut Vec::new())
}

fn unmarshal_with(
    via: Via,
    prog: &StubProgram,
    frame: &mut [Value],
    msg: &[u8],
    format: WireFormat,
) {
    try_unmarshal(via, prog, frame, msg, format).expect("unmarshal");
}

fn try_unmarshal(
    via: Via,
    prog: &StubProgram,
    frame: &mut [Value],
    msg: &[u8],
    format: WireFormat,
) -> Result<(), RpcError> {
    let mut r = AnyReader::new(format, msg)?;
    let (hooks, rights) = (HookMap::new(), &mut std::iter::empty());
    match via {
        Fused => unmarshal(prog, frame, msg, &mut r, &hooks, rights),
        Plain => unmarshal_threaded(prog, frame, msg, &mut r, &hooks, rights),
    }
}

/// Which error it is, down to the marshalling error inside — not the
/// numbers it carries.
fn error_kind(e: &RpcError) -> (Discriminant<RpcError>, Option<Discriminant<MarshalError>>) {
    let inner = match e {
        RpcError::Marshal(m) => Some(discriminant(m)),
        _ => None,
    };
    (discriminant(e), inner)
}

/// Fused and threaded marshal emit byte-identical messages with the same
/// `bytes_written`, and fused and threaded unmarshal recover
/// value-identical frames, on both wire formats.
fn wire_identical(fields: &[Field]) -> Result<(), TestCaseError> {
    let slots: Vec<Value> = fields.iter().map(|f| f.value()).collect();
    let (put, get) = programs(fields);

    for format in [WireFormat::Xdr, WireFormat::Cdr] {
        let (plain_bytes, plain_written) = marshal_with(Plain, &put, &slots, format);
        let (fused_bytes, fused_written) = marshal_with(Fused, &put, &slots, format);
        prop_assert_eq!(&plain_bytes, &fused_bytes, "marshal differs on {:?}", format);
        prop_assert_eq!(plain_written, fused_written, "bytes_written differs on {:?}", format);

        let mut plain_frame = vec![Value::Null; fields.len()];
        let mut fused_frame = vec![Value::Null; fields.len()];
        unmarshal_with(Plain, &get, &mut plain_frame, &plain_bytes, format);
        unmarshal_with(Fused, &get, &mut fused_frame, &fused_bytes, format);
        prop_assert_eq!(&plain_frame, &fused_frame, "unmarshal differs on {:?}", format);
        prop_assert_eq!(&fused_frame, &slots, "roundtrip loses values on {:?}", format);
    }
    Ok(())
}

/// Every strict prefix of a message is refused the same way by both paths:
/// a typed error of the same kind, no panic, and no more allocations than
/// decoding the whole message makes — a length word is never believed
/// before the bytes behind it are seen to be there.
fn prefixes_fail_alike(fields: &[Field]) -> Result<(), TestCaseError> {
    let slots: Vec<Value> = fields.iter().map(|f| f.value()).collect();
    let (put, get) = programs(fields);

    for format in [WireFormat::Xdr, WireFormat::Cdr] {
        let (bytes, _) = marshal_with(Fused, &put, &slots, format);
        // A decode into a fresh frame, and the allocations it made.
        let decode = |via: Via, msg: &[u8]| {
            let mut frame = vec![Value::Null; fields.len()];
            let before = allocs();
            let outcome = try_unmarshal(via, &get, &mut frame, msg, format);
            (outcome, allocs() - before)
        };
        let (plain_whole, plain_budget) = decode(Plain, &bytes);
        let (fused_whole, fused_budget) = decode(Fused, &bytes);
        prop_assert!(plain_whole.is_ok() && fused_whole.is_ok());

        for cut in 0..bytes.len() {
            let (plain, plain_allocs) = decode(Plain, &bytes[..cut]);
            let (fused, fused_allocs) = decode(Fused, &bytes[..cut]);
            let (Err(plain), Err(fused)) = (plain, fused) else {
                return Err(TestCaseError::fail(format!(
                    "{format:?}: {cut} of {} bytes decoded",
                    bytes.len()
                )));
            };
            prop_assert_eq!(
                error_kind(&plain),
                error_kind(&fused),
                "{:?} cut at {}: threaded {:?}, fused {:?}",
                format,
                cut,
                plain,
                fused
            );
            prop_assert!(
                plain_allocs <= plain_budget && fused_allocs <= fused_budget,
                "{:?} cut at {}: allocated {} / {}, the whole message {} / {}",
                format,
                cut,
                plain_allocs,
                fused_allocs,
                plain_budget,
                fused_budget
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The specialization is invisible on the wire.
    #[test]
    fn fused_is_wire_identical(fields in prop::collection::vec(field(), 1..10)) {
        wire_identical(&fields)?;
    }

    /// Programs on either side of where a program's parts stop being held
    /// in place — 0 to 3 ops, 0 to 2 payloads, one-scalar tails and blocks
    /// of two or more — match the threaded oracle on bytes, values and
    /// every strict prefix's error, on both transfer syntaxes.
    #[test]
    fn programs_either_side_of_the_inline_boundary_match_the_oracle(
        scalars in prop::collection::vec(scalar(), 3),
        payloads in prop::collection::vec(counted(), 2),
    ) {
        for shape in boundary_shapes() {
            let (mut s, mut p) = (scalars.iter(), payloads.iter());
            let fields: Vec<Field> = shape
                .iter()
                .map(|&counted| if counted { p.next() } else { s.next() })
                .map(|f| f.expect("enough of each kind").clone())
                .collect();
            wire_identical(&fields)?;
            prefixes_fail_alike(&fields)?;
        }
    }

    /// A fused block of two or more scalars reads its aligned layout by
    /// the phase it starts at. A payload head of 0..=7 bytes puts the same
    /// block at each of the eight phases; at every one the fused program
    /// is wire- and value-identical to the threaded one.
    #[test]
    fn fused_blocks_start_at_every_cdr_phase(fields in prop::collection::vec(field(), 2..12)) {
        let scalars: Vec<Field> = fields.into_iter().filter(Field::is_scalar).collect();
        prop_assume!(scalars.len() >= 2);
        for phase in 0..8usize {
            let mut fields = vec![Field::Bytes(vec![0xA5; phase])];
            fields.extend(scalars.iter().cloned());
            let slots: Vec<Value> = fields.iter().map(|f| f.value()).collect();
            let (put, get) = programs(&fields);

            // The whole program is one dispatch — the head and one block of
            // every scalar — and the block starts where the head ends.
            let fused = &put.fused;
            prop_assert!(matches!(fused.fops[..], [FOp::Fused { head: Some(_), block: 0 }]));
            prop_assert_eq!(fused.blocks[0].fields().len(), scalars.len());
            let (head_only, _) = programs(&fields[..1]);
            let head_end = marshal_with(Plain, &head_only, &slots[..1], WireFormat::Cdr).0.len();
            prop_assert_eq!(head_end % 8, phase, "block starts at CDR phase {}", phase);

            for format in [WireFormat::Xdr, WireFormat::Cdr] {
                let plain_bytes = marshal_with(Plain, &put, &slots, format);
                let fused_bytes = marshal_with(Fused, &put, &slots, format);
                prop_assert_eq!(&plain_bytes, &fused_bytes, "phase {} on {:?}", phase, format);
                let (plain_bytes, fused_bytes) = (plain_bytes.0, fused_bytes.0);

                let mut plain_frame = vec![Value::Null; fields.len()];
                let mut fused_frame = vec![Value::Null; fields.len()];
                unmarshal_with(Plain, &get, &mut plain_frame, &plain_bytes, format);
                unmarshal_with(Fused, &get, &mut fused_frame, &fused_bytes, format);
                prop_assert_eq!(&plain_frame, &fused_frame, "phase {} on {:?}", phase, format);
                prop_assert_eq!(&fused_frame, &slots, "phase {} on {:?}", phase, format);
            }
        }
    }

    /// A dirty destination frame (stale buffers from a previous call) does
    /// not leak into the result: the fused refill path yields exactly the
    /// threaded path's values.
    #[test]
    fn fused_unmarshal_overwrites_dirty_frames(
        fields in prop::collection::vec(field(), 1..10),
        stale in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let slots: Vec<Value> = fields.iter().map(|f| f.value()).collect();
        let (put, get) = programs(&fields);

        for format in [WireFormat::Xdr, WireFormat::Cdr] {
            let (bytes, _) = marshal_with(Fused, &put, &slots, format);
            let mut plain_frame = vec![Value::Bytes(stale.clone()); fields.len()];
            let mut fused_frame = vec![Value::Bytes(stale.clone()); fields.len()];
            unmarshal_with(Plain, &get, &mut plain_frame, &bytes, format);
            unmarshal_with(Fused, &get, &mut fused_frame, &bytes, format);
            prop_assert_eq!(&plain_frame, &fused_frame, "dirty-frame decode differs on {:?}", format);
        }
    }

    /// A decode into a dirty frame — each slot holding any value, or the
    /// variant its field decodes to with a stale value — ends in the frame
    /// the threaded oracle leaves when run on the same prior frame, and a
    /// strict prefix in the same kind of error.
    #[test]
    fn unmarshal_into_dirty_frames_matches_the_oracle(
        fields in prop::collection::vec(field(), 1..8),
        priors in prop::collection::vec(prior(), 8),
    ) {
        let slots: Vec<Value> = fields.iter().map(|f| f.value()).collect();
        let (put, get) = programs(&fields);
        let dirty: Vec<Value> = fields
            .iter()
            .zip(&priors)
            .map(|(f, p)| match p {
                Prior::Any(v) => v.clone(),
                Prior::Same(seed) => f.stale(*seed),
            })
            .collect();

        for format in [WireFormat::Xdr, WireFormat::Cdr] {
            let (bytes, _) = marshal_with(Fused, &put, &slots, format);
            for cut in 0..=bytes.len() {
                let (mut plain, mut fused) = (dirty.clone(), dirty.clone());
                let msg = &bytes[..cut];
                match (
                    try_unmarshal(Plain, &get, &mut plain, msg, format),
                    try_unmarshal(Fused, &get, &mut fused, msg, format),
                ) {
                    (Ok(()), Ok(())) => {
                        prop_assert_eq!(cut, bytes.len(), "{:?}: a strict prefix decoded", format);
                        prop_assert_eq!(&plain, &fused, "dirty frame on {:?}", format);
                        prop_assert_eq!(&fused, &slots, "values lost on {:?}", format);
                    }
                    (Err(p), Err(f)) => prop_assert_eq!(
                        error_kind(&p),
                        error_kind(&f),
                        "{:?} cut at {}: threaded {:?}, fused {:?}",
                        format,
                        cut,
                        p,
                        f
                    ),
                    (p, f) => {
                        return Err(TestCaseError::fail(format!(
                            "{format:?} cut at {cut}: threaded {p:?}, fused {f:?}"
                        )))
                    }
                }
            }
        }
    }

    /// Every strict prefix is refused alike, allocating no more than the
    /// whole message.
    #[test]
    fn every_strict_prefix_fails_alike_and_allocates_no_more(
        fields in prop::collection::vec(field(), 1..8),
    ) {
        prefixes_fail_alike(&fields)?;
    }

    /// A slot holding the wrong kind of value is reported identically —
    /// which slot, what the op expected, what it found — whether the op
    /// runs threaded, inline in the executor, inside a fused block or on
    /// the executor's cold path.
    #[test]
    fn a_wrong_slot_kind_is_the_same_error(
        fields in prop::collection::vec(field(), 1..10),
        at in 0usize..10,
    ) {
        let at = at % fields.len();
        let mut slots: Vec<Value> = fields.iter().map(|f| f.value()).collect();
        // No Put op the generator emits takes a port.
        slots[at] = Value::Port(7);
        let (put, _) = programs(&fields);

        for format in [WireFormat::Xdr, WireFormat::Cdr] {
            let plain = try_marshal(Plain, &put, &slots, &mut AnyWriter::new(format));
            let fused = try_marshal(Fused, &put, &slots, &mut AnyWriter::new(format));
            prop_assert!(
                matches!(fused, Err(RpcError::SlotKind { slot, found: "port", .. }) if slot == at),
                "{:?}: {:?}", format, fused
            );
            prop_assert_eq!(plain, fused, "on {:?}", format);
        }
    }
}
