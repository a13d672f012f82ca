//! Differential property tests for the specialized interpreter.
//!
//! For random sequences of typed fields, the fused program must be
//! indistinguishable from the threaded one on both wire formats: marshal
//! produces byte-identical messages, and unmarshal produces value-identical
//! frames — including when the destination frame is dirty, which exercises
//! the fused path's buffer-reuse refill of `GetBytesOwned` slots. Blocks of
//! two or more scalars — the ones that run through a precomputed layout —
//! are started at every CDR alignment phase in turn.

use flexrpc_core::fuse::{FOp, SpecializeOptions};
use flexrpc_core::program::{MOp, Slot, StubProgram};
use flexrpc_core::value::Value;
use flexrpc_marshal::WireFormat;
use flexrpc_runtime::interp::{marshal, unmarshal};
use flexrpc_runtime::wire::{AnyReader, AnyWriter};
use flexrpc_runtime::HookMap;
use proptest::prelude::*;

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
}

impl Field {
    fn value(&self) -> Value {
        match self {
            Field::U32(x) => Value::U32(*x),
            Field::I32(x) => Value::I32(*x),
            Field::U64(x) => Value::U64(*x),
            Field::I64(x) => Value::I64(*x),
            Field::Bool(x) => Value::Bool(*x),
            Field::F64(x) => Value::F64(*x),
            Field::Str(s) => Value::Str(s.clone()),
            Field::Bytes(b) => Value::Bytes(b.clone()),
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
        }
    }
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
    ]
}

fn programs(fields: &[Field], opts: SpecializeOptions) -> (StubProgram, StubProgram) {
    let puts = fields.iter().enumerate().map(|(i, f)| f.put_op(Slot(i))).collect();
    let gets = fields.iter().enumerate().map(|(i, f)| f.get_op(Slot(i))).collect();
    let mut put_prog = StubProgram::from_ops(puts);
    let mut get_prog = StubProgram::from_ops(gets);
    put_prog.specialize(opts);
    get_prog.specialize(opts);
    (put_prog, get_prog)
}

fn marshal_with(prog: &StubProgram, slots: &[Value], format: WireFormat) -> Vec<u8> {
    let mut w = AnyWriter::new(format);
    let hooks = HookMap::new();
    marshal(prog, slots, &[], &mut w, &hooks, &mut Vec::new()).expect("marshal succeeds");
    w.into_bytes()
}

fn unmarshal_with(prog: &StubProgram, frame: &mut [Value], msg: &[u8], format: WireFormat) {
    let mut r = AnyReader::new(format, msg).expect("reader opens");
    let hooks = HookMap::new();
    unmarshal(prog, frame, msg, &mut r, &hooks, &mut std::iter::empty()).expect("unmarshal");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fused and threaded marshal emit byte-identical messages, and fused
    /// and threaded unmarshal recover value-identical frames, on both wire
    /// formats — the specialization is invisible on the wire.
    #[test]
    fn fused_is_wire_identical(fields in prop::collection::vec(field(), 1..10)) {
        let slots: Vec<Value> = fields.iter().map(|f| f.value()).collect();
        let (plain_put, plain_get) = programs(&fields, SpecializeOptions::none());
        let (fused_put, fused_get) = programs(&fields, SpecializeOptions::default());

        for format in [WireFormat::Xdr, WireFormat::Cdr] {
            let plain_bytes = marshal_with(&plain_put, &slots, format);
            let fused_bytes = marshal_with(&fused_put, &slots, format);
            prop_assert_eq!(&plain_bytes, &fused_bytes, "marshal differs on {:?}", format);

            let mut plain_frame = vec![Value::Null; fields.len()];
            let mut fused_frame = vec![Value::Null; fields.len()];
            unmarshal_with(&plain_get, &mut plain_frame, &plain_bytes, format);
            unmarshal_with(&fused_get, &mut fused_frame, &fused_bytes, format);
            prop_assert_eq!(&plain_frame, &fused_frame, "unmarshal differs on {:?}", format);
            prop_assert_eq!(&fused_frame, &slots, "roundtrip loses values on {:?}", format);
        }
    }

    /// A fused block of two or more scalars reads its aligned layout by
    /// the phase it starts at. A payload head of 0..=7 bytes puts the same
    /// block at each of the eight phases; at every one the fused program
    /// is wire- and value-identical to the threaded one.
    #[test]
    fn fused_blocks_start_at_every_cdr_phase(fields in prop::collection::vec(field(), 2..12)) {
        let scalars: Vec<Field> = fields
            .into_iter()
            .filter(|f| !matches!(f, Field::Str(_) | Field::Bytes(_)))
            .collect();
        prop_assume!(scalars.len() >= 2);
        for phase in 0..8usize {
            let mut fields = vec![Field::Bytes(vec![0xA5; phase])];
            fields.extend(scalars.iter().cloned());
            let slots: Vec<Value> = fields.iter().map(|f| f.value()).collect();
            let (plain_put, plain_get) = programs(&fields, SpecializeOptions::none());
            let (fused_put, fused_get) = programs(&fields, SpecializeOptions::default());

            // The whole program is one dispatch — the head and one block of
            // every scalar — and the block starts where the head ends.
            let fused = fused_put.fused.as_ref().expect("specialized");
            prop_assert!(matches!(fused.fops[..], [FOp::Fused { head: Some(_), block: 0 }]));
            prop_assert_eq!(fused.blocks[0].fields().len(), scalars.len());
            let (head_only, _) = programs(&fields[..1], SpecializeOptions::none());
            let head_end = marshal_with(&head_only, &slots[..1], WireFormat::Cdr).len();
            prop_assert_eq!(head_end % 8, phase, "block starts at CDR phase {}", phase);

            for format in [WireFormat::Xdr, WireFormat::Cdr] {
                let plain_bytes = marshal_with(&plain_put, &slots, format);
                let fused_bytes = marshal_with(&fused_put, &slots, format);
                prop_assert_eq!(&plain_bytes, &fused_bytes, "phase {} on {:?}", phase, format);

                let mut plain_frame = vec![Value::Null; fields.len()];
                let mut fused_frame = vec![Value::Null; fields.len()];
                unmarshal_with(&plain_get, &mut plain_frame, &plain_bytes, format);
                unmarshal_with(&fused_get, &mut fused_frame, &fused_bytes, format);
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
        let (_, plain_get) = programs(&fields, SpecializeOptions::none());
        let (fused_put, fused_get) = programs(&fields, SpecializeOptions::default());

        for format in [WireFormat::Xdr, WireFormat::Cdr] {
            let bytes = marshal_with(&fused_put, &slots, format);
            let mut plain_frame = vec![Value::Bytes(stale.clone()); fields.len()];
            let mut fused_frame = vec![Value::Bytes(stale.clone()); fields.len()];
            unmarshal_with(&plain_get, &mut plain_frame, &bytes, format);
            unmarshal_with(&fused_get, &mut fused_frame, &bytes, format);
            prop_assert_eq!(&plain_frame, &fused_frame, "dirty-frame decode differs on {:?}", format);
        }
    }
}
