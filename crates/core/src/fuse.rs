//! Bind-time specialization of stub programs: op fusion and exact-size
//! precomputation.
//!
//! A compiled op sequence is threaded code — one interpreter dispatch
//! (and often a `Value` round-trip) per field. This module is the
//! specialization step the paper's "combination signatures" imply: at bind
//! time we know the whole op sequence and both wire formats' layout rules,
//! so runs of adjacent fixed-size scalar ops are collapsed into a single
//! *fused block* with a precomputed field layout. The interpreter then
//! executes one bulk op per block — one bounds check, one buffer extend,
//! N `copy_from_slice`s — instead of N dispatches.
//!
//! Specialization is not a mode: `specialize` runs on every program
//! [`StubProgram::from_ops`](crate::program::StubProgram::from_ops) builds,
//! so a program has one form and nothing about it is left to choose at
//! call time.
//!
//! Layout is precomputed per wire format family:
//!
//! * **packed** — XDR semantics: big-endian, no alignment, `bool` is a
//!   4-byte 0/1 word. Offsets are position-independent.
//! * **aligned** — CDR semantics: native order, natural alignment relative
//!   to the message start (which includes the byte-order flag), `bool` is
//!   one byte. Because padding depends on where the block starts, eight
//!   layouts are precomputed — one per `start % 8` phase — and the
//!   interpreter picks by the writer/reader position at runtime. All
//!   alignment arithmetic is thereby constant-folded out of the call path.
//!
//! A block of two or more scalars keeps its nine layouts in **one flat
//! table** — one allocation, read through [`ScalarBlock::packed`] and
//! [`ScalarBlock::aligned`]. A single scalar behind a head is no block at
//! all: it rides in its [`FOp::Tail`], and the interpreter runs it through
//! the writer's own scalar primitive — the shape most programs end in (the
//! status word behind a reply's payload). A program keeps up to two ops,
//! one fused op and one payload slot in place ([`crate::short::Short`]), so
//! every program FileIO compiles to — one or two ops, fused to one —
//! specializes without allocating. Only a longer program or a multi-scalar
//! block reaches the heap, and what does is sized before it is filled:
//! specialization runs on the bind path, once per program of every
//! operation.
//!
//! The companion [`SizeHint`] records the fixed-size wire footprint of a
//! program plus, for a marshal program, the slots whose payload lengths
//! must be added at runtime, so marshal buffers can reserve once instead
//! of growing mid-message. An unmarshal program reserves nothing, and
//! lists no slots.

use crate::program::{MOp, Slot};
use crate::short::Short;

/// The fixed-size scalar kinds a fused block can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarKind {
    /// 4 bytes packed / 4-aligned.
    U32,
    /// 4 bytes packed / 4-aligned.
    I32,
    /// 8 bytes packed / 8-aligned.
    U64,
    /// 8 bytes packed / 8-aligned.
    I64,
    /// 4-byte word packed (XDR), 1 byte unaligned (CDR).
    Bool,
    /// 8 bytes packed / 8-aligned.
    F64,
}

impl ScalarKind {
    /// (size, alignment) under packed (XDR) rules — alignment is trivially 1
    /// because XDR's 4-byte units never introduce padding between scalars.
    fn packed_size(self) -> u32 {
        match self {
            ScalarKind::U32 | ScalarKind::I32 | ScalarKind::Bool => 4,
            ScalarKind::U64 | ScalarKind::I64 | ScalarKind::F64 => 8,
        }
    }

    /// (size, alignment) under aligned (CDR) rules.
    fn aligned_size_align(self) -> (u32, u32) {
        match self {
            ScalarKind::U32 | ScalarKind::I32 => (4, 4),
            ScalarKind::U64 | ScalarKind::I64 | ScalarKind::F64 => (8, 8),
            ScalarKind::Bool => (1, 1),
        }
    }
}

/// One field of a fused block: the slot it moves and its scalar kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockField {
    /// Frame slot read (marshal) or written (unmarshal).
    pub slot: Slot,
    /// Fixed-size kind, selecting width and encoding.
    pub kind: ScalarKind,
}

/// A precomputed field layout for one block under one format family: a
/// view into the block's layout table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockLayout<'a> {
    /// Byte offset of each field from the block start (padding folded in).
    pub offsets: &'a [u32],
    /// Total block length in bytes, padding included.
    pub len: u32,
    /// Sum of field sizes, padding excluded (payload accounting).
    pub data_len: u32,
}

/// Layouts a block carries: the packed one, then one per aligned phase.
const LAYOUTS: usize = 1 + 8;

/// A run of two or more adjacent fixed-size scalars with layouts for both
/// format families precomputed at bind time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalarBlock {
    /// Fields in wire order.
    fields: Vec<BlockField>,
    /// All nine layouts in one allocation: layout `l` (0 packed, `1 +
    /// phase` aligned) is the `fields.len() + 2` words at `l *
    /// (fields.len() + 2)` — one offset per field, then `len`, then
    /// `data_len`.
    layouts: Box<[u32]>,
}

/// Lays `fields` out under layout `l` (0 packed, `1 + phase` aligned),
/// handing each field's offset from the block start to `place`; returns
/// the block's `(len, data_len)`.
fn lay_out(fields: &[BlockField], l: usize, mut place: impl FnMut(u32)) -> (u32, u32) {
    // Packed offsets do not depend on position and never pad: phase 0,
    // alignment 1.
    let phase = l.saturating_sub(1) as u32;
    let (mut abs, mut data_len) = (phase, 0u32);
    for f in fields {
        let (size, align) =
            if l == 0 { (f.kind.packed_size(), 1) } else { f.kind.aligned_size_align() };
        let at = abs.next_multiple_of(align);
        place(at - phase);
        abs = at + size;
        data_len += size;
    }
    (abs - phase, data_len)
}

impl ScalarBlock {
    fn new(fields: Vec<BlockField>) -> ScalarBlock {
        let mut layouts = Vec::with_capacity(LAYOUTS * (fields.len() + 2));
        for l in 0..LAYOUTS {
            let (len, data_len) = lay_out(&fields, l, |offset| layouts.push(offset));
            layouts.extend([len, data_len]);
        }
        ScalarBlock { fields, layouts: layouts.into_boxed_slice() }
    }

    /// Fields in wire order.
    #[inline]
    pub fn fields(&self) -> &[BlockField] {
        &self.fields
    }

    /// Position-independent packed (XDR) layout.
    #[inline]
    pub fn packed(&self) -> BlockLayout<'_> {
        self.layout(0)
    }

    /// Aligned (CDR) layout for a block starting at `phase` — the start
    /// position modulo 8 (any `phase` is reduced).
    #[inline]
    pub fn aligned(&self, phase: usize) -> BlockLayout<'_> {
        self.layout(1 + phase % 8)
    }

    fn layout(&self, l: usize) -> BlockLayout<'_> {
        let n = self.fields.len();
        let at = l * (n + 2);
        BlockLayout {
            offsets: &self.layouts[at..at + n],
            len: self.layouts[at + n],
            data_len: self.layouts[at + n + 1],
        }
    }
}

/// One op of a fused program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FOp {
    /// A single op executed exactly as the unfused interpreter would.
    One(MOp),
    /// A non-scalar head op and the one scalar behind it, carried here
    /// rather than as a block: it needs no layout table. Both run through
    /// the single-op path.
    Tail {
        /// Non-scalar op preceding the scalar.
        head: MOp,
        /// The scalar it absorbed.
        field: BlockField,
    },
    /// An optional non-scalar head op followed by a fused block of two or
    /// more scalars (index into [`FusedProgram::blocks`]). The head runs
    /// through the same single-op path as [`FOp::One`]; the block runs as
    /// one bulk op.
    Fused {
        /// Non-scalar op preceding the block, if any.
        head: Option<MOp>,
        /// Index of the block in the owning program.
        block: usize,
    },
}

/// Fixed-size wire footprint of a program plus the slots whose runtime
/// payload lengths complete the total — enough to reserve a marshal buffer
/// once, up front.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SizeHint {
    /// Exact fixed bytes under packed (XDR) rules.
    pub fixed_packed: u32,
    /// Upper-bound fixed bytes under aligned (CDR) rules (alignment padding
    /// depends on runtime position, so each field budgets its worst case).
    pub fixed_aligned: u32,
    /// Slots whose payload length is added at call time (plus per-payload
    /// length-word/padding overhead the runtime accounts for). Marshal
    /// programs only: nothing reserves for an unmarshal.
    pub payload_slots: Short<Slot, 1>,
}

/// The specialized form of an op sequence: what the interpreter executes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FusedProgram {
    /// Fused ops in execution order; one is held in place.
    pub fops: Short<FOp, 1>,
    /// Blocks of two or more scalars, referenced by [`FOp::Fused`].
    pub blocks: Vec<ScalarBlock>,
    /// The whole message's wire footprint, reserved once per marshal.
    pub presize: SizeHint,
}

/// Classifies an op as a fixed-size scalar move, for both directions.
fn scalar_kind(op: &MOp) -> Option<(Slot, ScalarKind)> {
    match *op {
        MOp::PutU32(s) | MOp::GetU32(s) => Some((s, ScalarKind::U32)),
        MOp::PutI32(s) | MOp::GetI32(s) => Some((s, ScalarKind::I32)),
        MOp::PutU64(s) | MOp::GetU64(s) => Some((s, ScalarKind::U64)),
        MOp::PutI64(s) | MOp::GetI64(s) => Some((s, ScalarKind::I64)),
        MOp::PutBool(s) | MOp::GetBool(s) => Some((s, ScalarKind::Bool)),
        MOp::PutF64(s) | MOp::GetF64(s) => Some((s, ScalarKind::F64)),
        _ => None,
    }
}

/// Specializes a compiled op sequence: fuses its scalar runs into blocks
/// and precomputes its size hint.
pub(crate) fn specialize(ops: &[MOp]) -> FusedProgram {
    // One pass sizes everything up front, exactly — fusion only ever
    // merges. Every non-scalar op is one fused op, absorbing the scalar run
    // behind it, and a leading scalar run is one more; every run of two or
    // more scalars is a block; every counted marshal payload is a slot to
    // reserve for. The fixed footprint is summed on the way.
    let mut presize = SizeHint::default();
    let (mut fops, mut blocks, mut payloads, mut run) = (0, 0, 0, 0);
    for (i, op) in ops.iter().enumerate() {
        match scalar_kind(op) {
            Some((_, kind)) => {
                fops += usize::from(i == 0);
                run += 1;
                blocks += usize::from(run == 2);
                presize.fixed_packed += kind.packed_size();
                let (size, align) = kind.aligned_size_align();
                presize.fixed_aligned += size + (align - 1);
            }
            None => {
                fops += 1;
                run = 0;
                payloads += usize::from(is_payload(op));
                // Ports travel out-of-band; `[special]` payload lengths
                // are decided by user hooks at call time — no static
                // contribution.
                if let MOp::PutBytesFixed(_, n) | MOp::GetBytesFixed(_, n) = *op {
                    presize.fixed_packed += n.next_multiple_of(4);
                    presize.fixed_aligned += n + 4;
                }
            }
        }
    }
    presize.payload_slots = Short::with_capacity(payloads);
    let mut fused = FusedProgram {
        fops: Short::with_capacity(fops),
        blocks: Vec::with_capacity(blocks),
        presize,
    };

    let field = |op: &MOp| {
        let (slot, kind) = scalar_kind(op).expect("runs hold only scalars");
        BlockField { slot, kind }
    };
    let mut rest = ops;
    while let Some((&first, after_first)) = rest.split_first() {
        // A non-scalar op absorbs any trailing scalar run, so e.g.
        // `[PutBytes, PutU32]` costs one dispatch, not two; a scalar run
        // with no head to attach to fuses on its own if ≥ 2.
        let head = match scalar_kind(&first) {
            Some(_) => None,
            None => {
                rest = after_first;
                if is_payload(&first) {
                    fused.presize.payload_slots.push(first.slot());
                }
                Some(first)
            }
        };
        let (run, after_run) =
            rest.split_at(rest.iter().take_while(|op| scalar_kind(op).is_some()).count());
        rest = after_run;
        let fop = match (head, run) {
            (Some(head), []) => FOp::One(head),
            (None, [lone]) => FOp::One(*lone),
            (Some(head), [scalar]) => FOp::Tail { head, field: field(scalar) },
            (head, run) => {
                fused.blocks.push(ScalarBlock::new(run.iter().map(field).collect()));
                FOp::Fused { head, block: fused.blocks.len() - 1 }
            }
        };
        fused.fops.push(fop);
    }
    fused
}

/// True for the marshal ops whose slot's runtime byte length joins the
/// size hint.
fn is_payload(op: &MOp) -> bool {
    matches!(op, MOp::PutStr(_) | MOp::PutStrFromBytes(_) | MOp::PutBytes(_))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_run_fuses_to_one_block() {
        let f = specialize(&[MOp::PutU32(Slot(0)), MOp::PutU64(Slot(1)), MOp::PutBool(Slot(2))]);
        assert_eq!(f.fops.len(), 1);
        match f.fops[0] {
            FOp::Fused { head: None, block } => {
                assert_eq!(f.blocks[block].fields().len(), 3);
            }
            ref other => panic!("expected headless fused block, got {other:?}"),
        }
    }

    #[test]
    fn payload_head_absorbs_trailing_scalars() {
        // The fig6 pipe-read reply shape: [PutBytes, PutU32]. One scalar
        // rides in the fused op itself; two or more make a block.
        let f = specialize(&[MOp::PutBytes(Slot(1)), MOp::PutU32(Slot(2))]);
        let field = BlockField { slot: Slot(2), kind: ScalarKind::U32 };
        assert_eq!(f.fops, vec![FOp::Tail { head: MOp::PutBytes(Slot(1)), field }]);
        assert!(f.blocks.is_empty());
        let f = specialize(&[MOp::PutBytes(Slot(1)), MOp::PutU32(Slot(2)), MOp::PutU32(Slot(3))]);
        match f.fops[..] {
            [FOp::Fused { head: Some(MOp::PutBytes(Slot(1))), block }] => {
                assert_eq!(f.blocks[block].fields().len(), 2);
            }
            ref other => panic!("expected headed fused block, got {other:?}"),
        }
    }

    #[test]
    fn what_a_program_holds_is_sized_exactly() {
        let (u, b) = (MOp::PutU32(Slot(0)), MOp::PutBytes(Slot(1)));
        for (ops, fops, blocks) in [
            (vec![], 0, 0),
            (vec![u], 1, 0),
            (vec![b], 1, 0),
            (vec![u, u], 1, 1),
            (vec![u, b], 2, 0),
            (vec![b, u], 1, 0),
            (vec![u, b, u], 2, 0),
            (vec![u, u, b, b, u, u, b], 4, 2),
            (vec![b, u, b, u, u, b, u], 3, 1),
        ] {
            let f = specialize(&ops);
            assert_eq!((f.fops.len(), f.blocks.len()), (fops, blocks), "{ops:?}");
            assert_eq!(f.blocks.capacity(), blocks, "{ops:?}: reserved what it filled");
            // One fused op is held in place; more take one exact allocation.
            assert_eq!(f.fops.spilled(), fops > 1, "{ops:?}");
        }
    }

    #[test]
    fn single_scalar_stays_unfused() {
        let f = specialize(&[MOp::GetU32(Slot(0))]);
        assert_eq!(f.fops, vec![FOp::One(MOp::GetU32(Slot(0)))]);
        assert!(f.blocks.is_empty());
    }

    #[test]
    fn adjacent_payloads_do_not_fuse_with_each_other() {
        let f = specialize(&[MOp::PutBytes(Slot(0)), MOp::PutBytes(Slot(1)), MOp::PutU32(Slot(2))]);
        assert_eq!(f.fops.len(), 2);
        assert_eq!(f.fops[0], FOp::One(MOp::PutBytes(Slot(0))));
        assert!(matches!(f.fops[1], FOp::Tail { head: MOp::PutBytes(Slot(1)), .. }));
    }

    #[test]
    fn packed_layout_has_no_padding() {
        let b = ScalarBlock::new(vec![
            BlockField { slot: Slot(0), kind: ScalarKind::U32 },
            BlockField { slot: Slot(1), kind: ScalarKind::U64 },
            BlockField { slot: Slot(2), kind: ScalarKind::Bool },
        ]);
        assert_eq!(b.packed().offsets, [0, 4, 12]);
        assert_eq!(b.packed().len, 16);
        assert_eq!(b.packed().data_len, 16);
    }

    #[test]
    fn aligned_layouts_fold_phase_dependent_padding() {
        let b = ScalarBlock::new(vec![
            BlockField { slot: Slot(0), kind: ScalarKind::U32 },
            BlockField { slot: Slot(1), kind: ScalarKind::U64 },
            BlockField { slot: Slot(2), kind: ScalarKind::Bool },
        ]);
        // Phase 0: u32 @0, u64 @8 (4 pad), bool @16.
        assert_eq!(b.aligned(0).offsets, [0, 8, 16]);
        assert_eq!(b.aligned(0).len, 17);
        assert_eq!(b.aligned(0).data_len, 13);
        // Phase 1 (CDR position 1, right after the order flag): u32 aligns
        // to abs 4 → rel 3; u64 to abs 8 → rel 7; bool at abs 16 → rel 15.
        assert_eq!(b.aligned(1).offsets, [3, 7, 15]);
        assert_eq!(b.aligned(1).len, 16);
        assert_eq!(b.aligned(1).data_len, 13);
        // Phase 5: u32 → abs 8 → rel 3; u64 → abs 16 → rel 11; bool rel 19.
        assert_eq!(b.aligned(5).offsets, [3, 11, 19]);
        assert_eq!(b.aligned(5).len, 20);
        // The phase is the start position modulo 8, whatever the position.
        assert_eq!(b.aligned(13), b.aligned(5));
    }

    #[test]
    fn a_short_program_specializes_in_place() {
        // The fig6 `read` reply: its one fused op, its one payload slot and
        // its scalar tail are all held in place — nothing to allocate.
        let f = specialize(&[MOp::PutBytes(Slot(1)), MOp::PutU32(Slot(2))]);
        assert!(!f.fops.spilled() && !f.presize.payload_slots.spilled());
        assert!(f.blocks.is_empty() && f.blocks.capacity() == 0);
        // A block of two or more keeps all nine layouts in one allocation.
        let b = ScalarBlock::new(vec![
            BlockField { slot: Slot(0), kind: ScalarKind::Bool },
            BlockField { slot: Slot(1), kind: ScalarKind::F64 },
        ]);
        assert_eq!(b.layouts.len(), LAYOUTS * (2 + 2));
    }

    /// The layouts as `ScalarBlock::new` computed them when each was its
    /// own `Vec`: (offsets, len, data_len), packed first, then per phase.
    /// Kept verbatim as the oracle for the flat table's accessors.
    fn layouts_one_vec_each(fields: &[BlockField]) -> Vec<(Vec<u32>, u32, u32)> {
        let packed = {
            let mut offsets = Vec::with_capacity(fields.len());
            let mut off = 0u32;
            for f in fields {
                offsets.push(off);
                off += f.kind.packed_size();
            }
            (offsets, off, off)
        };
        let aligned = (0..8u32).map(|phase| {
            let mut offsets = Vec::with_capacity(fields.len());
            let mut abs = phase;
            let mut data_len = 0u32;
            for f in fields {
                let (size, align) = f.kind.aligned_size_align();
                let at = abs.next_multiple_of(align);
                offsets.push(at - phase);
                abs = at + size;
                data_len += size;
            }
            (offsets, abs - phase, data_len)
        });
        std::iter::once(packed).chain(aligned).collect()
    }

    const KINDS: [ScalarKind; 6] = [
        ScalarKind::U32,
        ScalarKind::I32,
        ScalarKind::U64,
        ScalarKind::I64,
        ScalarKind::Bool,
        ScalarKind::F64,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]
        #[test]
        fn every_accessor_matches_the_per_phase_arithmetic(
            kinds in proptest::prop::collection::vec(0usize..KINDS.len(), 0..12),
        ) {
            let fields: Vec<BlockField> = kinds
                .iter()
                .enumerate()
                .map(|(i, &k)| BlockField { slot: Slot(i), kind: KINDS[k] })
                .collect();
            let block = ScalarBlock::new(fields.clone());
            proptest::prop_assert_eq!(block.fields(), &fields[..]);
            let oracle = layouts_one_vec_each(&fields);
            let views = std::iter::once(block.packed()).chain((0..8).map(|p| block.aligned(p)));
            for (l, (view, (offsets, len, data_len))) in views.zip(&oracle).enumerate() {
                proptest::prop_assert_eq!(view.offsets, &offsets[..], "layout {}", l);
                proptest::prop_assert_eq!((view.len, view.data_len), (*len, *data_len), "layout {}", l);
            }
        }
    }

    #[test]
    fn size_hint_counts_fixed_and_payload() {
        let hint = specialize(&[
            MOp::PutBytes(Slot(0)),
            MOp::PutU32(Slot(1)),
            MOp::PutU64(Slot(2)),
            MOp::PutBytesFixed(Slot(3), 10),
        ])
        .presize;
        // Packed: 4 + 8 + round4(10) = 24 fixed bytes.
        assert_eq!(hint.fixed_packed, 24);
        // Aligned upper bound: (4+3) + (8+7) + (10+4) = 36.
        assert_eq!(hint.fixed_aligned, 36);
        assert_eq!(hint.payload_slots, vec![Slot(0)]);
        // An unmarshal program never reserves, so it lists no payloads.
        let hint = specialize(&[MOp::GetBytesOwned(Slot(0)), MOp::GetStr(Slot(1))]).presize;
        assert!(hint.payload_slots.is_empty());
    }
}
