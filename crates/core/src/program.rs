//! Compilation of (operation × presentation) pairs into stub programs.
//!
//! A [`StubProgram`] is a flat list of marshal ops — threaded code, after
//! the paper's bind-time "combination signature \[that\] threads together
//! small blocks of code" — together with the specialized form
//! ([`crate::fuse`]) the interpreter executes; there is one way to build
//! one, [`StubProgram::from_ops`]. The `flexrpc-runtime` crate interprets
//! programs against real buffers; `flexrpc-codegen` pretty-prints them as
//! Rust source. Each operation compiles to four programs (request/reply ×
//! marshal/unmarshal); an endpoint uses the two for its role.
//!
//! # Wire layout (FLEX-ABI v1)
//!
//! The layout is derived from the *interface alone*, so differently
//! presented endpoints always interoperate:
//!
//! 1. All **payload fields** (strings, `sequence<octet>`), in declaration
//!    order — requests carry the `in`-direction ones, replies the
//!    `out`-direction ones plus the result.
//! 2. All **scalar fields** (flattened structs included), in declaration
//!    order.
//! 3. Replies end with a `u32` **status** word.
//!
//! Payload-first layout is what makes *sink-mode* presentations possible:
//! a server work function with `[dealloc(never)]` or `[special]` output
//! writes the payload bytes directly into the reply message while it still
//! holds its own state borrowed, before the stub marshals the scalars.
//! Sink-mode payloads must therefore form a prefix of the reply's payload
//! section; the compiler rejects anything else.
//!
//! Object references travel out-of-band in the transport's rights vector
//! (in field order), matching how Mach carries port rights.

use crate::ir::{Interface, Module, Operation, ParamDir, Type, TypeBody};
use crate::present::{AllocSemantics, InterfacePresentation, OpPresentation, ParamPresentation};
use crate::short::Short;
use crate::sig::WireSignature;
use crate::value::Value;
use crate::{CoreError, Result};
use std::fmt;

/// Index of a slot in a call's flat value array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Slot(pub usize);

/// The primitive kind a slot holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotKind {
    /// `u32` (also enum ordinals).
    U32,
    /// `i32`.
    I32,
    /// `u64`.
    U64,
    /// `i64`.
    I64,
    /// `bool`.
    Bool,
    /// `f64`.
    F64,
    /// Checked string.
    Str,
    /// Byte buffer (sequences, fixed opaque arrays, length_is strings).
    Bytes,
    /// Port / object reference.
    Port,
}

impl SlotKind {
    /// A default-initialized value of this kind (interpreters use this to
    /// pre-size slot arrays).
    #[inline]
    pub(crate) fn empty_value(self) -> Value {
        match self {
            SlotKind::U32 => Value::U32(0),
            SlotKind::I32 => Value::I32(0),
            SlotKind::U64 => Value::U64(0),
            SlotKind::I64 => Value::I64(0),
            SlotKind::Bool => Value::Bool(false),
            SlotKind::F64 => Value::F64(0.0),
            SlotKind::Str => Value::Str(String::new()),
            SlotKind::Bytes => Value::Bytes(Vec::new()),
            SlotKind::Port => Value::Port(0),
        }
    }
}

/// Descriptor of one slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotInfo {
    /// Where the slot's dotted name lies in its map's name buffer
    /// ([`SlotMap::name`]): `param` or `param.field` for flattened struct
    /// fields; `return` (or `return.field`) for the result; `status` for
    /// the status word.
    name: std::ops::Range<u32>,
    /// Value kind.
    pub kind: SlotKind,
    /// Direction this slot travels.
    pub dir: ParamDir,
    /// Index of the source parameter (`None` for result/status slots).
    pub param_index: Option<usize>,
    /// Wire shape, which the program-building passes read.
    shape: FieldShape,
}

/// The slot layout of a compiled operation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SlotMap {
    /// All slots, in assignment order.
    pub slots: Vec<SlotInfo>,
    /// Every slot's name, one after another: one buffer per operation.
    names: String,
}

impl SlotMap {
    /// Finds a slot by dotted name.
    #[inline]
    pub fn slot(&self, name: &str) -> Option<Slot> {
        self.slots.iter().position(|s| self.name_bytes(s) == name.as_bytes()).map(Slot)
    }

    /// The dotted name of `slot`.
    pub fn name(&self, slot: Slot) -> &str {
        let r = &self.slots[slot.0].name;
        &self.names[r.start as usize..r.end as usize]
    }

    #[inline]
    fn name_bytes(&self, s: &SlotInfo) -> &[u8] {
        &self.names.as_bytes()[s.name.start as usize..s.name.end as usize]
    }

    /// Adds a slot named `name`.
    fn push(
        &mut self,
        name: &str,
        kind: SlotKind,
        dir: ParamDir,
        param_index: Option<usize>,
        shape: FieldShape,
    ) {
        let start = self.names.len() as u32;
        self.names.push_str(name);
        let name = start..self.names.len() as u32;
        self.slots.push(SlotInfo { name, kind, dir, param_index, shape });
    }

    /// The status slot (always present, always last).
    #[inline]
    pub fn status_slot(&self) -> Slot {
        Slot(self.slots.len() - 1)
    }

    /// Number of slots.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the map is empty (never, for a compiled op).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// A freshly initialized slot-value array for one call.
    pub fn new_frame(&self) -> Vec<Value> {
        self.slots.iter().map(|s| s.kind.empty_value()).collect()
    }

    /// Resets a used frame to the freshly initialized state, keeping the
    /// array allocation (the steady-state dispatch path reuses one frame
    /// per op instead of allocating per call).
    #[inline]
    pub fn reset_frame(&self, frame: &mut Vec<Value>) {
        if frame.len() != self.slots.len() {
            *frame = self.new_frame();
            return;
        }
        for (v, s) in frame.iter_mut().zip(&self.slots) {
            *v = s.kind.empty_value();
        }
    }
}

/// One marshal/unmarshal op. `Put*` ops write to the message from slots;
/// `Get*` ops read from the message into slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MOp {
    /// Write a `u32` from the slot.
    PutU32(Slot),
    /// Write an `i32`.
    PutI32(Slot),
    /// Write a `u64`.
    PutU64(Slot),
    /// Write an `i64`.
    PutI64(Slot),
    /// Write a boolean.
    PutBool(Slot),
    /// Write an `f64`.
    PutF64(Slot),
    /// Write a wire string from a `Str` slot.
    PutStr(Slot),
    /// Write a wire string from a `Bytes` slot (the `length_is`
    /// presentation: user code passes raw bytes + explicit length).
    PutStrFromBytes(Slot),
    /// Write a counted payload from a `Bytes` (or window) slot.
    PutBytes(Slot),
    /// Write a fixed-length opaque field of exactly this many bytes.
    PutBytesFixed(Slot, u32),
    /// Write a counted payload produced by the user hook for this
    /// parameter (`[special]` marshal: the hook fills a reserved window).
    PutBytesSpecial {
        /// Slot carrying the payload length (hook decides content).
        slot: Slot,
        /// Hook index = parameter index.
        hook: usize,
    },
    /// Transfer a port right from the slot (out-of-band).
    PutPort(Slot),
    /// Read a `u32` into the slot.
    GetU32(Slot),
    /// Read an `i32`.
    GetI32(Slot),
    /// Read a `u64`.
    GetU64(Slot),
    /// Read an `i64`.
    GetI64(Slot),
    /// Read a boolean.
    GetBool(Slot),
    /// Read an `f64`.
    GetF64(Slot),
    /// Read a wire string into a `Str` slot (validates UTF-8/NUL).
    GetStr(Slot),
    /// Read a wire string into a `Bytes` slot without string validation
    /// (the `length_is` presentation).
    GetStrAsBytes(Slot),
    /// Read a counted payload into a freshly allocated `Bytes` slot — the
    /// copying, stub-allocates default.
    GetBytesOwned(Slot),
    /// Read a counted payload as a zero-copy `Window` into the message —
    /// the `[borrowed]` server presentation.
    GetBytesBorrowed(Slot),
    /// Read a counted payload into the caller-provided buffer already in
    /// the slot, truncating the slot to the received length — the
    /// `alloc(caller)` (MIG-style) presentation.
    GetBytesInto(Slot),
    /// Read a counted payload by handing the wire bytes to the user hook
    /// for this parameter (`[special]` unmarshal, e.g. copyout straight to
    /// user space). The slot records the payload length.
    GetBytesSpecial {
        /// Slot receiving the payload length.
        slot: Slot,
        /// Hook index = parameter index (`usize::MAX` for the result).
        hook: usize,
    },
    /// Read a fixed-length opaque field.
    GetBytesFixed(Slot, u32),
    /// Receive a port right into the slot (out-of-band).
    GetPort(Slot),
}

impl MOp {
    /// The slot this op reads or writes.
    #[inline]
    pub fn slot(&self) -> Slot {
        match *self {
            MOp::PutU32(s)
            | MOp::PutI32(s)
            | MOp::PutU64(s)
            | MOp::PutI64(s)
            | MOp::PutBool(s)
            | MOp::PutF64(s)
            | MOp::PutStr(s)
            | MOp::PutStrFromBytes(s)
            | MOp::PutBytes(s)
            | MOp::PutBytesFixed(s, _)
            | MOp::PutBytesSpecial { slot: s, .. }
            | MOp::PutPort(s)
            | MOp::GetU32(s)
            | MOp::GetI32(s)
            | MOp::GetU64(s)
            | MOp::GetI64(s)
            | MOp::GetBool(s)
            | MOp::GetF64(s)
            | MOp::GetStr(s)
            | MOp::GetStrAsBytes(s)
            | MOp::GetBytesOwned(s)
            | MOp::GetBytesBorrowed(s)
            | MOp::GetBytesInto(s)
            | MOp::GetBytesSpecial { slot: s, .. }
            | MOp::GetBytesFixed(s, _)
            | MOp::GetPort(s) => s,
        }
    }
}

/// The ops of a stub program: up to two held in place, more on the heap.
pub type Ops = Short<MOp, 2>;

/// A linear sequence of marshal ops and the specialized form the
/// interpreter runs. `Default` is the empty program (a null RPC's body).
/// A program of up to two ops — every program FileIO compiles to — is a
/// value: neither form allocates.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StubProgram {
    /// Ops in execution order, one per field: what the program *says*, and
    /// what the threaded oracle walks.
    pub ops: Ops,
    /// `ops` fused and presized (`fuse::specialize`): what the
    /// executor runs. Always derived from `ops` by [`StubProgram::from_ops`].
    pub fused: crate::fuse::FusedProgram,
}

impl StubProgram {
    /// Number of ops.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the program does nothing (e.g. a null RPC's body).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The program over `ops`: the one way to build one.
    pub fn from_ops(ops: impl Into<Ops>) -> StubProgram {
        let ops = ops.into();
        let fused = crate::fuse::specialize(&ops);
        StubProgram { ops, fused }
    }

    /// Interpreter dispatches one call through this program costs.
    #[inline]
    pub fn dispatch_count(&self) -> usize {
        self.fused.fops.len()
    }
}

impl fmt::Display for StubProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.ops.iter().enumerate() {
            writeln!(f, "{i:3}: {op:?}")?;
        }
        Ok(())
    }
}

/// A payload the server work function writes directly into the reply
/// message (sink mode: `[dealloc(never)]` or server-side `[special]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkSpec {
    /// Slot whose length records what the sink wrote (diagnostics).
    pub slot: Slot,
    /// Parameter index (`usize::MAX` for the result).
    pub param_index: usize,
}

/// One operation compiled under one endpoint's presentation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledOp {
    /// Operation name.
    pub name: String,
    /// Operation index within the interface (the dispatch key).
    pub index: usize,
    /// Sun RPC procedure number, when the dialect assigns one.
    pub opnum: Option<u32>,
    /// Slot layout.
    pub slots: SlotMap,
    /// Client: marshal the request from in-slots.
    pub request_marshal: StubProgram,
    /// Server: unmarshal the request into in-slots.
    pub request_unmarshal: StubProgram,
    /// Server: marshal the reply from out-slots (after the work function,
    /// which has already sink-written any [`CompiledOp::sink_params`]).
    pub reply_marshal: StubProgram,
    /// Client: unmarshal the reply into out-slots.
    pub reply_unmarshal: StubProgram,
    /// Reply payloads written by the work function via the sink, in wire
    /// order (always a prefix of the reply's payload section).
    pub sink_params: Vec<SinkSpec>,
    /// Whether status surfaces as a return code (`[comm_status]`).
    pub comm_status: bool,
    /// Whether the operation declared `[idempotent]` — the license a retry
    /// policy needs before it may resend the call.
    pub idempotent: bool,
    /// The declared call shape (`[oneway]` / `[stream(window)]`). Reply
    /// programs are still compiled — the wire contract is unchanged — but
    /// the runtime consults this to pick the notify/stream paths and to
    /// negotiate the effective window at bind time.
    pub call_shape: crate::present::CallShape,
}

impl CompiledOp {
    /// The status slot.
    #[inline]
    pub fn status_slot(&self) -> Slot {
        self.slots.status_slot()
    }
}

/// A whole interface compiled under one endpoint's presentation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledInterface {
    /// Interface name.
    pub interface: String,
    /// Compiled operations, in interface declaration order.
    pub ops: Vec<CompiledOp>,
    /// The network contract both endpoints must share.
    pub signature: WireSignature,
}

impl CompiledInterface {
    /// Compiles every operation of `iface` under `pres`.
    pub fn compile(
        module: &Module,
        iface: &Interface,
        pres: &InterfacePresentation,
    ) -> Result<CompiledInterface> {
        crate::validate::validate(module)?;
        let signature = WireSignature::of_interface(module, iface)?;
        let mut ops = Vec::with_capacity(iface.ops.len());
        for (index, op) in iface.ops.iter().enumerate() {
            let op_pres = pres.op(&op.name).ok_or_else(|| {
                CoreError::BadPresentation(format!("presentation lacks operation `{}`", op.name))
            })?;
            ops.push(compile_op(module, op, index, op_pres)?);
        }
        Ok(CompiledInterface { interface: iface.name.clone(), ops, signature })
    }

    /// The index of the operation called `name` — the dispatch key, and
    /// the one place an operation name is resolved.
    pub fn op_index(&self, name: &str) -> Option<usize> {
        self.ops.iter().position(|o| o.name == name)
    }

    /// Looks up a compiled op by name.
    pub fn op(&self, name: &str) -> Option<&CompiledOp> {
        self.op_index(name).map(|i| &self.ops[i])
    }

    /// The index of the operation a Sun RPC procedure number names — the
    /// one place a procedure number is resolved. A numbered program
    /// answers only to the numbers it assigned; the declaration ordinal
    /// stands in only for an interface none of whose operations carries a
    /// number (the dialects that number nothing).
    pub fn op_by_proc(&self, proc: u32) -> Option<usize> {
        if self.ops.iter().any(|o| o.opnum.is_some()) {
            self.ops.iter().position(|o| o.opnum == Some(proc))
        } else {
            ((proc as usize) < self.ops.len()).then_some(proc as usize)
        }
    }
}

/// A flattened field of a parameter: its slot kind plus wire shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FieldShape {
    Scalar(SlotKind),
    /// Wire string (slot kind depends on presentation).
    Str,
    /// Counted byte payload.
    Payload,
    /// Fixed-length opaque bytes.
    FixedBytes(u32),
    /// Port right, out-of-band.
    Port,
}

/// Where [`flatten`] puts the fields of the parameter being placed: each
/// gets the next slot, its wire shape recorded in it.
struct Placer<'a> {
    slots: &'a mut SlotMap,
    dir: ParamDir,
    param_index: Option<usize>,
    pres: &'a ParamPresentation,
}

impl Placer<'_> {
    fn place(&mut self, name: &str, shape: FieldShape) {
        let kind = slot_kind_for(&shape, self.pres);
        self.slots.push(name, kind, self.dir, self.param_index, shape);
    }
}

/// Flattens a (resolved) type into wire fields, in wire order. `name` is
/// the dotted name so far; the only string built on the way is the one a
/// struct's fields share as their prefix.
fn flatten(module: &Module, name: &str, ty: &Type, out: &mut Placer<'_>) -> Result<()> {
    let shape = match module.resolve(ty)? {
        Type::Void => return Ok(()),
        Type::Bool => FieldShape::Scalar(SlotKind::Bool),
        Type::Octet | Type::U16 | Type::U32 => FieldShape::Scalar(SlotKind::U32),
        Type::I16 | Type::I32 => FieldShape::Scalar(SlotKind::I32),
        Type::I64 => FieldShape::Scalar(SlotKind::I64),
        Type::U64 => FieldShape::Scalar(SlotKind::U64),
        Type::F64 => FieldShape::Scalar(SlotKind::F64),
        Type::Str => FieldShape::Str,
        Type::ObjRef => FieldShape::Port,
        Type::Sequence(el) => match module.resolve(el)? {
            Type::Octet => FieldShape::Payload,
            other => {
                return Err(CoreError::Unsupported(format!(
                    "sequence<{other}>: only sequence<octet> compiles to programs"
                )))
            }
        },
        Type::Array(el, n) => match module.resolve(el)? {
            Type::Octet => FieldShape::FixedBytes(*n),
            other => {
                return Err(CoreError::Unsupported(format!(
                    "{other}[{n}]: only octet arrays compile to programs"
                )))
            }
        },
        Type::Named(type_name) => {
            let td = module.typedef(type_name).expect("resolve() checked");
            match &td.body {
                TypeBody::Alias(_) => unreachable!("resolve() strips aliases"),
                TypeBody::Struct(fields) => {
                    let longest = fields.iter().map(|f| f.name.len()).max().unwrap_or(0);
                    let mut child = String::with_capacity(name.len() + 1 + longest);
                    child.push_str(name);
                    child.push('.');
                    for field in fields {
                        child.truncate(name.len() + 1);
                        child.push_str(&field.name);
                        flatten(module, &child, &field.ty, out)?;
                    }
                    return Ok(());
                }
                TypeBody::Enum(_) => FieldShape::Scalar(SlotKind::U32),
                TypeBody::Union { .. } => {
                    return Err(CoreError::Unsupported(format!(
                        "union `{type_name}`: use [comm_status]-style status results instead"
                    )))
                }
            }
        }
    };
    out.place(name, shape);
    Ok(())
}

/// One placed field as the program-building passes see it: its slot and
/// wire shape, and the parameter it came from.
struct PlacedField<'a> {
    slot: Slot,
    shape: &'a FieldShape,
    dir: ParamDir,
    /// Index of the source parameter (`usize::MAX` for the result).
    param_index: usize,
    pres: &'a ParamPresentation,
}

fn compile_op(
    module: &Module,
    op: &Operation,
    index: usize,
    pres: &OpPresentation,
) -> Result<CompiledOp> {
    if pres.params.len() != op.params.len() {
        return Err(CoreError::BadPresentation(format!(
            "presentation of `{}` has {} parameter entries, operation declares {}",
            op.name,
            pres.params.len(),
            op.params.len()
        )));
    }

    // 1. Flatten every parameter (and the result) and assign slots, then
    // the status slot, always last. Sized for one slot per parameter plus
    // result and status, and for those names; struct parameters grow both.
    let declared = op.params.len();
    let has_result = op.ret != Type::Void;
    let names = op.params.iter().map(|p| p.name.len()).sum::<usize>()
        + if has_result { "return".len() } else { 0 }
        + "status".len();
    let mut slots =
        SlotMap { slots: Vec::with_capacity(declared + 2), names: String::with_capacity(names) };
    let params = op
        .params
        .iter()
        .zip(&pres.params)
        .enumerate()
        .map(|(i, (p, ppres))| (Some(i), p.name.as_str(), p.dir, &p.ty, ppres));
    let result = has_result.then_some((None, "return", ParamDir::Out, &op.ret, &pres.result));
    for (param_index, name, dir, ty, ppres) in params.chain(result) {
        let mut placer = Placer { slots: &mut slots, dir, param_index, pres: ppres };
        flatten(module, name, ty, &mut placer)?;
    }
    let status = FieldShape::Scalar(SlotKind::U32);
    slots.push("status", SlotKind::U32, ParamDir::Out, None, status);
    let placed = || {
        slots.slots.iter().enumerate().map(|(i, info)| PlacedField {
            slot: Slot(i),
            shape: &info.shape,
            dir: info.dir,
            param_index: info.param_index.unwrap_or(usize::MAX),
            pres: info.param_index.map_or(&pres.result, |p| &pres.params[p]),
        })
    };
    let is_payload = |f: &PlacedField<'_>| matches!(f.shape, FieldShape::Str | FieldShape::Payload);

    // 2. Build the four programs in place, following the payload-first
    // layout, each sized exactly. A request carries every in-direction
    // slot, a reply every out-direction one, the status word included,
    // less the payloads the server sinks.
    let (mut n_in, mut n_out, mut n_sunk) = (0, 0, 0);
    for f in placed() {
        n_in += usize::from(f.dir.is_in());
        n_out += usize::from(f.dir.is_out());
        n_sunk += usize::from(f.dir.is_out() && is_payload(&f) && f.pres.is_server_sink());
    }
    let mut request_marshal = Ops::with_capacity(n_in);
    let mut request_unmarshal = Ops::with_capacity(n_in);
    let mut reply_marshal = Ops::with_capacity(n_out - n_sunk);
    let mut reply_unmarshal = Ops::with_capacity(n_out);
    let mut sink_params = Vec::new();
    let mut reply_payload_seen_buffered = false;

    // Payload section.
    for f in placed().filter(is_payload) {
        if f.dir.is_in() {
            request_marshal.push(put_payload_op(&f, false));
            request_unmarshal.push(get_payload_op_server(&f));
        }
        if f.dir.is_out() {
            if f.pres.is_server_sink() {
                if reply_payload_seen_buffered {
                    return Err(CoreError::BadPresentation(format!(
                        "sink-mode payload `{}` follows a buffered payload: sink payloads must lead the reply",
                        slots.name(f.slot)
                    )));
                }
                sink_params.push(SinkSpec { slot: f.slot, param_index: f.param_index });
            } else {
                reply_payload_seen_buffered = true;
                reply_marshal.push(put_payload_op(&f, true));
            }
            reply_unmarshal.push(get_payload_op_client(&f));
        }
    }

    // Scalar / fixed / port section, ending in the status word.
    for f in placed() {
        let slot = f.slot;
        let (put, get) = match f.shape {
            FieldShape::Str | FieldShape::Payload => continue,
            FieldShape::Scalar(kind) => scalar_ops(*kind, slot),
            FieldShape::FixedBytes(n) => {
                (MOp::PutBytesFixed(slot, *n), MOp::GetBytesFixed(slot, *n))
            }
            FieldShape::Port => (MOp::PutPort(slot), MOp::GetPort(slot)),
        };
        if f.dir.is_in() {
            request_marshal.push(put);
            request_unmarshal.push(get);
        }
        if f.dir.is_out() {
            reply_marshal.push(put);
            reply_unmarshal.push(get);
        }
    }

    Ok(CompiledOp {
        name: op.name.clone(),
        index,
        opnum: op.opnum,
        slots,
        request_marshal: StubProgram::from_ops(request_marshal),
        request_unmarshal: StubProgram::from_ops(request_unmarshal),
        reply_marshal: StubProgram::from_ops(reply_marshal),
        reply_unmarshal: StubProgram::from_ops(reply_unmarshal),
        sink_params,
        comm_status: pres.comm_status,
        idempotent: pres.idempotent,
        call_shape: pres.call_shape,
    })
}

fn slot_kind_for(shape: &FieldShape, pres: &ParamPresentation) -> SlotKind {
    match shape {
        FieldShape::Scalar(k) => *k,
        FieldShape::Str => {
            if pres.length_is.is_some() {
                SlotKind::Bytes
            } else {
                SlotKind::Str
            }
        }
        FieldShape::Payload | FieldShape::FixedBytes(_) => SlotKind::Bytes,
        FieldShape::Port => SlotKind::Port,
    }
}

fn scalar_ops(kind: SlotKind, slot: Slot) -> (MOp, MOp) {
    match kind {
        SlotKind::U32 => (MOp::PutU32(slot), MOp::GetU32(slot)),
        SlotKind::I32 => (MOp::PutI32(slot), MOp::GetI32(slot)),
        SlotKind::U64 => (MOp::PutU64(slot), MOp::GetU64(slot)),
        SlotKind::I64 => (MOp::PutI64(slot), MOp::GetI64(slot)),
        SlotKind::Bool => (MOp::PutBool(slot), MOp::GetBool(slot)),
        SlotKind::F64 => (MOp::PutF64(slot), MOp::GetF64(slot)),
        SlotKind::Str | SlotKind::Bytes | SlotKind::Port => {
            unreachable!("non-scalar kinds handled by the payload/port paths")
        }
    }
}

/// Marshal op for a payload field (`reply` selects the reply direction).
fn put_payload_op(f: &PlacedField<'_>, reply: bool) -> MOp {
    // A client-side special hook for in-params, or a server whose special
    // out-param is NOT sink-mode, writes through the hook op; sinks never
    // reach here.
    if f.pres.special && !reply {
        return MOp::PutBytesSpecial { slot: f.slot, hook: f.param_index };
    }
    match f.shape {
        FieldShape::Str => {
            if f.pres.length_is.is_some() {
                MOp::PutStrFromBytes(f.slot)
            } else {
                MOp::PutStr(f.slot)
            }
        }
        FieldShape::Payload => MOp::PutBytes(f.slot),
        _ => unreachable!("only payload shapes reach put_payload_op"),
    }
}

/// Server-side unmarshal op for an in-direction payload field.
fn get_payload_op_server(f: &PlacedField<'_>) -> MOp {
    if f.pres.special {
        return MOp::GetBytesSpecial { slot: f.slot, hook: f.param_index };
    }
    match f.shape {
        FieldShape::Str => {
            if f.pres.length_is.is_some() {
                MOp::GetStrAsBytes(f.slot)
            } else {
                MOp::GetStr(f.slot)
            }
        }
        FieldShape::Payload => {
            if f.pres.borrowed {
                MOp::GetBytesBorrowed(f.slot)
            } else {
                MOp::GetBytesOwned(f.slot)
            }
        }
        _ => unreachable!("only payload shapes reach get_payload_op_server"),
    }
}

/// Client-side unmarshal op for an out-direction payload field.
fn get_payload_op_client(f: &PlacedField<'_>) -> MOp {
    match f.pres.alloc {
        AllocSemantics::Special => MOp::GetBytesSpecial { slot: f.slot, hook: f.param_index },
        AllocSemantics::CallerAllocates => MOp::GetBytesInto(f.slot),
        AllocSemantics::StubAllocates => match f.shape {
            FieldShape::Str => {
                if f.pres.length_is.is_some() {
                    MOp::GetStrAsBytes(f.slot)
                } else {
                    MOp::GetStr(f.slot)
                }
            }
            FieldShape::Payload => MOp::GetBytesOwned(f.slot),
            _ => unreachable!("only payload shapes reach get_payload_op_client"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annot::{apply_pdl, Attr, OpAnnot, ParamAnnot, PdlFile};
    use crate::ir::{fileio_example, syslog_example, Dialect, Field, Param, TypeDef};
    use crate::present::InterfacePresentation;

    fn compile_fileio(pdl: Option<PdlFile>) -> CompiledInterface {
        let m = fileio_example();
        let iface = m.interface("FileIO").unwrap();
        let mut pres = InterfacePresentation::default_for(&m, iface).unwrap();
        if let Some(pdl) = pdl {
            pres = apply_pdl(&m, iface, &pres, &pdl).unwrap();
        }
        CompiledInterface::compile(&m, iface, &pres).unwrap()
    }

    #[test]
    fn fileio_default_layout() {
        let ci = compile_fileio(None);
        let read = ci.op("read").unwrap();
        // Request: just the count scalar.
        assert_eq!(read.request_marshal.ops, vec![MOp::PutU32(Slot(0))]);
        assert_eq!(read.request_unmarshal.ops, vec![MOp::GetU32(Slot(0))]);
        // Reply: result payload, then status.
        assert_eq!(read.reply_marshal.ops, vec![MOp::PutBytes(Slot(1)), MOp::PutU32(Slot(2))]);
        assert_eq!(
            read.reply_unmarshal.ops,
            vec![MOp::GetBytesOwned(Slot(1)), MOp::GetU32(Slot(2))]
        );
        assert!(read.sink_params.is_empty());

        let write = ci.op("write").unwrap();
        // Request: payload first (there are no scalars).
        assert_eq!(write.request_marshal.ops, vec![MOp::PutBytes(Slot(0))]);
        assert_eq!(write.request_unmarshal.ops, vec![MOp::GetBytesOwned(Slot(0))]);
        // Reply: status only.
        assert_eq!(write.reply_marshal.ops, vec![MOp::PutU32(Slot(1))]);
    }

    #[test]
    fn dealloc_never_compiles_to_sink() {
        let pdl = PdlFile {
            interface: Some("FileIO".into()),
            iface_attrs: vec![],
            types: vec![],
            ops: vec![OpAnnot {
                op: "read".into(),
                op_attrs: vec![],
                params: vec![ParamAnnot {
                    param: "return".into(),
                    attrs: vec![Attr::DeallocNever],
                }],
            }],
        };
        let ci = compile_fileio(Some(pdl));
        let read = ci.op("read").unwrap();
        // The payload is no longer marshalled by the stub...
        assert_eq!(read.reply_marshal.ops, vec![MOp::PutU32(Slot(2))]);
        // ...it is sink-written by the work function.
        assert_eq!(read.sink_params, vec![SinkSpec { slot: Slot(1), param_index: usize::MAX }]);
        // The client side is unchanged: wire layout is presentation-free.
        assert_eq!(
            read.reply_unmarshal.ops,
            vec![MOp::GetBytesOwned(Slot(1)), MOp::GetU32(Slot(2))]
        );
    }

    #[test]
    fn caller_allocates_changes_client_side_only() {
        let pdl = PdlFile {
            interface: Some("FileIO".into()),
            iface_attrs: vec![],
            types: vec![],
            ops: vec![OpAnnot {
                op: "read".into(),
                op_attrs: vec![],
                params: vec![ParamAnnot { param: "return".into(), attrs: vec![Attr::AllocCaller] }],
            }],
        };
        let ci = compile_fileio(Some(pdl));
        let read = ci.op("read").unwrap();
        assert_eq!(
            read.reply_unmarshal.ops,
            vec![MOp::GetBytesInto(Slot(1)), MOp::GetU32(Slot(2))]
        );
        // Server side still buffers + marshals by default.
        assert_eq!(read.reply_marshal.ops, vec![MOp::PutBytes(Slot(1)), MOp::PutU32(Slot(2))]);
    }

    #[test]
    fn borrowed_server_presentation() {
        let pdl = PdlFile {
            interface: Some("FileIO".into()),
            iface_attrs: vec![],
            types: vec![],
            ops: vec![OpAnnot {
                op: "write".into(),
                op_attrs: vec![],
                params: vec![ParamAnnot { param: "data".into(), attrs: vec![Attr::Borrowed] }],
            }],
        };
        let ci = compile_fileio(Some(pdl));
        let write = ci.op("write").unwrap();
        assert_eq!(write.request_unmarshal.ops, vec![MOp::GetBytesBorrowed(Slot(0))]);
    }

    #[test]
    fn special_in_param_uses_hooks_both_sides() {
        let pdl = PdlFile {
            interface: Some("FileIO".into()),
            iface_attrs: vec![],
            types: vec![],
            ops: vec![OpAnnot {
                op: "write".into(),
                op_attrs: vec![],
                params: vec![ParamAnnot { param: "data".into(), attrs: vec![Attr::Special] }],
            }],
        };
        let ci = compile_fileio(Some(pdl));
        let write = ci.op("write").unwrap();
        assert_eq!(
            write.request_marshal.ops,
            vec![MOp::PutBytesSpecial { slot: Slot(0), hook: 0 }]
        );
        assert_eq!(
            write.request_unmarshal.ops,
            vec![MOp::GetBytesSpecial { slot: Slot(0), hook: 0 }]
        );
    }

    #[test]
    fn length_is_switches_string_ops() {
        let m = syslog_example();
        let iface = m.interface("SysLog").unwrap();
        let base = InterfacePresentation::default_for(&m, iface).unwrap();
        let ci = CompiledInterface::compile(&m, iface, &base).unwrap();
        assert_eq!(ci.op("write_msg").unwrap().request_marshal.ops, vec![MOp::PutStr(Slot(0))]);

        let pdl = PdlFile {
            interface: Some("SysLog".into()),
            iface_attrs: vec![],
            types: vec![],
            ops: vec![OpAnnot {
                op: "write_msg".into(),
                op_attrs: vec![],
                params: vec![ParamAnnot {
                    param: "msg".into(),
                    attrs: vec![Attr::LengthIs("length".into())],
                }],
            }],
        };
        let pres = apply_pdl(&m, iface, &base, &pdl).unwrap();
        let ci = CompiledInterface::compile(&m, iface, &pres).unwrap();
        let op = ci.op("write_msg").unwrap();
        assert_eq!(op.request_marshal.ops, vec![MOp::PutStrFromBytes(Slot(0))]);
        assert_eq!(op.slots.slots[0].kind, SlotKind::Bytes);
    }

    #[test]
    fn struct_params_flatten_to_scalars() {
        let mut m = crate::ir::Module::new("nfs", Dialect::Sun);
        m.typedefs.push(TypeDef {
            name: "fattr".into(),
            body: TypeBody::Struct(vec![
                Field { name: "size".into(), ty: Type::U32 },
                Field { name: "mtime".into(), ty: Type::U64 },
            ]),
        });
        m.interfaces.push(Interface::new(
            "Nfs",
            vec![Operation::new(
                "getattr",
                vec![Param::new("attrs", ParamDir::Out, Type::Named("fattr".into()))],
                Type::Void,
            )],
        ));
        let iface = m.interface("Nfs").unwrap();
        let pres = InterfacePresentation::default_for(&m, iface).unwrap();
        let ci = CompiledInterface::compile(&m, iface, &pres).unwrap();
        let op = ci.op("getattr").unwrap();
        assert_eq!(op.slots.slot("attrs.size"), Some(Slot(0)));
        assert_eq!(op.slots.slot("attrs.mtime"), Some(Slot(1)));
        assert_eq!(
            op.reply_marshal.ops,
            vec![MOp::PutU32(Slot(0)), MOp::PutU64(Slot(1)), MOp::PutU32(Slot(2))]
        );
    }

    #[test]
    fn unsupported_sequence_element_rejected() {
        let mut m = fileio_example();
        m.interfaces[0].ops[0].params[0].ty = Type::Sequence(Box::new(Type::U32));
        let iface = m.interface("FileIO").unwrap();
        let pres = InterfacePresentation::default_for(&m, iface).unwrap();
        assert!(matches!(
            CompiledInterface::compile(&m, iface, &pres),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn status_slot_is_last() {
        let ci = compile_fileio(None);
        for op in &ci.ops {
            let s = op.status_slot();
            assert_eq!(op.slots.name(s), "status");
            assert_eq!(s.0, op.slots.len() - 1);
        }
    }

    #[test]
    fn new_frame_matches_kinds() {
        let ci = compile_fileio(None);
        let read = ci.op("read").unwrap();
        let frame = read.slots.new_frame();
        assert_eq!(frame.len(), read.slots.len());
        assert_eq!(frame[0], Value::U32(0));
        assert_eq!(frame[1], Value::Bytes(vec![]));
    }

    #[test]
    fn signatures_equal_across_presentations() {
        let default = compile_fileio(None);
        let pdl = PdlFile {
            interface: Some("FileIO".into()),
            iface_attrs: vec![Attr::Leaky],
            types: vec![],
            ops: vec![OpAnnot {
                op: "read".into(),
                op_attrs: vec![Attr::CommStatus],
                params: vec![ParamAnnot {
                    param: "return".into(),
                    attrs: vec![Attr::DeallocNever],
                }],
            }],
        };
        let annotated = compile_fileio(Some(pdl));
        assert_eq!(default.signature.hash(), annotated.signature.hash());
    }

    #[test]
    fn program_display_lists_ops() {
        let ci = compile_fileio(None);
        let s = ci.op("read").unwrap().reply_marshal.to_string();
        assert!(s.contains("PutBytes"));
        assert!(s.contains("PutU32"));
    }

    #[test]
    fn fixed_opaque_array() {
        let mut m = crate::ir::Module::new("nfs", Dialect::Sun);
        m.typedefs.push(TypeDef {
            name: "nfs_fh".into(),
            body: TypeBody::Alias(Type::Array(Box::new(Type::Octet), 32)),
        });
        m.interfaces.push(Interface::new(
            "Nfs",
            vec![Operation::new(
                "null_fh",
                vec![Param::new("fh", ParamDir::In, Type::Named("nfs_fh".into()))],
                Type::Void,
            )],
        ));
        let iface = m.interface("Nfs").unwrap();
        let pres = InterfacePresentation::default_for(&m, iface).unwrap();
        let ci = CompiledInterface::compile(&m, iface, &pres).unwrap();
        assert_eq!(
            ci.op("null_fh").unwrap().request_marshal.ops,
            vec![MOp::PutBytesFixed(Slot(0), 32)]
        );
    }

    #[test]
    fn compile_specializes_programs() {
        let ci = compile_fileio(None);
        let read = ci.op("read").unwrap();
        let programs = [
            &read.request_marshal,
            &read.request_unmarshal,
            &read.reply_marshal,
            &read.reply_unmarshal,
        ];
        let before: usize = programs.iter().map(|p| p.ops.len()).sum();
        let after: usize = programs.iter().map(|p| p.dispatch_count()).sum();
        // The fig6 pipe-read signature: 6 threaded ops fuse to 4 dispatches
        // (the payload op absorbs its trailing scalar on both reply sides).
        assert_eq!((before, after), (6, 4));
        // There is no second way to build a program: `from_ops` of the
        // same ops is the same program, fused form and size hint included.
        for p in programs {
            assert_eq!(&StubProgram::from_ops(p.ops.clone()), p);
        }
    }

    #[test]
    fn the_default_program_is_the_empty_program() {
        let empty = StubProgram::from_ops(vec![]);
        assert_eq!(StubProgram::default(), empty);
        assert!(empty.is_empty());
        assert_eq!((empty.len(), empty.dispatch_count()), (0, 0));
        assert_eq!(empty.fused.presize, crate::fuse::SizeHint::default());
    }

    #[test]
    fn a_numbered_program_answers_only_to_its_numbers() {
        // Unnumbered (CORBA dialect): the declaration ordinal is the number.
        let mut ci = compile_fileio(None);
        assert!(ci.ops.iter().all(|o| o.opnum.is_none()));
        assert_eq!(ci.op_by_proc(0), Some(0));
        assert_eq!(ci.op_by_proc(1), Some(1));
        assert_eq!(ci.op_by_proc(2), None);
        // Numbered (Sun dialect): a gap in the numbering is not an ordinal.
        ci.ops[0].opnum = Some(4);
        ci.ops[1].opnum = Some(6);
        assert_eq!(ci.op_by_proc(4), Some(0));
        assert_eq!(ci.op_by_proc(6), Some(1));
        for unassigned in [0, 1, 5, 7] {
            assert_eq!(ci.op_by_proc(unassigned), None, "procedure {unassigned}");
        }
    }

    #[test]
    fn mop_slot_accessor() {
        assert_eq!(MOp::PutU32(Slot(3)).slot(), Slot(3));
        assert_eq!(MOp::GetBytesSpecial { slot: Slot(7), hook: 1 }.slot(), Slot(7));
    }
}
