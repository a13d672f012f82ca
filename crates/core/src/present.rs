//! Presentation: the programmer's contract between stubs and user code.
//!
//! A presentation answers, per parameter: who allocates the buffer, who
//! deallocates it, may it be modified in place, is marshalling delegated to
//! a user `[special]` routine, is a string passed with an explicit length —
//! and per interface: how errors surface (`[comm_status]`), how far the peer
//! is trusted, whether port names must be unique. None of these affect the
//! bytes on the wire.
//!
//! [`InterfacePresentation::default_for`] computes the *default
//! presentation* from the interface definition "by fixed, standardized
//! rules", per dialect, exactly as the paper's front-end does; a PDL file
//! (see [`crate::annot`]) then modifies it for one endpoint.

use crate::ir::{Dialect, Interface, Module, Operation};
use crate::Result;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Who provides the storage for an `out`-direction payload (or result).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum AllocSemantics {
    /// The stub allocates a fresh buffer and *donates* it to the consumer —
    /// CORBA/COM "move" semantics, the CORBA default.
    #[default]
    StubAllocates,
    /// The caller provides the buffer and the stub fills it in —
    /// MIG-style semantics for non-copy-on-write parameters.
    CallerAllocates,
    /// Marshalling/unmarshalling is delegated to a user `[special]` routine
    /// (e.g. the Linux NFS client copying straight to user space).
    Special,
}

/// When the *server-side* stub releases an out-payload buffer after
/// marshalling the reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum DeallocPolicy {
    /// Free it after marshalling — the "move" semantics of the default
    /// CORBA presentation (the server donates the buffer to the stub).
    #[default]
    OnReturn,
    /// Never free it: the server manages its own storage and the stub
    /// marshals straight out of it — the paper's `[dealloc(never)]`
    /// (Figure 5), which deletes the pipe server's extra copy.
    Never,
}

/// Trust one endpoint declares in the other (core-side mirror of the
/// kernel's trust levels; the runtime maps between them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, PartialOrd, Ord, Hash)]
pub enum Trust {
    /// No trust (default): full register protection.
    #[default]
    None,
    /// `[leaky]`: confidentiality conceded, integrity protected.
    Leaky,
    /// `[leaky, unprotected]`: full trust.
    LeakyUnprotected,
}

/// Presentation attributes of one parameter (or the result).
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash)]
pub struct ParamPresentation {
    /// Marshal/unmarshal via user-registered `[special]` routines.
    pub special: bool,
    /// For string parameters: pass as raw bytes with an explicit length
    /// parameter of this name (the paper's `length_is` example) instead of
    /// as a checked string.
    pub length_is: Option<String>,
    /// Client-side, `in` payloads: the caller permits the RPC system (or a
    /// same-domain server) to trash the buffer during the call.
    pub trashable: bool,
    /// Server-side, `in` payloads: the server promises not to modify the
    /// buffer it receives.
    pub preserved: bool,
    /// Server-side, `in` payloads: hand the server a borrowed window into
    /// the request message instead of a private copy.
    pub borrowed: bool,
    /// Who allocates storage for `out` payloads.
    pub alloc: AllocSemantics,
    /// When the server-side stub frees `out` payload storage.
    pub dealloc: DeallocPolicy,
    /// For object-reference parameters: relax Mach's unique-name rule on
    /// transfer (`[nonunique]`).
    pub nonunique: bool,
}

impl ParamPresentation {
    /// True if the server-side stub must not buffer this out-payload —
    /// either the server retains ownership (`dealloc(never)`) or a
    /// `[special]` routine produces the bytes. Both compile to *sink mode*:
    /// the work function writes the payload directly into the reply message.
    pub(crate) fn is_server_sink(&self) -> bool {
        self.dealloc == DeallocPolicy::Never
            || (self.special && self.alloc != AllocSemantics::CallerAllocates)
    }
}

/// The call model of one operation — another contract term negotiated at
/// bind time from interface annotations, exactly like allocation or trust.
/// The wire encoding of one message never changes; what changes is whether
/// the caller waits for a reply and how many messages may be in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub enum CallShape {
    /// Ordinary request/reply (the default everywhere).
    #[default]
    Unary,
    /// `[oneway]`: fire-and-forget notification. No reply slot is
    /// allocated and the caller never waits on an XID; at-most-once tags
    /// are still honored so duplicates are suppressed server-side.
    Oneway,
    /// `[stream(window)]`: a credit-based flow-controlled frame stream.
    /// The sender may have at most `window` unconsumed frames outstanding;
    /// the receiver replenishes credits as it drains.
    Stream {
        /// Maximum unconsumed frames in flight, as declared (≥ 1). The
        /// *effective* window is negotiated at bind time: the min of the
        /// two endpoints' declarations.
        window: u32,
    },
}

impl CallShape {
    /// The declared window for stream shapes (`None` otherwise).
    pub fn window(&self) -> Option<u32> {
        match self {
            CallShape::Stream { window } => Some(*window),
            _ => None,
        }
    }
}

/// Presentation attributes of one operation.
#[derive(Debug, Clone, PartialEq, Eq, Default, Hash)]
pub struct OpPresentation {
    /// Per-parameter attributes, in the operation's declaration order.
    pub params: Vec<ParamPresentation>,
    /// Attributes of the result value (for non-void results).
    pub result: ParamPresentation,
    /// Surface the RPC/communication status as an ordinary return code
    /// (`[comm_status]`) instead of through the exception path.
    pub comm_status: bool,
    /// The operation may safely execute more than once (`[idempotent]`);
    /// retry policies refuse to resend operations without it. Like every
    /// presentation attribute, this never changes the wire signature.
    pub idempotent: bool,
    /// The call model (`[oneway]` / `[stream(window)]`). Part of the
    /// presentation fingerprint, so bindings with different shapes compile
    /// to distinct cached programs.
    pub call_shape: CallShape,
}

/// Presentation of an entire interface, for one endpoint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InterfacePresentation {
    /// The interface this presentation belongs to.
    pub interface: String,
    /// Dialect whose default rules seeded this presentation.
    pub dialect: Dialect,
    /// Per-operation presentations, keyed by operation name.
    pub ops: BTreeMap<String, OpPresentation>,
    /// How far this endpoint trusts its peer.
    pub trust: Trust,
}

impl InterfacePresentation {
    /// Computes the default presentation for `iface` under the module's
    /// dialect rules.
    ///
    /// CORBA rules: out payloads are stub-allocated move-semantics buffers,
    /// in payloads are copied for the server (no trashing, no preservation
    /// promise), strings are checked strings, errors surface as exceptions.
    /// Sun (rpcgen) rules differ in one default: errors surface as status
    /// results (`comm_status`), matching the C idiom of returning a pointer
    /// that is `NULL` on RPC failure. MIG rules differ in two: statuses are
    /// `kern_return_t` values (`comm_status`) and out buffers are
    /// caller-allocated — the "client allocates, client consumes" fixed
    /// semantics Figure 11 names MIG for.
    pub fn default_for(module: &Module, iface: &Interface) -> Result<InterfacePresentation> {
        let mut ops = BTreeMap::new();
        for op in &iface.ops {
            ops.insert(op.name.clone(), default_op(module, op)?);
        }
        Ok(InterfacePresentation {
            interface: iface.name.clone(),
            dialect: module.dialect,
            ops,
            trust: Trust::None,
        })
    }

    /// Looks up one operation's presentation.
    pub fn op(&self, name: &str) -> Option<&OpPresentation> {
        self.ops.get(name)
    }

    /// A process-internal identity for this presentation, used as a cache
    /// key component (the serving engine's program cache keys compiled
    /// programs by wire signature × presentation pair × trust).
    ///
    /// Hashes the structure itself — the derived [`Hash`] of every field,
    /// operation and parameter, folded through the fixed FNV-1a of
    /// [`crate::sig`] — so structurally equal presentations fingerprint
    /// equal however they were built, nothing is rendered and nothing is
    /// allocated: every bind, rebind and service registration computes
    /// one. Not a wire artifact — never compare fingerprints across
    /// processes or versions.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::sig::Fnv1a::default();
        self.hash(&mut h);
        h.finish()
    }

    /// Mutable lookup (used by PDL application).
    pub(crate) fn op_mut(&mut self, name: &str) -> Option<&mut OpPresentation> {
        self.ops.get_mut(name)
    }
}

fn default_op(module: &Module, op: &Operation) -> Result<OpPresentation> {
    let mig = module.dialect == Dialect::Mig;
    let mut params = Vec::with_capacity(op.params.len());
    for p in &op.params {
        // The default presentation is type/direction-driven; the resolved
        // type is consulted so typedef'd payloads behave like their
        // structure.
        let resolved = module.resolve(&p.ty)?;
        let mut pres = ParamPresentation::default();
        // Only counted-bytes payloads can be caller-allocated (strings
        // carry format framing); MIG strings keep move semantics.
        if mig && p.dir.is_out() && resolved == &crate::ir::Type::octet_seq() {
            pres.alloc = AllocSemantics::CallerAllocates;
        }
        params.push(pres);
    }
    let mut result = ParamPresentation::default();
    if mig && module.resolve(&op.ret)? == &crate::ir::Type::octet_seq() {
        result.alloc = AllocSemantics::CallerAllocates;
    }
    Ok(OpPresentation {
        params,
        result,
        comm_status: module.dialect != Dialect::Corba,
        // No dialect promises idempotency by default; a PDL must say so.
        idempotent: false,
        // Every dialect defaults to request/reply; `[oneway]` / `[stream]`
        // must be declared.
        call_shape: CallShape::Unary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::fileio_example;

    #[test]
    fn corba_defaults() {
        let m = fileio_example();
        let iface = m.interface("FileIO").unwrap();
        let pres = InterfacePresentation::default_for(&m, iface).unwrap();
        let read = pres.op("read").unwrap();
        assert!(!read.comm_status, "CORBA default surfaces errors as exceptions");
        assert_eq!(read.result.alloc, AllocSemantics::StubAllocates);
        assert_eq!(read.result.dealloc, DeallocPolicy::OnReturn);
        let write = pres.op("write").unwrap();
        assert!(!write.params[0].trashable);
        assert!(!write.params[0].preserved);
        assert_eq!(pres.trust, Trust::None);
    }

    #[test]
    fn sun_defaults_use_comm_status() {
        let mut m = fileio_example();
        m.dialect = Dialect::Sun;
        let iface = m.interface("FileIO").unwrap();
        let pres = InterfacePresentation::default_for(&m, iface).unwrap();
        assert!(pres.op("read").unwrap().comm_status);
    }

    #[test]
    fn sink_mode_classification() {
        let mut p = ParamPresentation::default();
        assert!(!p.is_server_sink());
        p.dealloc = DeallocPolicy::Never;
        assert!(p.is_server_sink());
        let mut q = ParamPresentation { special: true, ..Default::default() };
        assert!(q.is_server_sink());
        // Special with caller-allocated client buffer is a client-side hook,
        // not a server sink.
        q.alloc = AllocSemantics::CallerAllocates;
        assert!(!q.is_server_sink());
    }

    #[test]
    fn op_lookup() {
        let m = fileio_example();
        let iface = m.interface("FileIO").unwrap();
        let mut pres = InterfacePresentation::default_for(&m, iface).unwrap();
        assert!(pres.op("read").is_some());
        assert!(pres.op("nope").is_none());
        pres.op_mut("read").unwrap().comm_status = true;
        assert!(pres.op("read").unwrap().comm_status);
    }

    /// The fingerprint this module computed before it hashed structure:
    /// FNV-1a over the `Debug` rendering. Kept here as the oracle.
    fn rendered_fingerprint(p: &InterfacePresentation) -> u64 {
        crate::sig::fnv1a(format!("{p:?}").as_bytes())
    }

    #[test]
    fn fingerprint_tracks_structural_identity() {
        let m = fileio_example();
        let iface = m.interface("FileIO").unwrap();
        let a = InterfacePresentation::default_for(&m, iface).unwrap();
        let b = InterfacePresentation::default_for(&m, iface).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint(), "equal presentations");

        let mut c = a.clone();
        c.trust = Trust::LeakyUnprotected;
        assert_ne!(a.fingerprint(), c.fingerprint(), "trust is part of identity");

        let mut d = a.clone();
        d.op_mut("read").unwrap().result.dealloc = DeallocPolicy::Never;
        assert_ne!(a.fingerprint(), d.fingerprint(), "per-param attributes too");

        let mut e = a.clone();
        e.op_mut("write").unwrap().call_shape = CallShape::Stream { window: 8 };
        assert_ne!(a.fingerprint(), e.fingerprint(), "call shape is part of identity");
        let mut f = a.clone();
        f.op_mut("write").unwrap().call_shape = CallShape::Stream { window: 16 };
        assert_ne!(e.fingerprint(), f.fingerprint(), "window width too");
    }

    #[test]
    fn every_single_field_flip_moves_the_fingerprint() {
        type Flip = (&'static str, fn(&mut InterfacePresentation));
        fn data(p: &mut InterfacePresentation) -> &mut ParamPresentation {
            &mut p.op_mut("write").unwrap().params[0]
        }
        let flips: &[Flip] = &[
            ("special", |p| data(p).special = true),
            ("length_is", |p| data(p).length_is = Some("n".into())),
            ("length_is, another name", |p| data(p).length_is = Some("m".into())),
            ("trashable", |p| data(p).trashable = true),
            ("preserved", |p| data(p).preserved = true),
            ("borrowed", |p| data(p).borrowed = true),
            ("alloc", |p| data(p).alloc = AllocSemantics::CallerAllocates),
            ("alloc, special", |p| data(p).alloc = AllocSemantics::Special),
            ("dealloc", |p| data(p).dealloc = DeallocPolicy::Never),
            ("nonunique", |p| data(p).nonunique = true),
            ("the same flag on the result", |p| p.op_mut("write").unwrap().result.trashable = true),
            ("the same flag on another operation", |p| {
                p.op_mut("read").unwrap().params[0].trashable = true
            }),
            ("comm_status", |p| p.op_mut("write").unwrap().comm_status = true),
            ("idempotent", |p| p.op_mut("write").unwrap().idempotent = true),
            ("oneway", |p| p.op_mut("write").unwrap().call_shape = CallShape::Oneway),
            ("stream(8)", |p| {
                p.op_mut("write").unwrap().call_shape = CallShape::Stream { window: 8 }
            }),
            ("stream(16)", |p| {
                p.op_mut("write").unwrap().call_shape = CallShape::Stream { window: 16 }
            }),
            ("trust", |p| p.trust = Trust::Leaky),
            ("trust, full", |p| p.trust = Trust::LeakyUnprotected),
            ("dialect", |p| p.dialect = Dialect::Sun),
            ("interface name", |p| p.interface.push('2')),
            ("operation name", |p| {
                let op = p.ops.remove("write").unwrap();
                p.ops.insert("write2".into(), op);
            }),
            ("parameter count", |p| {
                p.op_mut("write").unwrap().params.push(ParamPresentation::default())
            }),
            ("operation count", |p| {
                p.ops.insert("sync".into(), OpPresentation::default());
            }),
        ];
        let m = fileio_example();
        let base = InterfacePresentation::default_for(&m, m.interface("FileIO").unwrap()).unwrap();
        let mut seen = vec![("the base", base.fingerprint(), rendered_fingerprint(&base))];
        for (what, flip) in flips {
            let mut p = base.clone();
            flip(&mut p);
            assert_ne!(p, base, "`{what}` changes the structure");
            let (fp, rendered) = (p.fingerprint(), rendered_fingerprint(&p));
            for (other, other_fp, other_rendered) in &seen {
                assert_ne!(fp, *other_fp, "`{what}` fingerprints like {other}");
                assert_ne!(rendered, *other_rendered, "the oracle separates them too");
            }
            seen.push((what, fp, rendered));
        }
    }

    #[test]
    fn equal_structures_fingerprint_equal_however_they_were_built() {
        use crate::annot::{apply_pdl, Attr, OpAnnot, ParamAnnot, PdlFile};
        let m = fileio_example();
        let iface = m.interface("FileIO").unwrap();
        let base = InterfacePresentation::default_for(&m, iface).unwrap();
        // Route 1: a PDL applied to the default presentation.
        let pdl = PdlFile {
            interface: Some("FileIO".into()),
            iface_attrs: vec![Attr::Leaky],
            types: vec![],
            ops: vec![OpAnnot {
                op: "read".into(),
                op_attrs: vec![Attr::CommStatus, Attr::Idempotent],
                params: vec![ParamAnnot {
                    param: "return".into(),
                    attrs: vec![Attr::DeallocNever],
                }],
            }],
        };
        let applied = apply_pdl(&m, iface, &base, &pdl).unwrap();
        // Route 2: a clone edited field by field, in another order.
        let mut edited = base.clone();
        let read = edited.op_mut("read").unwrap();
        read.result.dealloc = DeallocPolicy::Never;
        read.idempotent = true;
        read.comm_status = true;
        edited.trust = Trust::Leaky;
        assert_eq!(applied, edited);
        assert_eq!(applied.fingerprint(), edited.fingerprint());
        assert_eq!(applied.fingerprint(), applied.clone().fingerprint());
        assert_ne!(applied.fingerprint(), base.fingerprint());
    }

    #[test]
    fn call_shape_defaults_and_accessors() {
        let m = fileio_example();
        let iface = m.interface("FileIO").unwrap();
        let pres = InterfacePresentation::default_for(&m, iface).unwrap();
        assert_eq!(pres.op("read").unwrap().call_shape, CallShape::Unary);
        assert_eq!(CallShape::Unary.window(), None);
        assert_eq!(CallShape::Oneway.window(), None);
        assert_eq!(CallShape::Stream { window: 4 }.window(), Some(4));
    }
}
