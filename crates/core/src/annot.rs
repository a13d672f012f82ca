//! PDL annotations and their application to a presentation.
//!
//! This module defines the *semantic* model of a presentation definition
//! language file — the structured annotations a PDL front-end produces —
//! and the rules for applying them to a default presentation. The textual
//! syntax (the DCE-ACF-flavored grammar of the paper's figures) is parsed by
//! `flexrpc-idl`; keeping the model here lets tests and tools build
//! annotations programmatically.
//!
//! Application enforces the paper's core invariant: a PDL file can only
//! *re-present* what the IDL declared. Annotations that would change the
//! network contract — naming unknown operations or parameters, attaching an
//! attribute to a type that cannot carry it — are rejected with
//! [`CoreError::BadAnnotation`] or [`CoreError::ContractViolation`].

use crate::ir::{Interface, Module, ParamDir, Type};
use crate::present::{AllocSemantics, CallShape, DeallocPolicy, InterfacePresentation, Trust};
use crate::{CoreError, Result};

/// One presentation attribute, as spelled inside `[...]` in a PDL file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Attr {
    /// `[special]` — user-supplied marshal/unmarshal routines.
    Special,
    /// `[length_is(name)]` — pass the string as raw bytes plus an explicit
    /// length parameter of the given (possibly presentation-only) name.
    LengthIs(String),
    /// `[dealloc(never)]` — the server stub never frees this buffer.
    DeallocNever,
    /// `[dealloc(on_return)]` — restore the default move semantics.
    DeallocOnReturn,
    /// `[trashable]` — the client permits its buffer to be trashed.
    Trashable,
    /// `[preserved]` — the server promises not to modify the buffer.
    Preserved,
    /// `[borrowed]` — the server receives a window into the request message.
    Borrowed,
    /// `[alloc(caller)]` — the caller provides the out buffer (MIG-style).
    AllocCaller,
    /// `[alloc(stub)]` — restore stub-allocated move semantics.
    AllocStub,
    /// `[comm_status]` — surface RPC status as an ordinary return code.
    CommStatus,
    /// `[idempotent]` — the operation may safely execute more than once,
    /// so runtime retry policies may resend it after transient failures.
    Idempotent,
    /// `[nonunique]` — relax the unique-port-name rule for this reference.
    NonUnique,
    /// `[leaky]` — concede confidentiality to the peer.
    Leaky,
    /// `[unprotected]` — concede integrity too (requires `leaky`).
    Unprotected,
    /// `[oneway]` — fire-and-forget notification: the caller never waits
    /// for a reply. Requires a void result and no out-direction parameters.
    Oneway,
    /// `[stream(window)]` — credit-based flow-controlled frame stream with
    /// the given declared window. Same shape requirements as `oneway`.
    Stream(u32),
}

impl Attr {
    /// The PDL spelling (diagnostics).
    pub(crate) fn spelling(&self) -> String {
        match self {
            Attr::Special => "special".into(),
            Attr::LengthIs(n) => format!("length_is({n})"),
            Attr::DeallocNever => "dealloc(never)".into(),
            Attr::DeallocOnReturn => "dealloc(on_return)".into(),
            Attr::Trashable => "trashable".into(),
            Attr::Preserved => "preserved".into(),
            Attr::Borrowed => "borrowed".into(),
            Attr::AllocCaller => "alloc(caller)".into(),
            Attr::AllocStub => "alloc(stub)".into(),
            Attr::CommStatus => "comm_status".into(),
            Attr::Idempotent => "idempotent".into(),
            Attr::NonUnique => "nonunique".into(),
            Attr::Leaky => "leaky".into(),
            Attr::Unprotected => "unprotected".into(),
            Attr::Oneway => "oneway".into(),
            Attr::Stream(w) => format!("stream({w})"),
        }
    }
}

/// Annotations for one parameter (or `return` for the result).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamAnnot {
    /// Parameter name, or `"return"` for the operation result.
    pub param: String,
    /// Attributes to apply.
    pub attrs: Vec<Attr>,
}

/// Annotations for one operation.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpAnnot {
    /// Operation name.
    pub op: String,
    /// Operation-level attributes (`comm_status`).
    pub op_attrs: Vec<Attr>,
    /// Parameter-level annotations.
    pub params: Vec<ParamAnnot>,
}

/// A type-level annotation: applies to every parameter and result whose
/// *resolved* type matches (the paper's Figure 5 re-declares the C mapping
/// of `sequence<octet>` with `[dealloc(never)]` rather than annotating one
/// parameter).
///
/// Type-level application is best-effort per position: an attribute that is
/// not applicable at some position (e.g. `dealloc` on an `in` parameter) is
/// skipped there instead of failing, mirroring how DCE ACF type attributes
/// behave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeAnnot {
    /// The (IDL) type the annotation targets.
    pub ty: Type,
    /// Attributes to apply wherever the type occurs.
    pub attrs: Vec<Attr>,
}

/// A parsed PDL file: interface-level attributes plus per-op annotations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PdlFile {
    /// The interface this file annotates, when it names one explicitly.
    pub interface: Option<String>,
    /// Interface-level attributes (trust levels, `nonunique`).
    pub iface_attrs: Vec<Attr>,
    /// Per-operation annotations.
    pub ops: Vec<OpAnnot>,
    /// Type-level annotations.
    pub types: Vec<TypeAnnot>,
}

/// Resolves a PDL operation name against an interface, accepting both the
/// bare IDL name (`read`) and the C-presentation spelling the paper's
/// figures use (`FileIO_read`, `nfsproc_read` matching `read` only via the
/// `<iface>_` prefix).
pub(crate) fn resolve_op_name<'a>(iface: &'a Interface, raw: &'a str) -> Option<&'a str> {
    if iface.op(raw).is_some() {
        return Some(raw);
    }
    let prefix = format!("{}_", iface.name);
    if let Some(stripped) = raw.strip_prefix(&prefix) {
        if iface.op(stripped).is_some() {
            return Some(stripped);
        }
    }
    // C presentations conventionally lowercase (`nfsproc_read` for the
    // `.x` file's `NFSPROC_READ`); accept a unique case-insensitive match.
    let mut found = None;
    for op in &iface.ops {
        if op.name.eq_ignore_ascii_case(raw) {
            if found.is_some() {
                return None; // Ambiguous.
            }
            found = Some(op.name.as_str());
        }
    }
    found
}

impl PdlFile {
    /// Applies this file to `pres`, which must be a presentation of `iface`.
    ///
    /// On error the presentation may be partially modified; callers apply to
    /// a scratch clone if they need atomicity (the [`apply_pdl`] helper does).
    pub(crate) fn apply_to(
        &self,
        module: &Module,
        iface: &Interface,
        pres: &mut InterfacePresentation,
    ) -> Result<()> {
        if let Some(name) = &self.interface {
            if name != &iface.name {
                return Err(CoreError::Unresolved { kind: "interface", name: name.clone() });
            }
        }
        apply_iface_attrs(&self.iface_attrs, pres)?;
        self.apply_type_annots(module, iface, pres)?;
        for op_annot in &self.ops {
            let op_name = resolve_op_name(iface, &op_annot.op)
                .ok_or_else(|| {
                    CoreError::ContractViolation(format!(
                        "PDL names operation `{}` not declared in the interface",
                        op_annot.op
                    ))
                })?
                .to_owned();
            let op = iface.op(&op_name).expect("resolve_op_name checked");
            let op_pres =
                pres.op_mut(&op_name).expect("presentation has every interface operation");
            for attr in &op_annot.op_attrs {
                match attr {
                    Attr::CommStatus => op_pres.comm_status = true,
                    Attr::Idempotent => op_pres.idempotent = true,
                    Attr::Oneway => {
                        check_shape_target(attr, op, op_pres)?;
                        op_pres.call_shape = CallShape::Oneway;
                    }
                    Attr::Stream(window) => {
                        if *window == 0 {
                            return Err(CoreError::BadAnnotation {
                                attr: attr.spelling(),
                                why: "stream window must be at least 1".into(),
                            });
                        }
                        check_shape_target(attr, op, op_pres)?;
                        op_pres.call_shape = CallShape::Stream { window: *window };
                    }
                    other => {
                        return Err(CoreError::BadAnnotation {
                            attr: other.spelling(),
                            why: "not an operation-level attribute".into(),
                        })
                    }
                }
            }
            for pa in &op_annot.params {
                let (ty, dir, target) = if pa.param == "return" {
                    if op.ret == Type::Void {
                        return Err(CoreError::BadAnnotation {
                            attr: "return".into(),
                            why: format!("operation `{}` returns void", op.op_name()),
                        });
                    }
                    (&op.ret, ParamDir::Out, &mut op_pres.result)
                } else {
                    let idx = op.params.iter().position(|p| p.name == pa.param).ok_or_else(
                        || {
                            CoreError::ContractViolation(format!(
                                "PDL names parameter `{}` not declared on `{}` — a PDL cannot add wire parameters",
                                pa.param, op_annot.op
                            ))
                        },
                    )?;
                    (&op.params[idx].ty, op.params[idx].dir, &mut op_pres.params[idx])
                };
                let resolved = module.resolve(ty)?.clone();
                for attr in &pa.attrs {
                    apply_param_attr(attr, &resolved, dir, target)?;
                }
            }
        }
        Ok(())
    }

    /// Applies type-level annotations to every matching param/result.
    fn apply_type_annots(
        &self,
        module: &Module,
        iface: &Interface,
        pres: &mut InterfacePresentation,
    ) -> Result<()> {
        for ta in &self.types {
            let target = module.resolve(&ta.ty)?.clone();
            for op in &iface.ops {
                let op_pres = pres.op_mut(&op.name).expect("presentation covers all ops");
                for (i, p) in op.params.iter().enumerate() {
                    if module.resolve(&p.ty)? == &target {
                        for attr in &ta.attrs {
                            // Best-effort: skip attributes inapplicable at
                            // this position (see `TypeAnnot` docs).
                            let _ = apply_param_attr(attr, &target, p.dir, &mut op_pres.params[i]);
                        }
                    }
                }
                if op.ret != Type::Void && module.resolve(&op.ret)? == &target {
                    for attr in &ta.attrs {
                        let _ = apply_param_attr(attr, &target, ParamDir::Out, &mut op_pres.result);
                    }
                }
            }
        }
        Ok(())
    }
}

/// A non-unary call shape only fits operations that never return anything:
/// the caller stops waiting for a reply, so any result or out-direction
/// parameter would silently vanish — a wire-contract change, which PDL
/// application must reject, not paper over.
fn check_shape_target(
    attr: &Attr,
    op: &crate::ir::Operation,
    op_pres: &crate::present::OpPresentation,
) -> Result<()> {
    let bad = |why: String| Err(CoreError::BadAnnotation { attr: attr.spelling(), why });
    if op.ret != Type::Void {
        return bad(format!(
            "operation `{}` returns a value; only void operations can drop the reply wait",
            op.name
        ));
    }
    if let Some(p) = op.params.iter().find(|p| p.dir.is_out()) {
        return bad(format!(
            "operation `{}` has out-direction parameter `{}`; a one-way/stream call has no reply to carry it",
            op.name, p.name
        ));
    }
    if op_pres.call_shape != CallShape::Unary {
        return bad(format!(
            "operation `{}` already declared call shape `{:?}`",
            op.name, op_pres.call_shape
        ));
    }
    Ok(())
}

// Small extension so error messages can name the op without borrowing fights.
trait OpName {
    fn op_name(&self) -> &str;
}
impl OpName for crate::ir::Operation {
    fn op_name(&self) -> &str {
        &self.name
    }
}

fn apply_iface_attrs(attrs: &[Attr], pres: &mut InterfacePresentation) -> Result<()> {
    let leaky = attrs.contains(&Attr::Leaky);
    let unprotected = attrs.contains(&Attr::Unprotected);
    for attr in attrs {
        match attr {
            Attr::Leaky | Attr::Unprotected => {}
            Attr::NonUnique => {
                // Interface-level nonunique applies to every objref param.
                for op in pres.ops.values_mut() {
                    for p in &mut op.params {
                        p.nonunique = true;
                    }
                    op.result.nonunique = true;
                }
            }
            other => {
                return Err(CoreError::BadAnnotation {
                    attr: other.spelling(),
                    why: "not an interface-level attribute".into(),
                })
            }
        }
    }
    if unprotected && !leaky {
        return Err(CoreError::BadAnnotation {
            attr: "unprotected".into(),
            why: "requires `leaky` (integrity cannot be conceded while hiding data)".into(),
        });
    }
    pres.trust = match (leaky, unprotected) {
        (false, false) => pres.trust,
        (true, false) => Trust::Leaky,
        (true, true) => Trust::LeakyUnprotected,
        (false, true) => unreachable!("checked above"),
    };
    Ok(())
}

fn apply_param_attr(
    attr: &Attr,
    resolved_ty: &Type,
    dir: ParamDir,
    p: &mut crate::present::ParamPresentation,
) -> Result<()> {
    let payload = resolved_ty.is_payload();
    // Ownership/allocation attributes need the counted-bytes wire form;
    // strings carry format-specific framing (CDR's NUL), so they only
    // support the semantic attributes (`length_is`, `trashable`,
    // `preserved`).
    let seq = *resolved_ty == Type::Sequence(Box::new(Type::Octet));
    let bad = |why: &str| Err(CoreError::BadAnnotation { attr: attr.spelling(), why: why.into() });
    match attr {
        Attr::Special => {
            if !seq {
                return bad("special marshal routines apply to sequence<octet> parameters");
            }
            p.special = true;
            if dir.is_out() {
                p.alloc = AllocSemantics::Special;
            }
        }
        Attr::LengthIs(name) => {
            if *resolved_ty != Type::Str {
                return bad("length_is applies to string parameters");
            }
            p.length_is = Some(name.clone());
        }
        Attr::DeallocNever => {
            if !seq || !dir.is_out() {
                return bad("dealloc applies to out-direction sequence<octet> parameters");
            }
            p.dealloc = DeallocPolicy::Never;
        }
        Attr::DeallocOnReturn => {
            if !seq || !dir.is_out() {
                return bad("dealloc applies to out-direction sequence<octet> parameters");
            }
            p.dealloc = DeallocPolicy::OnReturn;
        }
        Attr::Trashable => {
            if !payload || !dir.is_in() {
                return bad("trashable applies to in-direction payload parameters");
            }
            p.trashable = true;
        }
        Attr::Preserved => {
            if !payload || !dir.is_in() {
                return bad("preserved applies to in-direction payload parameters");
            }
            p.preserved = true;
        }
        Attr::Borrowed => {
            if !seq || !dir.is_in() {
                return bad("borrowed applies to in-direction sequence<octet> parameters");
            }
            p.borrowed = true;
        }
        Attr::AllocCaller => {
            if !seq || !dir.is_out() {
                return bad("alloc applies to out-direction sequence<octet> parameters");
            }
            p.alloc = AllocSemantics::CallerAllocates;
        }
        Attr::AllocStub => {
            if !seq || !dir.is_out() {
                return bad("alloc applies to out-direction sequence<octet> parameters");
            }
            p.alloc = AllocSemantics::StubAllocates;
        }
        Attr::NonUnique => {
            if *resolved_ty != Type::ObjRef {
                return bad("nonunique applies to object-reference parameters");
            }
            p.nonunique = true;
        }
        Attr::CommStatus
        | Attr::Idempotent
        | Attr::Leaky
        | Attr::Unprotected
        | Attr::Oneway
        | Attr::Stream(_) => {
            return bad("not a parameter-level attribute");
        }
    }
    Ok(())
}

/// Applies `pdl` atomically: returns the modified presentation, or the error
/// with `base` untouched.
pub fn apply_pdl(
    module: &Module,
    iface: &Interface,
    base: &InterfacePresentation,
    pdl: &PdlFile,
) -> Result<InterfacePresentation> {
    let mut scratch = base.clone();
    pdl.apply_to(module, iface, &mut scratch)?;
    Ok(scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::fileio_example;
    use crate::present::InterfacePresentation;
    use crate::sig::WireSignature;

    fn base() -> (crate::ir::Module, InterfacePresentation) {
        let m = fileio_example();
        let iface = m.interface("FileIO").unwrap();
        let pres = InterfacePresentation::default_for(&m, iface).unwrap();
        (m, pres)
    }

    fn fileio_pdl(ops: Vec<OpAnnot>) -> PdlFile {
        PdlFile { interface: Some("FileIO".into()), iface_attrs: vec![], ops, types: vec![] }
    }

    #[test]
    fn dealloc_never_on_result() {
        // The paper's Figure 5: modify the read call so the server stub
        // never frees the returned buffer.
        let (m, pres) = base();
        let pdl = fileio_pdl(vec![OpAnnot {
            op: "read".into(),
            op_attrs: vec![],
            params: vec![ParamAnnot { param: "return".into(), attrs: vec![Attr::DeallocNever] }],
        }]);
        let out = apply_pdl(&m, m.interface("FileIO").unwrap(), &pres, &pdl).unwrap();
        assert_eq!(out.op("read").unwrap().result.dealloc, DeallocPolicy::Never);
        // Untouched op keeps its defaults.
        assert_eq!(out.op("write").unwrap(), pres.op("write").unwrap());
    }

    #[test]
    fn trashable_and_preserved() {
        let (m, pres) = base();
        let pdl = fileio_pdl(vec![OpAnnot {
            op: "write".into(),
            op_attrs: vec![],
            params: vec![ParamAnnot {
                param: "data".into(),
                attrs: vec![Attr::Trashable, Attr::Preserved],
            }],
        }]);
        let out = apply_pdl(&m, m.interface("FileIO").unwrap(), &pres, &pdl).unwrap();
        let p = &out.op("write").unwrap().params[0];
        assert!(p.trashable && p.preserved);
    }

    #[test]
    fn unknown_operation_is_contract_violation() {
        let (m, pres) = base();
        let pdl = fileio_pdl(vec![OpAnnot { op: "seek".into(), ..Default::default() }]);
        let err = apply_pdl(&m, m.interface("FileIO").unwrap(), &pres, &pdl).unwrap_err();
        assert!(matches!(err, CoreError::ContractViolation(_)));
    }

    #[test]
    fn unknown_parameter_is_contract_violation() {
        let (m, pres) = base();
        let pdl = fileio_pdl(vec![OpAnnot {
            op: "read".into(),
            op_attrs: vec![],
            params: vec![ParamAnnot { param: "offset".into(), attrs: vec![Attr::Special] }],
        }]);
        let err = apply_pdl(&m, m.interface("FileIO").unwrap(), &pres, &pdl).unwrap_err();
        assert!(matches!(err, CoreError::ContractViolation(_)));
    }

    #[test]
    fn attribute_type_checks() {
        let (m, pres) = base();
        // trashable on a scalar in-param: rejected.
        let pdl = fileio_pdl(vec![OpAnnot {
            op: "read".into(),
            op_attrs: vec![],
            params: vec![ParamAnnot { param: "count".into(), attrs: vec![Attr::Trashable] }],
        }]);
        let err = apply_pdl(&m, m.interface("FileIO").unwrap(), &pres, &pdl).unwrap_err();
        assert!(matches!(err, CoreError::BadAnnotation { .. }));
        // dealloc(never) on an in-param: rejected.
        let pdl = fileio_pdl(vec![OpAnnot {
            op: "write".into(),
            op_attrs: vec![],
            params: vec![ParamAnnot { param: "data".into(), attrs: vec![Attr::DeallocNever] }],
        }]);
        assert!(apply_pdl(&m, m.interface("FileIO").unwrap(), &pres, &pdl).is_err());
    }

    #[test]
    fn trust_levels_at_interface_scope() {
        let (m, pres) = base();
        let pdl =
            PdlFile { interface: None, iface_attrs: vec![Attr::Leaky], ops: vec![], types: vec![] };
        let out = apply_pdl(&m, m.interface("FileIO").unwrap(), &pres, &pdl).unwrap();
        assert_eq!(out.trust, Trust::Leaky);

        let pdl = PdlFile {
            interface: None,
            iface_attrs: vec![Attr::Leaky, Attr::Unprotected],
            types: vec![],
            ops: vec![],
        };
        let out = apply_pdl(&m, m.interface("FileIO").unwrap(), &pres, &pdl).unwrap();
        assert_eq!(out.trust, Trust::LeakyUnprotected);
    }

    #[test]
    fn unprotected_without_leaky_rejected() {
        let (m, pres) = base();
        let pdl = PdlFile {
            interface: None,
            iface_attrs: vec![Attr::Unprotected],
            ops: vec![],
            types: vec![],
        };
        let err = apply_pdl(&m, m.interface("FileIO").unwrap(), &pres, &pdl).unwrap_err();
        assert!(matches!(err, CoreError::BadAnnotation { .. }));
    }

    #[test]
    fn wrong_interface_name_rejected() {
        let (m, pres) = base();
        let pdl = PdlFile { interface: Some("Other".into()), ..Default::default() };
        let err = apply_pdl(&m, m.interface("FileIO").unwrap(), &pres, &pdl).unwrap_err();
        assert!(matches!(err, CoreError::Unresolved { kind: "interface", .. }));
    }

    #[test]
    fn length_is_on_string() {
        let m = crate::ir::syslog_example();
        let iface = m.interface("SysLog").unwrap();
        let pres = InterfacePresentation::default_for(&m, iface).unwrap();
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
        let out = apply_pdl(&m, iface, &pres, &pdl).unwrap();
        assert_eq!(out.op("write_msg").unwrap().params[0].length_is.as_deref(), Some("length"));
    }

    #[test]
    fn apply_never_changes_the_wire_signature() {
        // The machine-checked version of the paper's invariant: the wire
        // signature is computed from the module, which PDL application never
        // touches; assert it anyway as a regression tripwire.
        let (m, pres) = base();
        let iface = m.interface("FileIO").unwrap();
        let before = WireSignature::of_interface(&m, iface).unwrap();
        let pdl = fileio_pdl(vec![OpAnnot {
            op: "read".into(),
            op_attrs: vec![Attr::CommStatus],
            params: vec![ParamAnnot { param: "return".into(), attrs: vec![Attr::DeallocNever] }],
        }]);
        let _out = apply_pdl(&m, iface, &pres, &pdl).unwrap();
        let after = WireSignature::of_interface(&m, iface).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn atomicity_on_failure() {
        let (m, pres) = base();
        let snapshot = pres.clone();
        let pdl = fileio_pdl(vec![
            OpAnnot { op: "read".into(), op_attrs: vec![Attr::CommStatus], params: vec![] },
            OpAnnot { op: "bogus".into(), ..Default::default() },
        ]);
        assert!(apply_pdl(&m, m.interface("FileIO").unwrap(), &pres, &pdl).is_err());
        assert_eq!(pres, snapshot, "failed apply must leave the base untouched");
    }

    #[test]
    fn idempotent_is_op_level_and_sets_presentation() {
        let (m, pres) = base();
        let pdl = fileio_pdl(vec![OpAnnot {
            op: "read".into(),
            op_attrs: vec![Attr::Idempotent],
            params: vec![],
        }]);
        let out = apply_pdl(&m, m.interface("FileIO").unwrap(), &pres, &pdl).unwrap();
        assert!(out.op("read").unwrap().idempotent);
        assert!(!out.op("write").unwrap().idempotent, "only the annotated op");
        // As a parameter attribute it is rejected.
        let pdl = fileio_pdl(vec![OpAnnot {
            op: "write".into(),
            op_attrs: vec![],
            params: vec![ParamAnnot { param: "data".into(), attrs: vec![Attr::Idempotent] }],
        }]);
        assert!(apply_pdl(&m, m.interface("FileIO").unwrap(), &pres, &pdl).is_err());
    }

    #[test]
    fn comm_status_is_op_level_only() {
        let (m, pres) = base();
        let pdl = fileio_pdl(vec![OpAnnot {
            op: "write".into(),
            op_attrs: vec![],
            params: vec![ParamAnnot { param: "data".into(), attrs: vec![Attr::CommStatus] }],
        }]);
        assert!(apply_pdl(&m, m.interface("FileIO").unwrap(), &pres, &pdl).is_err());
    }

    #[test]
    fn spelling_roundtrip() {
        assert_eq!(Attr::DeallocNever.spelling(), "dealloc(never)");
        assert_eq!(Attr::LengthIs("n".into()).spelling(), "length_is(n)");
        assert_eq!(Attr::Oneway.spelling(), "oneway");
        assert_eq!(Attr::Stream(64).spelling(), "stream(64)");
    }

    #[test]
    fn oneway_and_stream_set_call_shape() {
        let (m, pres) = base();
        let pdl = fileio_pdl(vec![OpAnnot {
            op: "write".into(),
            op_attrs: vec![Attr::Stream(16)],
            params: vec![],
        }]);
        let out = apply_pdl(&m, m.interface("FileIO").unwrap(), &pres, &pdl).unwrap();
        assert_eq!(out.op("write").unwrap().call_shape, CallShape::Stream { window: 16 });
        assert_eq!(out.op("read").unwrap().call_shape, CallShape::Unary, "only the annotated op");

        let pdl = fileio_pdl(vec![OpAnnot {
            op: "write".into(),
            op_attrs: vec![Attr::Oneway],
            params: vec![],
        }]);
        let out = apply_pdl(&m, m.interface("FileIO").unwrap(), &pres, &pdl).unwrap();
        assert_eq!(out.op("write").unwrap().call_shape, CallShape::Oneway);
    }

    #[test]
    fn call_shape_rejects_value_returning_ops() {
        // `read` returns sequence<octet>: dropping the reply wait would
        // lose the result, which is a wire-contract change.
        let (m, pres) = base();
        for attr in [Attr::Oneway, Attr::Stream(8)] {
            let pdl = fileio_pdl(vec![OpAnnot {
                op: "read".into(),
                op_attrs: vec![attr],
                params: vec![],
            }]);
            let err = apply_pdl(&m, m.interface("FileIO").unwrap(), &pres, &pdl).unwrap_err();
            assert!(matches!(err, CoreError::BadAnnotation { .. }), "{err:?}");
        }
    }

    #[test]
    fn call_shape_rejects_zero_window_and_redeclaration() {
        let (m, pres) = base();
        let pdl = fileio_pdl(vec![OpAnnot {
            op: "write".into(),
            op_attrs: vec![Attr::Stream(0)],
            params: vec![],
        }]);
        let err = apply_pdl(&m, m.interface("FileIO").unwrap(), &pres, &pdl).unwrap_err();
        assert!(matches!(err, CoreError::BadAnnotation { .. }));

        let pdl = fileio_pdl(vec![OpAnnot {
            op: "write".into(),
            op_attrs: vec![Attr::Oneway, Attr::Stream(8)],
            params: vec![],
        }]);
        let err = apply_pdl(&m, m.interface("FileIO").unwrap(), &pres, &pdl).unwrap_err();
        assert!(matches!(err, CoreError::BadAnnotation { .. }), "shape declared twice");
    }

    #[test]
    fn call_shape_is_op_level_only() {
        let (m, pres) = base();
        let pdl = fileio_pdl(vec![OpAnnot {
            op: "write".into(),
            op_attrs: vec![],
            params: vec![ParamAnnot { param: "data".into(), attrs: vec![Attr::Stream(4)] }],
        }]);
        assert!(apply_pdl(&m, m.interface("FileIO").unwrap(), &pres, &pdl).is_err());
    }
}
