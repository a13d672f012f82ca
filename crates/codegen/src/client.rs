//! Client stub emission.
//!
//! Each operation becomes a typed method whose signature is shaped by the
//! *client's* presentation; the body packs arguments into a slot frame and
//! calls through `flexrpc_runtime::ClientStub`.

use crate::types::rust_type;
use crate::{camel, snake};
use flexrpc_core::ir::{Interface, Module, Operation, Param, ParamDir, Type, TypeBody};
use flexrpc_core::present::{
    AllocSemantics, InterfacePresentation, OpPresentation, ParamPresentation,
};
use flexrpc_core::program::{CompiledInterface, CompiledOp};
use flexrpc_core::{CoreError, Result};
use std::fmt::Write as _;

/// Emits the client struct and one method per operation.
pub(crate) fn emit_client(
    module: &Module,
    iface: &Interface,
    pres: &InterfacePresentation,
    compiled: &CompiledInterface,
) -> Result<String> {
    let mut out = String::new();
    let name = format!("{}Client", camel(&iface.name));
    let _ = writeln!(out, "/// Client stub for interface `{}`.", iface.name);
    let _ = writeln!(out, "pub struct {name} {{");
    let _ = writeln!(out, "    stub: flexrpc_runtime::ClientStub,");
    let _ = writeln!(out, "}}\n");
    let _ = writeln!(out, "impl {name} {{");
    let _ = writeln!(out, "    /// Wraps a bound stub (see `flexrpc_runtime::transport`).");
    let _ = writeln!(out, "    pub fn new(stub: flexrpc_runtime::ClientStub) -> Self {{");
    let _ = writeln!(out, "        Self {{ stub }}");
    let _ = writeln!(out, "    }}\n");
    for (op, cop) in iface.ops.iter().zip(&compiled.ops) {
        let op_pres = pres.op(&op.name).expect("presentation covers all ops");
        emit_method(module, op, op_pres, cop, &mut out)?;
    }
    let _ = writeln!(out, "}}\n");
    Ok(out)
}

/// One parameter's place in the generated signature.
struct SigPiece {
    /// Rust parameter text (empty if the param does not appear).
    arg: String,
    /// Statements packing it into `frame` (client side).
    pack: String,
    /// Rust type contributed to the return tuple (outs only).
    ret_ty: Option<String>,
    /// Expression extracting the return component from `frame`.
    unpack: Option<String>,
}

fn slot_of(cop: &CompiledOp, name: &str) -> usize {
    cop.slots.slot(name).expect("compiled op has the slot").0
}

fn scalar_pack(module: &Module, ty: &Type, expr: &str, slot: usize) -> Result<String> {
    Ok(match module.resolve(ty)? {
        Type::Bool => format!("        frame[{slot}] = Value::Bool({expr});\n"),
        Type::Octet | Type::U16 => {
            format!("        frame[{slot}] = Value::U32({expr} as u32);\n")
        }
        Type::I16 | Type::I32 => format!("        frame[{slot}] = Value::I32({expr} as i32);\n"),
        Type::U32 => format!("        frame[{slot}] = Value::U32({expr});\n"),
        Type::I64 => format!("        frame[{slot}] = Value::I64({expr});\n"),
        Type::U64 => format!("        frame[{slot}] = Value::U64({expr});\n"),
        Type::F64 => format!("        frame[{slot}] = Value::F64({expr});\n"),
        Type::Named(n) => {
            // Enums pack as ordinals.
            format!("        frame[{slot}] = Value::U32({expr} as u32); // enum {n}\n")
        }
        other => return Err(CoreError::Unsupported(format!("scalar pack for `{other}`"))),
    })
}

fn scalar_unpack(module: &Module, ty: &Type, slot: usize) -> Result<(String, String)> {
    let (rust, extract) = match module.resolve(ty)? {
        Type::Bool => ("bool".into(), format!("matches!(frame[{slot}], Value::Bool(true))")),
        Type::Octet | Type::U16 | Type::U32 => {
            ("u32".into(), format!("frame[{slot}].as_u32().unwrap_or(0)"))
        }
        Type::I16 | Type::I32 => {
            ("i32".into(), format!("if let Value::I32(v) = frame[{slot}] {{ v }} else {{ 0 }}"))
        }
        Type::I64 => {
            ("i64".into(), format!("if let Value::I64(v) = frame[{slot}] {{ v }} else {{ 0 }}"))
        }
        Type::U64 => ("u64".into(), format!("frame[{slot}].as_u64().unwrap_or(0)")),
        Type::F64 => {
            ("f64".into(), format!("if let Value::F64(v) = frame[{slot}] {{ v }} else {{ 0.0 }}"))
        }
        // The ordinal is the peer's: decode it checked (the method's `?`
        // surfaces an undeclared one as a decode error).
        Type::Named(n) => {
            let name = camel(n);
            let extract = format!("{name}::from_ordinal(frame[{slot}].as_u32().unwrap_or(0))?");
            (name, extract)
        }
        other => return Err(CoreError::Unsupported(format!("scalar unpack for `{other}`"))),
    };
    Ok((rust, extract))
}

fn piece_for_param(
    module: &Module,
    op: &Operation,
    p: &Param,
    ppres: &ParamPresentation,
    cop: &CompiledOp,
) -> Result<Vec<SigPiece>> {
    let resolved = module.resolve(&p.ty)?.clone();
    // `return` is the result pseudo-parameter; it cannot be a Rust ident.
    let rname = if p.name == "return" { "ret".to_owned() } else { snake(&p.name) };
    let mut pieces = Vec::new();
    match &resolved {
        Type::Str if p.dir.is_in() => {
            if let Some(len_name) = &ppres.length_is {
                let slot = slot_of(cop, &p.name);
                pieces.push(SigPiece {
                    arg: format!("{rname}: &[u8], {}: usize", snake(len_name)),
                    pack: format!(
                        "        frame[{slot}] = Value::Bytes({rname}[..{}].to_vec());\n",
                        snake(len_name)
                    ),
                    ret_ty: None,
                    unpack: None,
                });
            } else {
                let slot = slot_of(cop, &p.name);
                pieces.push(SigPiece {
                    arg: format!("{rname}: &str"),
                    pack: format!("        frame[{slot}] = Value::Str({rname}.to_owned());\n"),
                    ret_ty: None,
                    unpack: None,
                });
            }
        }
        Type::Sequence(_) if p.dir.is_in() => {
            let slot = slot_of(cop, &p.name);
            pieces.push(SigPiece {
                arg: format!("{rname}: &[u8]"),
                pack: format!("        frame[{slot}] = Value::Bytes({rname}.to_vec());\n"),
                ret_ty: None,
                unpack: None,
            });
        }
        Type::Array(el, n) if **el == Type::Octet && p.dir.is_in() => {
            let slot = slot_of(cop, &p.name);
            pieces.push(SigPiece {
                arg: format!("{rname}: &[u8; {n}]"),
                pack: format!("        frame[{slot}] = Value::Bytes({rname}.to_vec());\n"),
                ret_ty: None,
                unpack: None,
            });
        }
        Type::Array(el, n) if **el == Type::Octet && p.dir.is_out() => {
            let slot = slot_of(cop, &p.name);
            pieces.push(SigPiece {
                arg: String::new(),
                pack: String::new(),
                ret_ty: Some(format!("[u8; {n}]")),
                unpack: Some(format!(
                    "{{ let mut a = [0u8; {n}]; if let Value::Bytes(b) = &frame[{slot}] {{ if b.len() == {n} {{ a.copy_from_slice(b); }} }} a }}"
                )),
            });
        }
        Type::ObjRef if p.dir.is_in() => {
            let slot = slot_of(cop, &p.name);
            pieces.push(SigPiece {
                arg: format!("{rname}: u32"),
                pack: format!("        frame[{slot}] = Value::Port({rname});\n"),
                ret_ty: None,
                unpack: None,
            });
        }
        Type::Str | Type::Sequence(_) if p.dir.is_out() => {
            let slot = slot_of(cop, &p.name);
            match ppres.alloc {
                AllocSemantics::CallerAllocates => pieces.push(SigPiece {
                    arg: format!("{rname}: &mut Vec<u8>"),
                    pack: format!(
                        "        frame[{slot}] = Value::Bytes(core::mem::take({rname}));\n"
                    ),
                    ret_ty: None,
                    unpack: Some(format!(
                        "if let Value::Bytes(b) = core::mem::take(&mut frame[{slot}]) {{ *{rname} = b; }}"
                    )),
                }),
                AllocSemantics::Special => pieces.push(SigPiece {
                    // The `[special]` hook consumes the payload; the method
                    // exposes only the received length.
                    arg: String::new(),
                    pack: String::new(),
                    ret_ty: Some("u32 /* bytes via [special] hook */".into()),
                    unpack: Some(format!("frame[{slot}].as_u32().unwrap_or(0)")),
                }),
                AllocSemantics::StubAllocates => pieces.push(SigPiece {
                    arg: String::new(),
                    pack: String::new(),
                    ret_ty: Some("Vec<u8>".into()),
                    unpack: Some(format!(
                        "if let Value::Bytes(b) = core::mem::take(&mut frame[{slot}]) {{ b }} else {{ Vec::new() }}"
                    )),
                }),
            }
        }
        Type::ObjRef if p.dir.is_out() => {
            let slot = slot_of(cop, &p.name);
            pieces.push(SigPiece {
                arg: String::new(),
                pack: String::new(),
                ret_ty: Some("u32 /* port name */".into()),
                unpack: Some(format!("if let Value::Port(p) = frame[{slot}] {{ p }} else {{ 0 }}")),
            });
        }
        Type::Named(name) => {
            let td = module.typedef(name).expect("resolved");
            match &td.body {
                TypeBody::Struct(fields) => {
                    // Structs of scalars flatten field by field.
                    if p.dir.is_in() {
                        let mut pack = String::new();
                        for f in fields {
                            let slot = slot_of(cop, &format!("{}.{}", p.name, f.name));
                            pack.push_str(&scalar_pack(
                                module,
                                &f.ty,
                                &format!("{rname}.{}", snake(&f.name)),
                                slot,
                            )?);
                        }
                        pieces.push(SigPiece {
                            arg: format!("{rname}: &{}", camel(name)),
                            pack,
                            ret_ty: None,
                            unpack: None,
                        });
                    } else {
                        let mut build = format!("{} {{ ", camel(name));
                        for f in fields {
                            let slot = slot_of(cop, &format!("{}.{}", p.name, f.name));
                            let (_, extract) = scalar_unpack(module, &f.ty, slot)?;
                            let _ = write!(build, "{}: {extract}, ", snake(&f.name));
                        }
                        build.push('}');
                        pieces.push(SigPiece {
                            arg: String::new(),
                            pack: String::new(),
                            ret_ty: Some(camel(name)),
                            unpack: Some(build),
                        });
                    }
                }
                TypeBody::Enum(_) => {
                    let slot = slot_of(cop, &p.name);
                    if p.dir.is_in() {
                        pieces.push(SigPiece {
                            arg: format!("{rname}: {}", camel(name)),
                            pack: scalar_pack(module, &p.ty, &rname, slot)?,
                            ret_ty: None,
                            unpack: None,
                        });
                    } else {
                        let (rust, extract) = scalar_unpack(module, &p.ty, slot)?;
                        pieces.push(SigPiece {
                            arg: String::new(),
                            pack: String::new(),
                            ret_ty: Some(rust),
                            unpack: Some(extract),
                        });
                    }
                }
                _ => {
                    return Err(CoreError::Unsupported(format!(
                        "codegen for type `{name}` in `{}`",
                        op.name
                    )))
                }
            }
        }
        _ if p.dir == ParamDir::In => {
            let slot = slot_of(cop, &p.name);
            pieces.push(SigPiece {
                arg: format!("{rname}: {}", rust_type(module, &p.ty)?),
                pack: scalar_pack(module, &p.ty, &rname, slot)?,
                ret_ty: None,
                unpack: None,
            });
        }
        _ => {
            let slot = slot_of(cop, &p.name);
            let (rust, extract) = scalar_unpack(module, &p.ty, slot)?;
            pieces.push(SigPiece {
                arg: String::new(),
                pack: String::new(),
                ret_ty: Some(rust),
                unpack: Some(extract),
            });
        }
    }
    Ok(pieces)
}

fn emit_method(
    module: &Module,
    op: &Operation,
    op_pres: &OpPresentation,
    cop: &CompiledOp,
    out: &mut String,
) -> Result<()> {
    let mut pieces = Vec::new();
    for (i, p) in op.params.iter().enumerate() {
        pieces.extend(piece_for_param(module, op, p, &op_pres.params[i], cop)?);
    }
    if op.ret != Type::Void {
        let ret_param = Param::new("return", ParamDir::Out, op.ret.clone());
        pieces.extend(piece_for_param(module, op, &ret_param, &op_pres.result, cop)?);
    }

    let args: Vec<&str> = pieces.iter().map(|p| p.arg.as_str()).filter(|a| !a.is_empty()).collect();
    let ret_tys: Vec<&str> = pieces.iter().filter_map(|p| p.ret_ty.as_deref()).collect();

    let mut ret_tuple = match ret_tys.len() {
        0 => "()".to_owned(),
        1 => ret_tys[0].to_owned(),
        _ => format!("({})", ret_tys.join(", ")),
    };
    if cop.comm_status {
        ret_tuple = if ret_tys.is_empty() {
            "u32".to_owned()
        } else {
            format!("(u32, {})", ret_tys.join(", "))
        };
    }

    let method = snake(&op.name);
    let _ = writeln!(
        out,
        "    /// `{}` — presentation: {}{}.",
        op.name,
        if cop.comm_status { "[comm_status] " } else { "" },
        if cop.sink_params.is_empty() { "standard reply" } else { "sink reply" }
    );
    let sig_args = if args.is_empty() { String::new() } else { format!(", {}", args.join(", ")) };
    let _ = writeln!(
        out,
        "    pub fn {method}(&mut self{sig_args}) -> Result<{ret_tuple}, flexrpc_runtime::RpcError> {{"
    );
    let _ = writeln!(out, "        let mut frame = self.stub.new_frame(\"{}\")?;", op.name);
    for p in &pieces {
        out.push_str(&p.pack);
    }
    if cop.comm_status {
        let _ =
            writeln!(out, "        let status = self.stub.call_index({}, &mut frame)?;", cop.index);
    } else {
        let _ = writeln!(out, "        self.stub.call_index({}, &mut frame)?;", cop.index);
    }
    // In-place out-params (caller-allocated) restore first.
    for p in &pieces {
        if p.ret_ty.is_none() {
            if let Some(unpack) = &p.unpack {
                let _ = writeln!(out, "        {unpack}");
            }
        }
    }
    let ret_exprs: Vec<String> = pieces
        .iter()
        .filter(|p| p.ret_ty.is_some())
        .map(|p| p.unpack.clone().expect("ret piece has unpack"))
        .collect();
    let value = match ret_exprs.len() {
        0 => "()".to_owned(),
        1 => ret_exprs[0].clone(),
        _ => format!("({})", ret_exprs.join(", ")),
    };
    if cop.comm_status {
        if ret_exprs.is_empty() {
            let _ = writeln!(out, "        Ok(status)");
        } else {
            let _ = writeln!(out, "        Ok((status, {}))", ret_exprs.join(", "));
        }
    } else {
        let _ = writeln!(out, "        Ok({value})");
    }
    let _ = writeln!(out, "    }}\n");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrpc_core::annot::{apply_pdl, Attr, OpAnnot, ParamAnnot, PdlFile};
    use flexrpc_core::ir::{fileio_example, syslog_example};

    fn gen(pdl: Option<PdlFile>) -> String {
        let m = fileio_example();
        let iface = m.interface("FileIO").unwrap();
        let mut pres = InterfacePresentation::default_for(&m, iface).unwrap();
        if let Some(pdl) = pdl {
            pres = apply_pdl(&m, iface, &pres, &pdl).unwrap();
        }
        let compiled = CompiledInterface::compile(&m, iface, &pres).unwrap();
        emit_client(&m, iface, &pres, &compiled).unwrap()
    }

    #[test]
    fn default_presentation_signatures() {
        let s = gen(None);
        assert!(s.contains(
            "pub fn read(&mut self, count: u32) -> Result<Vec<u8>, flexrpc_runtime::RpcError>"
        ));
        assert!(s.contains(
            "pub fn write(&mut self, data: &[u8]) -> Result<(), flexrpc_runtime::RpcError>"
        ));
    }

    #[test]
    fn caller_alloc_changes_read_signature() {
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
        let s = gen(Some(pdl));
        assert!(s.contains("pub fn read(&mut self, count: u32, ret: &mut Vec<u8>)"), "{s}");
    }

    #[test]
    fn comm_status_returns_status_value() {
        let pdl = PdlFile {
            interface: Some("FileIO".into()),
            iface_attrs: vec![],
            types: vec![],
            ops: vec![OpAnnot {
                op: "write".into(),
                op_attrs: vec![Attr::CommStatus],
                params: vec![],
            }],
        };
        let s = gen(Some(pdl));
        assert!(s.contains(
            "pub fn write(&mut self, data: &[u8]) -> Result<u32, flexrpc_runtime::RpcError>"
        ));
    }

    #[test]
    fn length_is_switches_string_signature() {
        let m = syslog_example();
        let iface = m.interface("SysLog").unwrap();
        let base = InterfacePresentation::default_for(&m, iface).unwrap();
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
        let default = {
            let compiled = CompiledInterface::compile(&m, iface, &base).unwrap();
            emit_client(&m, iface, &base, &compiled).unwrap()
        };
        assert!(default.contains("pub fn write_msg(&mut self, msg: &str)"));
        let annotated = {
            let pres = apply_pdl(&m, iface, &base, &pdl).unwrap();
            let compiled = CompiledInterface::compile(&m, iface, &pres).unwrap();
            emit_client(&m, iface, &pres, &compiled).unwrap()
        };
        assert!(annotated.contains("pub fn write_msg(&mut self, msg: &[u8], length: usize)"));
    }
}
