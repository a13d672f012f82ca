//! Server trait and registration-glue emission.
//!
//! Each interface becomes a Rust trait whose method signatures follow the
//! *server's* presentation: sink-mode operations (`[dealloc(never)]`,
//! server-side `[special]`) receive a `ReplySink` and write payloads from
//! their own storage; default operations return owned buffers the stub
//! marshals and releases (move semantics). `register_*` glue adapts any
//! implementation onto `flexrpc_runtime::ServerInterface`.

use crate::types::rust_type;
use crate::{camel, snake};
use flexrpc_core::ir::{Interface, Module, Operation, Param, ParamDir, Type, TypeBody};
use flexrpc_core::present::{InterfacePresentation, OpPresentation};
use flexrpc_core::program::{CompiledInterface, CompiledOp};
use flexrpc_core::{CoreError, Result};
use std::fmt::Write as _;

/// Emits the server trait plus the registration function.
pub(crate) fn emit_server(
    module: &Module,
    iface: &Interface,
    pres: &InterfacePresentation,
    compiled: &CompiledInterface,
) -> Result<String> {
    let mut out = String::new();
    let trait_name = format!("{}Server", camel(&iface.name));

    let _ = writeln!(out, "/// Work functions for interface `{}` under this", iface.name);
    let _ = writeln!(out, "/// endpoint's presentation. Non-zero error codes become the RPC");
    let _ = writeln!(out, "/// status word.");
    let _ = writeln!(out, "pub trait {trait_name}: Send {{");
    for (op, cop) in iface.ops.iter().zip(&compiled.ops) {
        let op_pres = pres.op(&op.name).expect("presentation covers all ops");
        let sig = method_signature(module, op, op_pres, cop)?;
        let _ = writeln!(out, "    /// `{}`.", op.name);
        let _ = writeln!(out, "    fn {sig};");
    }
    let _ = writeln!(out, "}}\n");

    let reg_name = format!("register_{}", snake(&iface.name));
    let _ = writeln!(out, "/// Registers an implementation on a `ServerInterface`.");
    let _ = writeln!(
        out,
        "pub fn {reg_name}<I: {trait_name} + 'static>(\n    srv: &mut flexrpc_runtime::ServerInterface,\n    imp: I,\n) -> Result<(), flexrpc_runtime::RpcError> {{"
    );
    let _ = writeln!(out, "    let imp = std::sync::Arc::new(std::sync::Mutex::new(imp));");
    for (op, cop) in iface.ops.iter().zip(&compiled.ops) {
        let op_pres = pres.op(&op.name).expect("presentation covers all ops");
        emit_glue(module, op, op_pres, cop, &mut out)?;
    }
    let _ = writeln!(out, "    Ok(())");
    let _ = writeln!(out, "}}\n");
    Ok(out)
}

/// Whether an out parameter is sink-mode under this presentation.
fn is_sink_param(op: &Operation, _op_pres: &OpPresentation, cop: &CompiledOp, p: &Param) -> bool {
    op.params.iter().position(|q| q.name == p.name).is_some_and(|i| is_sink(cop, i))
}

fn slot_of(cop: &CompiledOp, name: &str) -> usize {
    cop.slots.slot(name).expect("compiled op has the slot").0
}

fn is_sink(cop: &CompiledOp, param_index: usize) -> bool {
    cop.sink_params.iter().any(|s| s.param_index == param_index)
}

/// Builds the trait-method signature text (without `fn`'s semicolon).
fn method_signature(
    module: &Module,
    op: &Operation,
    op_pres: &OpPresentation,
    cop: &CompiledOp,
) -> Result<String> {
    let mut args: Vec<String> = Vec::new();
    let mut rets: Vec<String> = Vec::new();
    let mut wants_sink = false;

    let mut handle = |p: &Param, param_index: usize| -> Result<()> {
        let resolved = module.resolve(&p.ty)?.clone();
        let rname = if p.name == "return" { "ret".to_owned() } else { snake(&p.name) };
        let ppres =
            if param_index == usize::MAX { &op_pres.result } else { &op_pres.params[param_index] };
        if p.dir.is_in() {
            if ppres.special {
                // Consumed by the server-side hook; absent from the trait.
            } else {
                match &resolved {
                    Type::Str => {
                        if ppres.length_is.is_some() {
                            args.push(format!("{rname}: &[u8]"));
                        } else {
                            args.push(format!("{rname}: &str"));
                        }
                    }
                    Type::Sequence(_) => args.push(format!("{rname}: &[u8]")),
                    Type::Array(el, n) if **el == Type::Octet => {
                        args.push(format!("{rname}: &[u8; {n}]"))
                    }
                    Type::ObjRef => args.push(format!("{rname}: u32")),
                    Type::Named(name)
                        if matches!(
                            module.typedef(name).map(|t| &t.body),
                            Some(TypeBody::Struct(_))
                        ) =>
                    {
                        args.push(format!("{rname}: {}", camel(name)))
                    }
                    _ => args.push(format!("{rname}: {}", rust_type(module, &p.ty)?)),
                }
            }
        }
        if p.dir.is_out() {
            match &resolved {
                Type::Str | Type::Sequence(_) => {
                    if is_sink(cop, param_index) {
                        wants_sink = true;
                    } else {
                        rets.push("Vec<u8>".into());
                    }
                }
                Type::Array(el, n) if **el == Type::Octet => rets.push(format!("[u8; {n}]")),
                Type::ObjRef => rets.push("u32".into()),
                Type::Named(name)
                    if matches!(
                        module.typedef(name).map(|t| &t.body),
                        Some(TypeBody::Struct(_))
                    ) =>
                {
                    rets.push(camel(name))
                }
                _ => rets.push(rust_type(module, &p.ty)?),
            }
        }
        Ok(())
    };

    for (i, p) in op.params.iter().enumerate() {
        handle(p, i)?;
    }
    if op.ret != Type::Void {
        let ret_param = Param::new("return", ParamDir::Out, op.ret.clone());
        handle(&ret_param, usize::MAX)?;
    }
    if wants_sink {
        args.push("sink: &mut flexrpc_runtime::ReplySink<'_>".into());
    }

    let ret_ty = match rets.len() {
        0 => "()".to_owned(),
        1 => rets[0].clone(),
        _ => format!("({})", rets.join(", ")),
    };
    let arg_text = if args.is_empty() { String::new() } else { format!(", {}", args.join(", ")) };
    Ok(format!("{}(&mut self{arg_text}) -> core::result::Result<{ret_ty}, u32>", snake(&op.name)))
}

/// Emits one `srv.on(...)` registration closure.
fn emit_glue(
    module: &Module,
    op: &Operation,
    op_pres: &OpPresentation,
    cop: &CompiledOp,
    out: &mut String,
) -> Result<()> {
    let uses_frame =
        op.params.iter().enumerate().any(|(i, p)| p.dir.is_in() && !op_pres.params[i].special)
            || op.params.iter().any(|p| p.dir.is_out() && !is_sink_param(op, op_pres, cop, p))
            || (op.ret != Type::Void && !is_sink(cop, usize::MAX));
    // The closure only binds `call` visibly when the body touches it (sink
    // writes or frame/request access) — keeps emitted code warning-free.
    let call_name = if uses_frame || !cop.sink_params.is_empty() { "call" } else { "_call" };
    let _ = writeln!(out, "    {{");
    let _ = writeln!(out, "        let imp = std::sync::Arc::clone(&imp);");
    let _ = writeln!(out, "        srv.on(\"{}\", move |{call_name}| {{", op.name);
    if uses_frame {
        let _ = writeln!(out, "            let frame = &mut *call.frame;");
    }

    // Extract ins.
    let mut call_args: Vec<String> = Vec::new();
    let mut wants_sink = false;
    for (i, p) in op.params.iter().enumerate() {
        let ppres = &op_pres.params[i];
        if !p.dir.is_in() {
            continue;
        }
        if ppres.special {
            continue;
        }
        let resolved = module.resolve(&p.ty)?.clone();
        let rname = snake(&p.name);
        let slot = match &resolved {
            Type::Named(n)
                if matches!(module.typedef(n).map(|t| &t.body), Some(TypeBody::Struct(_))) =>
            {
                usize::MAX
            }
            _ => slot_of(cop, &p.name),
        };
        match &resolved {
            Type::Str => {
                if ppres.length_is.is_some() {
                    let _ = writeln!(
                        out,
                        "            let {rname}_v = core::mem::take(&mut frame[{slot}]);"
                    );
                    let _ = writeln!(
                        out,
                        "            let {rname}: &[u8] = {rname}_v.window_of(call.request).unwrap_or(&[]);"
                    );
                } else {
                    let _ = writeln!(
                        out,
                        "            let {rname}_v = core::mem::take(&mut frame[{slot}]);"
                    );
                    let _ = writeln!(
                        out,
                        "            let {rname}: &str = {rname}_v.as_str().unwrap_or(\"\");"
                    );
                }
                call_args.push(rname);
            }
            Type::Sequence(_) => {
                let _ = writeln!(
                    out,
                    "            let {rname}_v = core::mem::take(&mut frame[{slot}]);"
                );
                let _ = writeln!(
                    out,
                    "            let {rname}: &[u8] = {rname}_v.window_of(call.request).unwrap_or(&[]);"
                );
                call_args.push(rname);
            }
            Type::Array(el, n) if **el == Type::Octet => {
                let _ = writeln!(
                    out,
                    "            let {rname}_v = core::mem::take(&mut frame[{slot}]);"
                );
                let _ = writeln!(out, "            let mut {rname} = [0u8; {n}];");
                let _ = writeln!(
                    out,
                    "            if let Some(src) = {rname}_v.window_of(call.request) {{ if src.len() == {n} {{ {rname}.copy_from_slice(src); }} }}"
                );
                call_args.push(format!("&{rname}"));
            }
            Type::ObjRef => {
                let _ = writeln!(
                    out,
                    "            let {rname} = if let Value::Port(p) = frame[{slot}] {{ p }} else {{ 0 }};"
                );
                call_args.push(rname);
            }
            Type::Named(name)
                if matches!(module.typedef(name).map(|t| &t.body), Some(TypeBody::Struct(_))) =>
            {
                let Some(TypeBody::Struct(fields)) = module.typedef(name).map(|t| &t.body) else {
                    unreachable!("guard above");
                };
                let mut build = format!("            let {rname} = {} {{ ", camel(name));
                for f in fields {
                    let fslot = slot_of(cop, &format!("{}.{}", p.name, f.name));
                    let extract = scalar_extract(module, &f.ty, fslot)?;
                    let _ = write!(build, "{}: {extract}, ", snake(&f.name));
                }
                build.push_str("};");
                let _ = writeln!(out, "{build}");
                call_args.push(rname);
            }
            _ => {
                let extract = scalar_extract(module, &p.ty, slot)?;
                let _ = writeln!(out, "            let {rname} = {extract};");
                call_args.push(rname);
            }
        }
    }

    // Out pieces: what the method returns, and where it lands.
    struct OutPiece {
        set: String,
    }
    let mut out_pieces: Vec<OutPiece> = Vec::new();
    let mut handle_out = |param: &Param, param_index: usize| -> Result<()> {
        if !param.dir.is_out() {
            return Ok(());
        }
        let resolved = module.resolve(&param.ty)?.clone();
        match &resolved {
            Type::Str | Type::Sequence(_) => {
                if is_sink(cop, param_index) {
                    wants_sink = true;
                } else {
                    let slot = slot_of(cop, &param.name);
                    out_pieces
                        .push(OutPiece { set: format!("frame[{slot}] = Value::Bytes(VAL);") });
                }
            }
            Type::Array(el, _n) if **el == Type::Octet => {
                let slot = slot_of(cop, &param.name);
                out_pieces
                    .push(OutPiece { set: format!("frame[{slot}] = Value::Bytes(VAL.to_vec());") });
            }
            Type::ObjRef => {
                let slot = slot_of(cop, &param.name);
                out_pieces.push(OutPiece { set: format!("frame[{slot}] = Value::Port(VAL);") });
            }
            Type::Named(name)
                if matches!(module.typedef(name).map(|t| &t.body), Some(TypeBody::Struct(_))) =>
            {
                let Some(TypeBody::Struct(fields)) = module.typedef(name).map(|t| &t.body) else {
                    unreachable!("guard above");
                };
                let mut set = String::new();
                for f in fields {
                    let fslot = slot_of(cop, &format!("{}.{}", param.name, f.name));
                    set.push_str(&scalar_store(
                        module,
                        &f.ty,
                        &format!("VAL.{}", snake(&f.name)),
                        fslot,
                    )?);
                }
                out_pieces.push(OutPiece { set });
            }
            _ => {
                let slot = slot_of(cop, &param.name);
                out_pieces.push(OutPiece { set: scalar_store(module, &param.ty, "VAL", slot)? });
            }
        }
        Ok(())
    };
    for (i, p) in op.params.iter().enumerate() {
        handle_out(p, i)?;
    }
    if op.ret != Type::Void {
        let ret_param = Param::new("return", ParamDir::Out, op.ret.clone());
        handle_out(&ret_param, usize::MAX)?;
    }

    if wants_sink {
        call_args.push("&mut *call.sink".into());
    }
    let _ = writeln!(
        out,
        "            let r = imp.lock().expect(\"server impl poisoned\").{}({});",
        snake(&op.name),
        call_args.join(", ")
    );
    match out_pieces.len() {
        0 => {
            let _ = writeln!(out, "            match r {{");
            let _ = writeln!(out, "                Ok(()) => 0,");
            let _ = writeln!(out, "                Err(code) => code,");
            let _ = writeln!(out, "            }}");
        }
        1 => {
            let _ = writeln!(out, "            match r {{");
            let _ = writeln!(out, "                Ok(v) => {{");
            let _ = writeln!(out, "                    {}", out_pieces[0].set.replace("VAL", "v"));
            let _ = writeln!(out, "                    0");
            let _ = writeln!(out, "                }}");
            let _ = writeln!(out, "                Err(code) => code,");
            let _ = writeln!(out, "            }}");
        }
        n => {
            let pattern: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
            let _ = writeln!(out, "            match r {{");
            let _ = writeln!(out, "                Ok(({})) => {{", pattern.join(", "));
            for (i, piece) in out_pieces.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "                    {}",
                    piece.set.replace("VAL", &format!("v{i}"))
                );
            }
            let _ = writeln!(out, "                    0");
            let _ = writeln!(out, "                }}");
            let _ = writeln!(out, "                Err(code) => code,");
            let _ = writeln!(out, "            }}");
        }
    }
    let _ = writeln!(out, "        }})?;");
    let _ = writeln!(out, "    }}");
    Ok(())
}

fn scalar_extract(module: &Module, ty: &Type, slot: usize) -> Result<String> {
    Ok(match module.resolve(ty)? {
        Type::Bool => format!("matches!(frame[{slot}], Value::Bool(true))"),
        Type::Octet | Type::U16 | Type::U32 => format!("frame[{slot}].as_u32().unwrap_or(0)"),
        Type::I16 | Type::I32 => {
            format!("if let Value::I32(v) = frame[{slot}] {{ v }} else {{ 0 }}")
        }
        Type::I64 => format!("if let Value::I64(v) = frame[{slot}] {{ v }} else {{ 0 }}"),
        Type::U64 => format!("frame[{slot}].as_u64().unwrap_or(0)"),
        Type::F64 => format!("if let Value::F64(v) = frame[{slot}] {{ v }} else {{ 0.0 }}"),
        Type::Named(_) => format!("frame[{slot}].as_u32().unwrap_or(0)"),
        other => return Err(CoreError::Unsupported(format!("extract of `{other}`"))),
    })
}

fn scalar_store(module: &Module, ty: &Type, expr: &str, slot: usize) -> Result<String> {
    Ok(match module.resolve(ty)? {
        Type::Bool => format!("frame[{slot}] = Value::Bool({expr});"),
        Type::Octet | Type::U16 => format!("frame[{slot}] = Value::U32({expr} as u32);"),
        Type::I16 | Type::I32 => format!("frame[{slot}] = Value::I32({expr} as i32);"),
        Type::U32 => format!("frame[{slot}] = Value::U32({expr});"),
        Type::I64 => format!("frame[{slot}] = Value::I64({expr});"),
        Type::U64 => format!("frame[{slot}] = Value::U64({expr});"),
        Type::F64 => format!("frame[{slot}] = Value::F64({expr});"),
        Type::Named(_) => format!("frame[{slot}] = Value::U32({expr} as u32);"),
        other => return Err(CoreError::Unsupported(format!("store of `{other}`"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrpc_core::annot::{apply_pdl, Attr, OpAnnot, ParamAnnot, PdlFile};
    use flexrpc_core::ir::fileio_example;

    fn gen(pdl: Option<PdlFile>) -> String {
        let m = fileio_example();
        let iface = m.interface("FileIO").unwrap();
        let mut pres = InterfacePresentation::default_for(&m, iface).unwrap();
        if let Some(pdl) = pdl {
            pres = apply_pdl(&m, iface, &pres, &pdl).unwrap();
        }
        let compiled = CompiledInterface::compile(&m, iface, &pres).unwrap();
        emit_server(&m, iface, &pres, &compiled).unwrap()
    }

    #[test]
    fn default_trait_signatures() {
        let s = gen(None);
        assert!(s.contains("fn read(&mut self, count: u32) -> core::result::Result<Vec<u8>, u32>;"));
        assert!(s.contains("fn write(&mut self, data: &[u8]) -> core::result::Result<(), u32>;"));
        assert!(s.contains("pub fn register_file_io"));
    }

    #[test]
    fn dealloc_never_gets_a_sink() {
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
        let s = gen(Some(pdl));
        assert!(s.contains(
            "fn read(&mut self, count: u32, sink: &mut flexrpc_runtime::ReplySink<'_>) -> core::result::Result<(), u32>;"
        ));
        assert!(s.contains("&mut *call.sink"));
    }

    #[test]
    fn borrowed_write_keeps_slice_signature() {
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
        let s = gen(Some(pdl));
        // Same Rust signature — the zero-copy benefit is in the glue, which
        // resolves the window against the request message.
        assert!(s.contains("fn write(&mut self, data: &[u8])"));
        assert!(s.contains("window_of(call.request)"));
    }
}
