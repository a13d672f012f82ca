//! MIG (`.defs`) front-end — the paper's "under construction" third
//! front-end, completed.
//!
//! Supports the subsystem/type/routine subset that interface files like the
//! Mach name server's use:
//!
//! ```defs
//! subsystem pipe 2400;
//!
//! type buffer_t = array[*:8192] of char;
//! type path_t = c_string[*:1024];
//!
//! routine pipe_read(
//!     server    : mach_port_t;
//!     count     : int;
//!     out data  : buffer_t);
//!
//! simpleroutine pipe_poke(
//!     server    : mach_port_t;
//!     code      : int);
//!
//! skip;
//! ```
//!
//! Lowering decisions (documented MIG semantics):
//!
//! * The subsystem's base message id numbers routines sequentially
//!   (`skip;` burns an id), carried in [`Operation::opnum`].
//! * The first parameter, when it is a `mach_port_t`, is the *request
//!   port* — transport addressing, not message content — and is dropped
//!   from the operation's wire parameters.
//! * `simpleroutine` (one-way) lowers to a void-returning operation; our
//!   transports are synchronous, so the reply is an empty status message.
//! * The implicit `kern_return_t` result is the status word every reply
//!   already carries; MIG's *default presentation* (`comm_status`,
//!   caller-allocated out buffers) is applied by
//!   `InterfacePresentation::default_for` via [`Dialect::Mig`].

use crate::lex::{Tok, TokStream};
use crate::Result;
use flexrpc_core::annot::{Attr, OpAnnot, PdlFile};
use flexrpc_core::ir::{
    Dialect, Interface, Module, Operation, Param, ParamDir, Type, TypeBody, TypeDef,
};

/// Parses `.defs` source into a validated [`Module`].
pub fn parse(name: &str, src: &str) -> Result<Module> {
    parse_impl(name, src, None)
}

/// Parses `.defs` source that may carry bracketed presentation attributes
/// before `routine`/`simpleroutine` declarations. In this mode every
/// `simpleroutine` also contributes an `[oneway]` annotation — that is
/// exactly what MIG's one-way send semantics mean — so the returned
/// [`PdlFile`] captures the call shape the `.defs` author already declared.
pub fn parse_annotated(name: &str, src: &str) -> Result<(Module, PdlFile)> {
    let mut pdl = PdlFile::default();
    let module = parse_impl(name, src, Some(&mut pdl))?;
    Ok((module, pdl))
}

fn parse_impl(name: &str, src: &str, mut annots: Option<&mut PdlFile>) -> Result<Module> {
    let mut ts = TokStream::new(src)?;
    let mut module = Module::new(name, Dialect::Mig);

    ts.expect_kw("subsystem")?;
    let sub_name = ts.expect_ident("subsystem name")?;
    let base = ts.expect_num()?;
    ts.expect_punct(';')?;

    let mut ops = Vec::new();
    let mut next_id = base as u32;
    while !ts.at_eof() {
        let mut op_attrs = if annots.is_some() && ts.peek() == Tok::Punct('[') {
            crate::pdl::parse_attr_block(&mut ts)?
        } else {
            Vec::new()
        };
        if ts.eat_kw("type") {
            if !op_attrs.is_empty() {
                return Err(ts.error("attribute block must precede a routine declaration"));
            }
            let td = parse_typedef(&mut ts)?;
            module.typedefs.push(td);
        } else if ts.eat_kw("skip") {
            if !op_attrs.is_empty() {
                return Err(ts.error("attribute block must precede a routine declaration"));
            }
            ts.expect_punct(';')?;
            next_id += 1;
        } else if ts.eat_kw("routine") || {
            if ts.eat_kw("simpleroutine") {
                // MIG's `simpleroutine` *is* a one-way declaration.
                if annots.is_some() && !op_attrs.contains(&Attr::Oneway) {
                    op_attrs.push(Attr::Oneway);
                }
                true
            } else {
                return Err(ts.error(format!(
                    "expected type/routine/simpleroutine/skip, found {}",
                    ts.peek().describe()
                )));
            }
        } {
            let op = parse_routine(&mut ts, next_id)?;
            next_id += 1;
            if !op_attrs.is_empty() {
                if let Some(pdl) = annots.as_deref_mut() {
                    pdl.ops.push(OpAnnot { op: op.name.clone(), op_attrs, params: vec![] });
                }
            }
            ops.push(op);
        }
    }
    module.interfaces.push(Interface {
        name: sub_name.to_owned(),
        program: Some(base as u32),
        version: None,
        ops,
    });
    flexrpc_core::validate::validate(&module)
        .map_err(|e| ts.error(format!("invalid module: {e}")))?;
    Ok(module)
}

fn parse_typedef(ts: &mut TokStream<'_>) -> Result<TypeDef> {
    let name = ts.expect_ident("type name")?;
    ts.expect_punct('=')?;
    let ty = parse_type(ts)?;
    ts.expect_punct(';')?;
    Ok(TypeDef { name: name.to_owned(), body: TypeBody::Alias(ty) })
}

fn parse_type(ts: &mut TokStream<'_>) -> Result<Type> {
    if ts.eat_kw("int") {
        return Ok(Type::I32);
    }
    if ts.eat_kw("unsigned") {
        return Ok(Type::U32);
    }
    if ts.eat_kw("char") {
        return Ok(Type::Octet);
    }
    if ts.eat_kw("boolean_t") {
        return Ok(Type::Bool);
    }
    if ts.eat_kw("mach_port_t") {
        return Ok(Type::ObjRef);
    }
    if ts.eat_kw("c_string") {
        // c_string[*:N] — a bounded C string.
        ts.expect_punct('[')?;
        ts.expect_punct('*')?;
        ts.expect_punct(':')?;
        let _max = ts.expect_num()?;
        ts.expect_punct(']')?;
        return Ok(Type::Str);
    }
    if ts.eat_kw("array") {
        ts.expect_punct('[')?;
        let bounded = if ts.eat_punct('*') {
            ts.expect_punct(':')?;
            let _max = ts.expect_num()?;
            None
        } else {
            Some(ts.expect_num()? as u32)
        };
        ts.expect_punct(']')?;
        ts.expect_kw("of")?;
        let el = parse_type(ts)?;
        return Ok(match bounded {
            None => Type::Sequence(Box::new(el)),
            Some(n) => Type::Array(Box::new(el), n),
        });
    }
    let name = ts.expect_ident("type name")?;
    Ok(Type::Named(name.to_owned()))
}

fn parse_routine(ts: &mut TokStream<'_>, opnum: u32) -> Result<Operation> {
    let name = ts.expect_ident("routine name")?;
    ts.expect_punct('(')?;
    let mut params = Vec::new();
    let mut first = true;
    if !ts.eat_punct(')') {
        loop {
            let dir = if ts.eat_kw("out") {
                ParamDir::Out
            } else if ts.eat_kw("inout") {
                ParamDir::InOut
            } else {
                let _ = ts.eat_kw("in");
                ParamDir::In
            };
            let pname = ts.expect_ident("parameter name")?;
            ts.expect_punct(':')?;
            let ty = parse_type(ts)?;
            // MIG: the leading request-port parameter is addressing, not
            // message content.
            let is_request_port = first && dir == ParamDir::In && ty == Type::ObjRef;
            first = false;
            if !is_request_port {
                params.push(Param::new(pname, dir, ty));
            }
            if ts.eat_punct(')') {
                break;
            }
            ts.expect_punct(';')?;
            // Tolerate a trailing separator before the closing paren.
            if ts.eat_punct(')') {
                break;
            }
        }
    }
    ts.expect_punct(';')?;
    Ok(Operation { name: name.to_owned(), opnum: Some(opnum), params, ret: Type::Void })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrpc_core::present::{AllocSemantics, InterfacePresentation};

    const PIPE_DEFS: &str = r#"
        subsystem pipe 2400;

        #include <mach/std_types.defs>

        type buffer_t = array[*:8192] of char;
        type fixed_t = array[16] of char;
        type path_t = c_string[*:1024];

        routine pipe_read(
            server    : mach_port_t;
            count     : int;
            out data  : buffer_t);

        routine pipe_write(
            server    : mach_port_t;
            data      : buffer_t);

        skip;

        simpleroutine pipe_poke(
            server    : mach_port_t;
            code      : int);
    "#;

    #[test]
    fn subsystem_parses_and_numbers_routines() {
        let m = parse("pipe", PIPE_DEFS).unwrap();
        assert_eq!(m.dialect, Dialect::Mig);
        let iface = &m.interfaces[0];
        assert_eq!(iface.name, "pipe");
        assert_eq!(iface.program, Some(2400));
        let ids: Vec<Option<u32>> = iface.ops.iter().map(|o| o.opnum).collect();
        // skip; burned 2402.
        assert_eq!(ids, vec![Some(2400), Some(2401), Some(2403)]);
    }

    #[test]
    fn request_port_dropped_from_wire_params() {
        let m = parse("pipe", PIPE_DEFS).unwrap();
        let read = m.interfaces[0].op("pipe_read").unwrap();
        assert_eq!(read.params.len(), 2, "server port is addressing, not content");
        assert_eq!(read.params[0].name, "count");
        assert_eq!(read.params[1].dir, ParamDir::Out);
        assert_eq!(m.resolve(&read.params[1].ty).unwrap(), &Type::octet_seq());
    }

    #[test]
    fn type_specs_lower() {
        let m = parse("pipe", PIPE_DEFS).unwrap();
        assert_eq!(m.typedef("buffer_t").unwrap().body, TypeBody::Alias(Type::octet_seq()));
        assert_eq!(
            m.typedef("fixed_t").unwrap().body,
            TypeBody::Alias(Type::Array(Box::new(Type::Octet), 16))
        );
        assert_eq!(m.typedef("path_t").unwrap().body, TypeBody::Alias(Type::Str));
    }

    #[test]
    fn mig_default_presentation_is_caller_allocates() {
        // Figure 11's middle bar is named after MIG for a reason: its
        // default out-buffer semantics is "client allocates, server fills".
        let m = parse("pipe", PIPE_DEFS).unwrap();
        let iface = &m.interfaces[0];
        let pres = InterfacePresentation::default_for(&m, iface).unwrap();
        let read = pres.op("pipe_read").unwrap();
        assert!(read.comm_status, "kern_return_t is a status, not an exception");
        assert_eq!(read.params[1].alloc, AllocSemantics::CallerAllocates);
    }

    #[test]
    fn mig_module_compiles_and_roundtrips() {
        use flexrpc_core::program::CompiledInterface;
        let m = parse("pipe", PIPE_DEFS).unwrap();
        let iface = &m.interfaces[0];
        let pres = InterfacePresentation::default_for(&m, iface).unwrap();
        let ci = CompiledInterface::compile(&m, iface, &pres).unwrap();
        assert_eq!(ci.ops.len(), 3);
        assert_eq!(ci.op("pipe_read").unwrap().opnum, Some(2400));
    }

    #[test]
    fn simpleroutine_is_void() {
        let m = parse("pipe", PIPE_DEFS).unwrap();
        let poke = m.interfaces[0].op("pipe_poke").unwrap();
        assert_eq!(poke.ret, Type::Void);
        assert_eq!(poke.params.len(), 1);
    }

    #[test]
    fn annotated_defs_split_into_module_and_pdl() {
        let (m, pdl) = parse_annotated(
            "pipe",
            r#"
            subsystem pipe 2400;
            type buffer_t = array[*:8192] of char;

            [stream(16)] routine pipe_write(
                server : mach_port_t;
                data   : buffer_t);

            simpleroutine pipe_poke(
                server : mach_port_t;
                code   : int);
            "#,
        )
        .unwrap();
        assert_eq!(m.interfaces[0].ops.len(), 2);
        assert_eq!(pdl.ops.len(), 2);
        assert_eq!(pdl.ops[0].op, "pipe_write");
        assert_eq!(pdl.ops[0].op_attrs, vec![Attr::Stream(16)]);
        // simpleroutine is MIG's spelling of [oneway].
        assert_eq!(pdl.ops[1].op, "pipe_poke");
        assert_eq!(pdl.ops[1].op_attrs, vec![Attr::Oneway]);
    }

    #[test]
    fn annotated_stream_errors_suggest_spelling() {
        let err = parse_annotated(
            "bad",
            "subsystem s 1;\n[stream] simpleroutine poke(server: mach_port_t; code: int);",
        )
        .unwrap_err();
        assert!(err.msg.contains("did you mean `[stream(N)]`"), "{}", err.msg);
        assert_eq!(err.line, 2);
    }

    #[test]
    fn attr_block_must_precede_a_routine() {
        let err = parse_annotated("bad", "subsystem s 1;\n[oneway] skip;").unwrap_err();
        assert!(err.msg.contains("must precede a routine"), "{}", err.msg);
        // And the classic grammar rejects blocks entirely.
        assert!(parse("bad", "subsystem s 1;\n[oneway] simpleroutine p(c: int);").is_err());
    }

    #[test]
    fn garbage_reported_with_position() {
        let err = parse("bad", "subsystem x 1;\nfrobnicate;").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("frobnicate") || err.msg.contains("expected"));
    }

    #[test]
    fn diagnostics_point_at_the_offending_token() {
        let at = |src: &str| {
            let e = parse("bad", src).unwrap_err();
            (e.line, e.col, e.msg)
        };
        let (line, col, msg) = at("subsystem s;");
        assert_eq!((line, col), (1, 12), "{msg}");
        assert!(msg.contains("expected number, found `;`"), "{msg}");
        let (line, col, msg) = at("subsystem s 1;\nroutine r(x int);");
        assert_eq!((line, col), (2, 13), "{msg}");
        assert!(msg.contains("expected `:`, found `int`"), "{msg}");
        // The offending token is the last one before end of input.
        let (line, col, msg) = at("subsystem s 1;\nroutine r(x: int) }");
        assert_eq!((line, col), (2, 19), "{msg}");
        assert!(msg.contains("expected `;`, found `}`"), "{msg}");
    }

    #[test]
    fn fixtures_lex_like_the_owning_tokenizer() {
        for src in [
            PIPE_DEFS,
            "subsystem s 1;\n[stream(16)] routine w(server : mach_port_t; data : buffer_t);",
            "subsystem x 1;\nfrobnicate;",
        ] {
            crate::lex::oracle::assert_lexes_alike(src);
        }
    }

    #[test]
    fn missing_subsystem_reported() {
        assert!(parse("bad", "routine r(x: int);").is_err());
    }
}
