//! CORBA IDL front-end.
//!
//! Supports the subset the paper's experiments exercise, plus the usual
//! surrounding machinery so realistic interface files parse:
//!
//! ```idl
//! module Example {
//!     typedef sequence<octet> buffer;
//!     enum Mode { READ, WRITE };
//!     struct Stat { unsigned long size; unsigned long long mtime; };
//!     interface FileIO {
//!         sequence<octet> read(in unsigned long count);
//!         void write(in sequence<octet> data);
//!     };
//! };
//! ```
//!
//! Nested modules flatten into one [`Module`] (names are kept unqualified —
//! the experiments never need cross-module scoping).

use crate::lex::{Tok, TokStream};
use crate::Result;
use flexrpc_core::annot::{Attr, OpAnnot, PdlFile};
use flexrpc_core::ir::{
    Dialect, Field, Interface, Module, Operation, Param, ParamDir, Type, TypeBody, TypeDef,
};

/// Parses CORBA IDL source into a validated [`Module`].
pub fn parse(name: &str, src: &str) -> Result<Module> {
    parse_impl(name, src, None)
}

/// Parses CORBA IDL that may carry presentation attributes on operations:
/// bracketed blocks (`[stream(64)] void write(...)`) and CORBA's native
/// `oneway` keyword, which maps onto the same `[oneway]` attribute. The
/// attributes come back as a separate [`PdlFile`]; the [`Module`] is
/// byte-identical to what the unannotated grammar would produce.
pub fn parse_annotated(name: &str, src: &str) -> Result<(Module, PdlFile)> {
    let mut pdl = PdlFile::default();
    let module = parse_impl(name, src, Some(&mut pdl))?;
    Ok((module, pdl))
}

fn parse_impl(name: &str, src: &str, annots: Option<&mut PdlFile>) -> Result<Module> {
    let mut ts = TokStream::new(src)?;
    let mut module = Module::new(name, Dialect::Corba);
    parse_definitions(&mut ts, &mut module, false, annots)?;
    if !ts.at_eof() {
        return Err(ts.error(format!("unexpected {}", ts.peek().describe())));
    }
    flexrpc_core::validate::validate(&module)
        .map_err(|e| ts.error(format!("invalid module: {e}")))?;
    Ok(module)
}

fn parse_definitions(
    ts: &mut TokStream<'_>,
    module: &mut Module,
    nested: bool,
    mut annots: Option<&mut PdlFile>,
) -> Result<()> {
    loop {
        if ts.at_eof() {
            if nested {
                return Err(ts.error("unexpected end of input inside module"));
            }
            return Ok(());
        }
        if nested && ts.peek() == Tok::Punct('}') {
            return Ok(());
        }
        if ts.eat_kw("module") {
            let _name = ts.expect_ident("module name")?;
            ts.expect_punct('{')?;
            parse_definitions(ts, module, true, annots.as_deref_mut())?;
            ts.expect_punct('}')?;
            ts.expect_punct(';')?;
        } else if ts.eat_kw("interface") {
            let iface = parse_interface(ts, annots.as_deref_mut())?;
            module.interfaces.push(iface);
        } else if ts.eat_kw("typedef") {
            let ty = parse_type(ts)?;
            let name = ts.expect_ident("typedef name")?;
            ts.expect_punct(';')?;
            module.typedefs.push(TypeDef { name: name.to_owned(), body: TypeBody::Alias(ty) });
        } else if ts.eat_kw("struct") {
            let td = parse_struct(ts)?;
            module.typedefs.push(td);
        } else if ts.eat_kw("enum") {
            let td = parse_enum(ts)?;
            module.typedefs.push(td);
        } else {
            return Err(ts.error(format!(
                "expected a definition (module/interface/typedef/struct/enum), found {}",
                ts.peek().describe()
            )));
        }
    }
}

fn parse_interface(ts: &mut TokStream<'_>, mut annots: Option<&mut PdlFile>) -> Result<Interface> {
    let name = ts.expect_ident("interface name")?;
    ts.expect_punct('{')?;
    let mut ops = Vec::new();
    while !ts.eat_punct('}') {
        ops.push(parse_operation(ts, annots.as_deref_mut())?);
    }
    ts.expect_punct(';')?;
    Ok(Interface::new(name, ops))
}

fn parse_operation(ts: &mut TokStream<'_>, annots: Option<&mut PdlFile>) -> Result<Operation> {
    let mut op_attrs = Vec::new();
    if annots.is_some() {
        // Annotated mode: a bracketed attribute block, and/or CORBA's own
        // `oneway` keyword (which is the same contract term spelled the
        // OMG way).
        if ts.peek() == Tok::Punct('[') {
            op_attrs = crate::pdl::parse_attr_block(ts)?;
        }
        if ts.eat_kw("oneway") {
            op_attrs.push(Attr::Oneway);
        }
    }
    let ret = parse_type(ts)?;
    let name = ts.expect_ident("operation name")?;
    ts.expect_punct('(')?;
    let mut params = Vec::new();
    if !ts.eat_punct(')') {
        loop {
            params.push(parse_param(ts)?);
            if ts.eat_punct(')') {
                break;
            }
            ts.expect_punct(',')?;
        }
    }
    ts.expect_punct(';')?;
    if !op_attrs.is_empty() {
        if let Some(pdl) = annots {
            pdl.ops.push(OpAnnot { op: name.to_owned(), op_attrs, params: vec![] });
        }
    }
    Ok(Operation::new(name, params, ret))
}

fn parse_param(ts: &mut TokStream<'_>) -> Result<Param> {
    let dir = if ts.eat_kw("in") {
        ParamDir::In
    } else if ts.eat_kw("out") {
        ParamDir::Out
    } else if ts.eat_kw("inout") {
        ParamDir::InOut
    } else {
        return Err(ts.error(format!(
            "expected parameter direction (in/out/inout), found {}",
            ts.peek().describe()
        )));
    };
    let ty = parse_type(ts)?;
    let name = ts.expect_ident("parameter name")?;
    Ok(Param::new(name, dir, ty))
}

fn parse_struct(ts: &mut TokStream<'_>) -> Result<TypeDef> {
    let name = ts.expect_ident("struct name")?;
    ts.expect_punct('{')?;
    let mut fields = Vec::new();
    while !ts.eat_punct('}') {
        let ty = parse_type(ts)?;
        let fname = ts.expect_ident("field name")?;
        ts.expect_punct(';')?;
        fields.push(Field { name: fname.to_owned(), ty });
    }
    ts.expect_punct(';')?;
    Ok(TypeDef { name: name.to_owned(), body: TypeBody::Struct(fields) })
}

fn parse_enum(ts: &mut TokStream<'_>) -> Result<TypeDef> {
    let name = ts.expect_ident("enum name")?;
    ts.expect_punct('{')?;
    let mut items = Vec::new();
    loop {
        items.push(ts.expect_ident("enumerator")?.to_owned());
        if ts.eat_punct('}') {
            break;
        }
        ts.expect_punct(',')?;
        // Tolerate a trailing comma.
        if ts.eat_punct('}') {
            break;
        }
    }
    ts.expect_punct(';')?;
    Ok(TypeDef { name: name.to_owned(), body: TypeBody::Enum(items) })
}

/// Parses a CORBA type specifier.
pub(crate) fn parse_type(ts: &mut TokStream<'_>) -> Result<Type> {
    if ts.eat_kw("void") {
        return Ok(Type::Void);
    }
    if ts.eat_kw("boolean") {
        return Ok(Type::Bool);
    }
    if ts.eat_kw("octet") || ts.eat_kw("char") {
        return Ok(Type::Octet);
    }
    if ts.eat_kw("short") {
        return Ok(Type::I16);
    }
    if ts.eat_kw("double") {
        return Ok(Type::F64);
    }
    if ts.eat_kw("string") {
        return Ok(Type::Str);
    }
    if ts.eat_kw("Object") {
        return Ok(Type::ObjRef);
    }
    if ts.eat_kw("unsigned") {
        if ts.eat_kw("short") {
            return Ok(Type::U16);
        }
        ts.expect_kw("long")?;
        if ts.eat_kw("long") {
            return Ok(Type::U64);
        }
        return Ok(Type::U32);
    }
    if ts.eat_kw("long") {
        if ts.eat_kw("long") {
            return Ok(Type::I64);
        }
        return Ok(Type::I32);
    }
    if ts.eat_kw("sequence") {
        ts.expect_punct('<')?;
        let el = parse_type(ts)?;
        ts.expect_punct('>')?;
        return Ok(Type::Sequence(Box::new(el)));
    }
    let name = ts.expect_ident("type name")?;
    Ok(Type::Named(name.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrpc_core::ir::{fileio_example, syslog_example};

    #[test]
    fn paper_fig3_pipe_interface() {
        let m = parse(
            "fileio",
            r#"
            interface FileIO {
                sequence<octet> read(in unsigned long count);
                void write(in sequence<octet> data);
            };
            "#,
        )
        .unwrap();
        // Identical to the hand-built IR example.
        assert_eq!(m.interfaces, fileio_example().interfaces);
    }

    #[test]
    fn paper_intro_syslog() {
        let m = parse("syslog", "interface SysLog { void write_msg(in string msg); };").unwrap();
        assert_eq!(m.interfaces, syslog_example().interfaces);
    }

    const KIT_IDL: &str = r#"
            typedef sequence<octet> buffer;
            enum Mode { READ, WRITE, APPEND };
            struct Stat {
                unsigned long size;
                unsigned long long mtime;
                boolean readonly;
            };
            interface FS {
                Stat stat(in string path);
                buffer slurp(in string path, in Mode mode);
            };
            "#;

    #[test]
    fn typedefs_structs_enums() {
        let m = parse("kit", KIT_IDL).unwrap();
        assert_eq!(m.typedefs.len(), 3);
        assert_eq!(m.interfaces[0].ops[0].ret, Type::Named("Stat".into()));
        let slurp = m.interfaces[0].op("slurp").unwrap();
        assert_eq!(slurp.params[1].ty, Type::Named("Mode".into()));
    }

    #[test]
    fn nested_modules_flatten() {
        let m = parse(
            "nested",
            r#"
            module A {
                module B {
                    interface I { void f(in long x); };
                };
            };
            "#,
        )
        .unwrap();
        assert_eq!(m.interfaces.len(), 1);
        assert_eq!(m.interfaces[0].name, "I");
        assert_eq!(m.interfaces[0].ops[0].params[0].ty, Type::I32);
    }

    #[test]
    fn all_scalar_types() {
        let m = parse(
            "s",
            r#"interface T {
                void f(in boolean a, in octet b, in short c, in unsigned short d,
                       in long e, in unsigned long g, in long long h,
                       in unsigned long long i, in double j, in Object k);
            };"#,
        )
        .unwrap();
        let tys: Vec<&Type> = m.interfaces[0].ops[0].params.iter().map(|p| &p.ty).collect();
        assert_eq!(
            tys,
            vec![
                &Type::Bool,
                &Type::Octet,
                &Type::I16,
                &Type::U16,
                &Type::I32,
                &Type::U32,
                &Type::I64,
                &Type::U64,
                &Type::F64,
                &Type::ObjRef,
            ]
        );
    }

    #[test]
    fn out_and_inout_directions() {
        let m =
            parse("d", "interface T { void f(in long a, out sequence<octet> b, inout long c); };")
                .unwrap();
        let dirs: Vec<ParamDir> = m.interfaces[0].ops[0].params.iter().map(|p| p.dir).collect();
        assert_eq!(dirs, vec![ParamDir::In, ParamDir::Out, ParamDir::InOut]);
    }

    #[test]
    fn missing_direction_reported_with_position() {
        let err = parse("bad", "interface T {\n  void f(long a);\n};").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("direction"));
    }

    #[test]
    fn missing_semicolon_reported() {
        let err = parse("bad", "interface T { void f(in long a) }").unwrap_err();
        assert!(err.msg.contains("`;`"));
    }

    #[test]
    fn diagnostics_point_at_the_offending_token() {
        let at = |src: &str| {
            let e = parse("bad", src).unwrap_err();
            (e.line, e.col, e.msg)
        };
        // `}` where `;` belongs: the `}` at column 42, not the `;` after it.
        let (line, col, msg) = at("interface F { void w(in unsigned long c) };");
        assert_eq!((line, col), (1, 42), "{msg}");
        assert!(msg.contains("expected `;`, found `}`"), "{msg}");
        // A number where the parameter name belongs.
        let (line, col, msg) = at("interface F { void w(in unsigned long 7); };");
        assert_eq!((line, col), (1, 39), "{msg}");
        assert!(msg.contains("expected parameter name, found number 7"), "{msg}");
        // A missing `;` is reported at the token that follows the gap.
        let (line, col, msg) = at(
            "interface F {\n    sequence<octet> read(in unsigned long count)\n    void write(in sequence<octet> data);\n};",
        );
        assert_eq!((line, col), (3, 5), "{msg}");
        assert!(msg.contains("expected `;`, found `void`"), "{msg}");
        // The offending token is the last one before end of input.
        let (line, col, msg) = at("interface F { } }");
        assert_eq!((line, col), (1, 17), "{msg}");
        assert!(msg.contains("expected `;`, found `}`"), "{msg}");
        // Input that simply stops is reported where it stops.
        let (line, col, msg) = at("interface F { }");
        assert_eq!((line, col), (1, 16), "{msg}");
        assert!(msg.contains("found end of input"), "{msg}");
    }

    #[test]
    fn fixtures_lex_like_the_owning_tokenizer() {
        for src in [
            "\ninterface FileIO {\n    sequence<octet> read(in unsigned long count);\n    void write(in sequence<octet> data);\n};\n",
            "interface SysLog { void write_msg(in string msg); };",
            KIT_IDL,
            "module A { module B { interface I { void f(in long x); }; }; };",
            "// A pipe-ish interface.\n#pragma prefix \"utah.edu\"\ninterface P { /* one op */ void f(in long x); };",
            "interface Feed {\n  oneway void notify(in string text);\n  [stream(32)] void write(in sequence<octet> data);\n};",
            "interface T { }; 42",
        ] {
            crate::lex::oracle::assert_lexes_alike(src);
        }
    }

    #[test]
    fn dangling_type_rejected_by_validation() {
        let err = parse("bad", "interface T { void f(in Mystery a); };").unwrap_err();
        assert!(err.msg.contains("unresolved"));
    }

    #[test]
    fn comments_and_preprocessor_tolerated() {
        let m = parse(
            "c",
            r#"
            // A pipe-ish interface.
            #pragma prefix "utah.edu"
            interface P { /* one op */ void f(in long x); };
            "#,
        )
        .unwrap();
        assert_eq!(m.interfaces[0].ops.len(), 1);
    }

    #[test]
    fn pretty_print_reparses_to_same_ir() {
        let m = parse(
            "round",
            r#"
            typedef sequence<octet> buf;
            struct S { unsigned long a; string b; };
            enum E { X, Y };
            interface I {
                buf get(in unsigned long n, out S meta);
                void put(in buf data, in E mode);
            };
            "#,
        )
        .unwrap();
        let printed = flexrpc_core::ir::pretty_print(&m);
        let reparsed = parse("round", &printed).unwrap();
        assert_eq!(m.typedefs, reparsed.typedefs);
        assert_eq!(m.interfaces, reparsed.interfaces);
    }

    #[test]
    fn annotated_operations_split_into_module_and_pdl() {
        let (m, pdl) = parse_annotated(
            "feed",
            r#"
            interface Feed {
                oneway void notify(in string text);
                [stream(32)] void write(in sequence<octet> data);
                sequence<octet> read(in unsigned long count);
            };
            "#,
        )
        .unwrap();
        assert_eq!(m.interfaces[0].ops.len(), 3, "module carries the full contract");
        assert_eq!(pdl.ops.len(), 2);
        assert_eq!(pdl.ops[0].op, "notify");
        assert_eq!(pdl.ops[0].op_attrs, vec![Attr::Oneway]);
        assert_eq!(pdl.ops[1].op, "write");
        assert_eq!(pdl.ops[1].op_attrs, vec![Attr::Stream(32)]);
        // The unannotated grammar produces an identical module.
        let plain = parse(
            "feed",
            r#"
            interface Feed {
                void notify(in string text);
                void write(in sequence<octet> data);
                sequence<octet> read(in unsigned long count);
            };
            "#,
        )
        .unwrap();
        assert_eq!(m.interfaces, plain.interfaces);
    }

    #[test]
    fn annotated_stream_errors_suggest_spelling() {
        let err = parse_annotated("bad", "interface F { [stream] void w(in sequence<octet> d); };")
            .unwrap_err();
        assert!(err.msg.contains("did you mean `[stream(N)]`"), "{}", err.msg);
    }

    #[test]
    fn plain_grammar_rejects_attr_blocks_and_oneway() {
        assert!(parse("p", "interface F { [oneway] void f(in long x); };").is_err());
        // `oneway` is only a keyword in annotated mode; plain mode sees an
        // unresolved type name.
        assert!(parse("p", "interface F { oneway void f(in long x); };").is_err());
    }

    #[test]
    fn empty_interface_ok() {
        let m = parse("e", "interface Nothing { };").unwrap();
        assert!(m.interfaces[0].ops.is_empty());
    }

    #[test]
    fn garbage_after_definitions_rejected() {
        let err = parse("g", "interface T { }; 42").unwrap_err();
        assert!(err.msg.contains("expected a definition"));
    }
}
