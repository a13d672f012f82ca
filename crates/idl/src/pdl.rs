//! The presentation definition language (PDL) front-end.
//!
//! The syntax follows the paper's figures: C-prototype-flavored
//! re-declarations where presentation attributes appear in brackets, plus an
//! `interface` header for interface-level attributes. A PDL file never
//! declares new wire content — it parses to a
//! [`flexrpc_core::annot::PdlFile`], and `flexrpc-core` rejects anything
//! that would touch the network contract when the file is applied.
//!
//! Supported items:
//!
//! ```text
//! // Interface-level attributes (trust levels, nonunique):
//! interface FileIO [leaky, unprotected];
//!
//! // Operation re-declaration (Figure 1): leading attrs are op-level,
//! // bracketed attrs inside arguments are parameter-level, positional
//! // skips (`,,`) and unannotated C declarators are tolerated:
//! [comm_status] int nfsproc_read(, nfs_fh *file,
//!     unsigned offset, unsigned count, unsigned totalcount,
//!     [special] user_data *data, fattr *attributes, nfsstat *status);
//!
//! // Result attributes follow the return type:
//! sequence<octet> [dealloc(never)] FileIO_read(unsigned long count);
//!
//! // Type-level annotation, canonical form:
//! type sequence<octet> [dealloc(never)];
//!
//! // Type-level annotation, the C-struct form of Figure 5 (the
//! // `CORBA_SEQUENCE_<t>` naming shim recovers the IDL type):
//! typedef struct {
//!     unsigned long _maximum;
//!     unsigned long _length;
//!     [dealloc(never)] char *_buffer;
//! } CORBA_SEQUENCE_char;
//! ```

use crate::diag::ParseError;
use crate::lex::{Tok, TokStream};
use crate::Result;
use flexrpc_core::annot::{Attr, OpAnnot, ParamAnnot, PdlFile, TypeAnnot};
use flexrpc_core::ir::Type;

/// Parses PDL source into a [`PdlFile`].
pub fn parse(src: &str) -> Result<PdlFile> {
    let mut ts = TokStream::new(src)?;
    let mut file = PdlFile::default();
    while !ts.at_eof() {
        if ts.eat_kw("interface") {
            let name = ts.expect_ident("interface name")?;
            file.interface = Some(name.to_owned());
            if ts.peek() == Tok::Punct('[') {
                file.iface_attrs.extend(parse_attr_block(&mut ts)?);
            }
            ts.expect_punct(';')?;
        } else if ts.eat_kw("type") {
            let ty = crate::corba::parse_type(&mut ts)?;
            let attrs = parse_attr_block(&mut ts)?;
            ts.expect_punct(';')?;
            file.types.push(TypeAnnot { ty, attrs });
        } else if ts.eat_kw("typedef") {
            file.types.push(parse_typedef_annot(&mut ts)?);
        } else {
            file.ops.push(parse_op_decl(&mut ts)?);
        }
    }
    Ok(file)
}

/// Parses `[attr, attr, ...]`. Shared by every front-end that accepts
/// bracketed presentation attributes (`.x`, CORBA IDL, and MIG `.defs`
/// annotated variants reuse it, so all four grammars spell attributes —
/// and report attribute errors — identically).
pub(crate) fn parse_attr_block(ts: &mut TokStream<'_>) -> Result<Vec<Attr>> {
    ts.expect_punct('[')?;
    let mut attrs = Vec::new();
    loop {
        attrs.push(parse_attr(ts)?);
        if ts.eat_punct(']') {
            break;
        }
        ts.expect_punct(',')?;
    }
    Ok(attrs)
}

/// An attribute argument: identifiers (`alloc(caller)`) or numbers
/// (`stream(64)`).
enum AttrArg<'src> {
    Ident(&'src str),
    Num(u64),
}

impl AttrArg<'_> {
    fn describe(&self) -> String {
        match self {
            AttrArg::Ident(s) => (*s).to_owned(),
            AttrArg::Num(n) => n.to_string(),
        }
    }
}

fn parse_attr(ts: &mut TokStream<'_>) -> Result<Attr> {
    // The attribute name's own position anchors attribute-shape
    // diagnostics (by the time the error is detected the cursor sits past
    // the closing bracket).
    let (line, col) = ts.pos();
    let name = ts.expect_ident("attribute name")?;
    let arg = if ts.eat_punct('(') {
        let a = match ts.peek() {
            Tok::Ident(s) => AttrArg::Ident(s),
            Tok::Num(n) => AttrArg::Num(n),
            _ => return Err(ts.expected("attribute argument")),
        };
        ts.next();
        ts.expect_punct(')')?;
        Some(a)
    } else {
        None
    };
    let ident_arg = match arg {
        Some(AttrArg::Ident(s)) => Some(s),
        _ => None,
    };
    match (name, ident_arg) {
        ("special", None) if arg.is_none() => return Ok(Attr::Special),
        ("length_is", Some(p)) => return Ok(Attr::LengthIs(p.to_owned())),
        ("dealloc", Some("never")) => return Ok(Attr::DeallocNever),
        ("dealloc", Some("on_return")) => return Ok(Attr::DeallocOnReturn),
        ("trashable", None) if arg.is_none() => return Ok(Attr::Trashable),
        ("preserved", None) if arg.is_none() => return Ok(Attr::Preserved),
        ("borrowed", None) if arg.is_none() => return Ok(Attr::Borrowed),
        ("alloc", Some("caller")) => return Ok(Attr::AllocCaller),
        ("alloc", Some("stub")) => return Ok(Attr::AllocStub),
        ("comm_status", None) if arg.is_none() => return Ok(Attr::CommStatus),
        ("idempotent", None) if arg.is_none() => return Ok(Attr::Idempotent),
        ("nonunique", None) if arg.is_none() => return Ok(Attr::NonUnique),
        ("leaky", None) if arg.is_none() => return Ok(Attr::Leaky),
        ("unprotected", None) if arg.is_none() => return Ok(Attr::Unprotected),
        ("oneway", None) if arg.is_none() => return Ok(Attr::Oneway),
        _ => {}
    }
    if name == "stream" {
        // `[stream]` needs its window; every malformed variant points at
        // the attribute and suggests the correct spelling.
        return match arg {
            Some(AttrArg::Num(n)) if (1..=u64::from(u32::MAX)).contains(&n) => {
                Ok(Attr::Stream(n as u32))
            }
            Some(AttrArg::Num(n)) => Err(ParseError::suggest(
                format!("`[stream({n})]` window must be between 1 and {}", u32::MAX),
                "[stream(N)]",
                line,
                col,
            )),
            Some(AttrArg::Ident(a)) => Err(ParseError::suggest(
                format!("`[stream({a})]` window must be a number"),
                "[stream(N)]",
                line,
                col,
            )),
            None => Err(ParseError::suggest(
                "`[stream]` is missing its window",
                "[stream(N)]",
                line,
                col,
            )),
        };
    }
    Err(match arg {
        Some(a) => ParseError::at(
            format!("unknown presentation attribute `{name}({})`", a.describe()),
            line,
            col,
        ),
        None => ParseError::at(format!("unknown presentation attribute `{name}`"), line, col),
    })
}

/// Parses one C-prototype-style operation re-declaration.
fn parse_op_decl(ts: &mut TokStream<'_>) -> Result<OpAnnot> {
    let mut annot = OpAnnot::default();
    // Leading attribute block: operation-level.
    if ts.peek() == Tok::Punct('[') {
        annot.op_attrs = parse_attr_block(ts)?;
    }
    // Return-type tokens up to the op name (the identifier right before
    // `(`). An attribute block here annotates the result.
    let mut result_attrs: Vec<Attr> = Vec::new();
    let mut pending_ident: Option<&str> = None;
    loop {
        match ts.peek() {
            Tok::Punct('(') => break,
            Tok::Punct('[') => {
                result_attrs.extend(parse_attr_block(ts)?);
            }
            Tok::Punct('*') | Tok::Punct('<') | Tok::Punct('>') => {
                ts.next();
            }
            Tok::Ident(_) => {
                pending_ident = Some(ts.expect_ident("name")?);
            }
            other => {
                return Err(
                    ts.error(format!("expected operation declaration, found {}", other.describe()))
                )
            }
        }
    }
    let op_name =
        pending_ident.ok_or_else(|| ts.error("operation re-declaration is missing a name"))?;
    annot.op = op_name.to_owned();
    if !result_attrs.is_empty() {
        annot.params.push(ParamAnnot { param: "return".into(), attrs: result_attrs });
    }
    ts.expect_punct('(')?;
    if !ts.eat_punct(')') {
        loop {
            if let Some(pa) = parse_arg(ts)? {
                annot.params.push(pa);
            }
            if ts.eat_punct(')') {
                break;
            }
            ts.expect_punct(',')?;
        }
    }
    ts.expect_punct(';')?;
    Ok(annot)
}

/// Parses one argument of a re-declaration. Returns `None` for positional
/// skips (empty arguments) and for unannotated declarators, which exist only
/// to make the re-declared prototype readable.
fn parse_arg(ts: &mut TokStream<'_>) -> Result<Option<ParamAnnot>> {
    let mut attrs = Vec::new();
    let mut last_ident: Option<&str> = None;
    loop {
        match ts.peek() {
            Tok::Punct(',') | Tok::Punct(')') => break,
            Tok::Punct('[') => attrs.extend(parse_attr_block(ts)?),
            Tok::Punct('*') | Tok::Punct('<') | Tok::Punct('>') => {
                ts.next();
            }
            Tok::Ident(_) => last_ident = Some(ts.expect_ident("declarator")?),
            Tok::Num(_) => {
                ts.next();
            }
            other => {
                return Err(
                    ts.error(format!("unexpected {} in argument declaration", other.describe()))
                )
            }
        }
    }
    match (last_ident, attrs.is_empty()) {
        (None, true) => Ok(None), // Positional skip (`,,`).
        (None, false) => Err(ts.error("attributes on an argument with no name")),
        (Some(_), true) => Ok(None), // Unannotated declarator: prototype sugar.
        (Some(name), false) => Ok(Some(ParamAnnot { param: name.to_owned(), attrs })),
    }
}

/// Parses the Figure-5 `typedef struct { ... } NAME;` form, collecting field
/// attributes into one type-level annotation.
fn parse_typedef_annot(ts: &mut TokStream<'_>) -> Result<TypeAnnot> {
    ts.expect_kw("struct")?;
    ts.expect_punct('{')?;
    let mut attrs = Vec::new();
    while !ts.eat_punct('}') {
        // One field: optional attr block, declarator tokens, `;`.
        loop {
            match ts.peek() {
                Tok::Punct(';') => {
                    ts.next();
                    break;
                }
                Tok::Punct('[') => attrs.extend(parse_attr_block(ts)?),
                Tok::Ident(_) | Tok::Punct('*') => {
                    ts.next();
                }
                other => {
                    return Err(
                        ts.error(format!("unexpected {} in typedef field", other.describe()))
                    )
                }
            }
        }
    }
    let name = ts.expect_ident("typedef name")?;
    ts.expect_punct(';')?;
    if attrs.is_empty() {
        return Err(ts.error(format!(
            "typedef re-declaration of `{name}` carries no presentation attributes"
        )));
    }
    Ok(TypeAnnot { ty: type_from_c_name(name), attrs })
}

/// Recovers the IDL type a C presentation name refers to. The
/// `CORBA_SEQUENCE_<t>` convention is the CORBA C mapping's name for
/// `sequence<t>`; anything else is assumed to name an IDL type directly.
fn type_from_c_name(name: &str) -> Type {
    if let Some(el) = name.strip_prefix("CORBA_SEQUENCE_") {
        let inner = match el {
            "char" | "octet" => Type::Octet,
            "long" => Type::I32,
            other => Type::Named(other.to_owned()),
        };
        return Type::Sequence(Box::new(inner));
    }
    Type::Named(name.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig1_nfs_read() {
        let f = parse(
            r#"
            [comm_status] int nfsproc_read(, nfs_fh *file,
                unsigned offset, unsigned count, unsigned totalcount,
                [special] user_data *data, fattr *attributes, nfsstat *status);
            "#,
        )
        .unwrap();
        assert_eq!(f.ops.len(), 1);
        let op = &f.ops[0];
        assert_eq!(op.op, "nfsproc_read");
        assert_eq!(op.op_attrs, vec![Attr::CommStatus]);
        // Only the annotated parameter produces an annotation.
        assert_eq!(
            op.params,
            vec![ParamAnnot { param: "data".into(), attrs: vec![Attr::Special] }]
        );
    }

    #[test]
    fn idempotent_op_attr_parses() {
        let f = parse("[idempotent, comm_status] int FileIO_read(unsigned long count);").unwrap();
        assert_eq!(f.ops[0].op_attrs, vec![Attr::Idempotent, Attr::CommStatus]);
    }

    #[test]
    fn paper_fig5_typedef_form() {
        let f = parse(
            r#"
            typedef struct {
                unsigned long _maximum;
                unsigned long _length;
                [dealloc(never)] char *_buffer;
            } CORBA_SEQUENCE_char;
            "#,
        )
        .unwrap();
        assert_eq!(
            f.types,
            vec![TypeAnnot { ty: Type::octet_seq(), attrs: vec![Attr::DeallocNever] }]
        );
    }

    #[test]
    fn paper_fig8_trashable_client() {
        let f = parse("void FileIO_write(char *[trashable] data, unsigned long _length);").unwrap();
        assert_eq!(
            f.ops[0].params,
            vec![ParamAnnot { param: "data".into(), attrs: vec![Attr::Trashable] }]
        );
    }

    #[test]
    fn paper_fig9_preserved_server() {
        let f = parse("void FileIO_write(char *[preserved] data, unsigned long _length);").unwrap();
        assert_eq!(f.ops[0].params[0].attrs, vec![Attr::Preserved]);
    }

    #[test]
    fn syslog_length_is() {
        let f = parse("SysLog_write_msg(,, char *[length_is(length)] msg, int length);").unwrap();
        let op = &f.ops[0];
        assert_eq!(op.op, "SysLog_write_msg");
        assert_eq!(
            op.params,
            vec![ParamAnnot { param: "msg".into(), attrs: vec![Attr::LengthIs("length".into())] }]
        );
    }

    #[test]
    fn interface_header_with_trust() {
        let f = parse("interface FileIO [leaky, unprotected];").unwrap();
        assert_eq!(f.interface.as_deref(), Some("FileIO"));
        assert_eq!(f.iface_attrs, vec![Attr::Leaky, Attr::Unprotected]);
    }

    #[test]
    fn interface_header_plain() {
        let f = parse("interface FileIO;").unwrap();
        assert_eq!(f.interface.as_deref(), Some("FileIO"));
        assert!(f.iface_attrs.is_empty());
    }

    #[test]
    fn result_attrs_after_return_type() {
        let f =
            parse("sequence<octet> [dealloc(never)] FileIO_read(unsigned long count);").unwrap();
        let op = &f.ops[0];
        assert_eq!(op.op, "FileIO_read");
        assert_eq!(
            op.params,
            vec![ParamAnnot { param: "return".into(), attrs: vec![Attr::DeallocNever] }]
        );
    }

    #[test]
    fn canonical_type_form() {
        let f = parse("type sequence<octet> [dealloc(never), borrowed];").unwrap();
        assert_eq!(
            f.types,
            vec![TypeAnnot {
                ty: Type::octet_seq(),
                attrs: vec![Attr::DeallocNever, Attr::Borrowed]
            }]
        );
    }

    #[test]
    fn alloc_and_nonunique_attrs() {
        let f = parse(
            "void FileIO_read(unsigned long count, [alloc(caller)] char *data, [nonunique] Object who);",
        )
        .unwrap();
        assert_eq!(f.ops[0].params.len(), 2);
        assert_eq!(f.ops[0].params[0].attrs, vec![Attr::AllocCaller]);
        assert_eq!(f.ops[0].params[1].attrs, vec![Attr::NonUnique]);
    }

    #[test]
    fn unknown_attribute_reported() {
        let err = parse("void f([zero_copy] char *x);").unwrap_err();
        assert!(err.msg.contains("zero_copy"));
    }

    #[test]
    fn oneway_and_stream_op_attrs_parse() {
        let f = parse("[oneway] void Feed_notify(char *text);").unwrap();
        assert_eq!(f.ops[0].op_attrs, vec![Attr::Oneway]);
        let f = parse("[stream(64), idempotent] void File_write(char *data);").unwrap();
        assert_eq!(f.ops[0].op_attrs, vec![Attr::Stream(64), Attr::Idempotent]);
        // Hex windows work like every other numeric literal.
        let f = parse("[stream(0x20)] void File_write(char *data);").unwrap();
        assert_eq!(f.ops[0].op_attrs, vec![Attr::Stream(32)]);
    }

    #[test]
    fn stream_missing_window_suggests_spelling() {
        let err = parse("[stream] void File_write(char *data);").unwrap_err();
        assert!(err.msg.contains("missing its window"), "{}", err.msg);
        assert!(err.msg.contains("did you mean `[stream(N)]`"), "{}", err.msg);
        // The span points at the attribute itself, not the token after the
        // block ends.
        assert_eq!((err.line, err.col), (1, 2));
    }

    #[test]
    fn stream_malformed_window_suggests_spelling() {
        let err = parse("[stream(wide)] void File_write(char *data);").unwrap_err();
        assert!(err.msg.contains("must be a number"), "{}", err.msg);
        assert!(err.msg.contains("did you mean `[stream(N)]`"), "{}", err.msg);

        let err = parse("[stream(0)] void File_write(char *data);").unwrap_err();
        assert!(err.msg.contains("between 1 and"), "{}", err.msg);
        assert!(err.msg.contains("did you mean `[stream(N)]`"), "{}", err.msg);

        let err = parse("void f([stream] char *x);").unwrap_err();
        assert!(err.msg.contains("did you mean `[stream(N)]`"), "param position too: {}", err.msg);
        assert_eq!((err.line, err.col), (1, 9));
    }

    #[test]
    fn attr_arg_on_argless_attribute_rejected() {
        let err = parse("[oneway(3)] void f(char *x);").unwrap_err();
        assert!(err.msg.contains("oneway(3)"), "{}", err.msg);
        let err = parse("[special(7)] void f(char *x);").unwrap_err();
        assert!(err.msg.contains("special(7)"), "{}", err.msg);
    }

    #[test]
    fn diagnostics_point_at_the_offending_token() {
        let at = |src: &str| {
            let e = parse(src).unwrap_err();
            (e.line, e.col, e.msg)
        };
        // An attribute block that never closes: the stray declarator.
        let (line, col, msg) = at("void f(char *[trashable x);");
        assert_eq!((line, col), (1, 25), "{msg}");
        assert!(msg.contains("expected `,`, found `x`"), "{msg}");
        // A missing attribute argument is reported at what stands there.
        let (line, col, msg) = at("[dealloc()] void f(char *x);");
        assert_eq!((line, col), (1, 10), "{msg}");
        assert!(msg.contains("expected attribute argument, found `)`"), "{msg}");
        let (line, col, msg) = at("interface\n  7;");
        assert_eq!((line, col), (2, 3), "{msg}");
        assert!(msg.contains("expected interface name, found number 7"), "{msg}");
        // The offending token is the last one before end of input.
        let (line, col, msg) = at("void f(char *x) }");
        assert_eq!((line, col), (1, 17), "{msg}");
        assert!(msg.contains("expected `;`, found `}`"), "{msg}");
    }

    #[test]
    fn fixtures_lex_like_the_owning_tokenizer() {
        for src in [
            "[comm_status] sequence<octet> FileIO_read(unsigned long count);",
            "[idempotent] sequence<octet> FileIO_read(unsigned long count);",
            "[comm_status] int nfsproc_read(, nfs_fh *file,\n  unsigned offset, unsigned count, unsigned totalcount,\n  [special] user_data *data, fattr *attributes, nfsstat *status);",
            "typedef struct {\n  unsigned long _maximum;\n  unsigned long _length;\n  [dealloc(never)] char *_buffer;\n} CORBA_SEQUENCE_char;",
            "SysLog_write_msg(,, char *[length_is(length)] msg, int length);",
            "interface FileIO [leaky, unprotected];",
            "type sequence<octet> [dealloc(never), borrowed];",
            "[stream(0x20)] void File_write(char *data);",
            "// trust the unix server\ninterface Proc [leaky]; /* that's all */",
        ] {
            crate::lex::oracle::assert_lexes_alike(src);
        }
    }

    #[test]
    fn attrs_without_name_rejected() {
        let err = parse("void f([special]);").unwrap_err();
        assert!(err.msg.contains("no name"));
    }

    #[test]
    fn empty_typedef_annotation_rejected() {
        let err = parse("typedef struct { int x; } plain;").unwrap_err();
        assert!(err.msg.contains("no presentation attributes"));
    }

    #[test]
    fn multiple_items() {
        let f = parse(
            r#"
            interface FileIO [leaky];
            sequence<octet> [dealloc(never)] FileIO_read(unsigned long count);
            void FileIO_write(char *[preserved] data);
            "#,
        )
        .unwrap();
        assert_eq!(f.ops.len(), 2);
        assert_eq!(f.iface_attrs, vec![Attr::Leaky]);
    }

    #[test]
    fn c_name_shims() {
        assert_eq!(type_from_c_name("CORBA_SEQUENCE_char"), Type::octet_seq());
        assert_eq!(type_from_c_name("CORBA_SEQUENCE_octet"), Type::octet_seq());
        assert_eq!(type_from_c_name("CORBA_SEQUENCE_long"), Type::Sequence(Box::new(Type::I32)));
        assert_eq!(type_from_c_name("fattr"), Type::Named("fattr".into()));
    }

    #[test]
    fn comments_in_pdl() {
        let f =
            parse("// trust the unix server\ninterface Proc [leaky]; /* that's all */").unwrap();
        assert_eq!(f.iface_attrs, vec![Attr::Leaky]);
    }
}
