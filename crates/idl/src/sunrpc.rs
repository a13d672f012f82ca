//! Sun RPC / rpcgen `.x` front-end.
//!
//! Parses the XDR language subset that classic `.x` files (like the NFSv2
//! protocol definition) use: `const`, `typedef` with XDR declarators
//! (`opaque data<>`, `opaque fh[FHSIZE]`, `string name<MAXNAMLEN>`),
//! `struct`, `enum` (with explicit values), discriminated `union`, and
//! `program`/`version` blocks. Each `version` lowers to one [`Interface`]
//! carrying its program and version numbers.
//!
//! One documented extension beyond rpcgen: procedures may take several
//! *named* parameters, optionally marked `out`. Classic rpcgen forces a
//! single argument struct and a single result (often a union); the extension
//! lets interface authors express the same contract with directions, which
//! is what the flexible-presentation machinery annotates. Classic
//! single-unnamed-argument procedures still parse (the parameter is named
//! `arg0`).
//!
//! Enumerator values and constants are honored for array bounds and union
//! case labels; enums lower to the IR's ordinal representation.

use crate::lex::{Tok, TokStream};
use crate::Result;
use flexrpc_core::annot::{OpAnnot, PdlFile};
use flexrpc_core::ir::{
    Dialect, Field, Interface, Module, Operation, Param, ParamDir, Type, TypeBody, TypeDef,
    UnionArm,
};
use std::collections::HashMap;

/// Parses `.x` source into a validated [`Module`].
pub fn parse(name: &str, src: &str) -> Result<Module> {
    parse_impl(name, src, None)
}

/// Parses `.x` source that may carry bracketed presentation attributes
/// before procedure declarations (`[oneway] void POKE(...) = 3;`). The
/// attributes never reach the [`Module`] — they come back as a separate
/// [`PdlFile`], keeping the wire contract and its annotations in distinct
/// artifacts exactly as the paper's toolchain does.
pub fn parse_annotated(name: &str, src: &str) -> Result<(Module, PdlFile)> {
    let mut pdl = PdlFile::default();
    let module = parse_impl(name, src, Some(&mut pdl))?;
    Ok((module, pdl))
}

fn parse_impl(name: &str, src: &str, annots: Option<&mut PdlFile>) -> Result<Module> {
    let mut ts = TokStream::new(src)?;
    let mut p = Parser { consts: HashMap::new(), annots };
    let mut module = Module::new(name, Dialect::Sun);
    while !ts.at_eof() {
        p.parse_definition(&mut ts, &mut module)?;
    }
    flexrpc_core::validate::validate(&module)
        .map_err(|e| ts.error(format!("invalid module: {e}")))?;
    Ok(module)
}

struct Parser<'a, 'src> {
    /// `const` values and enumerators, for array bounds and case labels.
    consts: HashMap<&'src str, u64>,
    /// Where procedure attribute blocks land in annotated mode; `None`
    /// keeps the classic grammar, which rejects them.
    annots: Option<&'a mut PdlFile>,
}

/// An XDR declaration: a type specifier applied through a declarator.
struct Decl<'src> {
    name: Option<&'src str>,
    ty: Type,
}

impl<'src> Parser<'_, 'src> {
    fn parse_definition(&mut self, ts: &mut TokStream<'src>, module: &mut Module) -> Result<()> {
        if ts.eat_kw("const") {
            let name = ts.expect_ident("constant name")?;
            ts.expect_punct('=')?;
            let v = ts.expect_num()?;
            ts.expect_punct(';')?;
            self.consts.insert(name, v);
        } else if ts.eat_kw("typedef") {
            let decl = self.parse_declaration(ts)?;
            ts.expect_punct(';')?;
            let name = decl.name.ok_or_else(|| ts.error("typedef requires a name"))?;
            module.typedefs.push(TypeDef { name: name.to_owned(), body: TypeBody::Alias(decl.ty) });
        } else if ts.eat_kw("struct") {
            let td = self.parse_struct(ts)?;
            module.typedefs.push(td);
        } else if ts.eat_kw("enum") {
            let td = self.parse_enum(ts)?;
            module.typedefs.push(td);
        } else if ts.eat_kw("union") {
            let td = self.parse_union(ts)?;
            module.typedefs.push(td);
        } else if ts.eat_kw("program") {
            self.parse_program(ts, module)?;
        } else {
            return Err(ts.error(format!(
                "expected a definition (const/typedef/struct/enum/union/program), found {}",
                ts.peek().describe()
            )));
        }
        Ok(())
    }

    fn parse_struct(&mut self, ts: &mut TokStream<'src>) -> Result<TypeDef> {
        let name = ts.expect_ident("struct name")?;
        ts.expect_punct('{')?;
        let mut fields = Vec::new();
        while !ts.eat_punct('}') {
            let decl = self.parse_declaration(ts)?;
            ts.expect_punct(';')?;
            let fname = decl.name.ok_or_else(|| ts.error("struct field requires a name"))?;
            fields.push(Field { name: fname.to_owned(), ty: decl.ty });
        }
        ts.expect_punct(';')?;
        Ok(TypeDef { name: name.to_owned(), body: TypeBody::Struct(fields) })
    }

    fn parse_enum(&mut self, ts: &mut TokStream<'src>) -> Result<TypeDef> {
        let name = ts.expect_ident("enum name")?;
        ts.expect_punct('{')?;
        let mut items = Vec::new();
        loop {
            let item = ts.expect_ident("enumerator")?;
            let value = if ts.eat_punct('=') { ts.expect_num()? } else { items.len() as u64 };
            self.consts.insert(item, value);
            items.push(item.to_owned());
            if ts.eat_punct('}') {
                break;
            }
            ts.expect_punct(',')?;
            if ts.eat_punct('}') {
                break;
            }
        }
        ts.expect_punct(';')?;
        Ok(TypeDef { name: name.to_owned(), body: TypeBody::Enum(items) })
    }

    fn parse_union(&mut self, ts: &mut TokStream<'src>) -> Result<TypeDef> {
        let name = ts.expect_ident("union name")?;
        ts.expect_kw("switch")?;
        ts.expect_punct('(')?;
        let _discr = self.parse_declaration(ts)?;
        ts.expect_punct(')')?;
        ts.expect_punct('{')?;
        let mut arms = Vec::new();
        let mut default = None;
        while !ts.eat_punct('}') {
            if ts.eat_kw("case") {
                let case = self.parse_value(ts)?;
                ts.expect_punct(':')?;
                let decl = self.parse_declaration(ts)?;
                ts.expect_punct(';')?;
                let fname = decl.name.map_or_else(|| format!("arm{case}"), str::to_owned);
                arms.push(UnionArm {
                    case: case as u32,
                    field: Field { name: fname, ty: decl.ty },
                });
            } else if ts.eat_kw("default") {
                ts.expect_punct(':')?;
                let decl = self.parse_declaration(ts)?;
                ts.expect_punct(';')?;
                default =
                    Some(Field { name: decl.name.unwrap_or("default").to_owned(), ty: decl.ty });
            } else {
                return Err(ts.error(format!(
                    "expected `case` or `default`, found {}",
                    ts.peek().describe()
                )));
            }
        }
        ts.expect_punct(';')?;
        Ok(TypeDef { name: name.to_owned(), body: TypeBody::Union { arms, default } })
    }

    fn parse_program(&mut self, ts: &mut TokStream<'src>, module: &mut Module) -> Result<()> {
        let _prog_name = ts.expect_ident("program name")?;
        ts.expect_punct('{')?;
        let mut versions = Vec::new();
        while !ts.eat_punct('}') {
            ts.expect_kw("version")?;
            let vname = ts.expect_ident("version name")?;
            ts.expect_punct('{')?;
            let mut ops = Vec::new();
            while !ts.eat_punct('}') {
                ops.push(self.parse_proc(ts)?);
            }
            ts.expect_punct('=')?;
            let vnum = ts.expect_num()?;
            ts.expect_punct(';')?;
            versions.push((vname, vnum, ops));
        }
        ts.expect_punct('=')?;
        let prognum = ts.expect_num()?;
        ts.expect_punct(';')?;
        for (vname, vnum, ops) in versions {
            module.interfaces.push(Interface {
                name: vname.to_owned(),
                program: Some(prognum as u32),
                version: Some(vnum as u32),
                ops,
            });
        }
        Ok(())
    }

    fn parse_proc(&mut self, ts: &mut TokStream<'src>) -> Result<Operation> {
        // Annotated mode: a bracketed attribute block before the procedure
        // (shared grammar and diagnostics with the PDL front-end).
        let op_attrs = if self.annots.is_some() && ts.peek() == Tok::Punct('[') {
            crate::pdl::parse_attr_block(ts)?
        } else {
            Vec::new()
        };
        let ret = self.parse_type_specifier(ts)?;
        // Result declarators like `opaque res<>` are not rpcgen syntax; the
        // result is always a plain type specifier.
        let name = ts.expect_ident("procedure name")?;
        ts.expect_punct('(')?;
        let mut params = Vec::new();
        if !ts.eat_punct(')') {
            if ts.eat_kw("void") {
                ts.expect_punct(')')?;
            } else {
                let mut i = 0usize;
                loop {
                    let dir = if ts.eat_kw("out") { ParamDir::Out } else { ParamDir::In };
                    let decl = self.parse_declaration(ts)?;
                    params.push(Param {
                        name: decl.name.map_or_else(|| format!("arg{i}"), str::to_owned),
                        dir,
                        ty: decl.ty,
                    });
                    i += 1;
                    if ts.eat_punct(')') {
                        break;
                    }
                    ts.expect_punct(',')?;
                }
            }
        }
        ts.expect_punct('=')?;
        let opnum = ts.expect_num()?;
        ts.expect_punct(';')?;
        if !op_attrs.is_empty() {
            if let Some(pdl) = self.annots.as_deref_mut() {
                pdl.ops.push(OpAnnot { op: name.to_owned(), op_attrs, params: vec![] });
            }
        }
        Ok(Operation { name: name.to_owned(), opnum: Some(opnum as u32), params, ret })
    }

    /// Parses `type-specifier declarator?` — the XDR declaration form where
    /// the declarator can turn the base type into arrays/sequences.
    fn parse_declaration(&mut self, ts: &mut TokStream<'src>) -> Result<Decl<'src>> {
        // `opaque` and `string` only exist with a declarator.
        if ts.eat_kw("opaque") {
            let name = ts.expect_ident("declarator name")?;
            if ts.eat_punct('[') {
                let n = self.parse_value(ts)?;
                ts.expect_punct(']')?;
                return Ok(Decl {
                    name: Some(name),
                    ty: Type::Array(Box::new(Type::Octet), n as u32),
                });
            }
            ts.expect_punct('<')?;
            if !ts.eat_punct('>') {
                let _max = self.parse_value(ts)?;
                ts.expect_punct('>')?;
            }
            return Ok(Decl { name: Some(name), ty: Type::octet_seq() });
        }
        if ts.eat_kw("string") {
            let name = ts.expect_ident("declarator name")?;
            ts.expect_punct('<')?;
            if !ts.eat_punct('>') {
                let _max = self.parse_value(ts)?;
                ts.expect_punct('>')?;
            }
            return Ok(Decl { name: Some(name), ty: Type::Str });
        }
        let base = self.parse_type_specifier(ts)?;
        // Optional `*` (XDR optional-data) — treated as the base type; the
        // optionality is a presentation-era artifact of C linked lists.
        let _opt = ts.eat_punct('*');
        let name = match ts.peek() {
            Tok::Ident(_) => Some(ts.expect_ident("declarator name")?),
            _ => None,
        };
        if name.is_some() {
            if ts.eat_punct('[') {
                let v = self.parse_value(ts)?;
                ts.expect_punct(']')?;
                return Ok(Decl { name, ty: Type::Array(Box::new(base), v as u32) });
            }
            if ts.eat_punct('<') {
                if !ts.eat_punct('>') {
                    let _max = self.parse_value(ts)?;
                    ts.expect_punct('>')?;
                }
                return Ok(Decl { name, ty: Type::Sequence(Box::new(base)) });
            }
        }
        Ok(Decl { name, ty: base })
    }

    fn parse_type_specifier(&mut self, ts: &mut TokStream<'src>) -> Result<Type> {
        if ts.eat_kw("void") {
            return Ok(Type::Void);
        }
        if ts.eat_kw("bool") {
            return Ok(Type::Bool);
        }
        if ts.eat_kw("int") {
            return Ok(Type::I32);
        }
        if ts.eat_kw("hyper") {
            return Ok(Type::I64);
        }
        if ts.eat_kw("double") {
            return Ok(Type::F64);
        }
        if ts.eat_kw("unsigned") {
            if ts.eat_kw("int") {
                return Ok(Type::U32);
            }
            if ts.eat_kw("hyper") {
                return Ok(Type::U64);
            }
            // Bare `unsigned`.
            return Ok(Type::U32);
        }
        let name = ts.expect_ident("type name")?;
        Ok(Type::Named(name.to_owned()))
    }

    /// A numeric value: literal, constant, or enumerator.
    fn parse_value(&mut self, ts: &mut TokStream<'src>) -> Result<u64> {
        let value = match ts.peek() {
            Tok::Num(n) => n,
            Tok::Ident(name) => *self
                .consts
                .get(name)
                .ok_or_else(|| ts.error(format!("unknown constant `{name}`")))?,
            _ => return Err(ts.expected("value")),
        };
        ts.next();
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trimmed NFSv2 protocol file in classic rpcgen style.
    const NFS_X: &str = r#"
        const FHSIZE = 32;
        const MAXDATA = 8192;

        enum nfsstat {
            NFS_OK = 0,
            NFSERR_PERM = 1,
            NFSERR_IO = 5
        };

        typedef opaque nfs_fh[FHSIZE];

        struct fattr {
            unsigned int type;
            unsigned int mode;
            unsigned int size;
            unsigned int mtime;
        };

        struct readargs {
            nfs_fh file;
            unsigned int offset;
            unsigned int count;
            unsigned int totalcount;
        };

        union readres switch (nfsstat status) {
        case NFS_OK:
            opaque data<MAXDATA>;
        default:
            void;
        };

        program NFS_PROGRAM {
            version NFS_VERSION {
                void NFSPROC_NULL(void) = 0;
                readres NFSPROC_READ(readargs) = 6;
            } = 2;
        } = 100003;
    "#;

    #[test]
    fn nfs_protocol_parses() {
        let m = parse("nfs", NFS_X).unwrap();
        assert_eq!(m.dialect, Dialect::Sun);
        assert_eq!(m.typedefs.len(), 5);
        let iface = &m.interfaces[0];
        assert_eq!(iface.name, "NFS_VERSION");
        assert_eq!(iface.program, Some(100003));
        assert_eq!(iface.version, Some(2));
        assert_eq!(iface.ops.len(), 2);
        let read = iface.op("NFSPROC_READ").unwrap();
        assert_eq!(read.opnum, Some(6));
        assert_eq!(read.params[0].name, "arg0");
        assert_eq!(read.params[0].ty, Type::Named("readargs".into()));
        assert_eq!(read.ret, Type::Named("readres".into()));
    }

    #[test]
    fn fixed_opaque_uses_const() {
        let m = parse("nfs", NFS_X).unwrap();
        let td = m.typedef("nfs_fh").unwrap();
        assert_eq!(td.body, TypeBody::Alias(Type::Array(Box::new(Type::Octet), 32)));
    }

    #[test]
    fn union_arms_use_enumerator_values() {
        let m = parse("nfs", NFS_X).unwrap();
        let td = m.typedef("readres").unwrap();
        match &td.body {
            TypeBody::Union { arms, default } => {
                assert_eq!(arms.len(), 1);
                assert_eq!(arms[0].case, 0);
                assert_eq!(arms[0].field.ty, Type::octet_seq());
                assert!(default.is_some());
                assert_eq!(default.as_ref().unwrap().ty, Type::Void);
            }
            other => panic!("expected union, got {other:?}"),
        }
    }

    #[test]
    fn directional_extension() {
        let m = parse(
            "x",
            r#"
            typedef opaque buf<>;
            program P {
                version V {
                    void READ(unsigned int count, out buf data) = 1;
                } = 1;
            } = 200001;
            "#,
        )
        .unwrap();
        let op = m.interfaces[0].op("READ").unwrap();
        assert_eq!(op.params[0].dir, ParamDir::In);
        assert_eq!(op.params[0].name, "count");
        assert_eq!(op.params[1].dir, ParamDir::Out);
        assert_eq!(op.params[1].ty, Type::Named("buf".into()));
    }

    #[test]
    fn enum_default_numbering() {
        let m = parse("e", "enum color { RED, GREEN, BLUE = 7 };").unwrap();
        assert_eq!(
            m.typedef("color").unwrap().body,
            TypeBody::Enum(vec!["RED".into(), "GREEN".into(), "BLUE".into()])
        );
    }

    #[test]
    fn enumerators_usable_as_constants() {
        let m = parse(
            "c",
            r#"
            enum sizes { SMALL = 4, BIG = 16 };
            typedef opaque tiny[SMALL];
            "#,
        )
        .unwrap();
        assert_eq!(
            m.typedef("tiny").unwrap().body,
            TypeBody::Alias(Type::Array(Box::new(Type::Octet), 4))
        );
    }

    #[test]
    fn unknown_constant_reported() {
        let err = parse("bad", "typedef opaque x[NOPE];").unwrap_err();
        assert!(err.msg.contains("NOPE"));
    }

    #[test]
    fn diagnostics_point_at_the_offending_token() {
        let at = |src: &str| {
            let e = parse("bad", src).unwrap_err();
            (e.line, e.col, e.msg)
        };
        let (line, col, msg) = at("const X = ;");
        assert_eq!((line, col), (1, 11), "{msg}");
        assert!(msg.contains("expected number, found `;`"), "{msg}");
        let (line, col, msg) = at("const X 3;");
        assert_eq!((line, col), (1, 9), "{msg}");
        assert!(msg.contains("expected `=`, found number 3"), "{msg}");
        // An unknown constant is reported at the constant.
        let (line, col, msg) = at("const N = 4;\ntypedef opaque x[NOPE];");
        assert_eq!((line, col), (2, 18), "{msg}");
        assert!(msg.contains("unknown constant `NOPE`"), "{msg}");
        // The offending token is the last one before end of input.
        let (line, col, msg) = at("const X = 3 }");
        assert_eq!((line, col), (1, 13), "{msg}");
        assert!(msg.contains("expected `;`, found `}`"), "{msg}");
    }

    #[test]
    fn fixtures_lex_like_the_owning_tokenizer() {
        for src in [
            NFS_X,
            "#define X 1\n%#include <nfs.h>\nconst Y = 2;",
            "program P { version V { void NULLPROC(void) = 0; } = 1; } = 0x20000001;",
            "program P { version V { [stream(64), idempotent] void W(opaque d<>) = 1; } = 1; } = 1;",
            "struct entry {\n    unsigned int id;\n    int *next;\n};",
        ] {
            crate::lex::oracle::assert_lexes_alike(src);
        }
    }

    #[test]
    fn optional_pointer_declarator_tolerated() {
        // XDR optional data (`entry *nextentry`) parses as the base type.
        let m = parse(
            "o",
            r#"
            struct entry {
                unsigned int id;
                int *next;
            };
            "#,
        )
        .unwrap();
        match &m.typedef("entry").unwrap().body {
            TypeBody::Struct(fields) => assert_eq!(fields[1].ty, Type::I32),
            other => panic!("expected struct, got {other:?}"),
        }
    }

    #[test]
    fn multiple_versions_become_interfaces() {
        let m = parse(
            "v",
            r#"
            program P {
                version V1 { void NULL1(void) = 0; } = 1;
                version V2 { void NULL2(void) = 0; } = 2;
            } = 300000;
            "#,
        )
        .unwrap();
        assert_eq!(m.interfaces.len(), 2);
        assert_eq!(m.interfaces[0].version, Some(1));
        assert_eq!(m.interfaces[1].version, Some(2));
        assert_eq!(m.interfaces[1].program, Some(300000));
    }

    #[test]
    fn preprocessor_lines_skipped() {
        let m = parse("p", "#define X 1\n%#include <nfs.h>\nconst Y = 2;").unwrap();
        assert!(m.typedefs.is_empty());
    }

    #[test]
    fn hex_program_numbers() {
        let m =
            parse("h", "program P { version V { void NULLPROC(void) = 0; } = 1; } = 0x20000001;")
                .unwrap();
        assert_eq!(m.interfaces[0].program, Some(0x20000001));
    }

    #[test]
    fn annotated_procs_split_into_module_and_pdl() {
        use flexrpc_core::annot::Attr;
        let (m, pdl) = parse_annotated(
            "feed",
            r#"
            typedef opaque chunk<>;
            program FEED {
                version FEED_V1 {
                    [oneway] void FEED_NOTIFY(chunk text) = 1;
                    [stream(64), idempotent] void FEED_WRITE(chunk data) = 2;
                    void FEED_SYNC(void) = 3;
                } = 1;
            } = 400100;
            "#,
        )
        .unwrap();
        // The wire contract is identical to an unannotated parse.
        assert_eq!(m.interfaces[0].ops.len(), 3);
        assert_eq!(m.interfaces[0].op("FEED_NOTIFY").unwrap().ret, Type::Void);
        // Annotations come back separately, only for annotated procs.
        assert_eq!(pdl.ops.len(), 2);
        assert_eq!(pdl.ops[0].op, "FEED_NOTIFY");
        assert_eq!(pdl.ops[0].op_attrs, vec![Attr::Oneway]);
        assert_eq!(pdl.ops[1].op_attrs, vec![Attr::Stream(64), Attr::Idempotent]);
    }

    #[test]
    fn annotated_stream_missing_window_suggests() {
        let err = parse_annotated(
            "bad",
            "program P { version V { [stream] void W(unsigned int x) = 1; } = 1; } = 1;",
        )
        .unwrap_err();
        assert!(err.msg.contains("did you mean `[stream(N)]`"), "{}", err.msg);
    }

    #[test]
    fn classic_grammar_still_rejects_attr_blocks() {
        let err = parse("bad", "program P { version V { [oneway] void W(void) = 1; } = 1; } = 1;")
            .unwrap_err();
        assert!(err.msg.contains("expected"), "{}", err.msg);
    }

    #[test]
    fn string_with_bound() {
        let m = parse("s", "struct dir { string name<255>; };").unwrap();
        match &m.typedef("dir").unwrap().body {
            TypeBody::Struct(f) => assert_eq!(f[0].ty, Type::Str),
            other => panic!("expected struct, got {other:?}"),
        }
    }
}
