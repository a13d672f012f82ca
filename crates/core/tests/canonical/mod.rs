//! The oracle for `WireSignature`: the canonical string it hashes, built as
//! `of_interface` built it before it streamed the bytes into the hash
//! instead — kept verbatim, so `of_interface(..).hash()` must equal
//! `fnv1a(canonical(..))` on every interface. Shared by the tests that pin
//! the signature (`#[path]` from outside this crate).

use flexrpc_core::ir::{Interface, Module, Type, TypeBody};
use std::fmt::Write as _;

/// The canonical string of one interface in `module`.
pub fn canonical(module: &Module, iface: &Interface) -> String {
    let mut s = String::new();
    let _ = write!(s, "interface;ops={};", iface.ops.len());
    for op in &iface.ops {
        let _ = write!(s, "op:{}(", op.name);
        for p in &op.params {
            let _ = write!(s, "{}:", p.dir.keyword());
            canonical_type(module, &p.ty, &mut s);
            s.push(',');
        }
        let _ = write!(s, ")->");
        canonical_type(module, &op.ret, &mut s);
        s.push(';');
    }
    s
}

fn canonical_type(module: &Module, ty: &Type, out: &mut String) {
    let resolved = module.resolve(ty).expect("the oracle renders resolvable interfaces");
    match resolved {
        Type::Void => out.push_str("void"),
        Type::Bool => out.push_str("bool"),
        Type::Octet => out.push_str("u8"),
        Type::I16 => out.push_str("i16"),
        Type::U16 => out.push_str("u16"),
        Type::I32 => out.push_str("i32"),
        Type::U32 => out.push_str("u32"),
        Type::I64 => out.push_str("i64"),
        Type::U64 => out.push_str("u64"),
        Type::F64 => out.push_str("f64"),
        Type::Str => out.push_str("str"),
        Type::ObjRef => out.push_str("objref"),
        Type::Sequence(el) => {
            out.push_str("seq<");
            canonical_type(module, el, out);
            out.push('>');
        }
        Type::Array(el, n) => {
            let _ = write!(out, "arr{n}<");
            canonical_type(module, el, out);
            out.push('>');
        }
        Type::Named(name) => {
            let td = module.typedef(name).expect("resolve() checked existence");
            match &td.body {
                TypeBody::Alias(_) => unreachable!("resolve() strips aliases"),
                TypeBody::Struct(fields) => {
                    out.push_str("struct{");
                    for f in fields {
                        canonical_type(module, &f.ty, out);
                        out.push(',');
                    }
                    out.push('}');
                }
                TypeBody::Enum(items) => {
                    let _ = write!(out, "enum{}", items.len());
                }
                TypeBody::Union { arms, default } => {
                    out.push_str("union{");
                    for a in arms {
                        let _ = write!(out, "{}:", a.case);
                        canonical_type(module, &a.field.ty, out);
                        out.push(',');
                    }
                    if let Some(d) = default {
                        out.push_str("default:");
                        canonical_type(module, &d.ty, out);
                    }
                    out.push('}');
                }
            }
        }
    }
}
