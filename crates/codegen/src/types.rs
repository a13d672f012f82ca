//! Emission of Rust type definitions for a module's named types.

use crate::camel;
use flexrpc_core::ir::{Module, Type, TypeBody};
use flexrpc_core::{CoreError, Result};
use std::fmt::Write as _;

/// The Rust spelling of an IDL type in generated signatures.
pub(crate) fn rust_type(module: &Module, ty: &Type) -> Result<String> {
    Ok(match ty {
        Type::Void => "()".into(),
        Type::Bool => "bool".into(),
        Type::Octet => "u8".into(),
        Type::I16 => "i16".into(),
        Type::U16 => "u16".into(),
        Type::I32 => "i32".into(),
        Type::U32 => "u32".into(),
        Type::I64 => "i64".into(),
        Type::U64 => "u64".into(),
        Type::F64 => "f64".into(),
        Type::Str => "String".into(),
        Type::ObjRef => "u32 /* port name */".into(),
        Type::Sequence(el) if **el == Type::Octet => "Vec<u8>".into(),
        Type::Array(el, n) if **el == Type::Octet => format!("[u8; {n}]"),
        Type::Named(name) => {
            let td = module
                .typedef(name)
                .ok_or_else(|| CoreError::Unresolved { kind: "type", name: name.clone() })?;
            match &td.body {
                TypeBody::Alias(inner) => rust_type(module, inner)?,
                _ => camel(name),
            }
        }
        other => {
            return Err(CoreError::Unsupported(format!(
                "no Rust mapping for `{other}` in generated signatures"
            )))
        }
    })
}

/// Emits struct/enum definitions for the module's non-alias named types.
pub(crate) fn emit_types(module: &Module) -> Result<String> {
    let mut out = String::new();
    for td in &module.typedefs {
        match &td.body {
            TypeBody::Alias(_) => {} // Aliases vanish into their targets.
            TypeBody::Struct(fields) => {
                let _ = writeln!(out, "/// IDL struct `{}`.", td.name);
                let _ = writeln!(out, "#[derive(Debug, Clone, Default, PartialEq)]");
                let _ = writeln!(out, "pub struct {} {{", camel(&td.name));
                for f in fields {
                    let _ = writeln!(
                        out,
                        "    pub {}: {},",
                        crate::snake(&f.name),
                        rust_type(module, &f.ty)?
                    );
                }
                let _ = writeln!(out, "}}\n");
            }
            TypeBody::Enum(items) => {
                let _ = writeln!(out, "/// IDL enum `{}` (wire form: u32 ordinal).", td.name);
                let _ = writeln!(out, "#[derive(Debug, Clone, Copy, PartialEq, Eq)]");
                let _ = writeln!(out, "#[repr(u32)]");
                let _ = writeln!(out, "pub enum {} {{", camel(&td.name));
                for (i, item) in items.iter().enumerate() {
                    let _ = writeln!(out, "    {} = {},", camel(item), i);
                }
                let _ = writeln!(out, "}}\n");
                emit_from_ordinal(&mut out, &camel(&td.name), items);
            }
            TypeBody::Union { .. } => {
                return Err(CoreError::Unsupported(format!(
                    "union `{}`: model it as status + out params instead",
                    td.name
                )))
            }
        }
    }
    Ok(out)
}

/// Emits the enum's checked decode. Ordinals arrive from the peer, so one
/// outside the declared items must come back as a decode error: generated
/// stubs never reinterpret wire bytes as an enum.
fn emit_from_ordinal(out: &mut String, name: &str, items: &[String]) {
    let _ = writeln!(out, "impl {name} {{");
    let _ = writeln!(out, "    /// The item with this wire ordinal; an undeclared ordinal is a");
    let _ = writeln!(out, "    /// decode error (`MarshalError::BadDiscriminant`).");
    let _ = writeln!(
        out,
        "    pub fn from_ordinal(ordinal: u32) -> Result<Self, flexrpc_runtime::MarshalError> {{"
    );
    let _ = writeln!(out, "        match ordinal {{");
    for (i, item) in items.iter().enumerate() {
        let _ = writeln!(out, "            {i} => Ok(Self::{}),", camel(item));
    }
    let _ = writeln!(
        out,
        "            other => Err(flexrpc_runtime::MarshalError::BadDiscriminant(other)),"
    );
    let _ = writeln!(out, "        }}");
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "}}\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexrpc_core::ir::{Dialect, Field, TypeDef};

    #[test]
    fn scalar_mappings() {
        let m = Module::new("t", Dialect::Corba);
        assert_eq!(rust_type(&m, &Type::U32).unwrap(), "u32");
        assert_eq!(rust_type(&m, &Type::Str).unwrap(), "String");
        assert_eq!(rust_type(&m, &Type::octet_seq()).unwrap(), "Vec<u8>");
        assert_eq!(rust_type(&m, &Type::Array(Box::new(Type::Octet), 32)).unwrap(), "[u8; 32]");
    }

    #[test]
    fn struct_and_enum_emission() {
        let mut m = Module::new("t", Dialect::Sun);
        m.typedefs.push(TypeDef {
            name: "fattr".into(),
            body: TypeBody::Struct(vec![
                Field { name: "size".into(), ty: Type::U32 },
                Field { name: "mtime".into(), ty: Type::U64 },
            ]),
        });
        m.typedefs.push(TypeDef {
            name: "nfsstat".into(),
            body: TypeBody::Enum(vec!["NFS_OK".into(), "NFSERR_IO".into()]),
        });
        let s = emit_types(&m).unwrap();
        assert!(s.contains("pub struct Fattr {"));
        assert!(s.contains("pub size: u32,"));
        assert!(s.contains("pub enum Nfsstat {"));
        assert!(s.contains("NfsOk = 0,"));
        assert!(s.contains("pub fn from_ordinal(ordinal: u32)"));
        assert!(s.contains("1 => Ok(Self::NfserrIo),"));
        assert!(s.contains("other => Err(flexrpc_runtime::MarshalError::BadDiscriminant(other)"));
    }

    #[test]
    fn alias_resolution_in_signatures() {
        let mut m = Module::new("t", Dialect::Sun);
        m.typedefs.push(TypeDef {
            name: "nfs_fh".into(),
            body: TypeBody::Alias(Type::Array(Box::new(Type::Octet), 32)),
        });
        assert_eq!(rust_type(&m, &Type::Named("nfs_fh".into())).unwrap(), "[u8; 32]");
    }

    #[test]
    fn union_rejected() {
        let mut m = Module::new("t", Dialect::Sun);
        m.typedefs.push(TypeDef {
            name: "u".into(),
            body: TypeBody::Union { arms: vec![], default: None },
        });
        assert!(matches!(emit_types(&m), Err(CoreError::Unsupported(_))));
    }
}
