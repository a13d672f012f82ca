//! Wire signatures: the canonical form of the network contract.
//!
//! At bind time, the paper's kernel "checks [the type signatures] against
//! each other \[and\] verifies that the interfaces are compatible". A
//! [`WireSignature`] is our canonicalization: a deterministic string built
//! from everything that affects bytes on the wire — interface name,
//! operation order, parameter directions, and *resolved* types — and nothing
//! that does not. Presentation attributes are deliberately absent, which is
//! what makes "a PDL file cannot change the contract" machine-checkable: the
//! signature of an interface is the same under every presentation.
//!
//! The 64-bit hash (FNV-1a) is what endpoints actually exchange and compare.

use crate::ir::{Interface, Module, Type, TypeBody};
use crate::Result;
use std::fmt;
use std::fmt::Write as _;
use std::hash::Hasher;

/// A canonicalized network contract with its exchangeable hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSignature {
    canonical: String,
    hash: u64,
}

impl WireSignature {
    /// Computes the signature of one interface in `module`.
    ///
    /// Named types are resolved structurally, so two modules that spell the
    /// same structure through different typedef names produce the same
    /// signature — type names are presentation, structure is contract.
    pub fn of_interface(module: &Module, iface: &Interface) -> Result<WireSignature> {
        // Sized for scalar and payload parameters (`inout:seq<u8>,` is
        // the longest such field); struct-heavy contracts grow it.
        let estimate: usize =
            iface.ops.iter().map(|op| op.name.len() + 16 * (op.params.len() + 2)).sum();
        let mut s = String::with_capacity(24 + estimate);
        let _ = write!(s, "interface;ops={};", iface.ops.len());
        for op in &iface.ops {
            let _ = write!(s, "op:{}(", op.name);
            for p in &op.params {
                let _ = write!(s, "{}:", p.dir.keyword());
                canonical_type(module, &p.ty, &mut s)?;
                s.push(',');
            }
            let _ = write!(s, ")->");
            canonical_type(module, &op.ret, &mut s)?;
            s.push(';');
        }
        let hash = fnv1a(s.as_bytes());
        Ok(WireSignature { canonical: s, hash })
    }

    /// The canonical string (diagnostics; the hash is what travels).
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// The 64-bit hash exchanged at bind time.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The *combination* signature of one negotiated binding: the wire
    /// contract plus both endpoints' presentation fingerprints. Two
    /// bindings with equal combination signatures compiled identical stub
    /// programs, so a failover rebind whose combination signature matches
    /// a cached one can reuse the compilation outright — rebinding is
    /// cheap because this value is cheap to compare.
    pub fn combination(&self, client_fingerprint: u64, server_fingerprint: u64) -> u64 {
        let mut bytes = [0u8; 24];
        bytes[..8].copy_from_slice(&self.hash.to_le_bytes());
        bytes[8..16].copy_from_slice(&client_fingerprint.to_le_bytes());
        bytes[16..].copy_from_slice(&server_fingerprint.to_le_bytes());
        fnv1a(&bytes)
    }
}

impl fmt::Display for WireSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.hash)
    }
}

fn canonical_type(module: &Module, ty: &Type, out: &mut String) -> Result<()> {
    let resolved = module.resolve(ty)?;
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
            canonical_type(module, el, out)?;
            out.push('>');
        }
        Type::Array(el, n) => {
            let _ = write!(out, "arr{n}<");
            canonical_type(module, el, out)?;
            out.push('>');
        }
        Type::Named(name) => {
            // `resolve` only returns Named for non-alias bodies.
            let td = module.typedef(name).expect("resolve() checked existence");
            match &td.body {
                TypeBody::Alias(_) => unreachable!("resolve() strips aliases"),
                TypeBody::Struct(fields) => {
                    out.push_str("struct{");
                    for f in fields {
                        canonical_type(module, &f.ty, out)?;
                        out.push(',');
                    }
                    out.push('}');
                }
                TypeBody::Enum(items) => {
                    // Enumerator *names* are local; only the count shapes
                    // the contract (wire form is a u32 ordinal).
                    let _ = write!(out, "enum{}", items.len());
                }
                TypeBody::Union { arms, default } => {
                    out.push_str("union{");
                    for a in arms {
                        let _ = write!(out, "{}:", a.case);
                        canonical_type(module, &a.field.ty, out)?;
                        out.push(',');
                    }
                    if let Some(d) = default {
                        out.push_str("default:");
                        canonical_type(module, &d.ty, out)?;
                    }
                    out.push('}');
                }
            }
        }
    }
    Ok(())
}

/// FNV-1a over bytes — stable across runs and platforms, no dependencies.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(data);
    h.finish()
}

/// FNV-1a as a [`Hasher`], so a derived [`std::hash::Hash`] can be folded
/// through the same fixed function [`fnv1a`] applies to a byte string —
/// never `RandomState`, whose per-process keys would make two hashes of
/// one structure disagree.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf29ce484222325)
    }
}

impl Hasher for Fnv1a {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{fileio_example, Dialect, Field, Module, Param, ParamDir, TypeDef};

    #[test]
    fn combination_signature_separates_presentations_not_contracts() {
        let m = fileio_example();
        let iface = &m.interfaces[0];
        let sig = WireSignature::of_interface(&m, iface).unwrap();
        // Same contract, same endpoint fingerprints → same combination.
        assert_eq!(sig.combination(1, 2), sig.combination(1, 2));
        // Either endpoint re-presenting changes the combination...
        assert_ne!(sig.combination(1, 2), sig.combination(3, 2));
        assert_ne!(sig.combination(1, 2), sig.combination(1, 3));
        // ...and the two sides are not interchangeable.
        assert_ne!(sig.combination(1, 2), sig.combination(2, 1));
    }
    use crate::ir::{Interface, Operation};

    fn sig(m: &Module, iface: &str) -> WireSignature {
        WireSignature::of_interface(m, m.interface(iface).unwrap()).unwrap()
    }

    #[test]
    fn signature_is_deterministic() {
        let m = fileio_example();
        assert_eq!(sig(&m, "FileIO"), sig(&m, "FileIO"));
    }

    #[test]
    fn signature_ignores_type_names() {
        // Same structure through a typedef → same signature.
        let m1 = fileio_example();
        let mut m2 = Module::new("fileio2", Dialect::Corba);
        m2.typedefs
            .push(TypeDef { name: "buffer".into(), body: TypeBody::Alias(Type::octet_seq()) });
        m2.interfaces.push(Interface::new(
            "FileIO",
            vec![
                Operation::new(
                    "read",
                    vec![Param::new("count", ParamDir::In, Type::U32)],
                    Type::Named("buffer".into()),
                ),
                Operation::new(
                    "write",
                    vec![Param::new("data", ParamDir::In, Type::Named("buffer".into()))],
                    Type::Void,
                ),
            ],
        ));
        assert_eq!(sig(&m1, "FileIO").hash(), sig(&m2, "FileIO").hash());
    }

    #[test]
    fn signature_sensitive_to_types() {
        let m1 = fileio_example();
        let mut m2 = fileio_example();
        m2.interfaces[0].ops[0].params[0].ty = Type::U64;
        assert_ne!(sig(&m1, "FileIO").hash(), sig(&m2, "FileIO").hash());
    }

    #[test]
    fn signature_sensitive_to_direction() {
        let m1 = fileio_example();
        let mut m2 = fileio_example();
        m2.interfaces[0].ops[0].params[0].dir = ParamDir::InOut;
        assert_ne!(sig(&m1, "FileIO").hash(), sig(&m2, "FileIO").hash());
    }

    #[test]
    fn signature_sensitive_to_operation_set() {
        let m1 = fileio_example();
        let mut m2 = fileio_example();
        m2.interfaces[0].ops.pop();
        assert_ne!(sig(&m1, "FileIO").hash(), sig(&m2, "FileIO").hash());
    }

    #[test]
    fn signature_insensitive_to_param_names() {
        // Local parameter names are presentation, not contract.
        let m1 = fileio_example();
        let mut m2 = fileio_example();
        m2.interfaces[0].ops[0].params[0].name = "nbytes".into();
        assert_eq!(sig(&m1, "FileIO").hash(), sig(&m2, "FileIO").hash());
    }

    #[test]
    fn struct_signature_is_structural() {
        let mut m = Module::new("t", Dialect::Sun);
        m.typedefs.push(TypeDef {
            name: "fattr".into(),
            body: TypeBody::Struct(vec![
                Field { name: "size".into(), ty: Type::U32 },
                Field { name: "mtime".into(), ty: Type::U32 },
            ]),
        });
        m.interfaces.push(Interface::new(
            "S",
            vec![Operation::new(
                "getattr",
                vec![Param::new("a", ParamDir::Out, Type::Named("fattr".into()))],
                Type::Void,
            )],
        ));
        let s = sig(&m, "S");
        assert!(s.canonical().contains("struct{u32,u32,}"));
    }

    #[test]
    fn display_shows_hash() {
        let m = fileio_example();
        let s = sig(&m, "FileIO");
        assert!(format!("{s}").starts_with("0x"));
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a("") is the offset basis; FNV-1a("a") is a published vector.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }
}
