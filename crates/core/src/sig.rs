//! Wire signatures: the hash of the network contract's canonical form.
//!
//! At bind time, the paper's kernel "checks [the type signatures] against
//! each other \[and\] verifies that the interfaces are compatible". A
//! [`WireSignature`] is our canonicalization: a deterministic byte string
//! built from everything that affects bytes on the wire — operation count
//! and order, operation names, parameter directions, and *resolved* types —
//! and nothing that does not. The interface's own name, parameter names,
//! typedef names and presentation attributes are deliberately absent:
//! structure is contract, names are presentation. That is what makes "a
//! PDL file cannot change the contract" machine-checkable: the signature of
//! an interface is the same under every presentation.
//!
//! The canonical form, for reference (`crates/core/tests/canonical/mod.rs`
//! renders it, as the oracle the hash is tested against):
//! `interface;ops=N;` then per operation `op:NAME(` + `DIR:TYPE,` per
//! parameter + `)->TYPE;`. Only its 64-bit FNV-1a hash exists at run time —
//! hashed as the bytes are produced, with no string built — and it is what
//! endpoints exchange and compare, what the kernel IPC check carries and
//! what byte-identical traces record, so its value is pinned.

use crate::ir::{Interface, Module, Type, TypeBody};
use crate::Result;
use std::fmt;
use std::hash::Hasher;

/// A network contract, as the hash of its canonical form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSignature {
    hash: u64,
}

impl WireSignature {
    /// Computes the signature of one interface in `module`.
    ///
    /// Named types are resolved structurally, so two modules that spell the
    /// same structure through different typedef names produce the same
    /// signature — type names are presentation, structure is contract.
    pub fn of_interface(module: &Module, iface: &Interface) -> Result<WireSignature> {
        let mut h = Fnv1a::default();
        h.write_str("interface;ops=");
        h.write_decimal(iface.ops.len());
        h.write_str(";");
        for op in &iface.ops {
            h.write_str("op:");
            h.write_str(&op.name);
            h.write_str("(");
            for p in &op.params {
                h.write_str(p.dir.keyword());
                h.write_str(":");
                canonical_type(module, &p.ty, &mut h)?;
                h.write_str(",");
            }
            h.write_str(")->");
            canonical_type(module, &op.ret, &mut h)?;
            h.write_str(";");
        }
        Ok(WireSignature { hash: h.finish() })
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

/// Hashes the canonical form of `ty` into `h`.
fn canonical_type(module: &Module, ty: &Type, h: &mut Fnv1a) -> Result<()> {
    let resolved = module.resolve(ty)?;
    match resolved {
        Type::Void => h.write_str("void"),
        Type::Bool => h.write_str("bool"),
        Type::Octet => h.write_str("u8"),
        Type::I16 => h.write_str("i16"),
        Type::U16 => h.write_str("u16"),
        Type::I32 => h.write_str("i32"),
        Type::U32 => h.write_str("u32"),
        Type::I64 => h.write_str("i64"),
        Type::U64 => h.write_str("u64"),
        Type::F64 => h.write_str("f64"),
        Type::Str => h.write_str("str"),
        Type::ObjRef => h.write_str("objref"),
        Type::Sequence(el) => {
            h.write_str("seq<");
            canonical_type(module, el, h)?;
            h.write_str(">");
        }
        Type::Array(el, n) => {
            h.write_str("arr");
            h.write_decimal(*n as usize);
            h.write_str("<");
            canonical_type(module, el, h)?;
            h.write_str(">");
        }
        Type::Named(name) => {
            // `resolve` only returns Named for non-alias bodies.
            let td = module.typedef(name).expect("resolve() checked existence");
            match &td.body {
                TypeBody::Alias(_) => unreachable!("resolve() strips aliases"),
                TypeBody::Struct(fields) => {
                    h.write_str("struct{");
                    for f in fields {
                        canonical_type(module, &f.ty, h)?;
                        h.write_str(",");
                    }
                    h.write_str("}");
                }
                TypeBody::Enum(items) => {
                    // Enumerator *names* are local; only the count shapes
                    // the contract (wire form is a u32 ordinal).
                    h.write_str("enum");
                    h.write_decimal(items.len());
                }
                TypeBody::Union { arms, default } => {
                    h.write_str("union{");
                    for a in arms {
                        h.write_decimal(a.case as usize);
                        h.write_str(":");
                        canonical_type(module, &a.field.ty, h)?;
                        h.write_str(",");
                    }
                    if let Some(d) = default {
                        h.write_str("default:");
                        canonical_type(module, &d.ty, h)?;
                    }
                    h.write_str("}");
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

impl Fnv1a {
    /// Hashes `s`'s bytes.
    #[inline]
    fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
    }

    /// Hashes `n` as the decimal digits the canonical form spells.
    fn write_decimal(&mut self, mut n: usize) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.write(&digits[at..]);
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
    fn signature_ignores_interface_name() {
        // The canonical form opens `interface;`, never the name: two
        // services of one structure under different names are one contract.
        let m1 = fileio_example();
        let mut m2 = fileio_example();
        m2.interfaces[0].name = "Files".into();
        assert_eq!(sig(&m1, "FileIO").hash(), sig(&m2, "Files").hash());
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
        // The struct is its fields' types, in order; no name survives.
        let canonical = "interface;ops=1;op:getattr(out:struct{u32,u32,},)->void;";
        assert_eq!(sig(&m, "S").hash(), fnv1a(canonical.as_bytes()));
    }

    #[test]
    fn numbers_in_the_canonical_form_are_decimal() {
        // Array lengths, enum sizes and union cases are spelled in decimal
        // digits, several of them here.
        let mut m = Module::new("t", Dialect::Sun);
        let items = (0..12).map(|i| format!("E{i}")).collect();
        m.typedefs.push(TypeDef { name: "e".into(), body: TypeBody::Enum(items) });
        let arm = |case, ty| crate::ir::UnionArm { case, field: Field { name: "v".into(), ty } };
        m.typedefs.push(TypeDef {
            name: "u".into(),
            body: TypeBody::Union {
                arms: vec![arm(0, Type::Void), arm(4096, Type::U32)],
                default: Some(Field { name: "d".into(), ty: Type::Named("e".into()) }),
            },
        });
        let arr = Type::Array(Box::new(Type::Octet), 1000);
        m.interfaces.push(Interface::new(
            "S",
            vec![Operation::new(
                "op",
                vec![Param::new("a", ParamDir::In, arr)],
                Type::Named("u".into()),
            )],
        ));
        let canonical =
            "interface;ops=1;op:op(in:arr1000<u8>,)->union{0:void,4096:u32,default:enum12};";
        assert_eq!(sig(&m, "S").hash(), fnv1a(canonical.as_bytes()));
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
