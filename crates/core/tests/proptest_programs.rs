//! Property tests over program compilation.
//!
//! The structural invariants behind cross-presentation interop: for random
//! operations and random presentation pairs, the wire layout of both sides'
//! programs must agree op-for-op — marshal and unmarshal programs are
//! mirror images, and the mirror is presentation-independent.

use flexrpc_core::annot::{apply_pdl, Attr, OpAnnot, ParamAnnot, PdlFile};
use flexrpc_core::ir::{Dialect, Interface, Module, Operation, Param, ParamDir, Type};
use flexrpc_core::present::{InterfacePresentation, Trust};
use flexrpc_core::program::{CompiledInterface, MOp};
use flexrpc_core::sig::{fnv1a, WireSignature};
use proptest::prelude::*;

mod canonical;

fn param_type() -> impl Strategy<Value = Type> {
    prop_oneof![
        Just(Type::U32),
        Just(Type::I64),
        Just(Type::Bool),
        Just(Type::F64),
        Just(Type::Str),
        Just(Type::octet_seq()),
        Just(Type::ObjRef),
        Just(Type::Array(Box::new(Type::Octet), 16)),
    ]
}

prop_compose! {
    fn operation()(
        params in prop::collection::vec((param_type(), 0u8..3), 0..6),
        ret in prop_oneof![Just(Type::Void), Just(Type::octet_seq()), Just(Type::U32)],
    ) -> Operation {
        let params = params
            .into_iter()
            .enumerate()
            .map(|(i, (t, d))| Param {
                name: format!("p{i}"),
                dir: match d { 0 => ParamDir::In, 1 => ParamDir::Out, _ => ParamDir::InOut },
                ty: t,
            })
            .collect();
        Operation::new("op", params, ret)
    }
}

/// The canonical wire shape of one marshal op: what it contributes to the
/// byte stream, independent of which slot or mode produced it.
fn wire_shape(op: &MOp) -> &'static str {
    match op {
        MOp::PutU32(_) | MOp::GetU32(_) => "u32",
        MOp::PutI32(_) | MOp::GetI32(_) => "i32",
        MOp::PutU64(_) | MOp::GetU64(_) => "u64",
        MOp::PutI64(_) | MOp::GetI64(_) => "i64",
        MOp::PutBool(_) | MOp::GetBool(_) => "bool",
        MOp::PutF64(_) | MOp::GetF64(_) => "f64",
        MOp::PutStr(_) | MOp::PutStrFromBytes(_) | MOp::GetStr(_) | MOp::GetStrAsBytes(_) => {
            "string"
        }
        MOp::PutBytes(_)
        | MOp::PutBytesSpecial { .. }
        | MOp::GetBytesOwned(_)
        | MOp::GetBytesBorrowed(_)
        | MOp::GetBytesInto(_)
        | MOp::GetBytesSpecial { .. } => "payload",
        MOp::PutBytesFixed(_, n) | MOp::GetBytesFixed(_, n) => {
            // Leak-free static str is impossible per n; bucket by parity of
            // existence: fixed fields always pair by construction, so the
            // generic tag is sufficient for shape equality.
            let _ = n;
            "fixed"
        }
        MOp::PutPort(_) | MOp::GetPort(_) => "port",
    }
}

/// Wire shapes, with server-side sink payloads re-inserted at the front of
/// the reply (where the sink writes them during Invoke).
fn reply_shapes(ci: &CompiledInterface, op_idx: usize, marshal_side: bool) -> Vec<&'static str> {
    let op = &ci.ops[op_idx];
    let mut shapes = Vec::new();
    if marshal_side {
        shapes.extend(op.sink_params.iter().map(|_| "payload"));
        shapes.extend(op.reply_marshal.ops.iter().map(wire_shape));
    } else {
        shapes.extend(op.reply_unmarshal.ops.iter().map(wire_shape));
    }
    shapes
}

fn random_pdl(op: &Operation, picks: &[u8]) -> PdlFile {
    let mut params = Vec::new();
    for (i, p) in op.params.iter().enumerate() {
        let pick = picks.get(i).copied().unwrap_or(0) % 6;
        let attr = match pick {
            1 if p.dir.is_in() && p.ty.is_payload() => Some(Attr::Trashable),
            2 if p.dir.is_in() && p.ty.is_payload() => Some(Attr::Borrowed),
            3 if p.dir.is_out() && p.ty.is_payload() => Some(Attr::DeallocNever),
            4 if p.dir.is_out() && p.ty.is_payload() => Some(Attr::AllocCaller),
            5 if p.dir.is_in() && p.ty.is_payload() => Some(Attr::Special),
            _ => None,
        };
        if let Some(a) = attr {
            params.push(ParamAnnot { param: p.name.clone(), attrs: vec![a] });
        }
    }
    PdlFile {
        interface: None,
        iface_attrs: vec![],
        types: vec![],
        ops: vec![OpAnnot { op: op.name.clone(), op_attrs: vec![], params }],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For any operation and any two (randomly annotated) presentations,
    /// the client's request marshal mirrors the server's request unmarshal
    /// and the server's reply marshal (sinks included) mirrors the client's
    /// reply unmarshal — shape for shape.
    #[test]
    fn programs_mirror_across_presentations(
        op in operation(),
        client_picks in prop::collection::vec(any::<u8>(), 6),
        server_picks in prop::collection::vec(any::<u8>(), 6),
    ) {
        let mut m = Module::new("prop", Dialect::Corba);
        m.interfaces.push(Interface::new("P", vec![op.clone()]));
        let iface = m.interface("P").unwrap();
        let base = InterfacePresentation::default_for(&m, iface).unwrap();

        let make = |picks: &[u8]| {
            let pdl = random_pdl(&op, picks);
            // Some annotations may be rejected (e.g. sink ordering); fall
            // back to the base presentation rather than discarding the case.
            apply_pdl(&m, iface, &base, &pdl).unwrap_or_else(|_| base.clone())
        };
        let cpres = make(&client_picks);
        let spres = make(&server_picks);

        let client = match CompiledInterface::compile(&m, iface, &cpres) {
            Ok(c) => c,
            Err(_) => return Ok(()), // e.g. sink-ordering restriction
        };
        let server = match CompiledInterface::compile(&m, iface, &spres) {
            Ok(c) => c,
            Err(_) => return Ok(()),
        };

        // Contract identical.
        prop_assert_eq!(client.signature.hash(), server.signature.hash());

        // Request: client puts == server gets, shape for shape.
        let c_req: Vec<_> = client.ops[0].request_marshal.ops.iter().map(wire_shape).collect();
        let s_req: Vec<_> = server.ops[0].request_unmarshal.ops.iter().map(wire_shape).collect();
        prop_assert_eq!(c_req, s_req);

        // Reply: server puts (sink-first) == client gets.
        let s_rep = reply_shapes(&server, 0, true);
        let c_rep = reply_shapes(&client, 0, false);
        prop_assert_eq!(s_rep, c_rep);

        // Payload-first layout invariant: within each program, no payload
        // shape appears after a non-payload shape (status excepted, which is
        // the trailing u32 of replies).
        let check_order = |shapes: &[&str]| {
            let mut seen_scalar = false;
            for s in shapes {
                match *s {
                    "payload" | "string" => {
                        if seen_scalar {
                            return false;
                        }
                    }
                    _ => seen_scalar = true,
                }
            }
            true
        };
        prop_assert!(check_order(&client.ops[0].request_marshal.ops.iter().map(wire_shape).collect::<Vec<_>>()));
    }

    /// A fingerprint is an identity for the structure: over generated
    /// pairs (one operation, two random annotations — often equal, often
    /// not), two presentations fingerprint equal exactly when they are
    /// equal, which is also exactly when the rendering the fingerprint
    /// used to hash agrees; and the value does not depend on the thread
    /// that computes it.
    #[test]
    fn fingerprints_agree_exactly_when_presentations_do(
        op in operation(),
        a_picks in prop::collection::vec(0u8..6, 6),
        b_picks in prop::collection::vec(0u8..6, 6),
        a_trust in 0u8..3,
        b_trust in 0u8..3,
    ) {
        let mut m = Module::new("prop", Dialect::Corba);
        m.interfaces.push(Interface::new("P", vec![op.clone()]));
        let iface = m.interface("P").unwrap();
        let base = InterfacePresentation::default_for(&m, iface).unwrap();
        let make = |picks: &[u8], trust: u8| {
            let pdl = random_pdl(&op, picks);
            let mut pres = apply_pdl(&m, iface, &base, &pdl).unwrap_or_else(|_| base.clone());
            pres.trust = [Trust::None, Trust::Leaky, Trust::LeakyUnprotected][usize::from(trust)];
            pres
        };
        let (a, b) = (make(&a_picks, a_trust), make(&b_picks, b_trust));
        let rendered = |p: &InterfacePresentation| fnv1a(format!("{p:?}").as_bytes());

        prop_assert_eq!(a == b, a.fingerprint() == b.fingerprint());
        prop_assert_eq!(a == b, rendered(&a) == rendered(&b));
        prop_assert_eq!(a.fingerprint(), a.clone().fingerprint());
        let (here, there) = std::thread::scope(|s| {
            let there = s.spawn(|| (a.fingerprint(), b.fingerprint()));
            ((a.fingerprint(), b.fingerprint()), there.join().unwrap())
        });
        prop_assert_eq!(here, there);
    }

    /// The signature `compile` carries is the hash of the interface's
    /// canonical form, streamed: over random interfaces of one to four
    /// operations it equals `fnv1a` of the string the oracle renders.
    #[test]
    fn the_streamed_signature_matches_its_oracle(
        ops in prop::collection::vec(operation(), 1..5),
    ) {
        let mut m = Module::new("prop", Dialect::Corba);
        let ops = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| Operation { name: format!("op{i}"), ..op })
            .collect();
        m.interfaces.push(Interface::new("P", ops));
        let iface = m.interface("P").unwrap();
        let oracle = fnv1a(canonical::canonical(&m, iface).as_bytes());
        prop_assert_eq!(WireSignature::of_interface(&m, iface).unwrap().hash(), oracle);
        let pres = InterfacePresentation::default_for(&m, iface).unwrap();
        if let Ok(ci) = CompiledInterface::compile(&m, iface, &pres) {
            prop_assert_eq!(ci.signature.hash(), oracle);
        }
    }

    /// Compiling is deterministic.
    #[test]
    fn compilation_deterministic(op in operation()) {
        let mut m = Module::new("prop", Dialect::Corba);
        m.interfaces.push(Interface::new("P", vec![op]));
        let iface = m.interface("P").unwrap();
        let pres = InterfacePresentation::default_for(&m, iface).unwrap();
        let a = CompiledInterface::compile(&m, iface, &pres);
        let b = CompiledInterface::compile(&m, iface, &pres);
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "one succeeded, one failed"),
        }
    }
}
