//! Proof that emitted stubs are real code: a committed generated file is
//! compiled into this test and driven against a live server.
//!
//! `tests/generated/fileio_dealloc_never.rs` was produced by
//! `flexrpc-codegen` for the `FileIO` interface under the paper's Figure 5
//! presentation (`dealloc(never)` on the read reply); a freshness test
//! regenerates it and compares, so the committed artifact can never drift
//! from the generator.

use flexrpc::core::annot::apply_pdl;
use flexrpc::core::present::InterfacePresentation;
use flexrpc::core::program::CompiledInterface;
use flexrpc::marshal::WireFormat;
use flexrpc::runtime::transport::Loopback;
use flexrpc::runtime::{ClientStub, ReplySink, ServerInterface};
use parking_lot::Mutex;
use std::sync::Arc;

include!("generated/fileio_dealloc_never.rs");

/// A tiny ring-buffer pipe implementing the generated sink-mode trait.
struct MiniPipe {
    data: Vec<u8>,
}

impl FileIoServer for MiniPipe {
    fn read(&mut self, count: u32, sink: &mut ReplySink<'_>) -> Result<(), u32> {
        let n = (count as usize).min(self.data.len());
        // dealloc(never): marshal straight out of our own storage.
        sink.put(&self.data[..n]).map_err(|_| 5u32)?;
        self.data.drain(..n);
        Ok(())
    }

    fn write(&mut self, data: &[u8]) -> Result<(), u32> {
        self.data.extend_from_slice(data);
        Ok(())
    }
}

fn build() -> (ClientStub, Arc<Mutex<ServerInterface>>) {
    let module = flexrpc::pipes::fileio_module();
    let iface = module.interface("FileIO").expect("FileIO");
    let base = InterfacePresentation::default_for(&module, iface).expect("defaults");
    let pdl = flexrpc::idl::pdl::parse(flexrpc::pipes::DEALLOC_NEVER_PDL).expect("parses");
    let pres = apply_pdl(&module, iface, &base, &pdl).expect("applies");

    let compiled = CompiledInterface::compile(&module, iface, &pres).expect("compiles");
    let mut srv = ServerInterface::new(compiled, WireFormat::Cdr);
    register_file_io(&mut srv, MiniPipe { data: Vec::new() }).expect("registers");
    let server = Arc::new(Mutex::new(srv));

    let client_compiled =
        CompiledInterface::compile(&module, iface, &base).expect("client compiles");
    let client = ClientStub::new(
        client_compiled,
        WireFormat::Cdr,
        Box::new(Loopback::new(Arc::clone(&server))),
    );
    (client, server)
}

#[test]
fn generated_stubs_roundtrip() {
    let (client, _server) = build();
    let mut c = FileIoClient::new(client);
    c.write(b"generated code is real code").expect("write");
    let got = c.read(14).expect("read");
    assert_eq!(got, b"generated code");
    let got = c.read(100).expect("read rest");
    assert_eq!(got, b" is real code");
}

#[test]
fn generated_file_is_fresh() {
    let module = flexrpc::pipes::fileio_module();
    let iface = module.interface("FileIO").expect("FileIO");
    let base = InterfacePresentation::default_for(&module, iface).expect("defaults");
    let pdl = flexrpc::idl::pdl::parse(flexrpc::pipes::DEALLOC_NEVER_PDL).expect("parses");
    let pres = apply_pdl(&module, iface, &base, &pdl).expect("applies");
    let code =
        flexrpc::codegen::generate(&module, iface, &pres, &flexrpc::codegen::GenOptions::both())
            .expect("generates");
    let committed = include_str!("generated/fileio_dealloc_never.rs");
    assert_eq!(
        code, committed,
        "regenerate tests/generated/fileio_dealloc_never.rs (the emitter changed)"
    );
}

/// `tests/generated/paint_enum.rs`: a client whose operation returns an
/// IDL enum, so its reply carries an ordinal the *server* chose.
mod paint {
    include!("generated/paint_enum.rs");
}

const PAINT_IDL: &str = r#"
    enum color { RED, GREEN, BLUE };
    interface Paint {
        color pick(in unsigned long n);
    };
"#;

/// A hostile (or newer) server answers `pick` with whatever ordinal the
/// client asks for. Declared ordinals decode to their items; the first
/// undeclared one — `variants.len()` — must come back as a typed decode
/// error from the generated stub, not be reinterpreted as a `Color`.
#[test]
fn generated_client_rejects_an_undeclared_enum_ordinal() {
    use flexrpc::core::value::Value;
    use flexrpc::marshal::MarshalError;
    use flexrpc::runtime::RpcError;

    let module = flexrpc::idl::corba::parse("paint", PAINT_IDL).expect("parses");
    let iface = module.interface("Paint").expect("Paint");
    let pres = InterfacePresentation::default_for(&module, iface).expect("defaults");
    let opts = flexrpc::codegen::GenOptions { client: true, server: false };
    assert_eq!(
        flexrpc::codegen::generate(&module, iface, &pres, &opts).expect("generates"),
        include_str!("generated/paint_enum.rs"),
        "regenerate tests/generated/paint_enum.rs (the emitter changed)"
    );

    let compiled = CompiledInterface::compile(&module, iface, &pres).expect("compiles");
    let mut srv = ServerInterface::new(compiled.clone(), WireFormat::Cdr);
    srv.on("pick", |call| {
        let n = call.u32("n").expect("n");
        call.set("return", Value::U32(n)).expect("return");
        0
    })
    .expect("registers");
    let transport = Loopback::new(Arc::new(Mutex::new(srv)));
    let mut client =
        paint::PaintClient::new(ClientStub::new(compiled, WireFormat::Cdr, Box::new(transport)));

    assert_eq!(client.pick(0).expect("declared"), paint::Color::Red);
    assert_eq!(client.pick(2).expect("declared"), paint::Color::Blue);
    let variants = 3;
    match client.pick(variants) {
        Err(RpcError::Marshal(MarshalError::BadDiscriminant(got))) => assert_eq!(got, variants),
        other => panic!("ordinal {variants} must be a decode error, got {other:?}"),
    }
}
