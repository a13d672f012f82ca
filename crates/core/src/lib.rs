//! The flexrpc stub compiler's middle stage: interface IR, presentations,
//! annotations, and stub-program compilation.
//!
//! The paper's central distinction lives in this crate's type system:
//!
//! * The **interface** ([`ir`]) is the *network contract* — operations,
//!   parameter directions, and wire types. It is produced by an IDL
//!   front-end (`flexrpc-idl`) and canonicalized into a [`sig::WireSignature`]
//!   whose hash two endpoints compare at bind time.
//! * The **presentation** ([`present`]) is the *programmer's contract* — how
//!   each parameter is passed to and from the generated stub: who allocates,
//!   who deallocates, whether buffers may be trashed, whether marshalling is
//!   delegated to user-supplied `[special]` routines, how far the peer is
//!   trusted. A default presentation is computed from the interface by fixed
//!   per-dialect rules; a PDL file ([`annot`]) modifies it *for one endpoint
//!   only*, and nothing in a PDL can change the wire signature.
//!
//! The two meet in [`program`]: an (operation × presentation) pair compiles
//! to a linear [`program::StubProgram`] of marshal ops — threaded code that
//! `flexrpc-runtime` interprets against real buffers. Because the wire
//! layout is derived from the interface alone, a client and server compiled
//! from *different* presentations of the same interface always interoperate;
//! a property test in the runtime crate pins this invariant down.
//!
//! Same-domain optimization (§4.4 of the paper) does not use marshal
//! programs at all: [`compat`] holds the bind-time negotiation rules that
//! derive copy/allocation decisions from the two endpoints' presentation
//! attributes.

pub mod annot;
pub mod compat;
pub mod error;
pub mod fuse;
pub mod ir;
pub mod present;
pub mod program;
pub mod short;
pub mod sig;
pub mod validate;
pub mod value;

pub use error::CoreError;
pub use ir::{Interface, Module, Operation, Param, ParamDir, Type};
pub use present::{CallShape, InterfacePresentation, OpPresentation, ParamPresentation};
pub use program::{CompiledInterface, CompiledOp, StubProgram};
pub use sig::WireSignature;
pub use value::Value;

/// Result alias for compiler-stage operations.
pub type Result<T> = core::result::Result<T, CoreError>;
