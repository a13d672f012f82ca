//! flexrpc's benchmark: six closed-loop workloads, eight end-to-end
//! metrics, and a per-layer cost ledger timed from outside the program.
//! See `benchmark/README.md`.

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod hist;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod machine;
pub mod measure;
pub mod proc;
pub mod reference;
pub mod span;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;
