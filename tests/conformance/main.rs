//! One conformance harness: every scenario runs on every world that
//! carries it — loopback, kernel IPC, Sun RPC, the engine's same-domain
//! connection and the engine's Sun RPC acceptor — and asserts the same
//! outcome on each, so a presentation or a transport changes nothing a peer
//! can see. A world that lacks a scenario's capability by design says why,
//! and the scenario prints the skip.
//!
//! `worlds.rs` holds the one echo interface, the server behaviours and one
//! builder per world; a new transport is added there once.

mod crash_matrix;
mod deadlines;
mod link_faults;
mod retries;
mod worlds;
