//! Figure 2 — NFS 8 MB read: user-space buffer presentation × stub origin.
//!
//! The paper's bars decompose into a constant "network and server" part and
//! a varying "client processing" part. Here the client processing is real
//! measured CPU time and the network/server part is the simulated wire
//! clock, which is *identical* across variants by construction (asserted in
//! the nfs crate's tests).
//!
//! Client processing is *total − far side*. The far side's real time is
//! measured here, by the experiment that needs it: the NFS server's handler
//! is re-registered wrapped in a timer. The network itself reads no wall
//! clock.

use flexrpc_net::SimNet;
use flexrpc_nfs::client::{ClientVariant, NfsClientHarness};
use flexrpc_nfs::server::{serve_nfs, test_file};
use flexrpc_nfs::FHSIZE;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The paper's workload: an 8 MB file read in NFSv2's 8 KB chunks.
pub const FILE_LEN: usize = 8 * 1024 * 1024;
/// Chunk size per NFS read.
pub const CHUNK: usize = 8192;

/// One experiment instance: a network, a served file, and a client harness.
pub struct Fig2 {
    net: Arc<SimNet>,
    harness: NfsClientHarness,
    /// Real nanoseconds spent inside the server's handler so far.
    far_side_ns: Arc<AtomicU64>,
}

impl Fig2 {
    /// Builds the experiment with a file of `file_len` bytes.
    pub fn new(file_len: usize) -> Fig2 {
        let net = SimNet::new();
        let client_host = net.add_host("linux-486dx2");
        let server_host = net.add_host("hp700-bsd");
        let store = serve_nfs(&net, server_host);
        let fh: [u8; FHSIZE] = store.lock().add_file(test_file(file_len, 42));
        // Time the far side where it is served: the same handler, bracketed.
        let serve = net.handler(server_host).expect("serve_nfs registered a handler");
        let far_side_ns = Arc::new(AtomicU64::new(0));
        let spent = Arc::clone(&far_side_ns);
        net.register_handler(server_host, move |request, reply| {
            let t0 = Instant::now();
            let result = serve(request, reply);
            spent.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            result
        })
        .expect("server host exists");
        let harness =
            NfsClientHarness::new(Arc::clone(&net), client_host, server_host, fh, file_len);
        Fig2 { net, harness, far_side_ns }
    }

    /// Reads the whole file once with `variant`. Returns bytes read.
    pub fn run(&mut self, variant: ClientVariant, file_len: usize) -> usize {
        self.harness.read_file(variant, file_len, CHUNK).expect("read succeeds");
        file_len
    }

    /// Bytes the client has copied so far, staging copies included
    /// ([`NfsClientHarness::client_bytes_copied`]).
    pub fn client_bytes_copied(&self) -> u64 {
        self.harness.client_bytes_copied()
    }

    /// Simulated wire + server nanoseconds accumulated so far.
    pub fn wire_ns(&self) -> u64 {
        self.net.wire_ns()
    }

    /// Real CPU nanoseconds spent in the server's handlers so far —
    /// subtracted from measured totals so the reported number is *client*
    /// processing, as in the paper's figure.
    pub fn far_side_ns(&self) -> u64 {
        self.far_side_ns.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_all_variants() {
        let len = 64 * 1024;
        let mut f = Fig2::new(len);
        for v in ClientVariant::ALL {
            assert_eq!(f.run(v, len), len);
        }
        assert!(f.wire_ns() > 0);
    }

    /// `report fig2` subtracts the far side from a measured total: the
    /// wrapper must really be on the path (or it silently subtracts 0) and
    /// cannot have seen more time than the whole read took.
    #[test]
    fn far_side_time_is_measured_and_below_the_total() {
        let len = 256 * 1024;
        let mut f = Fig2::new(len);
        for v in ClientVariant::ALL {
            let before = f.far_side_ns();
            let t0 = Instant::now();
            f.run(v, len);
            let total = t0.elapsed().as_nanos() as u64;
            let far = f.far_side_ns() - before;
            assert!(far > 0, "{}: the served handler is the timed one", v.label());
            assert!(far < total, "{}: far side {far} ns of a {total} ns read", v.label());
        }
    }
}
