//! Trust levels and the trust-parameterized register path.
//!
//! On the paper's streamlined IPC path, a large share of a null RPC is
//! register traffic: saving the caller's registers, scrubbing what must not
//! leak into the other domain, and restoring on return. §4.5 observes that
//! how much of this is *necessary* depends on a presentation attribute — the
//! degree to which each endpoint trusts the other:
//!
//! * no trust (default) — protect both confidentiality (scrub) and integrity
//!   (save/restore);
//! * `[leaky]` — the peer may *see* our registers (no scrub) but must not be
//!   able to corrupt them (still save/restore);
//! * `[leaky, unprotected]` — full trust; no register protection at all.
//!
//! At bind time the kernel compiles both sides' declared levels into a
//! *combination signature*: two threaded-code sequences of [`RegOp`]s run
//! before entering the server and before returning to the client. A server's
//! `unprotected` adds nothing beyond its `leaky` (trusting the client's
//! *correctness* requires no kernel work once its frame is dead), which is
//! why the paper's Figure 12 shows two equal columns on the server axis —
//! an equality this module reproduces and tests.

use std::hint::black_box;

/// Number of simulated general-purpose registers (PA-RISC has 32).
pub(crate) const NREGS: usize = 32;
/// Registers that carry inline message data and are therefore never scrubbed.
pub const MSG_REGS: usize = 8;

/// How far one endpoint trusts the other (a presentation attribute: it never
/// affects the network contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub enum TrustLevel {
    /// No trust: protect confidentiality and integrity (the default).
    #[default]
    None,
    /// `[leaky]`: information may leak to the peer, corruption is prevented.
    Leaky,
    /// `[leaky, unprotected]`: full trust of confidentiality and integrity.
    LeakyUnprotected,
}

impl TrustLevel {
    /// All levels, in the order the paper's Figure 12 axes use.
    pub const ALL: [TrustLevel; 3] =
        [TrustLevel::None, TrustLevel::Leaky, TrustLevel::LeakyUnprotected];

    /// Short label used in reports and bench IDs.
    pub fn label(self) -> &'static str {
        match self {
            TrustLevel::None => "none",
            TrustLevel::Leaky => "leaky",
            TrustLevel::LeakyUnprotected => "leaky+unprot",
        }
    }
}

/// A simulated register file plus its kernel-side save frame.
///
/// Covers both the general-purpose file and the floating-point file
/// (PA-RISC has 32 of each); FP registers never carry message words, so
/// the confidentiality scrub covers all of them.
#[derive(Debug, Clone)]
pub struct RegisterFile {
    /// Live general registers (first [`MSG_REGS`] carry message words).
    pub live: [u64; NREGS],
    /// Live floating-point registers (bit patterns).
    pub fp: [u64; NREGS],
    /// Kernel save area for the general file.
    saved: [u64; NREGS],
    /// Kernel save area for the FP file.
    fp_saved: [u64; NREGS],
}

impl Default for RegisterFile {
    fn default() -> Self {
        RegisterFile { live: [0; NREGS], fp: [0; NREGS], saved: [0; NREGS], fp_saved: [0; NREGS] }
    }
}

impl RegisterFile {
    /// A register file with deterministic non-zero contents (tests).
    pub fn seeded() -> Self {
        let mut rf = RegisterFile::default();
        for (i, r) in rf.live.iter_mut().enumerate() {
            *r = 0x1111_1111_0000_0000 + i as u64;
        }
        for (i, r) in rf.fp.iter_mut().enumerate() {
            *r = 0x2222_2222_0000_0000 + i as u64;
        }
        rf
    }
}

/// One threaded-code block of the combination signature's register path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegOp {
    /// Save every live register into the kernel frame.
    SaveAll,
    /// Restore every live register from the kernel frame.
    RestoreAll,
    /// Zero every non-message register (confidentiality scrub).
    ScrubNonMessage,
}

/// The register-path halves of a bind-time combination signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegPath {
    /// Ops run after copying the request, before entering the server.
    pub pre: Vec<RegOp>,
    /// Ops run after the server returns, before resuming the client.
    pub post: Vec<RegOp>,
}

impl RegPath {
    /// Compiles the pairwise trust declaration into threaded register code.
    ///
    /// The *client's* trust of the server decides how the client's state is
    /// protected while the server runs: scrub on entry unless at least
    /// `Leaky`, save/restore unless `LeakyUnprotected`. The *server's* trust
    /// of the client decides whether its registers are scrubbed before the
    /// reply resumes the client; its `LeakyUnprotected` is deliberately
    /// identical to `Leaky` (see module docs).
    pub fn compile(client_trust: TrustLevel, server_trust: TrustLevel) -> RegPath {
        let mut pre = Vec::new();
        let mut post = Vec::new();
        if client_trust != TrustLevel::LeakyUnprotected {
            // Integrity: preserve the client's registers across the server.
            pre.push(RegOp::SaveAll);
            post.push(RegOp::RestoreAll);
        }
        if client_trust == TrustLevel::None {
            // Confidentiality: hide the client's registers from the server.
            pre.push(RegOp::ScrubNonMessage);
        }
        if server_trust == TrustLevel::None {
            // Confidentiality: hide the server's registers from the client.
            post.insert(0, RegOp::ScrubNonMessage);
        }
        RegPath { pre, post }
    }

    /// Total number of ops in both halves (reported by bind diagnostics).
    pub fn len(&self) -> usize {
        self.pre.len() + self.post.len()
    }

    /// True if this path does no register work at all (full mutual trust).
    pub fn is_empty(&self) -> bool {
        self.pre.is_empty() && self.post.is_empty()
    }
}

/// Executes one half of a register path over `rf`.
///
/// The loop is a classic threaded interpreter: each op dispatches to a
/// non-inlined block so the cost structure resembles the paper's chained
/// code fragments rather than one fused memcpy the optimizer could elide.
///
/// Counts nothing: whoever owns the path publishes `ops.len()` to
/// [`crate::KernelStats::register_ops`] where it already holds a tally
/// (a connection's stripe, a system call's shared add).
pub fn run_ops(ops: &[RegOp], rf: &mut RegisterFile) {
    for op in ops {
        match op {
            RegOp::SaveAll => save_all(rf),
            RegOp::RestoreAll => restore_all(rf),
            RegOp::ScrubNonMessage => scrub_non_message(rf),
        }
    }
    // Defeat dead-store elimination: the register file is "hardware state".
    black_box(&mut rf.live);
}

#[inline(never)]
fn save_all(rf: &mut RegisterFile) {
    rf.saved.copy_from_slice(black_box(&rf.live));
    rf.fp_saved.copy_from_slice(black_box(&rf.fp));
}

#[inline(never)]
fn restore_all(rf: &mut RegisterFile) {
    rf.live.copy_from_slice(black_box(&rf.saved));
    rf.fp.copy_from_slice(black_box(&rf.fp_saved));
}

#[inline(never)]
fn scrub_non_message(rf: &mut RegisterFile) {
    for r in rf.live[MSG_REGS..].iter_mut() {
        *r = 0;
    }
    for r in rf.fp.iter_mut() {
        *r = 0;
    }
    black_box(&mut rf.live);
    black_box(&mut rf.fp);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(client: TrustLevel, server: TrustLevel) -> usize {
        RegPath::compile(client, server).len()
    }

    #[test]
    fn no_trust_is_most_expensive() {
        let base = work(TrustLevel::None, TrustLevel::None);
        for c in TrustLevel::ALL {
            for s in TrustLevel::ALL {
                assert!(work(c, s) <= base, "({c:?},{s:?}) exceeded the no-trust cost");
            }
        }
    }

    #[test]
    fn full_trust_is_free() {
        let p = RegPath::compile(TrustLevel::LeakyUnprotected, TrustLevel::LeakyUnprotected);
        assert!(p.is_empty());
    }

    #[test]
    fn server_unprotected_equals_server_leaky() {
        // The paper's footnote: the two right-most columns of Figure 12 are
        // equal because server-side `unprotected` adds nothing.
        for c in TrustLevel::ALL {
            assert_eq!(
                RegPath::compile(c, TrustLevel::Leaky),
                RegPath::compile(c, TrustLevel::LeakyUnprotected)
            );
        }
    }

    #[test]
    fn trust_monotonically_reduces_work() {
        for s in TrustLevel::ALL {
            assert!(work(TrustLevel::None, s) >= work(TrustLevel::Leaky, s));
            assert!(work(TrustLevel::Leaky, s) >= work(TrustLevel::LeakyUnprotected, s));
        }
        for c in TrustLevel::ALL {
            assert!(work(c, TrustLevel::None) >= work(c, TrustLevel::Leaky));
        }
    }

    #[test]
    fn save_restore_preserves_client_registers() {
        let path = RegPath::compile(TrustLevel::None, TrustLevel::None);
        let mut rf = RegisterFile::seeded();
        let before = rf.live;
        let fp_before = rf.fp;
        run_ops(&path.pre, &mut rf);
        // Server trashes everything.
        rf.live = [0xDEAD_BEEF; NREGS];
        rf.fp = [0xDEAD_BEEF; NREGS];
        run_ops(&path.post, &mut rf);
        assert_eq!(rf.live, before, "no-trust path must restore the client state");
        assert_eq!(rf.fp, fp_before, "FP registers restored too");
    }

    #[test]
    fn scrub_hides_non_message_registers() {
        let path = RegPath::compile(TrustLevel::None, TrustLevel::Leaky);
        let mut rf = RegisterFile::seeded();
        run_ops(&path.pre, &mut rf);
        for (i, r) in rf.live.iter().enumerate() {
            if i < MSG_REGS {
                assert_ne!(*r, 0, "message registers must survive the scrub");
            } else {
                assert_eq!(*r, 0, "non-message register {i} leaked");
            }
        }
    }

    #[test]
    fn unprotected_client_keeps_whatever_server_left() {
        let path = RegPath::compile(TrustLevel::LeakyUnprotected, TrustLevel::Leaky);
        assert!(path.pre.is_empty() && path.post.is_empty());
        let mut rf = RegisterFile::seeded();
        run_ops(&path.pre, &mut rf);
        rf.live[MSG_REGS] = 42;
        run_ops(&path.post, &mut rf);
        assert_eq!(rf.live[MSG_REGS], 42, "full trust performs no restore");
    }
}
