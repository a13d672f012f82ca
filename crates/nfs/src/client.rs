//! The NFS client (the Linux 486 box of Figure 2), in four stub variants.
//!
//! The client runs in "kernel context": the destination of file data is a
//! buffer in the *user process's* simulated address space, reachable only
//! through `copyout` (the kernel's `memcpy_tofs`). The experiment varies
//! only how the `data` result is unmarshalled:
//!
//! * **conventional** — unmarshal into a kernel staging buffer, then
//!   `copyout` to user space (two client-side copies);
//! * **special** — `copyout` straight from the receive buffer (one copy),
//!   via the `[special]` hook (generated) or a borrowed XDR read (hand).
//!
//! Hand-coded and generated stubs produce byte-identical wire messages, so
//! "there is essentially no performance difference between hand-coded
//! stubs and automatically-generated stubs supporting the same
//! presentation" is a checkable property here, not a hope.

use crate::{nfs_module, Fattr, FHSIZE, FIG1_PDL, NFSPROC_READ, NFS_PROGRAM, NFS_VERSION};
use flexrpc_core::annot::apply_pdl;
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::program::CompiledInterface;
use flexrpc_core::value::Value;
use flexrpc_kernel::{Kernel, TaskId, UserAddr};
use flexrpc_marshal::xdr::{XdrReader, XdrWriter};
use flexrpc_marshal::WireFormat;
use flexrpc_net::sunrpc::{self, AcceptStat, CallHeader};
use flexrpc_net::{HostId, Link, NetError, SimNet};
use flexrpc_runtime::hooks::SpecialMarshal;
use flexrpc_runtime::transport::SunRpc;
use flexrpc_runtime::{ClientStub, RpcError};
use parking_lot::Mutex;
use std::sync::Arc;

/// The four bars of Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientVariant {
    /// Generated stubs, conventional (kernel-buffer) presentation.
    ConventionalGenerated,
    /// Hand-coded stubs, conventional presentation.
    ConventionalHand,
    /// Generated stubs with the Figure 1 `[special]` presentation.
    SpecialGenerated,
    /// Hand-coded stubs marshalling straight to user space.
    SpecialHand,
}

impl ClientVariant {
    /// All variants, in the figure's top-to-bottom order.
    pub const ALL: [ClientVariant; 4] = [
        ClientVariant::ConventionalGenerated,
        ClientVariant::ConventionalHand,
        ClientVariant::SpecialHand,
        ClientVariant::SpecialGenerated,
    ];

    /// Label used in reports and bench ids.
    pub fn label(self) -> &'static str {
        match self {
            ClientVariant::ConventionalGenerated => "conventional-generated",
            ClientVariant::ConventionalHand => "conventional-hand",
            ClientVariant::SpecialGenerated => "special-generated",
            ClientVariant::SpecialHand => "special-hand",
        }
    }
}

/// Where the `[special]` hook should deliver the next chunk.
struct CopyoutTarget {
    kernel: Arc<Kernel>,
    task: TaskId,
    addr: Mutex<UserAddr>,
}

/// The `[special]` unmarshal routine: the generated stub hands it the wire
/// payload and it performs the `copyout` — our `memcpy_tofs` wrapper.
struct CopyoutHook {
    target: Arc<CopyoutTarget>,
}

impl SpecialMarshal for CopyoutHook {
    fn get(&self, _slots: &mut [Value], payload: &[u8]) {
        let addr = *self.target.addr.lock();
        self.target
            .kernel
            .copyout(self.target.task, addr, payload)
            .expect("copyout target is valid");
    }
}

/// The Figure 2 client harness: user task, network, and all four stubs.
pub struct NfsClientHarness {
    kernel: Arc<Kernel>,
    /// The hand-coded stubs' way to the server, resolved once as a
    /// generated stub's transport resolves its own.
    hand_link: Link,
    user_task: TaskId,
    user_buf: UserAddr,
    user_buf_len: usize,
    fh: [u8; FHSIZE],
    conventional: ClientStub,
    conventional_frame: Vec<Value>,
    special: ClientStub,
    special_frame: Vec<Value>,
    special_target: Arc<CopyoutTarget>,
    hand_xid: u32,
    /// Reply frame reused by the hand-coded paths (the protocol stack's
    /// receive buffer).
    hand_reply: Vec<u8>,
    /// Bytes the conventional variants have copied into their kernel
    /// staging buffer — the client copy the kernel's counters cannot see.
    staged_bytes: u64,
}

impl NfsClientHarness {
    /// Builds the harness against a file served on `server_host`; the user
    /// buffer is sized for `file_len` bytes.
    pub fn new(
        net: Arc<SimNet>,
        client_host: HostId,
        server_host: HostId,
        fh: [u8; FHSIZE],
        file_len: usize,
    ) -> NfsClientHarness {
        let kernel = Kernel::new();
        let user_task = kernel.create_task("user-proc", file_len + 4096).expect("task");
        let user_buf = kernel.user_alloc(user_task, file_len).expect("alloc");

        let m = nfs_module();
        let iface = &m.interfaces[0];
        let base = InterfacePresentation::default_for(&m, iface).expect("defaults");

        let conventional = {
            let compiled = CompiledInterface::compile(&m, iface, &base).expect("compiles");
            let t =
                SunRpc::new(Arc::clone(&net), client_host, server_host, NFS_PROGRAM, NFS_VERSION);
            ClientStub::new(compiled, WireFormat::Xdr, Box::new(t))
        };

        let special_target = Arc::new(CopyoutTarget {
            kernel: Arc::clone(&kernel),
            task: user_task,
            addr: Mutex::new(user_buf),
        });
        let special = {
            let pdl = flexrpc_idl::pdl::parse(FIG1_PDL).expect("figure 1 PDL parses");
            let pres = apply_pdl(&m, iface, &base, &pdl).expect("figure 1 PDL applies");
            let compiled = CompiledInterface::compile(&m, iface, &pres).expect("compiles");
            let t =
                SunRpc::new(Arc::clone(&net), client_host, server_host, NFS_PROGRAM, NFS_VERSION);
            let mut stub = ClientStub::new(compiled, WireFormat::Xdr, Box::new(t));
            // Param index 4 is `data`; register the copyout routine.
            stub.hooks_mut("NFSPROC_READ")
                .expect("op exists")
                .set(4, Arc::new(CopyoutHook { target: Arc::clone(&special_target) }));
            stub
        };

        let conventional_frame = conventional.new_frame("NFSPROC_READ").expect("frame");
        let special_frame = special.new_frame("NFSPROC_READ").expect("frame");
        NfsClientHarness {
            kernel,
            hand_link: net.link(client_host, server_host),
            user_task,
            user_buf,
            user_buf_len: file_len,
            fh,
            conventional,
            conventional_frame,
            special,
            special_frame,
            special_target,
            hand_xid: 0x4000_0000,
            hand_reply: Vec::new(),
            staged_bytes: 0,
        }
    }

    /// The client-side kernel (copy counters, user-space checks).
    pub fn kernel(&self) -> &Arc<Kernel> {
        &self.kernel
    }

    /// Bytes this client has copied on behalf of the user so far: into a
    /// kernel staging buffer (conventional variants only) plus out to user
    /// space (`copyout`, every variant).
    pub fn client_bytes_copied(&self) -> u64 {
        self.staged_bytes + self.kernel.stats().snapshot().bytes_copied_out
    }

    /// Copies the user buffer out for verification.
    pub fn user_buffer(&self) -> Vec<u8> {
        self.kernel.copyin_vec(self.user_task, self.user_buf, self.user_buf_len).expect("read back")
    }

    /// Reads `total` bytes of the file in `chunk`-byte NFS reads, returning
    /// the attributes from the last reply.
    pub fn read_file(
        &mut self,
        variant: ClientVariant,
        total: usize,
        chunk: usize,
    ) -> Result<Fattr, RpcError> {
        let mut attrs = Fattr::default();
        let mut offset = 0usize;
        while offset < total {
            let n = chunk.min(total - offset);
            attrs = match variant {
                ClientVariant::ConventionalGenerated => self.read_generated(false, offset, n)?,
                ClientVariant::SpecialGenerated => self.read_generated(true, offset, n)?,
                ClientVariant::ConventionalHand => self.read_hand(false, offset, n)?,
                ClientVariant::SpecialHand => self.read_hand(true, offset, n)?,
            };
            offset += n;
        }
        Ok(attrs)
    }

    fn frame_attrs(frame: &[Value], base: usize) -> Fattr {
        let g = |i: usize| frame[base + i].as_u32().unwrap_or(0);
        Fattr {
            ftype: g(0),
            mode: g(1),
            nlink: g(2),
            uid: g(3),
            gid: g(4),
            size: g(5),
            blocksize: g(6),
            blocks: g(7),
            mtime: g(8),
        }
    }

    fn read_generated(
        &mut self,
        special: bool,
        offset: usize,
        count: usize,
    ) -> Result<Fattr, RpcError> {
        let (stub, frame) = if special {
            (&mut self.special, &mut self.special_frame)
        } else {
            (&mut self.conventional, &mut self.conventional_frame)
        };
        if let Value::Bytes(b) = &mut frame[0] {
            if b.len() != self.fh.len() {
                b.clear();
                b.extend_from_slice(&self.fh);
            }
        }
        frame[1] = Value::U32(offset as u32);
        frame[2] = Value::U32(count as u32);
        frame[3] = Value::U32(count as u32);
        if special {
            // Point the copyout hook at this chunk's destination.
            *self.special_target.addr.lock() = self.user_buf.offset(offset);
        }
        let read_index = stub.compiled().op("NFSPROC_READ").expect("protocol has READ").index;
        let status = stub.call_index(read_index, frame)?;
        if status != 0 {
            return Err(RpcError::Remote(status));
        }
        let attrs = Self::frame_attrs(frame, 5);
        if !special {
            // Conventional: the stub unmarshalled into a kernel buffer; the
            // client code must copy it out to the user's address space.
            let data = match &frame[4] {
                Value::Bytes(b) => b,
                other => {
                    return Err(RpcError::SlotKind {
                        slot: 4,
                        expected: "bytes",
                        found: other.kind(),
                    })
                }
            };
            self.staged_bytes += data.len() as u64;
            self.kernel.copyout(self.user_task, self.user_buf.offset(offset), data)?;
        }
        Ok(attrs)
    }

    /// The hand-written stub, equivalent to the kernel's original C code:
    /// identical wire bytes, same RPC layer, no stub programs.
    fn read_hand(&mut self, special: bool, offset: usize, count: usize) -> Result<Fattr, RpcError> {
        // Marshal the request by hand (FLEX-ABI order: fixed fh, scalars).
        let mut w = XdrWriter::with_capacity(64);
        w.put_opaque_fixed(&self.fh);
        w.put_u32(offset as u32);
        w.put_u32(count as u32);
        w.put_u32(count as u32);
        self.hand_xid = self.hand_xid.wrapping_add(1);
        let msg = sunrpc::encode_call(
            CallHeader {
                xid: self.hand_xid,
                prog: NFS_PROGRAM,
                vers: NFS_VERSION,
                proc: NFSPROC_READ,
            },
            &w.into_bytes(),
        );
        let mut reply = std::mem::take(&mut self.hand_reply);
        let r = self.hand_link.call(&msg, &mut reply);
        let result = (|| -> Result<Fattr, RpcError> {
            r?;
            let (xid, stat, results) = sunrpc::decode_reply(&reply)?;
            if xid != self.hand_xid || stat != AcceptStat::Success {
                return Err(NetError::Malformed("hand-coded reply: wrong xid or status").into());
            }
            let mut rd = XdrReader::new(results);
            let dst = self.user_buf.offset(offset);
            if special {
                // Marshal the data directly to user space: one copy.
                let data = rd.get_opaque_borrowed()?;
                self.kernel.copyout(self.user_task, dst, data)?;
            } else {
                // Conventional: kernel staging buffer, then copyout.
                let data = rd.get_opaque()?;
                self.staged_bytes += data.len() as u64;
                self.kernel.copyout(self.user_task, dst, &data)?;
            }
            let mut a = [0u32; 9];
            for v in a.iter_mut() {
                *v = rd.get_u32()?;
            }
            let status = rd.get_u32()?;
            rd.finish()?;
            if status != 0 {
                return Err(RpcError::Remote(status));
            }
            Ok(Fattr {
                ftype: a[0],
                mode: a[1],
                nlink: a[2],
                uid: a[3],
                gid: a[4],
                size: a[5],
                blocksize: a[6],
                blocks: a[7],
                mtime: a[8],
            })
        })();
        self.hand_reply = reply;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve_nfs, test_file};

    fn setup(file_len: usize) -> NfsClientHarness {
        let net = SimNet::new();
        let ch = net.add_host("linux-486");
        let sh = net.add_host("hp700-bsd");
        let store = serve_nfs(&net, sh);
        let fh = store.lock().add_file(test_file(file_len, 42));
        NfsClientHarness::new(net, ch, sh, fh, file_len)
    }

    #[test]
    fn all_variants_read_the_same_bytes() {
        let file_len = 64 * 1024;
        let want = test_file(file_len, 42);
        for variant in ClientVariant::ALL {
            let mut h = setup(file_len);
            let attrs = h.read_file(variant, file_len, 8192).unwrap();
            assert_eq!(attrs.size, file_len as u32, "{variant:?}");
            assert_eq!(attrs.ftype, 1);
            assert_eq!(h.user_buffer(), want, "{variant:?}");
        }
    }

    #[test]
    fn copy_schedule_differs_by_presentation() {
        let file_len = 64 * 1024;
        // Every variant copies each byte out to user space exactly once;
        // the conventional ones stage it in a kernel buffer first, a copy
        // the harness counts itself (it is no kernel counter).
        for (variant, staged) in [
            (ClientVariant::ConventionalGenerated, true),
            (ClientVariant::SpecialGenerated, false),
            (ClientVariant::ConventionalHand, true),
            (ClientVariant::SpecialHand, false),
        ] {
            let mut h = setup(file_len);
            let before = h.kernel().stats().snapshot();
            h.read_file(variant, file_len, 8192).unwrap();
            let d = h.kernel().stats().snapshot().since(&before);
            assert_eq!(
                d.bytes_copied_out, file_len as u64,
                "{variant:?}: every byte is copied out to user space exactly once"
            );
            let copies = if staged { 2 } else { 1 };
            assert_eq!(h.client_bytes_copied(), copies * file_len as u64, "{variant:?}");
        }
    }

    #[test]
    fn wire_bytes_identical_hand_vs_generated() {
        // Both stubs talk to the same server and the server decodes with
        // generated programs — the hand-coded request must therefore parse
        // identically. Read with interleaved variants and verify content.
        let file_len = 16 * 1024;
        let want = test_file(file_len, 42);
        let mut h = setup(file_len);
        h.read_file(ClientVariant::ConventionalHand, file_len / 2, 4096).unwrap();
        h.read_file(ClientVariant::SpecialGenerated, file_len, 4096).unwrap();
        assert_eq!(h.user_buffer(), want);
    }

    #[test]
    fn stale_handle_surfaces_as_status() {
        let net = SimNet::new();
        let ch = net.add_host("c");
        let sh = net.add_host("s");
        let _store = serve_nfs(&net, sh);
        let mut h = NfsClientHarness::new(net, ch, sh, [9u8; FHSIZE], 4096);
        for variant in ClientVariant::ALL {
            let err = h.read_file(variant, 4096, 4096).unwrap_err();
            assert!(matches!(err, RpcError::Remote(crate::NFSERR_STALE)), "{variant:?}: {err}");
        }
    }

    #[test]
    fn wire_clock_charges_every_variant_equally() {
        let file_len = 32 * 1024;
        let mut costs = Vec::new();
        for variant in ClientVariant::ALL {
            let h_net = SimNet::new();
            let ch = h_net.add_host("c");
            let sh = h_net.add_host("s");
            let store = serve_nfs(&h_net, sh);
            let fh = store.lock().add_file(test_file(file_len, 1));
            let mut h = NfsClientHarness::new(Arc::clone(&h_net), ch, sh, fh, file_len);
            h.read_file(variant, file_len, 8192).unwrap();
            costs.push(h_net.wire_ns());
        }
        assert!(
            costs.windows(2).all(|w| w[0] == w[1]),
            "identical wire traffic across presentations: {costs:?}"
        );
    }
}
