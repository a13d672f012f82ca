//! The NFS file server (the BSD HP700 box of Figure 2).
//!
//! In-memory files keyed by 32-byte handles, served through the stub
//! runtime over Sun RPC on the simulated network. The server side is held
//! constant across the client-presentation experiment, exactly as the
//! paper's figure treats "network and server processing time".

use crate::{
    nfs_module, Fattr, FHSIZE, MAXDATA, NFSERR_EXIST, NFSERR_IO, NFSERR_NOENT, NFSERR_STALE,
    NFS_PROGRAM, NFS_VERSION,
};
use flexrpc_core::present::InterfacePresentation;
use flexrpc_core::program::CompiledInterface;
use flexrpc_core::value::Value;
use flexrpc_marshal::WireFormat;
use flexrpc_net::{HostId, SimNet};
use flexrpc_runtime::transport::serve_on_net;
use flexrpc_runtime::ServerInterface;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// An exported file.
#[derive(Debug, Clone)]
pub struct ExportedFile {
    /// Contents.
    pub data: Vec<u8>,
    /// Attributes (size kept consistent with `data`).
    pub attrs: Fattr,
}

/// The in-memory export table: a root directory of named files.
#[derive(Debug, Default)]
pub struct FileStore {
    files: HashMap<[u8; FHSIZE], ExportedFile>,
    /// Root directory: name → handle.
    root: HashMap<String, [u8; FHSIZE]>,
    next_fh: u32,
}

impl FileStore {
    /// Creates an empty store.
    pub fn new() -> FileStore {
        FileStore::default()
    }

    /// Adds a file, returning its handle.
    pub fn add_file(&mut self, data: Vec<u8>) -> [u8; FHSIZE] {
        self.next_fh += 1;
        let mut fh = [0u8; FHSIZE];
        fh[..4].copy_from_slice(&self.next_fh.to_be_bytes());
        fh[4..8].copy_from_slice(&0xF11Eu32.to_be_bytes());
        let attrs = Fattr {
            ftype: 1,
            mode: 0o644,
            nlink: 1,
            uid: 0,
            gid: 0,
            size: data.len() as u32,
            blocksize: MAXDATA as u32,
            blocks: (data.len() as u32).div_ceil(512),
            mtime: 794_000_000, // March 1995.
        };
        self.files.insert(fh, ExportedFile { data, attrs });
        fh
    }

    /// Adds a file under a name in the root directory.
    pub(crate) fn add_named_file(&mut self, name: &str, data: Vec<u8>) -> [u8; FHSIZE] {
        let fh = self.add_file(data);
        self.root.insert(name.to_owned(), fh);
        fh
    }

    /// Looks up a file by handle.
    pub fn get(&self, fh: &[u8]) -> Option<&ExportedFile> {
        let fh: [u8; FHSIZE] = fh.try_into().ok()?;
        self.files.get(&fh)
    }

    /// Mutable lookup by handle.
    pub(crate) fn get_mut(&mut self, fh: &[u8]) -> Option<&mut ExportedFile> {
        let fh: [u8; FHSIZE] = fh.try_into().ok()?;
        self.files.get_mut(&fh)
    }

    /// The well-known root directory handle.
    pub(crate) fn root_fh() -> [u8; FHSIZE] {
        let mut fh = [0u8; FHSIZE];
        fh[..4].copy_from_slice(b"ROOT");
        fh
    }

    /// Looks up a name in the root directory.
    pub(crate) fn lookup(&self, name: &str) -> Option<[u8; FHSIZE]> {
        self.root.get(name).copied()
    }

    /// Removes a name (and its file) from the root directory.
    pub(crate) fn remove(&mut self, name: &str) -> bool {
        if let Some(fh) = self.root.remove(name) {
            self.files.remove(&fh);
            true
        } else {
            false
        }
    }
}

/// Writes one [`Fattr`] into a call's flattened `attributes.*` slots.
fn set_attrs(call: &mut flexrpc_runtime::ServerCall<'_, '_>, prefix: &str, a: Fattr) {
    for (field, v) in [
        ("ftype", a.ftype),
        ("mode", a.mode),
        ("nlink", a.nlink),
        ("uid", a.uid),
        ("gid", a.gid),
        ("size", a.size),
        ("blocksize", a.blocksize),
        ("blocks", a.blocks),
        ("mtime", a.mtime),
    ] {
        call.set(&format!("{prefix}.{field}"), Value::U32(v)).expect("attr slot");
    }
}

/// A deterministic file body for the experiments (`seed` varies content).
pub fn test_file(len: usize, seed: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect()
}

/// The NFS server's presentation (the defaults of its Sun dialect).
pub fn nfs_presentation() -> InterfacePresentation {
    let m = nfs_module();
    let iface = &m.interfaces[0];
    InterfacePresentation::default_for(&m, iface).expect("defaults")
}

/// Builds the NFS server and registers it on `host`. Returns the store so
/// callers can add files.
pub fn serve_nfs(net: &Arc<SimNet>, host: HostId) -> Arc<Mutex<FileStore>> {
    let m = nfs_module();
    let iface = &m.interfaces[0];
    let pres = nfs_presentation();
    let compiled = CompiledInterface::compile(&m, iface, &pres).expect("compiles");
    let mut srv = ServerInterface::new(compiled, WireFormat::Xdr);
    let store = Arc::new(Mutex::new(FileStore::new()));
    register_nfs_handlers(&mut srv, &store);
    serve_on_net(net, host, Arc::new(Mutex::new(srv)), NFS_PROGRAM, NFS_VERSION)
        .expect("service registers");
    store
}

/// Registers the NFS work functions on `srv`, backed by `store`.
///
/// Separated from compilation so a serving engine can build any number of
/// dispatch replicas over one shared compilation and one shared store —
/// handlers only capture the `Arc`'d store.
pub fn register_nfs_handlers(srv: &mut ServerInterface, store: &Arc<Mutex<FileStore>>) {
    srv.on("NFSPROC_NULL", |_call| 0).expect("null registers");

    let st = Arc::clone(store);
    srv.on("NFSPROC_GETATTR", move |call| {
        let fh = match call.bytes("file") {
            Ok(b) => b.to_vec(),
            Err(_) => return NFSERR_IO,
        };
        let attrs = match st.lock().get(&fh) {
            Some(f) => f.attrs,
            None => return NFSERR_STALE,
        };
        set_attrs(call, "attributes", attrs);
        0
    })
    .expect("getattr registers");

    let st = Arc::clone(store);
    srv.on("NFSPROC_SETATTR", move |call| {
        let fh = match call.bytes("file") {
            Ok(b) => b.to_vec(),
            Err(_) => return NFSERR_IO,
        };
        let mode = call.u32("attributes.mode").unwrap_or(u32::MAX);
        let size = call.u32("attributes.size").unwrap_or(u32::MAX);
        let mut store = st.lock();
        let Some(file) = store.get_mut(&fh) else {
            return NFSERR_STALE;
        };
        // NFSv2 semantics: u32::MAX fields mean "leave unchanged".
        if mode != u32::MAX {
            file.attrs.mode = mode;
        }
        if size != u32::MAX {
            file.data.resize(size as usize, 0);
            file.attrs.size = size;
        }
        let attrs = file.attrs;
        drop(store);
        set_attrs(call, "new_attributes", attrs);
        0
    })
    .expect("setattr registers");

    let st = Arc::clone(store);
    srv.on("NFSPROC_LOOKUP", move |call| {
        let dir = match call.bytes("dir") {
            Ok(b) => b.to_vec(),
            Err(_) => return NFSERR_IO,
        };
        if dir != FileStore::root_fh() {
            return NFSERR_STALE;
        }
        let name = match call.str("name") {
            Ok(s) => s.to_owned(),
            Err(_) => return NFSERR_IO,
        };
        let store = st.lock();
        let Some(fh) = store.lookup(&name) else {
            return NFSERR_NOENT;
        };
        let attrs = store.get(&fh).expect("directory entries resolve").attrs;
        drop(store);
        call.set("file", Value::Bytes(fh.to_vec())).expect("fh slot");
        set_attrs(call, "attributes", attrs);
        0
    })
    .expect("lookup registers");

    let st = Arc::clone(store);
    srv.on("NFSPROC_READ", move |call| {
        let fh = match call.bytes("file") {
            Ok(b) => b.to_vec(),
            Err(_) => return NFSERR_IO,
        };
        let offset = call.u32("offset").unwrap_or(0) as usize;
        let count = (call.u32("count").unwrap_or(0) as usize).min(MAXDATA);
        let store = st.lock();
        let Some(file) = store.get(&fh) else {
            return NFSERR_STALE;
        };
        let end = (offset + count).min(file.data.len());
        let chunk: Vec<u8> =
            if offset < file.data.len() { file.data[offset..end].to_vec() } else { Vec::new() };
        let attrs = file.attrs;
        drop(store);
        // Default server presentation: move semantics, the stub marshals
        // and frees this buffer.
        call.set("data", Value::Bytes(chunk)).expect("data slot");
        set_attrs(call, "attributes", attrs);
        0
    })
    .expect("read registers");

    let st = Arc::clone(store);
    srv.on("NFSPROC_WRITE", move |call| {
        let fh = match call.bytes("file") {
            Ok(b) => b.to_vec(),
            Err(_) => return NFSERR_IO,
        };
        let offset = call.u32("offset").unwrap_or(0) as usize;
        let data = match call.bytes("data") {
            Ok(b) => b.to_vec(),
            Err(_) => return NFSERR_IO,
        };
        if data.len() > MAXDATA {
            return NFSERR_IO;
        }
        let mut store = st.lock();
        let Some(file) = store.get_mut(&fh) else {
            return NFSERR_STALE;
        };
        if file.data.len() < offset + data.len() {
            file.data.resize(offset + data.len(), 0);
        }
        file.data[offset..offset + data.len()].copy_from_slice(&data);
        file.attrs.size = file.data.len() as u32;
        file.attrs.blocks = (file.data.len() as u32).div_ceil(512);
        let attrs = file.attrs;
        drop(store);
        set_attrs(call, "attributes", attrs);
        0
    })
    .expect("write registers");

    let st = Arc::clone(store);
    srv.on("NFSPROC_CREATE", move |call| {
        let dir = match call.bytes("dir") {
            Ok(b) => b.to_vec(),
            Err(_) => return NFSERR_IO,
        };
        if dir != FileStore::root_fh() {
            return NFSERR_STALE;
        }
        let name = match call.str("name") {
            Ok(s) => s.to_owned(),
            Err(_) => return NFSERR_IO,
        };
        let mode = call.u32("attributes.mode").unwrap_or(0o644);
        let mut store = st.lock();
        if store.lookup(&name).is_some() {
            return NFSERR_EXIST;
        }
        let fh = store.add_named_file(&name, Vec::new());
        let file = store.get_mut(&fh).expect("just created");
        file.attrs.mode = mode;
        let attrs = file.attrs;
        drop(store);
        call.set("file", Value::Bytes(fh.to_vec())).expect("fh slot");
        set_attrs(call, "new_attributes", attrs);
        0
    })
    .expect("create registers");

    let st = Arc::clone(store);
    srv.on("NFSPROC_REMOVE", move |call| {
        let dir = match call.bytes("dir") {
            Ok(b) => b.to_vec(),
            Err(_) => return NFSERR_IO,
        };
        if dir != FileStore::root_fh() {
            return NFSERR_STALE;
        }
        let name = match call.str("name") {
            Ok(s) => s.to_owned(),
            Err(_) => return NFSERR_IO,
        };
        if st.lock().remove(&name) {
            0
        } else {
            NFSERR_NOENT
        }
    })
    .expect("remove registers");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_handles_are_distinct() {
        let mut s = FileStore::new();
        let a = s.add_file(vec![1, 2, 3]);
        let b = s.add_file(vec![4]);
        assert_ne!(a, b);
        assert_eq!(s.get(&a).unwrap().data, vec![1, 2, 3]);
        assert_eq!(s.get(&b).unwrap().attrs.size, 1);
        assert!(s.get(&[0u8; FHSIZE]).is_none());
        assert!(s.get(&[0u8; 3]).is_none(), "short handles rejected");
    }

    #[test]
    fn test_file_is_deterministic() {
        assert_eq!(test_file(16, 1), test_file(16, 1));
        assert_ne!(test_file(16, 1), test_file(16, 2));
    }
}
