//! `[special]` marshal hooks: user-supplied routines the generated stubs
//! call at the right point in the marshal stream.
//!
//! This is the mechanism behind the paper's §4.1 Linux NFS client: the stub
//! compiler emits stubs that delegate one parameter's (un)marshalling to
//! programmer-provided routines — there, wrappers around the kernel's
//! `memcpy_tofs`/`memcpy_fromfs` so file data moves directly between the
//! RPC buffer and the *user's* address space, skipping the kernel staging
//! buffer. Everything else in the stub stays generated.

use flexrpc_core::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// User marshal routines for one `[special]` parameter.
///
/// For an in-direction parameter on the sending side, [`SpecialMarshal::put_len`]
/// and [`SpecialMarshal::put_fill`] produce the payload straight into the
/// message. On the receiving side, [`SpecialMarshal::get`] consumes the wire
/// payload (a borrowed view of the receive buffer) — typically copying it to
/// its final destination in one step.
///
/// Hooks see the call's slot frame, so payload sizes can depend on other
/// parameters (e.g. NFS `count`). Out-of-band state (which user buffer to
/// fill) lives in the hook value itself.
pub trait SpecialMarshal: Send + Sync {
    /// Length in bytes of the payload this hook will produce.
    fn put_len(&self, slots: &[Value]) -> usize {
        let _ = slots;
        0
    }

    /// Fills `dst` (exactly [`SpecialMarshal::put_len`] bytes) with the
    /// payload. Returns the bytes written; anything short is an error.
    fn put_fill(&self, slots: &[Value], dst: &mut [u8]) -> usize {
        let _ = slots;
        let _ = dst;
        0
    }

    /// Consumes a received payload. `slots` is the call frame (the hook's
    /// slot records the payload length afterwards, by the interpreter).
    fn get(&self, slots: &mut [Value], payload: &[u8]) {
        let _ = (slots, payload);
    }
}

/// Hook registry for one operation: parameter index → hook.
///
/// The result position uses `usize::MAX`, matching the compiler's encoding.
#[derive(Clone, Default)]
pub struct HookMap {
    hooks: HashMap<usize, Arc<dyn SpecialMarshal>>,
}

impl HookMap {
    /// An empty registry.
    pub fn new() -> HookMap {
        HookMap::default()
    }

    /// Registers the hook for a parameter index.
    pub fn set(&mut self, param: usize, hook: Arc<dyn SpecialMarshal>) {
        self.hooks.insert(param, hook);
    }

    /// Looks up a hook.
    pub(crate) fn get(&self, param: usize) -> Option<&Arc<dyn SpecialMarshal>> {
        self.hooks.get(&param)
    }
}

impl std::fmt::Debug for HookMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HookMap({} hooks)", self.hooks.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl SpecialMarshal for Nop {}

    #[test]
    fn registry_roundtrip() {
        let mut map = HookMap::new();
        assert!(map.get(0).is_none());
        map.set(0, Arc::new(Nop));
        map.set(usize::MAX, Arc::new(Nop));
        assert!(map.get(0).is_some());
        assert!(map.get(usize::MAX).is_some());
        assert!(map.get(7).is_none());
    }

    #[test]
    fn default_trait_methods_are_inert() {
        let slots = vec![Value::Null];
        assert_eq!(Nop.put_len(&slots), 0);
        let mut s = slots.clone();
        Nop.get(&mut s, b"ignored");
        assert_eq!(s, slots);
    }
}
