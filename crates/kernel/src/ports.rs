//! Ports, port rights, and per-task name tables.
//!
//! Mach enforces that every reference a task holds to a given port appears
//! under a *single name* in that task. Keeping the invariant makes right
//! transfer expensive: for every incoming right the kernel must probe a
//! reverse map (port → existing name), then either bump a reference count or
//! install a new name in two maps — "many layers of function calls", as the
//! paper puts it. The invariant is genuinely needed for things like
//! authentication (comparing two names tells you whether they are the same
//! port), but it is *presentation*: it only affects how the port appears
//! locally. The paper's `[nonunique]` annotation relaxes it, and the kernel
//! then takes the fast path: allocate a fresh name, one insert, done.
//!
//! This module implements both paths with real hash tables and counts every
//! probe in [`crate::KernelStats::name_table_probes`], so the `[nonunique]`
//! experiment (§4.5, 32.4 µs → 24.7 µs in the paper) measures honest work.

use crate::error::KernelError;
use crate::task::TaskId;
use crate::{Kernel, Result};
use std::collections::HashMap;

/// Global identity of a port (kernel-wide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub(crate) u64);

/// A task-local name for a port right (what user code holds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortName(pub u32);

/// How incoming rights are installed in the receiving task's name table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NameMode {
    /// Mach's invariant: one name per port per task (reverse probe + refcount).
    #[default]
    Unique,
    /// The `[nonunique]` presentation: always mint a fresh name.
    NonUnique,
}

#[derive(Debug)]
struct Entry {
    port: PortId,
    /// Number of send references held under this name.
    send_refs: u32,
    /// Whether this name also carries the receive right.
    is_receive: bool,
}

#[derive(Debug, Default)]
struct NameSpace {
    names: HashMap<u32, Entry>,
    /// Reverse map maintained only for the unique-name invariant.
    reverse: HashMap<PortId, u32>,
    next_name: u32,
}

#[derive(Debug)]
struct PortState {
    receiver: TaskId,
    alive: bool,
}

/// What moving rights cost: the counts a transfer owes
/// [`crate::KernelStats::rights_transferred`] and
/// [`crate::KernelStats::name_table_probes`], gathered under the port-table lock
/// and published by the caller where it already holds a tally — a
/// connection's stripes, or the shared cells for a bootstrap transfer.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RightsTally {
    pub(crate) transferred: u64,
    pub(crate) probes: u64,
}

/// The kernel's port space: all ports plus every task's name table.
#[derive(Debug, Default)]
pub(crate) struct PortTable {
    ports: HashMap<u64, PortState>,
    spaces: HashMap<TaskId, NameSpace>,
    next_port: u64,
}

impl PortTable {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn space(&mut self, task: TaskId) -> &mut NameSpace {
        self.spaces.entry(task).or_default()
    }

    fn mint_name(space: &mut NameSpace) -> u32 {
        // Names start at 1; 0 is reserved as the null name, like MACH_PORT_NULL.
        space.next_name += 1;
        space.next_name
    }

    /// Resolves `name` in `task` to the underlying port, requiring a send or
    /// receive right (a receive right implies the ability to send in this
    /// simplified model, as servers message themselves in tests).
    fn resolve(&mut self, task: TaskId, name: PortName) -> Result<PortId> {
        match self.space(task).names.get(&name.0) {
            Some(e) if e.send_refs > 0 || e.is_receive => Ok(e.port),
            Some(_) => Err(KernelError::InsufficientRights(name)),
            None => Err(KernelError::InvalidName(name)),
        }
    }

    /// Installs a send right for `port` into `dst` using `mode`, returning
    /// the name minted (or reused) in `dst`'s table.
    fn install(
        &mut self,
        dst: TaskId,
        port: PortId,
        mode: NameMode,
        tally: &mut RightsTally,
    ) -> Result<PortName> {
        if !self.ports.get(&port.0).is_some_and(|p| p.alive) {
            return Err(KernelError::InvalidName(PortName(0)));
        }
        tally.transferred += 1;
        let space = self.space(dst);
        Ok(PortName(match mode {
            NameMode::Unique => insert_unique(space, port, &mut tally.probes),
            NameMode::NonUnique => insert_nonunique(space, port, &mut tally.probes),
        }))
    }

    /// Moves one right: the name `from` holds it under is looked at first,
    /// then whether the destination exists (asked by the caller, outside
    /// this table's lock: [`Kernel::existing_task`]), then the port.
    fn transfer(
        &mut self,
        from: TaskId,
        name: PortName,
        to: Result<TaskId>,
        mode: NameMode,
        tally: &mut RightsTally,
    ) -> Result<PortName> {
        let port = self.resolve(from, name)?;
        self.install(to?, port, mode, tally)
    }
}

/// Unique-mode installation: probe the reverse map, then bump or insert.
///
/// Split into layered non-inlined helpers to model the call-depth cost
/// the paper attributes to this path.
fn insert_unique(space: &mut NameSpace, port: PortId, probes: &mut u64) -> u32 {
    if let Some(existing) = probe_reverse(space, port, probes) {
        bump_send_ref(space, existing, probes);
        existing
    } else {
        install_with_reverse(space, port, probes)
    }
}

/// Non-unique-mode installation: fresh name, single insert.
fn insert_nonunique(space: &mut NameSpace, port: PortId, probes: &mut u64) -> u32 {
    let name = PortTable::mint_name(space);
    *probes += 1;
    space.names.insert(name, Entry { port, send_refs: 1, is_receive: false });
    name
}

/// Layer 1 of the unique path: reverse-map probe.
#[inline(never)]
fn probe_reverse(space: &mut NameSpace, port: PortId, probes: &mut u64) -> Option<u32> {
    *probes += 1;
    space.reverse.get(&port).copied().and_then(|n| validate_name(space, n, port, probes))
}

/// Layer 2: validate that the reverse entry still matches the forward table.
#[inline(never)]
fn validate_name(space: &NameSpace, name: u32, port: PortId, probes: &mut u64) -> Option<u32> {
    *probes += 1;
    match space.names.get(&name) {
        Some(e) if e.port == port => Some(name),
        _ => None,
    }
}

/// Layer 3a: bump the send-reference count under an existing name.
#[inline(never)]
fn bump_send_ref(space: &mut NameSpace, name: u32, probes: &mut u64) {
    *probes += 1;
    if let Some(e) = space.names.get_mut(&name) {
        e.send_refs += 1;
    }
}

/// Layer 3b: install a new name in both the forward and reverse maps.
#[inline(never)]
fn install_with_reverse(space: &mut NameSpace, port: PortId, probes: &mut u64) -> u32 {
    let name = PortTable::mint_name(space);
    *probes += 2;
    space.names.insert(name, Entry { port, send_refs: 1, is_receive: false });
    space.reverse.insert(port, name);
    name
}

impl Kernel {
    /// Allocates a new port whose receive right belongs to `task`.
    pub fn port_allocate(&self, task: TaskId) -> Result<PortName> {
        self.existing_task(task)?;
        let mut pt = self.ports.lock();
        pt.next_port += 1;
        let id = PortId(pt.next_port);
        pt.ports.insert(id.0, PortState { receiver: task, alive: true });
        let space = pt.space(task);
        let name = PortTable::mint_name(space);
        space.names.insert(name, Entry { port: id, send_refs: 0, is_receive: true });
        space.reverse.insert(id, name);
        Ok(PortName(name))
    }

    /// Resolves `name` in `task` to the underlying port
    /// ([`PortTable::resolve`]).
    pub(crate) fn resolve_port(&self, task: TaskId, name: PortName) -> Result<PortId> {
        self.ports.lock().resolve(task, name)
    }

    /// Moves the rights `from` holds under `names` into `to`'s name table
    /// under one hold of the port table, returning the names they go by
    /// there. Right by right, as a message delivers them: a name that does
    /// not resolve fails the transfer with the rights before it already
    /// installed (and in `tally`).
    pub(crate) fn transfer_rights(
        &self,
        from: TaskId,
        names: &[PortName],
        to: TaskId,
        mode: NameMode,
        tally: &mut RightsTally,
    ) -> Result<Vec<PortName>> {
        let to = self.existing_task(to);
        let mut pt = self.ports.lock();
        names.iter().map(|&name| pt.transfer(from, name, to.clone(), mode, tally)).collect()
    }

    /// Copies a send right held by `holder` under `name` into `dst`'s name
    /// table (unique mode). This is the bootstrap operation a name server
    /// would provide; rights can also travel inside IPC messages.
    pub fn extract_send_right(
        &self,
        holder: TaskId,
        name: PortName,
        dst: TaskId,
    ) -> Result<PortName> {
        let dst = self.existing_task(dst);
        let mut tally = RightsTally::default();
        let moved = self.ports.lock().transfer(holder, name, dst, NameMode::Unique, &mut tally);
        self.publish_rights(tally);
        moved
    }

    /// Adds a transfer's counts to the shared cells: the transfers no
    /// connection carries (bootstrap, tests).
    fn publish_rights(&self, tally: RightsTally) {
        self.stats().rights_transferred.add(tally.transferred);
        self.stats().name_table_probes.add(tally.probes);
    }

    /// True if `task` holds the receive right for the port named `name`.
    pub fn is_receiver(&self, task: TaskId, name: PortName) -> Result<bool> {
        let mut pt = self.ports.lock();
        let port = pt.resolve(task, name)?;
        Ok(pt.ports.get(&port.0).is_some_and(|p| p.receiver == task))
    }

    /// Releases one send reference held under `name`; removes the name when
    /// the last reference (and no receive right) is gone.
    pub fn deallocate_right(&self, task: TaskId, name: PortName) -> Result<()> {
        let mut pt = self.ports.lock();
        let space = pt.space(task);
        let entry = space.names.get_mut(&name.0).ok_or(KernelError::InvalidName(name))?;
        if entry.send_refs == 0 {
            return Err(KernelError::InsufficientRights(name));
        }
        entry.send_refs -= 1;
        if entry.send_refs == 0 && !entry.is_receive {
            let port = entry.port;
            space.names.remove(&name.0);
            if space.reverse.get(&port) == Some(&name.0) {
                space.reverse.remove(&port);
            }
        }
        Ok(())
    }

    /// Number of distinct names `task` holds (test/diagnostic aid).
    pub fn name_count(&self, task: TaskId) -> usize {
        let mut pt = self.ports.lock();
        pt.space(task).names.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Kernel;

    fn setup() -> (std::sync::Arc<Kernel>, TaskId, TaskId, PortName) {
        let k = Kernel::new();
        let a = k.create_task("a", 64).unwrap();
        let b = k.create_task("b", 64).unwrap();
        let p = k.port_allocate(a).unwrap();
        (k, a, b, p)
    }

    /// One right installed outside any message, counted in the shared cells.
    fn install(k: &Kernel, dst: TaskId, port: PortId, mode: NameMode) -> PortName {
        let mut tally = RightsTally::default();
        let name = k.ports.lock().install(dst, port, mode, &mut tally).unwrap();
        k.publish_rights(tally);
        name
    }

    #[test]
    fn allocate_gives_receive_right() {
        let (k, a, _b, p) = setup();
        assert!(k.is_receiver(a, p).unwrap());
    }

    #[test]
    fn extract_send_right_names_port_in_destination() {
        let (k, a, b, p) = setup();
        let n = k.extract_send_right(a, p, b).unwrap();
        assert!(!k.is_receiver(b, n).unwrap());
        // Both names refer to the same port.
        assert_eq!(k.resolve_port(a, p).unwrap(), k.resolve_port(b, n).unwrap());
    }

    #[test]
    fn unique_mode_reuses_the_name() {
        let (k, a, b, p) = setup();
        let n1 = k.extract_send_right(a, p, b).unwrap();
        let n2 = k.extract_send_right(a, p, b).unwrap();
        assert_eq!(n1, n2, "unique-name invariant must coalesce");
        assert_eq!(k.name_count(b), 1);
    }

    #[test]
    fn nonunique_mode_mints_fresh_names() {
        let (k, a, b, p) = setup();
        let port = k.resolve_port(a, p).unwrap();
        let n1 = install(&k, b, port, NameMode::NonUnique);
        let n2 = install(&k, b, port, NameMode::NonUnique);
        assert_ne!(n1, n2, "[nonunique] presentation mints a new name per transfer");
        assert_eq!(k.name_count(b), 2);
        // Both still resolve to the same port.
        assert_eq!(k.resolve_port(b, n1).unwrap(), k.resolve_port(b, n2).unwrap());
    }

    #[test]
    fn unique_mode_costs_more_probes_than_nonunique() {
        let (k, a, b, p) = setup();
        let port = k.resolve_port(a, p).unwrap();

        let before = k.stats().snapshot();
        install(&k, b, port, NameMode::Unique);
        let unique_first = k.stats().snapshot().since(&before).name_table_probes;

        let before = k.stats().snapshot();
        install(&k, b, port, NameMode::Unique);
        let unique_again = k.stats().snapshot().since(&before).name_table_probes;

        let before = k.stats().snapshot();
        install(&k, b, port, NameMode::NonUnique);
        let nonunique = k.stats().snapshot().since(&before).name_table_probes;

        assert!(unique_first > nonunique);
        assert!(unique_again > nonunique);
        assert_eq!(nonunique, 1);
    }

    #[test]
    fn invalid_name_rejected() {
        let (k, a, _b, _p) = setup();
        assert!(matches!(
            k.resolve_port(a, PortName(999)),
            Err(KernelError::InvalidName(PortName(999)))
        ));
    }

    /// A name in `task`'s table that carries no right at all — a state no
    /// public operation leaves behind, planted to reach the error.
    fn plant_dead_name(k: &Kernel, task: TaskId, port: PortId) -> PortName {
        let entry = Entry { port, send_refs: 0, is_receive: false };
        k.ports.lock().space(task).names.insert(77, entry);
        PortName(77)
    }

    #[test]
    fn is_receiver_errors_one_case_each() {
        let (k, a, b, p) = setup();
        let port = k.resolve_port(a, p).unwrap();
        assert_eq!(k.is_receiver(b, PortName(999)), Err(KernelError::InvalidName(PortName(999))));
        let dead = plant_dead_name(&k, b, port);
        assert_eq!(k.is_receiver(b, dead), Err(KernelError::InsufficientRights(dead)));
        // A name that resolves but is not the receive right is an answer,
        // not an error; `register_server` turns it into `NotReceiver`, after
        // the name's own errors.
        let send = k.extract_send_right(a, p, b).unwrap();
        assert_eq!(k.is_receiver(b, send), Ok(false));
        let serve =
            |name| k.register_server(b, name, Default::default(), |_k, _m| Ok(Default::default()));
        assert_eq!(serve(PortName(999)), Err(KernelError::InvalidName(PortName(999))));
        assert_eq!(serve(dead), Err(KernelError::InsufficientRights(dead)));
        assert_eq!(serve(send), Err(KernelError::NotReceiver));
    }

    #[test]
    fn extract_send_right_errors_one_case_each_in_order() {
        let (k, a, b, p) = setup();
        let port = k.resolve_port(a, p).unwrap();
        let nobody = TaskId(99);
        let before = k.stats().snapshot();
        assert_eq!(
            k.extract_send_right(a, PortName(999), b),
            Err(KernelError::InvalidName(PortName(999)))
        );
        let dead = plant_dead_name(&k, a, port);
        assert_eq!(k.extract_send_right(a, dead, b), Err(KernelError::InsufficientRights(dead)));
        // The holder's name is looked at before the destination task.
        assert_eq!(
            k.extract_send_right(a, PortName(999), nobody),
            Err(KernelError::InvalidName(PortName(999)))
        );
        assert_eq!(k.extract_send_right(a, p, nobody), Err(KernelError::NoSuchTask(nobody)));
        let d = k.stats().snapshot().since(&before);
        assert_eq!((d.rights_transferred, d.name_table_probes), (0, 0), "nothing moved");
        assert_eq!(k.name_count(b), 0);
    }

    #[test]
    fn deallocate_drops_refs_then_name() {
        let (k, a, b, p) = setup();
        let n = k.extract_send_right(a, p, b).unwrap();
        let n2 = k.extract_send_right(a, p, b).unwrap();
        assert_eq!(n, n2); // Two refs under one name.
        k.deallocate_right(b, n).unwrap();
        assert!(k.resolve_port(b, n).is_ok(), "one ref remains");
        k.deallocate_right(b, n).unwrap();
        assert!(k.resolve_port(b, n).is_err(), "name removed after last ref");
        // After removal, a fresh unique insert installs a new name.
        let n3 = k.extract_send_right(a, p, b).unwrap();
        assert!(k.resolve_port(b, n3).is_ok());
    }

    #[test]
    fn deallocate_receive_right_refused() {
        let (k, a, _b, p) = setup();
        assert!(matches!(k.deallocate_right(a, p), Err(KernelError::InsufficientRights(_))));
    }

    #[test]
    fn rights_transfer_counter() {
        let (k, a, b, p) = setup();
        let before = k.stats().snapshot();
        k.extract_send_right(a, p, b).unwrap();
        k.extract_send_right(a, p, b).unwrap();
        assert_eq!(k.stats().snapshot().since(&before).rights_transferred, 2);
    }
}
