//! RCU-style published snapshots of the region store — the guard read
//! path, lock-free on a hit.
//!
//! The region table is textbook read-mostly state: writes happen at
//! insmod/rmmod and grant/revoke rates, reads on *every* module load and
//! store. [`SnapshotStore`] therefore keeps an immutable
//! [`PolicySnapshot`] in a cell behind a short lock that only a miss
//! takes: readers look up in the snapshot their thread holds with zero
//! locks; writers, serialized by the policy module's writer lock, build
//! the next rule list from the published one and publish it whole. The
//! published snapshot is the only copy of the rule list. A reader
//! mid-check keeps the snapshot it read alive — it can never observe a
//! torn table — and the superseded snapshot is freed when its last
//! reader drops it.
//!
//! Every snapshot — a new store's empty one and each publish — takes a
//! fresh **generation** from one process-wide counter, so a generation
//! names one snapshot of one store: two stores never share one, and a
//! store's generations only grow. The generation is the only
//! invalidation signal for the guard front's per-site slots
//! ([`crate::front::GuardFront`]), the VM's promoted grants and each
//! thread's held snapshot: a cached grant or snapshot is valid only while
//! its recorded generation equals its policy's current one, so any table
//! write — grant, revoke, wholesale replace — stales every slot, every
//! baked grant and every held snapshot at the cost of one atomic store,
//! and a grant baked from one policy never matches another.
//!
//! **The held snapshot.** Each thread keeps the snapshot it last read
//! ([`SnapshotStore::read`]), stamped with the generation it was
//! published at. A read loads the store's generation and answers from
//! the held snapshot when the two are equal: one atomic load and no
//! locked instruction, the same compare a front slot makes per admit.
//! Otherwise it locks the cell for one `Arc` clone of the current
//! snapshot and keeps it. Every read on a thread shares its one entry,
//! so a thread that alternates between two stores misses on every
//! switch. A dropped store clears the dropping thread's entry whichever
//! store it came from; another store pays at most one miss for that.
//!
//! Memory-ordering argument (revoke → publish → reader-miss): the writer
//! builds the next snapshot, installs it under the cell's lock, and only
//! then stores the new generation (`SeqCst`). A revoke therefore does
//! not return until the shrunken table is the published one. Any reader
//! that starts a check after revoke returns (i.e. observes any effect
//! ordered after it) loads the new generation, so neither a slot nor a
//! held snapshot tagged with an older one can match again; and since the
//! install happens before that generation store, which the reader's load
//! observed before it locked, the reader's lock comes after the writer's
//! unlock and its clone is a snapshot at least as new as that
//! generation. A held snapshot that matches the generation a reader
//! loaded is the very snapshot the store published at that generation
//! (the counter issues each generation once), so answering from it is
//! answering from what the store held when the reader loaded the
//! generation. The writer drops the superseded snapshot only after it
//! unlocks, so freeing a large table never holds up a reader's miss.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use kop_core::{AccessFlags, Region, Size, VAddr};
use kop_trace::Counter;

use crate::frozen::{FrozenKind, FrozenStore};
use crate::store::Lookup;

/// An immutable, self-contained copy of the policy at one generation.
///
/// Lookup semantics replicate the paper's table exactly: an access is
/// permitted if **any** covering region grants the intent; otherwise the
/// first covering region makes it [`Lookup::Forbidden`]; otherwise
/// [`Lookup::NoMatch`]. Lookups are served by a [`FrozenStore`] built at
/// publish time: one layer when the regions are disjoint, a layered
/// index when they overlap, each layer a static 9-ary search tree
/// (`layers × depth` node probes), with bit-exact flat-scan semantics
/// (store-order any-grant-wins).
pub struct PolicySnapshot {
    generation: u64,
    /// The frozen index (also owns the store-order region list).
    frozen: FrozenStore,
}

impl PolicySnapshot {
    /// Build the snapshot over `regions` (the rule list in store order)
    /// at `generation`.
    fn build(regions: Vec<Region>, generation: u64) -> PolicySnapshot {
        PolicySnapshot {
            generation,
            frozen: FrozenStore::build(regions),
        }
    }

    /// The generation this snapshot was published at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.frozen.len()
    }

    /// Whether the snapshot holds no regions.
    pub fn is_empty(&self) -> bool {
        self.frozen.is_empty()
    }

    /// The regions, in store order.
    pub fn regions(&self) -> &[Region] {
        self.frozen.regions()
    }

    /// The frozen index serving this snapshot's lookups.
    pub fn frozen(&self) -> &FrozenStore {
        &self.frozen
    }

    /// Which frozen index this snapshot built (sorted vs interval).
    pub fn frozen_kind(&self) -> FrozenKind {
        self.frozen.kind()
    }

    /// Classify an access against this frozen table. Pure: no locks, no
    /// mutation, callable from any thread.
    #[inline]
    pub fn lookup(&self, addr: VAddr, size: Size, flags: AccessFlags) -> Lookup {
        self.frozen.lookup_frozen(addr, size, flags)
    }
}

impl std::fmt::Debug for PolicySnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicySnapshot")
            .field("generation", &self.generation)
            .field("regions", &self.frozen.len())
            .field("frozen", &self.frozen.kind())
            .finish()
    }
}

thread_local! {
    /// This thread's held snapshot: the one its last [`SnapshotStore::read`]
    /// answered from, whichever store published it.
    static HELD: Cell<Option<Arc<PolicySnapshot>>> = const { Cell::new(None) };
}

/// The source of every store's generations. 0 is never issued.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

/// A generation no snapshot has had. `Relaxed`: the value publishes no
/// data (the store's own `SeqCst` generation does), and uniqueness, and
/// growth across one store's serialized publishes, come from the
/// read-modify-write order alone.
fn next_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// The epoch/RCU cell: current snapshot + generation + publish counter.
/// It keeps no history and calls nobody back: a fast path learns of a
/// publish only by comparing its generation tag.
///
/// Writers must be externally serialized (the policy module publishes
/// while holding its writer lock); a reader takes the cell's lock only on
/// a miss.
pub struct SnapshotStore {
    /// Locked by a held snapshot's miss, [`Self::load_full`] and
    /// [`Self::publish`], each for one `Arc` clone or swap.
    current: Mutex<Arc<PolicySnapshot>>,
    /// Stored *after* the snapshot is installed on publish; the fast
    /// paths' validity tag. Never 0, so 0 can mean "never filled".
    generation: AtomicU64,
    publishes: Counter,
}

impl SnapshotStore {
    /// An empty store at a fresh generation.
    pub fn new() -> SnapshotStore {
        let gen = next_generation();
        SnapshotStore {
            current: Mutex::new(Arc::new(PolicySnapshot::build(Vec::new(), gen))),
            generation: AtomicU64::new(gen),
            publishes: Counter::new("policy.snapshot_publishes"),
        }
    }

    /// The current generation. `SeqCst` so that a generation observed
    /// after a publish implies the published snapshot is visible too.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Run `f` on the current snapshot through this thread's held one
    /// (see the module docs): one generation load, and a `load_full`
    /// that the thread keeps only when the held snapshot has another
    /// generation. Takes no lock and no locked instruction while the
    /// generation stands still.
    #[inline]
    pub fn read<R>(&self, f: impl FnOnce(&PolicySnapshot) -> R) -> R {
        let gen = self.generation();
        // Taken out while `f` runs, so a read nested in `f` finds the
        // entry empty and only costs a miss.
        let snap = match HELD.with(Cell::take) {
            Some(s) if s.generation == gen => s,
            _ => self.load_full(),
        };
        let out = f(&snap);
        HELD.with(|held| held.set(Some(snap)));
        out
    }

    /// Clone out the current snapshot: one short lock around the
    /// refcount bump, the cost of a held snapshot's miss.
    pub fn load_full(&self) -> Arc<PolicySnapshot> {
        Arc::clone(&self.current.lock())
    }

    /// Rebuild and publish a new snapshot at a fresh generation, which
    /// it returns. The snapshot is built before the cell is locked,
    /// installed under the lock, then the generation and the publish
    /// count are stored; the superseded snapshot is dropped after the
    /// unlock. Callers serialize publishes (the policy module holds its
    /// writer lock across mutate + publish, so generation order matches
    /// mutation order).
    pub fn publish(&self, regions: Vec<Region>) -> u64 {
        let gen = next_generation();
        let next = Arc::new(PolicySnapshot::build(regions, gen));
        let superseded = std::mem::replace(&mut *self.current.lock(), next);
        // Snapshot first, generation second: a reader that sees the new
        // generation and then locks finds the new snapshot installed.
        self.generation.store(gen, Ordering::SeqCst);
        self.publishes.inc();
        drop(superseded);
        gen
    }

    /// The live publish counter cell (for registry registration).
    pub fn publish_counter(&self) -> &Counter {
        &self.publishes
    }
}

impl Drop for SnapshotStore {
    /// Release the dropping thread's held snapshot, whichever store
    /// published it: another store's read pays one miss for it. Other
    /// threads' entries go on their next read or at their exit. During
    /// thread teardown the entry may be gone already: nothing to do.
    fn drop(&mut self) {
        let _ = HELD.try_with(Cell::take);
    }
}

impl Default for SnapshotStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kop_core::Protection;

    fn r(base: u64, len: u64, prot: Protection) -> Region {
        Region::new(VAddr(base), Size(len), prot).unwrap()
    }

    #[test]
    fn empty_snapshot_matches_nothing() {
        let s = SnapshotStore::new();
        assert_ne!(s.generation(), 0);
        assert_eq!(
            s.read(|snap| snap.lookup(VAddr(0x1000), Size(8), AccessFlags::READ)),
            Lookup::NoMatch
        );
    }

    #[test]
    fn publish_bumps_generation_and_swaps_table() {
        let s = SnapshotStore::new();
        let g0 = s.generation();
        let g = s.publish(vec![r(0x1000, 0x1000, Protection::READ_WRITE)]);
        assert!(g > g0);
        assert_eq!(s.generation(), g);
        assert_eq!(s.publish_counter().get(), 1);
        assert!(matches!(
            s.read(|snap| snap.lookup(VAddr(0x1800), Size(8), AccessFlags::RW)),
            Lookup::Permitted(_)
        ));
        let g1 = s.publish(Vec::new());
        assert!(g1 > g);
        assert_eq!(
            s.read(|snap| snap.lookup(VAddr(0x1800), Size(8), AccessFlags::RW)),
            Lookup::NoMatch
        );
    }

    #[test]
    fn disjoint_fast_path_agrees_with_scan() {
        // Same region set built both ways must classify identically.
        let disjoint = vec![
            r(0x1000, 0x1000, Protection::READ_WRITE),
            r(0x3000, 0x1000, Protection::READ_ONLY),
            r(0x8000, 0x100, Protection::NONE),
        ];
        let snap = PolicySnapshot::build(disjoint.clone(), 1);
        assert_eq!(snap.frozen_kind(), FrozenKind::Sorted);
        let probes = [
            (0x1800u64, 8u64, AccessFlags::RW),
            (0x3000, 8, AccessFlags::READ),
            (0x3000, 8, AccessFlags::WRITE),
            (0x8000, 4, AccessFlags::READ),
            (0x2000, 8, AccessFlags::READ),
            (0x3ff8, 16, AccessFlags::READ), // straddles region end
        ];
        for (a, s, f) in probes {
            let mut first = None;
            let mut want = Lookup::NoMatch;
            for reg in &disjoint {
                if reg.covers(VAddr(a), Size(s)) {
                    if reg.prot.allows(f) {
                        want = Lookup::Permitted(*reg);
                        break;
                    }
                    if first.is_none() {
                        first = Some(*reg);
                    }
                }
            }
            if matches!(want, Lookup::NoMatch) {
                if let Some(reg) = first {
                    want = Lookup::Forbidden(reg);
                }
            }
            assert_eq!(snap.lookup(VAddr(a), Size(s), f), want, "probe {a:#x}");
        }
    }

    #[test]
    fn overlapping_regions_use_any_grant_wins() {
        // A NONE rule shadowed by a later RW rule over the same bytes:
        // table semantics say any granting cover wins.
        let regions = vec![
            r(0x1000, 0x1000, Protection::NONE),
            r(0x1000, 0x1000, Protection::READ_WRITE),
        ];
        let snap = PolicySnapshot::build(regions, 1);
        assert_eq!(
            snap.frozen_kind(),
            FrozenKind::Interval,
            "overlap selects the interval index"
        );
        assert!(matches!(
            snap.lookup(VAddr(0x1400), Size(8), AccessFlags::RW),
            Lookup::Permitted(_)
        ));
        // EXEC is granted by neither: Forbidden, reported on the first
        // covering region.
        assert!(matches!(
            snap.lookup(VAddr(0x1400), Size(8), AccessFlags::EXEC),
            Lookup::Forbidden(_)
        ));
    }
}
