//! The policy module itself: a rule list + default action + violation
//! action + statistics behind the `carat_guard` entry point.
//!
//! §3.1: *"this module is inserted into the kernel and provides a single
//! symbol, `carat_guard`, which is invoked by modules which have been
//! transformed by the compiler. This interface is general enough — and
//! simple enough — that potentially any memory policy system could be
//! built on top of it."*
//!
//! # SMP structure
//!
//! The check path is read-mostly, so it is split RCU-style (DESIGN
//! §3.13): the rule list is stored once, published. A mutation takes the
//! one writer lock, edits a copy of the published list, passes it
//! through the [`StoreKind`]'s admission contract, and publishes an
//! immutable [`PolicySnapshot`]; a memory check reads only what is
//! published, through its thread's held snapshot, and touches no lock on
//! a hit. The intrinsic grants are a short list behind a lock of their
//! own, edited in place. Default and violation actions are atomics.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use kop_core::error::ViolationKind;
use kop_core::{AccessFlags, Grant, KernelError, Region, Size, VAddr, Violation};

use kop_trace::CounterRegistry;

use crate::snapshot::{PolicySnapshot, SnapshotStore};
use crate::stats::{GuardStats, GuardStatsSnapshot};
use crate::store::{admit, Lookup, PolicyError, StoreKind};
use crate::vlog::ViolationLog;
use crate::PolicyCheck;

/// The memory geometry of one NIC datapath, in the driver's virtual
/// address space, used by [`PolicyModule::datapath_policy`] to build a
/// least-privilege rule set. Each window is `(base, len)`; zero-length
/// windows are skipped.
#[derive(Clone, Debug, Default)]
pub struct DatapathGeometry {
    /// Control structures the CPU reads and writes: descriptor rings,
    /// stats scratch.
    pub control: Vec<(u64, u64)>,
    /// Transmit payload buffers — the CPU writes frames here for the
    /// device to DMA out (read-write).
    pub tx_buffers: (u64, u64),
    /// Receive payload buffers — the *device* writes these via DMA
    /// (below the guards); the CPU only ever reads them (read-only).
    pub rx_buffers: (u64, u64),
    /// The device's MMIO BAR window (read-write).
    pub mmio: (u64, u64),
}

/// What happens when no region covers an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DefaultAction {
    /// Allow unmatched accesses (regions then act as deny/downgrade rules).
    Allow,
    /// Deny unmatched accesses (regions act as allow rules) — the safe
    /// default for firewalling a module.
    Deny,
}

impl DefaultAction {
    /// The action's byte, in the policy's atomic and on the ioctl wire.
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            DefaultAction::Allow => 0,
            DefaultAction::Deny => 1,
        }
    }

    /// The action a byte names; `None` for a byte [`Self::to_u8`] never
    /// writes.
    pub(crate) fn from_u8(v: u8) -> Option<DefaultAction> {
        match v {
            0 => Some(DefaultAction::Allow),
            1 => Some(DefaultAction::Deny),
            _ => None,
        }
    }
}

/// What the policy module does when a check fails.
///
/// The paper (§3.1): forcibly unloading a running module is dangerous
/// (locks held, state shared), so CARAT KOP "log\[s\] that they occur and
/// cause\[s\] a kernel panic" — and argues a hard stop is the *right* call in
/// production HPC. The other actions exist for development and for the
/// survive-the-violation mode: [`ViolationAction::Quarantine`] hands the
/// violation to the kernel, which oopses and unloads *only* the offending
/// module (symbol unlink, policy revoke, budget accounting) while the rest
/// of the system keeps running — the posture MOAT and Rex argue for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationAction {
    /// Log and panic the (simulated) kernel — the paper's behaviour.
    Panic,
    /// Log and squash the access (like a page fault that skips the op).
    LogAndDeny,
    /// Log and let the access proceed (audit mode).
    LogAndAllow,
    /// Log, squash, and report the violation for module quarantine: the
    /// kernel charges it against the module's violation budget and
    /// force-unloads the module when the budget is exhausted.
    Quarantine,
}

impl ViolationAction {
    /// The action's byte, in the policy's atomic and on the ioctl wire.
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            ViolationAction::Panic => 0,
            ViolationAction::LogAndDeny => 1,
            ViolationAction::LogAndAllow => 2,
            ViolationAction::Quarantine => 3,
        }
    }

    /// The action a byte names; `None` for a byte [`Self::to_u8`] never
    /// writes.
    pub(crate) fn from_u8(v: u8) -> Option<ViolationAction> {
        match v {
            0 => Some(ViolationAction::Panic),
            1 => Some(ViolationAction::LogAndDeny),
            2 => Some(ViolationAction::LogAndAllow),
            3 => Some(ViolationAction::Quarantine),
            _ => None,
        }
    }
}

/// Outcome of an enforced guard check.
#[derive(Debug)]
pub enum GuardOutcome {
    /// The access may proceed.
    Allowed,
    /// The access must be squashed; execution may continue.
    Denied(Violation),
    /// The access must be squashed **and** the violation charged against
    /// the offending module's quarantine budget by the caller.
    Quarantined(Violation),
    /// The kernel has panicked (the paper's configuration).
    Panicked(KernelError),
}

/// A classified check: the result plus, when a region grant permitted it,
/// the [`Grant`]: the granting region and the generation of the snapshot
/// that granted it — what a [`crate::front::GuardFront`] slot is filled
/// from.
pub struct ClassifiedCheck {
    /// The check result, identical to [`PolicyModule::check`]'s.
    pub result: Result<(), Violation>,
    /// `Some` only for region-grant permits; default-action allows and
    /// all denials yield `None` (they must not fill a slot — see
    /// [`crate::front`]).
    pub grant: Option<Grant>,
}

/// Maximum violation log entries retained.
const LOG_CAP: usize = 1024;

/// The CARAT KOP policy module.
///
/// ```
/// use kop_core::{AccessFlags, Protection, Region, Size, VAddr};
/// use kop_policy::PolicyModule;
///
/// let pm = PolicyModule::new(); // default deny
/// pm.add_region(Region::new(VAddr(0x1000), Size(0x1000), Protection::READ_WRITE).unwrap())
///     .unwrap();
/// assert!(pm.check(VAddr(0x1800), Size(8), AccessFlags::RW).is_ok());
/// assert!(pm.check(VAddr(0x9000), Size(8), AccessFlags::READ).is_err());
/// ```
pub struct PolicyModule {
    /// The admission contract every rule-list mutation passes.
    kind: StoreKind,
    /// Serializes rule-list writers. A mutation holds it from reading
    /// the published rule list to publishing its edit, so generation
    /// order matches mutation order. It is not the snapshot cell's lock,
    /// so a reader's miss never waits behind a rebuild.
    writer: Mutex<()>,
    /// The rule list in store order, published: every check is answered
    /// here and every mutation starts from it.
    snapshot: SnapshotStore,
    /// The granted intrinsic ids, sorted. Grants and revokes edit the
    /// list in place under its own short lock, which every intrinsic
    /// check takes too.
    intrinsics: Mutex<Vec<u32>>,
    default_action: AtomicU8,
    violation_action: AtomicU8,
    stats: GuardStats,
    log: ViolationLog,
}

impl PolicyModule {
    /// A policy module under the paper's 64-entry table contract, default
    /// deny, panic on violation.
    pub fn new() -> PolicyModule {
        Self::with_kind(StoreKind::Table)
    }

    /// A policy module under a chosen admission contract.
    pub fn with_kind(kind: StoreKind) -> PolicyModule {
        PolicyModule {
            kind,
            writer: Mutex::new(()),
            snapshot: SnapshotStore::new(),
            intrinsics: Mutex::new(Vec::new()),
            default_action: AtomicU8::new(DefaultAction::Deny.to_u8()),
            violation_action: AtomicU8::new(ViolationAction::Panic.to_u8()),
            stats: GuardStats::new(),
            log: ViolationLog::new(LOG_CAP),
        }
    }

    /// The paper's two-region evaluation policy (§4.2, footnote 5): *"For
    /// two regions specifically, the policy rule is that kernel addresses
    /// (the 'high half') are allowed, but user addresses (the 'low half')
    /// are disallowed."*
    pub fn two_region_paper_policy() -> PolicyModule {
        use kop_core::layout::{KERNEL_HALF_BASE, USER_HALF_END};
        use kop_core::Protection;
        let pm = PolicyModule::new();
        // Rule 1: the whole kernel half, read-write.
        pm.add_region(
            Region::new(
                VAddr(KERNEL_HALF_BASE),
                Size(u64::MAX - KERNEL_HALF_BASE + 1),
                Protection::READ_WRITE,
            )
            .expect("kernel half region"),
        )
        .expect("insert kernel half");
        // Rule 2: the whole user half, no permissions (explicit deny).
        pm.add_region(
            Region::new(VAddr(0), Size(USER_HALF_END), Protection::NONE).expect("user half"),
        )
        .expect("insert user half");
        pm
    }

    /// A least-privilege datapath policy built from a NIC driver's
    /// memory geometry, with the receive DMA buffers as a first-class
    /// region of their own.
    ///
    /// The paper's two-region policy admits the whole kernel half; a
    /// real deployment wants the module confined to exactly the memory
    /// its datapath touches. This constructor encodes that: descriptor
    /// rings, stats scratch, and transmit buffers are read-write (the
    /// CPU builds frames and recycles descriptors there), while the
    /// **receive buffers are CPU read-only** — the device's DMA engine
    /// fills them from the physical side, below the guards (§4 of the
    /// paper: DMA is unguarded), and the module is only ever allowed to
    /// *read* received data, never scribble into DMA-owned memory. The
    /// MMIO window is read-write. Everything else is default-deny.
    pub fn datapath_policy(geo: &DatapathGeometry) -> PolicyModule {
        use kop_core::Protection;
        let windows: Vec<(Region, &str)> = geo
            .control
            .iter()
            .map(|&window| (window, Protection::READ_WRITE, "control"))
            .chain([
                (geo.tx_buffers, Protection::READ_WRITE, "tx buffer"),
                (geo.rx_buffers, Protection::READ_ONLY, "rx buffer"),
                (geo.mmio, Protection::READ_WRITE, "mmio"),
            ])
            .filter(|&((_, len), _, _)| len != 0)
            .map(|((base, len), prot, what)| {
                let region = Region::new(VAddr(base), Size(len), prot)
                    .unwrap_or_else(|| panic!("bad {what} region"));
                (region, what)
            })
            .collect();
        let pm = PolicyModule::new();
        if pm.replace_regions(windows.iter().map(|&(r, _)| r)).is_err() {
            // One reload refuses exactly what a run of single inserts
            // would: replay them to name the window refused first.
            let probe = PolicyModule::new();
            for &(region, what) in &windows {
                probe
                    .add_region(region)
                    .unwrap_or_else(|_| panic!("insert {what} region"));
            }
            unreachable!("a reload refused windows every single insert admits");
        }
        pm
    }

    /// The admission contract this module's rule list follows.
    pub fn store_kind(&self) -> StoreKind {
        self.kind
    }

    /// Admit `next` as the whole rule list and publish it; the caller
    /// holds the writer lock. On error the rule list, the generation and
    /// the publish count are untouched.
    fn install(&self, next: Vec<Region>) -> Result<(), PolicyError> {
        self.snapshot.publish(admit(self.kind, next)?);
        Ok(())
    }

    /// Add a firewall rule.
    pub fn add_region(&self, region: Region) -> Result<(), PolicyError> {
        let _writer = self.writer.lock();
        let mut next = self.regions();
        next.push(region);
        self.install(next)
    }

    /// Remove the rule with this base address. The rest keep their store
    /// order, so the list stays admissible.
    pub fn remove_region(&self, base: VAddr) -> Result<Region, PolicyError> {
        let _writer = self.writer.lock();
        let mut rules = self.regions();
        let idx = rules
            .iter()
            .position(|r| r.base == base)
            .ok_or(PolicyError::NoSuchRegion { base })?;
        let removed = rules.remove(idx);
        self.snapshot.publish(rules);
        Ok(removed)
    }

    /// Drop all rules.
    pub fn clear_regions(&self) {
        let _writer = self.writer.lock();
        self.snapshot.publish(Vec::new());
    }

    /// Atomically replace the whole rule set in one publish: readers see
    /// either the old set or the new set, never a half-built mixture
    /// (the "firewall ruleset reload" the torn-table test leans on). The
    /// new list is admitted whole, O(n log n), and accepted exactly when
    /// adding its rules one by one to an empty module would accept them
    /// all; otherwise the first such rejection is returned and nothing
    /// changes.
    pub fn replace_regions(
        &self,
        regions: impl IntoIterator<Item = Region>,
    ) -> Result<(), PolicyError> {
        let _writer = self.writer.lock();
        self.install(regions.into_iter().collect())
    }

    /// Republish the unchanged rule set so the store generation
    /// advances. Every guard-front slot and promoted-tier grant tagged
    /// with an older generation becomes stale in this single publish —
    /// the live-upgrade swap uses this so no check can admit against a
    /// grant observed before the swap. Returns the new generation.
    pub fn bump_epoch(&self) -> u64 {
        let _writer = self.writer.lock();
        self.snapshot.publish(self.regions())
    }

    /// Number of rules.
    pub fn region_count(&self) -> usize {
        self.snapshot.load_full().len()
    }

    /// Snapshot of all rules.
    pub fn regions(&self) -> Vec<Region> {
        self.snapshot.load_full().regions().to_vec()
    }

    /// The current published policy snapshot (one short lock).
    pub fn policy_snapshot(&self) -> Arc<PolicySnapshot> {
        self.snapshot.load_full()
    }

    /// The store generation: a fresh one from the process-wide counter
    /// on every table write, so no other policy ever has it. The one
    /// staleness tag of every fast path (guard-front slots, promoted
    /// tiers' grants): only a table write can change what a cached
    /// region grant admits.
    #[inline]
    pub fn store_generation(&self) -> u64 {
        self.snapshot.generation()
    }

    /// Total snapshot publishes so far.
    pub fn snapshot_publishes(&self) -> u64 {
        self.snapshot.publish_counter().get()
    }

    /// Account `n` guards admitted by a fast path (a cached grant of the
    /// *current* generation) without
    /// re-running the lookup, with one pair of counter updates. Keeps
    /// `stats.checks` equal to the number of guard invocations even when
    /// a fast path answers most of them. Callers that batch their admits
    /// (guard fronts, the promoted VM tier) drain through here before any
    /// reader can observe the stats.
    #[inline]
    pub fn record_fast_permits(&self, n: u64) {
        if n > 0 {
            self.stats.record_permitted_n(n);
        }
    }

    /// Grant a privileged intrinsic (§5 extension): "a different policy
    /// table could be consulted to determine if a given kernel module has
    /// access to a privileged intrinsic".
    pub fn allow_intrinsic(&self, id: u32) {
        let mut ids = self.intrinsics.lock();
        if let Err(at) = ids.binary_search(&id) {
            ids.insert(at, id);
        }
    }

    /// Revoke a privileged intrinsic; returns whether it was granted.
    pub fn revoke_intrinsic(&self, id: u32) -> bool {
        let mut ids = self.intrinsics.lock();
        let Ok(at) = ids.binary_search(&id) else {
            return false;
        };
        ids.remove(at);
        true
    }

    /// The granted intrinsic ids, ascending.
    pub fn granted_intrinsics(&self) -> Vec<u32> {
        self.intrinsics.lock().clone()
    }

    /// The pure intrinsic check: classify, update stats, log violations.
    /// Takes the grant list's short lock for one binary search. Unlisted
    /// intrinsics are denied.
    pub fn check_intrinsic(&self, id: u32) -> Result<(), Violation> {
        if self.intrinsics.lock().binary_search(&id).is_ok() {
            self.stats.record_permitted();
            Ok(())
        } else {
            // The violation reuses the memory-violation shape: the
            // "address" carries the intrinsic id, size 0, EXEC intent.
            let v = Violation::new(
                VAddr(id as u64),
                Size(0),
                AccessFlags::EXEC,
                ViolationKind::ForbiddenIntrinsic,
            );
            self.stats.record_insufficient();
            self.log.push(v);
            Err(v)
        }
    }

    /// Check an intrinsic and apply the configured violation action.
    pub fn enforce_intrinsic(&self, id: u32) -> GuardOutcome {
        self.outcome(self.check_intrinsic(id))
    }

    /// Apply the configured violation action to a check result.
    fn outcome(&self, result: Result<(), Violation>) -> GuardOutcome {
        match result {
            Ok(()) => GuardOutcome::Allowed,
            Err(v) => match self.violation_action() {
                ViolationAction::Panic => GuardOutcome::Panicked(v.into()),
                ViolationAction::LogAndDeny => GuardOutcome::Denied(v),
                ViolationAction::LogAndAllow => GuardOutcome::Allowed,
                ViolationAction::Quarantine => GuardOutcome::Quarantined(v),
            },
        }
    }

    /// Set the default action.
    pub fn set_default_action(&self, action: DefaultAction) {
        self.default_action.store(action.to_u8(), Ordering::SeqCst);
    }

    /// Current default action (one atomic load).
    pub fn default_action(&self) -> DefaultAction {
        DefaultAction::from_u8(self.default_action.load(Ordering::SeqCst))
            .expect("only to_u8 stores the default action")
    }

    /// Set the violation action.
    pub fn set_violation_action(&self, action: ViolationAction) {
        self.violation_action
            .store(action.to_u8(), Ordering::SeqCst);
    }

    /// Current violation action (one atomic load).
    pub fn violation_action(&self) -> ViolationAction {
        ViolationAction::from_u8(self.violation_action.load(Ordering::SeqCst))
            .expect("only to_u8 stores the violation action")
    }

    /// Guard statistics snapshot.
    pub fn stats(&self) -> GuardStatsSnapshot {
        self.stats.snapshot()
    }

    /// Register every policy counter — guard stats, snapshot publishes,
    /// dropped log entries — into a counter registry (the tracer's, so
    /// `/dev/trace counters` shows them).
    pub fn register_counters(&self, registry: &CounterRegistry) {
        self.stats.register_into(registry);
        registry.register(self.snapshot.publish_counter());
        registry.register(self.log.dropped_counter());
    }

    /// Reset statistics.
    pub fn reset_stats(&self) {
        self.stats.reset()
    }

    /// The violation log (most recent last), rendered. Formatting costs
    /// are paid here — at read time — not on the denial path.
    pub fn violation_log(&self) -> Vec<String> {
        self.log.rendered()
    }

    /// The raw retained violations (most recent last).
    pub fn violations(&self) -> Vec<Violation> {
        self.log.entries()
    }

    /// Whether this access is the vacuous empty interval a coalesced
    /// range guard produces on a zero-trip loop (`n == 0` ⇒ byte count
    /// 0): nothing will be touched, so nothing needs permission. Intent
    /// flags must still be present — a size-0 *and* flag-less check
    /// remains malformed.
    #[inline]
    fn vacuous(&self, size: Size, flags: AccessFlags) -> bool {
        size.raw() == 0 && !flags.is_empty()
    }

    /// Reject malformed accesses before any lookup. Returns the violation
    /// to report, if any.
    #[inline]
    fn precheck(&self, addr: VAddr, size: Size, flags: AccessFlags) -> Option<Violation> {
        if size.raw() == 0 || flags.is_empty() {
            return Some(Violation::new(
                addr,
                size,
                flags,
                ViolationKind::MalformedAccess,
            ));
        }
        if addr.checked_add(size.raw() - 1).is_none() {
            return Some(Violation::new(
                addr,
                size,
                flags,
                ViolationKind::AddressOverflow,
            ));
        }
        None
    }

    /// Record a lookup outcome: stats + log, returning the check result.
    #[inline]
    fn settle(
        &self,
        addr: VAddr,
        size: Size,
        flags: AccessFlags,
        lookup: Lookup,
    ) -> Result<(), Violation> {
        match lookup {
            Lookup::Permitted(_) => {
                self.stats.record_permitted();
                Ok(())
            }
            Lookup::Forbidden(_) => {
                let v = Violation::new(addr, size, flags, ViolationKind::InsufficientPermissions);
                self.stats.record_insufficient();
                self.log.push(v);
                Err(v)
            }
            Lookup::NoMatch => match self.default_action() {
                DefaultAction::Allow => {
                    self.stats.record_permitted();
                    Ok(())
                }
                DefaultAction::Deny => {
                    let v = Violation::new(addr, size, flags, ViolationKind::NoMatchingRegion);
                    self.stats.record_no_match();
                    self.log.push(v);
                    Err(v)
                }
            },
        }
    }

    /// The pure check: classify the access, update stats, log violations.
    /// Does **not** apply the violation action — see [`Self::enforce`].
    ///
    /// Takes **no lock** on a hit: one generation load that validates
    /// this thread's held snapshot (one short lock for a `load_full` only
    /// when a publish or another policy's check replaced it), a
    /// frozen-table lookup, and counter adds into the thread's own
    /// stripes (the denial paths additionally take the cold log mutex).
    /// No locked instruction while the generation stands still.
    pub fn check(&self, addr: VAddr, size: Size, flags: AccessFlags) -> Result<(), Violation> {
        self.check_classified(addr, size, flags).result
    }

    /// The check a guard front's miss takes: [`Self::check`], reporting
    /// which region granted a permit, plus the generation of the
    /// snapshot that granted it, so the caller may fill a slot from it.
    #[inline]
    pub fn check_classified(&self, addr: VAddr, size: Size, flags: AccessFlags) -> ClassifiedCheck {
        if self.vacuous(size, flags) {
            self.stats.record_permitted();
            return ClassifiedCheck {
                result: Ok(()),
                grant: None, // empty interval: nothing to memoize
            };
        }
        if let Some(v) = self.precheck(addr, size, flags) {
            self.stats.record_malformed();
            self.log.push(v);
            return ClassifiedCheck {
                result: Err(v),
                grant: None,
            };
        }
        let (lookup, gen) = self
            .snapshot
            .read(|snap| (snap.lookup(addr, size, flags), snap.generation()));
        let grant = match lookup {
            Lookup::Permitted(region) => Some(Grant { region, gen }),
            _ => None,
        };
        ClassifiedCheck {
            result: self.settle(addr, size, flags, lookup),
            grant,
        }
    }

    /// Check and apply the configured violation action.
    pub fn enforce(&self, addr: VAddr, size: Size, flags: AccessFlags) -> GuardOutcome {
        self.outcome(self.check(addr, size, flags))
    }
}

impl Default for PolicyModule {
    fn default() -> Self {
        Self::new()
    }
}

impl PolicyCheck for PolicyModule {
    #[inline]
    fn carat_guard(&self, addr: VAddr, size: Size, flags: AccessFlags) -> Result<(), Violation> {
        self.check(addr, size, flags)
    }
}

impl PolicyCheck for &PolicyModule {
    #[inline]
    fn carat_guard(&self, addr: VAddr, size: Size, flags: AccessFlags) -> Result<(), Violation> {
        (*self).check(addr, size, flags)
    }
}

impl PolicyCheck for std::sync::Arc<PolicyModule> {
    #[inline]
    fn carat_guard(&self, addr: VAddr, size: Size, flags: AccessFlags) -> Result<(), Violation> {
        self.as_ref().check(addr, size, flags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MAX_REGIONS;
    use kop_core::layout::{DIRECT_MAP_BASE, KERNEL_HALF_BASE};
    use kop_core::Protection;

    #[test]
    fn datapath_policy_makes_rx_buffers_read_only() {
        let geo = DatapathGeometry {
            control: vec![(0x1000, 0x1000), (0x3000, 0x800)],
            tx_buffers: (0x10_000, 0x80_000),
            rx_buffers: (0x90_000, 0x40_000),
            mmio: (0xf000_0000, 0x2_0000),
        };
        let pm = PolicyModule::datapath_policy(&geo);
        assert_eq!(pm.region_count(), 5);
        // One publish installs every window, in geometry order.
        assert_eq!(pm.snapshot_publishes(), 1);
        let bases: Vec<u64> = pm.regions().iter().map(|r| r.base.raw()).collect();
        assert_eq!(bases, [0x1000, 0x3000, 0x10_000, 0x90_000, 0xf000_0000]);
        // Control and TX windows are read-write.
        assert!(pm.check(VAddr(0x1008), Size(8), AccessFlags::RW).is_ok());
        assert!(pm.check(VAddr(0x10_100), Size(8), AccessFlags::RW).is_ok());
        // RX buffers: reads fine, writes are a violation — DMA fills
        // them from below the guards, the CPU must not.
        assert!(pm
            .check(VAddr(0x90_010), Size(8), AccessFlags::READ)
            .is_ok());
        let v = pm
            .check(VAddr(0x90_010), Size(8), AccessFlags::WRITE)
            .unwrap_err();
        assert_eq!(v.kind, ViolationKind::InsufficientPermissions);
        // MMIO read-write; everything uncovered is default-deny.
        assert!(pm
            .check(VAddr(0xf000_0100), Size(4), AccessFlags::RW)
            .is_ok());
        assert!(pm.check(VAddr(0x8000), Size(8), AccessFlags::READ).is_err());
    }

    #[test]
    #[should_panic(expected = "insert tx buffer region")]
    fn datapath_policy_names_the_window_the_table_refuses() {
        let geo = DatapathGeometry {
            control: vec![(0x1000, 0x1000)],
            tx_buffers: (0x1000, 0x800),
            ..DatapathGeometry::default()
        };
        PolicyModule::datapath_policy(&geo);
    }

    #[test]
    fn two_region_paper_policy_semantics() {
        let pm = PolicyModule::two_region_paper_policy();
        assert_eq!(pm.region_count(), 2);
        // Kernel-half access allowed.
        assert!(pm
            .check(VAddr(DIRECT_MAP_BASE + 0x1000), Size(8), AccessFlags::RW)
            .is_ok());
        // User-half access denied with InsufficientPermissions (covered by
        // the explicit NONE rule).
        let v = pm
            .check(VAddr(0x40_0000), Size(8), AccessFlags::READ)
            .unwrap_err();
        assert_eq!(v.kind, ViolationKind::InsufficientPermissions);
        // Exec in the kernel half is not granted by the RW rule.
        let v = pm
            .check(VAddr(KERNEL_HALF_BASE), Size(1), AccessFlags::EXEC)
            .unwrap_err();
        assert_eq!(v.kind, ViolationKind::InsufficientPermissions);
    }

    #[test]
    fn default_allow_vs_deny() {
        let pm = PolicyModule::new();
        let addr = VAddr(0x1234_5678);
        // Default deny, empty policy: everything denied.
        let v = pm.check(addr, Size(4), AccessFlags::READ).unwrap_err();
        assert_eq!(v.kind, ViolationKind::NoMatchingRegion);
        // Flip to allow: everything permitted.
        pm.set_default_action(DefaultAction::Allow);
        assert!(pm.check(addr, Size(4), AccessFlags::READ).is_ok());
    }

    #[test]
    fn malformed_accesses_rejected() {
        let pm = PolicyModule::new();
        pm.set_default_action(DefaultAction::Allow);
        let v = pm
            .check(VAddr(0x1000), Size(8), AccessFlags::NONE)
            .unwrap_err();
        assert_eq!(v.kind, ViolationKind::MalformedAccess);
        let v = pm.check(VAddr(0), Size(0), AccessFlags::NONE).unwrap_err();
        assert_eq!(v.kind, ViolationKind::MalformedAccess);
        let v = pm
            .check(VAddr(u64::MAX), Size(2), AccessFlags::READ)
            .unwrap_err();
        assert_eq!(v.kind, ViolationKind::AddressOverflow);
    }

    #[test]
    fn zero_size_guard_with_intent_is_vacuously_allowed() {
        // A coalesced range guard over a zero-trip loop checks
        // `[base, base)` — the empty interval. Even under default-deny
        // with no regions at all, nothing will be accessed, so the check
        // passes; the flag-less variant above stays malformed.
        let pm = PolicyModule::new(); // default deny, empty policy
        assert!(pm.check(VAddr(0x1000), Size(0), AccessFlags::READ).is_ok());
        assert!(pm.check(VAddr(0x1000), Size(0), AccessFlags::RW).is_ok());
        let c = pm.check_classified(VAddr(0x1000), Size(0), AccessFlags::READ);
        assert!(c.result.is_ok());
        assert!(c.grant.is_none(), "vacuous permits are not memoizable");
        assert_eq!(pm.stats().permitted, 3);
    }

    #[test]
    fn enforce_applies_violation_action() {
        let pm = PolicyModule::new(); // default deny + panic
        let addr = VAddr(0x1000);
        match pm.enforce(addr, Size(8), AccessFlags::READ) {
            GuardOutcome::Panicked(KernelError::Panic { violation, .. }) => {
                assert!(violation.is_some());
            }
            other => panic!("expected panic, got {other:?}"),
        }
        pm.set_violation_action(ViolationAction::LogAndDeny);
        assert!(matches!(
            pm.enforce(addr, Size(8), AccessFlags::READ),
            GuardOutcome::Denied(_)
        ));
        pm.set_violation_action(ViolationAction::LogAndAllow);
        assert!(matches!(
            pm.enforce(addr, Size(8), AccessFlags::READ),
            GuardOutcome::Allowed
        ));
        pm.set_violation_action(ViolationAction::Quarantine);
        match pm.enforce(addr, Size(8), AccessFlags::READ) {
            GuardOutcome::Quarantined(v) => {
                assert_eq!(v.kind, ViolationKind::NoMatchingRegion)
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
    }

    #[test]
    fn intrinsic_grants_default_deny_and_list_sorted() {
        let pm = PolicyModule::new();
        let v = pm.check_intrinsic(0).unwrap_err();
        assert_eq!(v.kind, ViolationKind::ForbiddenIntrinsic);
        assert_eq!(v.addr, VAddr(0));
        for id in [3, 1, 3] {
            pm.allow_intrinsic(id);
        }
        assert_eq!(pm.granted_intrinsics(), vec![1, 3]);
        assert!(pm.check_intrinsic(1).is_ok() && pm.check_intrinsic(3).is_ok());
        assert!(pm.check_intrinsic(2).is_err());
        assert!(pm.revoke_intrinsic(1));
        assert!(!pm.revoke_intrinsic(1));
        assert!(pm.check_intrinsic(1).is_err());
        assert_eq!(pm.granted_intrinsics(), vec![3]);
        // Grants are not regions: no intrinsic edit publishes a snapshot.
        assert_eq!(pm.snapshot_publishes(), 0);
    }

    #[test]
    fn stats_and_log_track_checks() {
        let pm = PolicyModule::new();
        pm.add_region(Region::new(VAddr(0x1000), Size(0x1000), Protection::READ_WRITE).unwrap())
            .unwrap();
        assert!(pm.check(VAddr(0x1800), Size(8), AccessFlags::RW).is_ok());
        let _ = pm.check(VAddr(0x9000), Size(8), AccessFlags::RW);
        let s = pm.stats();
        assert_eq!(s.checks, 2);
        assert_eq!(s.permitted, 1);
        assert_eq!(s.denied_no_match, 1);
        let log = pm.violation_log();
        assert_eq!(log.len(), 1);
        assert!(log[0].contains("no matching policy region"));
        pm.reset_stats();
        assert_eq!(pm.stats().checks, 0);
    }

    #[test]
    fn policy_mutable_at_runtime_without_reloading() {
        // §3.2: swapping the policy does not require recompiling the
        // guarded module — the module just calls carat_guard.
        let pm = PolicyModule::new();
        let addr = VAddr(0xffff_8880_0000_1000);
        assert!(pm.check(addr, Size(8), AccessFlags::READ).is_err());
        pm.add_region(
            Region::new(
                VAddr(0xffff_8880_0000_0000),
                Size(1 << 30),
                Protection::READ_WRITE,
            )
            .unwrap(),
        )
        .unwrap();
        assert!(pm.check(addr, Size(8), AccessFlags::READ).is_ok());
        pm.remove_region(VAddr(0xffff_8880_0000_0000)).unwrap();
        assert!(pm.check(addr, Size(8), AccessFlags::READ).is_err());
    }

    #[test]
    fn works_with_every_store_kind() {
        for kind in StoreKind::ALL {
            let pm = PolicyModule::with_kind(kind);
            assert_eq!(pm.store_kind(), kind);
            pm.add_region(
                Region::new(VAddr(0x10_0000), Size(0x1000), Protection::READ_WRITE).unwrap(),
            )
            .unwrap();
            assert!(
                pm.check(VAddr(0x10_0800), Size(8), AccessFlags::RW).is_ok(),
                "{kind} should permit"
            );
            assert!(
                pm.check(VAddr(0x20_0000), Size(8), AccessFlags::RW)
                    .is_err(),
                "{kind} should deny"
            );
        }
    }

    /// The paper's table walk over `pm.regions()`, falling back to the
    /// default action: the verdict `check` must reproduce.
    fn scan_verdict(
        pm: &PolicyModule,
        addr: VAddr,
        size: Size,
        flags: AccessFlags,
    ) -> Result<(), ViolationKind> {
        let mut covered = false;
        for r in pm.regions() {
            if r.covers(addr, size) {
                if r.prot.allows(flags) {
                    return Ok(());
                }
                covered = true;
            }
        }
        match (covered, pm.default_action()) {
            (true, _) => Err(ViolationKind::InsufficientPermissions),
            (false, DefaultAction::Allow) => Ok(()),
            (false, DefaultAction::Deny) => Err(ViolationKind::NoMatchingRegion),
        }
    }

    #[test]
    fn check_agrees_with_linear_scan_for_every_store_kind() {
        for kind in StoreKind::ALL {
            let pm = PolicyModule::with_kind(kind);
            pm.add_region(
                Region::new(VAddr(0x10_0000), Size(0x1000), Protection::READ_ONLY).unwrap(),
            )
            .unwrap();
            for default in [DefaultAction::Deny, DefaultAction::Allow] {
                pm.set_default_action(default);
                for (addr, size, flags) in [
                    (0x10_0800u64, 8u64, AccessFlags::READ),
                    (0x10_0800, 8, AccessFlags::WRITE),
                    (0x20_0000, 8, AccessFlags::READ),
                    (0x10_0ff8, 16, AccessFlags::READ),
                ] {
                    let (addr, size) = (VAddr(addr), Size(size));
                    assert_eq!(
                        pm.check(addr, size, flags).map_err(|v| v.kind),
                        scan_verdict(&pm, addr, size, flags),
                        "{kind} diverged at {addr}"
                    );
                }
            }
        }
    }

    fn rw(base: u64, len: u64) -> Region {
        Region::new(VAddr(base), Size(len), Protection::READ_WRITE).unwrap()
    }

    #[test]
    fn table_caps_at_64_rules() {
        let pm = PolicyModule::new();
        for i in 0..MAX_REGIONS as u64 {
            pm.add_region(rw(i * 0x1000, 0x800)).unwrap();
        }
        assert_eq!(
            pm.add_region(rw(0x100_0000, 0x800)),
            Err(PolicyError::TableFull { capacity: 64 })
        );
        assert_eq!(pm.region_count(), 64);
        // The sorted kind has no cap.
        let sorted = PolicyModule::with_kind(StoreKind::Sorted);
        sorted
            .replace_regions((0..=MAX_REGIONS as u64).map(|i| rw(i * 0x1000, 0x800)))
            .unwrap();
        assert_eq!(sorted.region_count(), 65);
    }

    #[test]
    fn removal_keeps_insertion_order() {
        let pm = PolicyModule::new();
        for base in [0x3000, 0x1000, 0x2000] {
            pm.add_region(rw(base, 0x100)).unwrap();
        }
        assert_eq!(pm.remove_region(VAddr(0x1000)).unwrap().base, VAddr(0x1000));
        let bases: Vec<VAddr> = pm.regions().iter().map(|r| r.base).collect();
        assert_eq!(bases, vec![VAddr(0x3000), VAddr(0x2000)]);
        assert_eq!(
            pm.remove_region(VAddr(0x1000)),
            Err(PolicyError::NoSuchRegion {
                base: VAddr(0x1000)
            })
        );
    }

    #[test]
    fn sorted_kind_rejects_overlap_and_keeps_base_order() {
        let pm = PolicyModule::with_kind(StoreKind::Sorted);
        pm.add_region(rw(0x3000, 0x1000)).unwrap();
        pm.add_region(rw(0x1000, 0x1000)).unwrap();
        // Overlap with the predecessor, then with the successor.
        assert_eq!(
            pm.add_region(rw(0x1800, 0x1000)),
            Err(PolicyError::Overlap {
                existing: rw(0x1000, 0x1000)
            })
        );
        assert_eq!(
            pm.add_region(rw(0x2800, 0x1000)),
            Err(PolicyError::Overlap {
                existing: rw(0x3000, 0x1000)
            })
        );
        // Adjacent is not overlapping.
        pm.add_region(rw(0x2000, 0x1000)).unwrap();
        let bases: Vec<u64> = pm.regions().iter().map(|r| r.base.raw()).collect();
        assert_eq!(bases, vec![0x1000, 0x2000, 0x3000]);
        // The table kind accepts the same overlap.
        let table = PolicyModule::new();
        table.add_region(rw(0x1000, 0x1000)).unwrap();
        table.add_region(rw(0x1800, 0x1000)).unwrap();
    }

    #[test]
    fn duplicate_base_rejected_by_every_kind() {
        for kind in StoreKind::ALL {
            let pm = PolicyModule::with_kind(kind);
            pm.add_region(rw(0x1000, 0x1000)).unwrap();
            assert_eq!(
                pm.add_region(rw(0x1000, 0x2000)),
                Err(PolicyError::DuplicateBase {
                    existing: rw(0x1000, 0x1000)
                }),
                "{kind}"
            );
            assert_eq!(pm.region_count(), 1);
        }
    }

    #[test]
    fn failed_replace_changes_nothing() {
        for kind in StoreKind::ALL {
            let pm = PolicyModule::with_kind(kind);
            pm.replace_regions([rw(0x1000, 0x1000), rw(0x4000, 0x1000)])
                .unwrap();
            let (regions, gen, publishes) =
                (pm.regions(), pm.store_generation(), pm.snapshot_publishes());
            let dup = [rw(0x8000, 0x100), rw(0x9000, 0x100), rw(0x8000, 0x200)];
            assert!(matches!(
                pm.replace_regions(dup),
                Err(PolicyError::DuplicateBase { .. })
            ));
            assert_eq!(pm.regions(), regions, "{kind}");
            assert_eq!(pm.store_generation(), gen, "{kind}");
            assert_eq!(pm.snapshot_publishes(), publishes, "{kind}");
            assert!(pm.check(VAddr(0x1800), Size(8), AccessFlags::RW).is_ok());
        }
    }

    #[test]
    fn log_capped() {
        let pm = PolicyModule::new();
        for i in 0..(LOG_CAP + 10) {
            let _ = pm.check(VAddr(i as u64 * 8), Size(8), AccessFlags::READ);
        }
        assert_eq!(pm.violation_log().len(), LOG_CAP);
        // The ten oldest were overwritten.
        assert_eq!(pm.violations()[0].addr, VAddr(10 * 8));
    }

    #[test]
    fn mutations_bump_generation_monotonically() {
        let pm = PolicyModule::new();
        let g0 = pm.store_generation();
        pm.add_region(Region::new(VAddr(0x1000), Size(0x1000), Protection::READ_WRITE).unwrap())
            .unwrap();
        let g1 = pm.store_generation();
        assert!(g1 > g0);
        pm.remove_region(VAddr(0x1000)).unwrap();
        let g2 = pm.store_generation();
        assert!(g2 > g1);
        pm.clear_regions();
        assert!(pm.store_generation() > g2);
        assert_eq!(pm.snapshot_publishes(), 3);
    }

    #[test]
    fn failed_mutations_do_not_publish() {
        let pm = PolicyModule::new();
        let before = pm.snapshot_publishes();
        assert!(pm.remove_region(VAddr(0xdead)).is_err());
        assert_eq!(pm.snapshot_publishes(), before);
    }

    #[test]
    fn replace_regions_is_one_publish() {
        let pm = PolicyModule::new();
        let before = pm.snapshot_publishes();
        pm.replace_regions([
            Region::new(VAddr(0x1000), Size(0x1000), Protection::READ_WRITE).unwrap(),
            Region::new(VAddr(0x3000), Size(0x1000), Protection::READ_ONLY).unwrap(),
        ])
        .unwrap();
        assert_eq!(pm.snapshot_publishes(), before + 1);
        assert_eq!(pm.region_count(), 2);
        assert!(pm.check(VAddr(0x1100), Size(8), AccessFlags::RW).is_ok());
    }

    #[test]
    fn two_policies_never_share_a_generation_or_a_held_snapshot() {
        // Two policies after one publish each, with different rules: no
        // generation is both's, so `a`'s grant does not admit against
        // `b`'s, and checked alternately on this thread each answers by
        // its own rules.
        let (a, b) = (PolicyModule::new(), PolicyModule::new());
        a.add_region(rw(0x1000, 0x1000)).unwrap();
        b.add_region(rw(0x8000, 0x1000)).unwrap();
        assert_ne!(a.store_generation(), b.store_generation());
        let grant = a
            .check_classified(VAddr(0x1800), Size(8), AccessFlags::RW)
            .grant
            .expect("region grant");
        let admits_at = |gen| grant.admits(gen, VAddr(0x1800), Size(8), AccessFlags::RW);
        assert!(admits_at(a.store_generation()));
        assert!(!admits_at(b.store_generation()));
        for _ in 0..3 {
            assert!(a.check(VAddr(0x1800), Size(8), AccessFlags::RW).is_ok());
            assert!(b.check(VAddr(0x1800), Size(8), AccessFlags::RW).is_err());
            assert!(b.check(VAddr(0x8800), Size(8), AccessFlags::RW).is_ok());
            assert!(a.check(VAddr(0x8800), Size(8), AccessFlags::RW).is_err());
        }
    }

    #[test]
    fn a_revoke_on_another_thread_stales_the_held_snapshot() {
        use std::sync::mpsc::channel;
        let pm = Arc::new(PolicyModule::new());
        pm.add_region(rw(0x1000, 0x1000)).unwrap();
        let (checked_tx, checked) = channel();
        let (revoked, revoked_rx) = channel();
        let reader = {
            let pm = Arc::clone(&pm);
            std::thread::spawn(move || {
                let first = pm.check(VAddr(0x1800), Size(8), AccessFlags::RW);
                checked_tx.send(pm.store_generation()).unwrap();
                revoked_rx.recv().unwrap();
                (first, pm.check(VAddr(0x1800), Size(8), AccessFlags::RW))
            })
        };
        // The reader holds this generation's snapshot, then we revoke.
        let held = checked.recv().unwrap();
        pm.remove_region(VAddr(0x1000)).unwrap();
        assert!(pm.store_generation() > held);
        revoked.send(()).unwrap();
        let (first, second) = reader.join().unwrap();
        assert!(first.is_ok());
        assert_eq!(second.unwrap_err().kind, ViolationKind::NoMatchingRegion);
    }

    #[test]
    fn dropping_a_policy_releases_this_threads_held_snapshot() {
        let pm = PolicyModule::new();
        pm.add_region(rw(0x1000, 0x1000)).unwrap();
        assert!(pm.check(VAddr(0x1800), Size(8), AccessFlags::RW).is_ok());
        let snap = Arc::downgrade(&pm.policy_snapshot());
        assert!(snap.upgrade().is_some());
        drop(pm);
        assert!(
            snap.upgrade().is_none(),
            "the held snapshot outlived its policy"
        );
    }

    #[test]
    fn a_superseded_snapshot_is_freed_when_its_last_reader_drops_it() {
        let pm = PolicyModule::new();
        pm.add_region(rw(0x1000, 0x1000)).unwrap();
        // A reader's snapshot, taken before the publish; this thread has
        // not checked `pm`, so its held snapshot is not this one.
        let old = pm.policy_snapshot();
        let freed = Arc::downgrade(&old);
        pm.add_region(rw(0x8000, 0x1000)).unwrap();
        // The reader still reads the rules it took, whole.
        assert_eq!(old.len(), 1);
        assert_eq!(
            old.lookup(VAddr(0x8800), Size(8), AccessFlags::RW),
            Lookup::NoMatch
        );
        assert!(pm.check(VAddr(0x8800), Size(8), AccessFlags::RW).is_ok());
        drop(old);
        assert!(
            freed.upgrade().is_none(),
            "the superseded snapshot outlived its last reader"
        );
    }

    #[test]
    fn check_classified_reports_grants_only_for_region_permits() {
        let pm = PolicyModule::new();
        pm.add_region(Region::new(VAddr(0x1000), Size(0x1000), Protection::READ_WRITE).unwrap())
            .unwrap();
        let c = pm.check_classified(VAddr(0x1100), Size(8), AccessFlags::RW);
        assert!(c.result.is_ok());
        let grant = c.grant.expect("region grant");
        assert_eq!(grant.region.base, VAddr(0x1000));
        assert_eq!(grant.gen, pm.store_generation());
        // Default-action allow: permitted but not memoizable.
        pm.set_default_action(DefaultAction::Allow);
        let c = pm.check_classified(VAddr(0x9000), Size(8), AccessFlags::RW);
        assert!(c.result.is_ok());
        assert!(c.grant.is_none());
        // Denial: no grant.
        pm.set_default_action(DefaultAction::Deny);
        let c = pm.check_classified(VAddr(0x9000), Size(8), AccessFlags::RW);
        assert!(c.result.is_err());
        assert!(c.grant.is_none());
    }
}
