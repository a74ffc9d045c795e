//! The native guard front: one self-filling slot per guard site.
//!
//! A guarded driver hits the same few call sites with addresses that land
//! in the same few policy regions, millions of times. [`GuardFront`] is a
//! per-queue [`PolicyCheck`] bound for life to one [`PolicyModule`] and a
//! [`SiteMap`]. It keeps one slot per site holding a [`Grant`]: the
//! granting region, tagged with the store generation of the snapshot
//! that granted it. An admit is one generation load plus
//! [`Grant::admits`], the admit rule the VM tier runs on promoted guards
//! too.
//!
//! Everything else takes [`PolicyModule::check_classified`]: a cold,
//! stale or non-covering slot, a denial, a default-action allow, a
//! malformed access. Only a **region grant** there refills the slot,
//! with the grant exactly as the check returns it, tagged with the
//! generation of the snapshot that granted. The fill reads no tag of its
//! own, so it has nothing to order: a publish racing the fill leaves the
//! slot tagged with the older generation, already stale (a harmless
//! refill later), never falsely fresh. Denials are never filled (they
//! must reach the policy module for stats, log and enforcement), and
//! neither are default-action allows (flipping the default action moves
//! no tag; a region grant stays sound because a covering, granting
//! region wins whatever the default action is).
//!
//! The generation is the only tag. Only a table write can change what a
//! region grant admits, and every table write bumps the bound policy's
//! generation, so it stales every slot at once. A front cannot be handed
//! another policy, and no two policies share a generation.
//!
//! Admits are counted in a plain cell and drained into the policy's
//! `checks`/`permitted` cells through
//! [`PolicyModule::record_fast_permits`] by [`PolicyCheck::flush_admits`]
//! (which the guarded driver runs once per frame and on every accessor)
//! and on `Drop`. So `policy.checks == guard calls` holds for every
//! observer, as it does for the VM tier.
//!
//! The front is `!Sync` by construction (its slots are `Cell`s): give each
//! queue its own instance over the shared policy.

use std::cell::Cell;
use std::sync::Arc;

use kop_core::{AccessFlags, Grant, Size, VAddr, Violation};

use crate::module::PolicyModule;
use crate::PolicyCheck;

/// Maps guarded addresses to site ids — how a native (non-interpreted)
/// build recovers the per-site identity the compiler pass would have
/// assigned. Ranges are checked in insertion order; unmatched addresses
/// get the fallback site.
#[derive(Clone, Debug)]
pub struct SiteMap {
    /// `(start, end_exclusive, site)` triples.
    ranges: Vec<(u64, u64, u32)>,
    fallback: u32,
}

impl SiteMap {
    /// An empty map classifying everything as `fallback`.
    pub fn new(fallback: u32) -> SiteMap {
        SiteMap {
            ranges: Vec::new(),
            fallback,
        }
    }

    /// Add a `[start, end)` → `site` range (builder style).
    pub fn range(mut self, start: u64, end: u64, site: u32) -> SiteMap {
        self.ranges.push((start, end, site));
        self
    }

    /// Classify an address.
    #[inline]
    pub fn classify(&self, addr: u64) -> u32 {
        for &(start, end, site) in &self.ranges {
            if addr >= start && addr < end {
                return site;
            }
        }
        self.fallback
    }

    /// One more than the largest site id the map can return.
    fn site_count(&self) -> usize {
        let top = self
            .ranges
            .iter()
            .map(|r| r.2)
            .fold(self.fallback, u32::max);
        top as usize + 1
    }
}

/// A per-queue [`PolicyCheck`] front: one self-filling slot per site over
/// a shared [`PolicyModule`]. See the module docs.
pub struct GuardFront {
    policy: Arc<PolicyModule>,
    map: SiteMap,
    /// Dense by site id; a cold slot holds [`Grant::COLD`].
    slots: Box<[Cell<Grant>]>,
    /// Guards admitted from a slot over the front's life.
    admits: Cell<u64>,
    /// How many of `admits` are already accounted in the policy's stats.
    drained: Cell<u64>,
}

impl GuardFront {
    /// A cold front over `policy`, one slot per site `map` can return.
    pub fn new(policy: Arc<PolicyModule>, map: SiteMap) -> GuardFront {
        let slots = (0..map.site_count())
            .map(|_| Cell::new(Grant::COLD))
            .collect();
        GuardFront {
            policy,
            map,
            slots,
            admits: Cell::new(0),
            drained: Cell::new(0),
        }
    }
}

impl Drop for GuardFront {
    fn drop(&mut self) {
        self.flush_admits();
    }
}

impl PolicyCheck for GuardFront {
    #[inline]
    fn carat_guard(&self, addr: VAddr, size: Size, flags: AccessFlags) -> Result<(), Violation> {
        let slot = &self.slots[self.map.classify(addr.raw()) as usize];
        if slot
            .get()
            .admits(self.policy.store_generation(), addr, size, flags)
        {
            self.admits.set(self.admits.get() + 1);
            return Ok(());
        }
        // The fill's tag is the granting snapshot's generation, not one
        // read around the lookup: a publish racing the fill leaves the
        // slot already stale, never falsely fresh.
        let out = self.policy.check_classified(addr, size, flags);
        if let Some(grant) = out.grant {
            slot.set(grant);
        }
        out.result
    }

    fn flush_admits(&self) -> u64 {
        let admits = self.admits.get();
        self.policy
            .record_fast_permits(admits - self.drained.replace(admits));
        admits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DefaultAction;
    use kop_core::{Protection, Region};

    fn pm_with_region(base: u64, len: u64) -> Arc<PolicyModule> {
        let pm = Arc::new(PolicyModule::new());
        pm.add_region(Region::new(VAddr(base), Size(len), Protection::READ_WRITE).unwrap())
            .unwrap();
        pm
    }

    fn one_site(pm: &Arc<PolicyModule>) -> GuardFront {
        GuardFront::new(Arc::clone(pm), SiteMap::new(0))
    }

    fn rw(f: &GuardFront, addr: u64) -> Result<(), Violation> {
        f.carat_guard(VAddr(addr), Size(8), AccessFlags::RW)
    }

    #[test]
    fn steady_state_admits_after_one_miss() {
        let pm = pm_with_region(0x1000, 0x1000);
        let f = one_site(&pm);
        for _ in 0..100 {
            rw(&f, 0x1800).unwrap();
        }
        assert_eq!(f.flush_admits(), 99, "one general check filled the slot");
        let s = pm.stats();
        assert_eq!(s.checks, 100, "every guard accounted after the accessor");
        assert_eq!(s.permitted, 100);
    }

    #[test]
    fn table_write_forces_a_general_check() {
        let pm = pm_with_region(0x1000, 0x1000);
        let f = one_site(&pm);
        rw(&f, 0x1800).unwrap();
        rw(&f, 0x1800).unwrap();
        assert_eq!(f.flush_admits(), 1);
        pm.remove_region(VAddr(0x1000)).unwrap();
        // The slot still names the old region, but its generation is
        // stale: the guard reaches the new table and is denied.
        assert!(rw(&f, 0x1800).is_err());
        pm.bump_epoch();
        pm.add_region(Region::new(VAddr(0x1000), Size(0x1000), Protection::READ_ONLY).unwrap())
            .unwrap();
        // A refill under the new table carries its narrower permission.
        f.carat_guard(VAddr(0x1800), Size(8), AccessFlags::READ)
            .unwrap();
        assert!(rw(&f, 0x1800).is_err());
        f.carat_guard(VAddr(0x1800), Size(8), AccessFlags::READ)
            .unwrap();
        assert_eq!(f.flush_admits(), 2);
        assert_eq!(pm.stats().checks, 6);
    }

    #[test]
    fn denials_and_default_allows_never_fill_a_slot() {
        let pm = Arc::new(PolicyModule::new());
        pm.add_region(Region::new(VAddr(0x1000), Size(0x1000), Protection::READ_ONLY).unwrap())
            .unwrap();
        pm.set_default_action(DefaultAction::Allow);
        let f = one_site(&pm);
        for _ in 0..5 {
            // Permitted by the default action only.
            f.carat_guard(VAddr(0x9000), Size(8), AccessFlags::READ)
                .unwrap();
            // Covered but not granted: a denial.
            assert!(f
                .carat_guard(VAddr(0x1800), Size(8), AccessFlags::WRITE)
                .is_err());
        }
        assert_eq!(f.flush_admits(), 0);
        // Flipping the default back is honoured at once (nothing filled).
        pm.set_default_action(DefaultAction::Deny);
        assert!(f
            .carat_guard(VAddr(0x9000), Size(8), AccessFlags::READ)
            .is_err());
        assert_eq!(pm.stats().checks, 11);
    }

    #[test]
    fn bounds_and_permission_are_revalidated_per_access() {
        let pm = pm_with_region(0x1000, 0x1000);
        let f = one_site(&pm);
        rw(&f, 0x1000).unwrap();
        // Same site, outside the filled bound: general path, denied.
        assert!(rw(&f, 0x5000).is_err());
        // Straddling the bound's end.
        assert!(rw(&f, 0x1ffc).is_err());
        // In bounds, but asking for EXEC the slot's permission lacks.
        assert!(f
            .carat_guard(VAddr(0x1800), Size(8), AccessFlags::EXEC)
            .is_err());
        // None of the misses displaced the filled grant.
        rw(&f, 0x1ff8).unwrap();
        assert_eq!(f.flush_admits(), 1);
    }

    #[test]
    fn malformed_shapes_never_admit_inline() {
        let pm = Arc::new(PolicyModule::new());
        pm.add_region(Region::new(VAddr(0x1000), Size(0x1000), Protection::READ_WRITE).unwrap())
            .unwrap();
        let top = Region::new(
            VAddr(u64::MAX - 0xfff),
            Size(0x1000),
            Protection::READ_WRITE,
        );
        pm.add_region(top.unwrap()).unwrap();
        let f = one_site(&pm);
        rw(&f, 0x1800).unwrap();
        // Size 0 with intent is the vacuous range guard: allowed, but by
        // the general path.
        f.carat_guard(VAddr(0x1800), Size(0), AccessFlags::READ)
            .unwrap();
        assert!(f
            .carat_guard(VAddr(0x1800), Size(8), AccessFlags::NONE)
            .is_err());
        // A slot filled from the region ending at 2^64 ...
        f.carat_guard(VAddr(u64::MAX - 0xff), Size(8), AccessFlags::READ)
            .unwrap();
        // ... never admits an access whose end wraps.
        assert!(f
            .carat_guard(VAddr(u64::MAX), Size(2), AccessFlags::READ)
            .is_err());
        assert_eq!(f.flush_admits(), 0);
        assert_eq!(pm.stats().checks, 5);
    }

    #[test]
    fn a_region_ending_at_the_top_admits_its_last_bytes_inline() {
        let pm = pm_with_region(u64::MAX - 0xfff, 0x1000);
        let f = one_site(&pm);
        let top = VAddr(u64::MAX - 7);
        // The first read fills the slot from the region ending at 2^64.
        f.carat_guard(top, Size(8), AccessFlags::READ).unwrap();
        assert_eq!(pm.stats().checks, 1);
        for _ in 0..4 {
            f.carat_guard(top, Size(8), AccessFlags::READ).unwrap();
        }
        // No policy lookup: every later read was admitted by the slot.
        assert_eq!(pm.stats().checks, 1);
        assert_eq!(f.flush_admits(), 4);
        assert_eq!(pm.stats().checks, 5);
    }

    #[test]
    fn checks_are_exact_after_drop_and_accessor() {
        let pm = pm_with_region(0x1000, 0x1000);
        let f = one_site(&pm);
        let total = 1234u64;
        for i in 0..total {
            let _ = rw(&f, 0x1000 + (i % 0x1000));
        }
        // Admits sit in the front until something drains them.
        assert_eq!(pm.stats().checks, 1);
        assert_eq!(f.flush_admits(), total - 1);
        assert_eq!(pm.stats().checks, total);
        // A second drain accounts nothing twice.
        assert_eq!(f.flush_admits(), total - 1);
        assert_eq!(pm.stats().checks, total);
        for _ in 0..10 {
            rw(&f, 0x1800).unwrap();
        }
        drop(f);
        assert_eq!(pm.stats().checks, total + 10);
    }

    #[test]
    fn one_slot_per_site() {
        let pm = pm_with_region(0x1000, 0x2000);
        let map = SiteMap::new(7)
            .range(0x1000, 0x2000, 0)
            .range(0x2000, 0x3000, 1);
        let f = GuardFront::new(Arc::clone(&pm), map);
        for addr in [0x1100, 0x2100, 0x1100, 0x2100] {
            rw(&f, addr).unwrap();
        }
        assert_eq!(f.flush_admits(), 2, "one fill per site");
        // The fallback site has its own slot too.
        assert!(rw(&f, 0x9000).is_err());
    }
}
