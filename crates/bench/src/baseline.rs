//! Ablation-only policy baselines: the structures production no longer
//! runs, kept here so the figures can measure what the frozen snapshot
//! replaced.
//!
//! * [`linear_scan`] — the paper's table walk (§3.1): every rule in
//!   store order, first grant wins. The `ablation-ds` and `fleet` figures
//!   price the frozen indexes against it.
//! * [`LockedPolicy`] — the pre-snapshot SMP check path: every guard
//!   serializes on one lock around [`PolicyModule::check`]. The `smp`
//!   figure's mutex series.

use std::sync::{Arc, Mutex};

use kop_core::{AccessFlags, Region, Size, VAddr, Violation};
use kop_policy::{Lookup, PolicyCheck, PolicyModule};

/// Classify an access by walking `regions` in order: the first region
/// that covers the whole access and grants the intent permits it;
/// otherwise the first covering region forbids it; otherwise no rule
/// matches. Bit-exact with [`kop_policy::FrozenStore::lookup_frozen`]
/// over the same list.
pub fn linear_scan(regions: &[Region], addr: VAddr, size: Size, flags: AccessFlags) -> Lookup {
    let mut covering = None;
    for r in regions {
        if r.covers(addr, size) {
            if r.prot.allows(flags) {
                return Lookup::Permitted(*r);
            }
            covering.get_or_insert(*r);
        }
    }
    match covering {
        Some(r) => Lookup::Forbidden(r),
        None => Lookup::NoMatch,
    }
}

/// A shared policy whose every check holds one lock — the serialized
/// check path the lock-free snapshot replaced. Clones share the lock.
#[derive(Clone)]
pub struct LockedPolicy {
    lock: Arc<Mutex<()>>,
    policy: Arc<PolicyModule>,
}

impl LockedPolicy {
    /// Serialize every check of `policy` on one new lock.
    pub fn new(policy: Arc<PolicyModule>) -> LockedPolicy {
        LockedPolicy {
            lock: Arc::new(Mutex::new(())),
            policy,
        }
    }
}

impl PolicyCheck for LockedPolicy {
    fn carat_guard(&self, addr: VAddr, size: Size, flags: AccessFlags) -> Result<(), Violation> {
        let _held = self
            .lock
            .lock()
            .expect("a check panicked while holding the policy lock");
        self.policy.check(addr, size, flags)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kop_core::Protection;
    use kop_policy::FrozenStore;

    #[test]
    fn scan_matches_the_frozen_index_on_overlapping_rules() {
        let regions = vec![
            Region::new(VAddr(0x1000), Size(0x10000), Protection::READ_ONLY).unwrap(),
            Region::new(VAddr(0x4000), Size(0x1000), Protection::READ_WRITE).unwrap(),
        ];
        let frozen = FrozenStore::build(regions.clone());
        for addr in (0x0800..0x12000u64).step_by(0x200) {
            for flags in [AccessFlags::READ, AccessFlags::WRITE, AccessFlags::RW] {
                let (addr, size) = (VAddr(addr), Size(8));
                assert_eq!(
                    linear_scan(&regions, addr, size, flags),
                    frozen.lookup_frozen(addr, size, flags),
                    "{addr} {flags:?}"
                );
            }
        }
    }
}
