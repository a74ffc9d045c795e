//! The policy seam: a [`PolicyCheck`] wrapper that misbehaves.
//!
//! A buggy or overloaded policy module fails in two ways the guard layer
//! must tolerate: it *denies an access it should allow* (spurious deny —
//! the driver sees a `Violation` out of nowhere) and it *takes too long*
//! (delay — modelled as extra cycles, since the simulation has no wall
//! clock). [`FaultyPolicy`] injects both per a seeded plan, so the
//! driver's retry path and the benchmark's cost model can be exercised
//! against a policy that is not perfectly well-behaved.

use std::cell::RefCell;

use kop_core::error::ViolationKind;
use kop_core::{AccessFlags, Size, VAddr, Violation};
use kop_policy::PolicyCheck;

use crate::plan::{FaultPlan, FaultPoint};

/// Modelled cost of one delayed check, in machine cycles. A healthy R350
/// guard check is a few tens of cycles; a delayed one is two orders of
/// magnitude worse (lock contention, cold caches).
pub const DELAY_CYCLES: u64 = 4000;

struct PolicyFaultState {
    spurious_deny: FaultPoint,
    check_delay: FaultPoint,
    denials: u64,
    delays: u64,
    extra_cycles: u64,
}

/// A [`PolicyCheck`] that spuriously denies or delays checks per a
/// seeded [`FaultPlan`].
pub struct FaultyPolicy<P: PolicyCheck> {
    inner: P,
    // `carat_guard` takes `&self` (the policy is shared), so the fault
    // counters live behind interior mutability.
    state: RefCell<PolicyFaultState>,
}

impl<P: PolicyCheck> FaultyPolicy<P> {
    /// Wrap `inner`; only the plan's policy-side points are consulted.
    pub fn new(inner: P, plan: FaultPlan) -> FaultyPolicy<P> {
        FaultyPolicy {
            inner,
            state: RefCell::new(PolicyFaultState {
                spurious_deny: plan.spurious_deny,
                check_delay: plan.check_delay,
                denials: 0,
                delays: 0,
                extra_cycles: 0,
            }),
        }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Checks denied that the real policy never saw.
    pub fn denials(&self) -> u64 {
        self.state.borrow().denials
    }

    /// Checks that were delayed.
    pub fn delays(&self) -> u64 {
        self.state.borrow().delays
    }

    /// Total modelled delay cost ([`DELAY_CYCLES`] per delayed check) —
    /// add this to a machine model's cycle budget.
    pub fn extra_cycles(&self) -> u64 {
        self.state.borrow().extra_cycles
    }
}

impl<P: PolicyCheck> PolicyCheck for FaultyPolicy<P> {
    fn carat_guard(&self, addr: VAddr, size: Size, flags: AccessFlags) -> Result<(), Violation> {
        {
            let mut st = self.state.borrow_mut();
            if st.check_delay.check() {
                st.delays += 1;
                st.extra_cycles += DELAY_CYCLES;
            }
            if st.spurious_deny.check() {
                st.denials += 1;
                return Err(Violation::new(
                    addr,
                    size,
                    flags,
                    ViolationKind::NoMatchingRegion,
                ));
            }
        }
        self.inner.carat_guard(addr, size, flags)
    }

    fn flush_admits(&self) -> u64 {
        self.inner.flush_admits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Trigger;
    use kop_policy::NoopPolicy;

    #[test]
    fn spurious_deny_rejects_an_allowed_access() {
        let p = FaultyPolicy::new(
            NoopPolicy,
            FaultPlan::quiet().with_spurious_deny(Trigger::Nth(2)),
        );
        assert!(p
            .carat_guard(VAddr(0x100), Size(8), AccessFlags::READ)
            .is_ok());
        let v = p
            .carat_guard(VAddr(0x100), Size(8), AccessFlags::READ)
            .unwrap_err();
        assert_eq!(v.kind, ViolationKind::NoMatchingRegion);
        assert_eq!(v.addr, VAddr(0x100));
        assert!(p
            .carat_guard(VAddr(0x100), Size(8), AccessFlags::READ)
            .is_ok());
        assert_eq!(p.denials(), 1);
    }

    #[test]
    fn delay_accumulates_modelled_cycles_without_denying() {
        let p = FaultyPolicy::new(
            NoopPolicy,
            FaultPlan::quiet().with_check_delay(Trigger::Window { start: 1, len: 3 }),
        );
        for _ in 0..5 {
            p.carat_guard(VAddr(0), Size(1), AccessFlags::READ).unwrap();
        }
        assert_eq!(p.delays(), 3);
        assert_eq!(p.extra_cycles(), 3 * DELAY_CYCLES);
        assert_eq!(p.denials(), 0);
    }

    #[test]
    fn quiet_plan_forwards_to_inner_policy() {
        let pm = kop_policy::PolicyModule::new();
        pm.set_default_action(kop_policy::DefaultAction::Allow);
        let p = FaultyPolicy::new(&pm, FaultPlan::quiet());
        p.carat_guard(VAddr(0x40), Size(4), AccessFlags::WRITE)
            .unwrap();
        assert_eq!(pm.stats().checks, 1);
        assert_eq!(p.denials() + p.delays(), 0);
    }

    #[test]
    fn flush_reaches_the_wrapped_front() {
        use kop_core::{Protection, Region};
        use kop_policy::{GuardFront, PolicyModule, SiteMap};
        use std::sync::Arc;
        let pm = Arc::new(PolicyModule::new());
        pm.add_region(Region::new(VAddr(0x1000), Size(0x1000), Protection::READ_WRITE).unwrap())
            .unwrap();
        let p = FaultyPolicy::new(
            GuardFront::new(Arc::clone(&pm), SiteMap::new(0)),
            FaultPlan::quiet(),
        );
        for _ in 0..10 {
            p.carat_guard(VAddr(0x1800), Size(8), AccessFlags::READ)
                .unwrap();
        }
        assert_eq!(p.flush_admits(), 9);
        assert_eq!(pm.stats().checks, 10);
    }
}
