//! Shared experiment setup: senders, policies, machine variants.

use std::sync::Arc;

use kop_compiler::CompilerKey;
use kop_core::{Protection, Region, Size, VAddr};
use kop_e1000e::{DirectMem, E1000Device, E1000Driver, GuardedMem};
use kop_net::RawSender;
use kop_policy::{DefaultAction, PolicyModule, StoreKind, ViolationAction};
use kop_sim::MachineProfile;

/// The operator's signing key: every experiment compiles and boots with
/// it.
pub fn operator_key() -> CompilerKey {
    CompilerKey::from_passphrase("operator-key", "carat-kop-dev")
}

/// The arena region every working policy must permit (the driver's rings,
/// buffers, and stats block live here).
pub fn arena_region() -> Region {
    Region::new(
        VAddr(kop_core::layout::DIRECT_MAP_BASE),
        Size(64 << 20),
        Protection::READ_WRITE,
    )
    .expect("arena region")
}

/// The NIC BAR region.
pub fn mmio_region() -> Region {
    Region::new(
        VAddr(kop_core::layout::MMIO_WINDOW_BASE),
        Size(kop_e1000e::regs::BAR_SIZE),
        Protection::READ_WRITE,
    )
    .expect("mmio region")
}

/// The paper's two-region policy, §4.2 footnote 5: kernel addresses (the
/// "high half") allowed, user addresses (the "low half") disallowed.
pub fn two_region_policy() -> Arc<PolicyModule> {
    let pm = Arc::new(PolicyModule::two_region_paper_policy());
    pm.set_violation_action(ViolationAction::Panic);
    pm
}

/// A policy with `n` regions where the regions the driver actually uses
/// sit at the *end* of the table — the worst case for the linear scan,
/// which is what the Figure 5 sweep stresses. The first `n - 2` entries
/// are decoy rules over the user half.
pub fn n_region_policy(n: usize) -> Arc<PolicyModule> {
    assert!(
        (2..=64).contains(&n),
        "table policy supports 2..=64 regions"
    );
    let pm = Arc::new(PolicyModule::with_kind(StoreKind::Table));
    pm.set_default_action(DefaultAction::Deny);
    for i in 0..(n - 2) as u64 {
        pm.add_region(
            Region::new(
                VAddr(0x1000_0000 + i * 0x10_0000),
                Size(0x1000),
                Protection::READ_ONLY,
            )
            .expect("decoy region"),
        )
        .expect("insert decoy");
    }
    pm.add_region(arena_region()).expect("insert arena");
    pm.add_region(mmio_region()).expect("insert mmio");
    pm
}

/// The scan position the guard-cost model should use for an `n`-region
/// worst-case policy (the matching rules are last).
pub fn hit_pos_for(n: usize) -> u64 {
    (n as u64).saturating_sub(1)
}

/// A ready baseline (unguarded) sender.
pub fn baseline_sender(machine: MachineProfile) -> RawSender<DirectMem> {
    let mem = DirectMem::with_defaults(E1000Device::default());
    let mut drv = E1000Driver::probe(mem).expect("probe baseline");
    drv.up().expect("up baseline");
    RawSender::new(drv, machine)
}

/// A ready CARAT KOP (guarded) sender over `policy`.
pub fn carat_sender(
    machine: MachineProfile,
    policy: Arc<PolicyModule>,
    hit_pos: u64,
) -> RawSender<GuardedMem<Arc<PolicyModule>>> {
    let mem = GuardedMem::new(DirectMem::with_defaults(E1000Device::default()), policy);
    let mut drv = E1000Driver::probe(mem).expect("probe carat");
    drv.up().expect("up carat");
    let mut sender = RawSender::new(drv, machine);
    sender.policy_hit_pos = hit_pos;
    sender
}

/// The R350 in the configuration the Figure 6 sweep uses: the tool's
/// burst path (syscall and tool-loop costs amortized across the burst)
/// with cold-predictor guard costs. See EXPERIMENTS.md for why Figure 6's
/// absolute numbers sit apart from Figure 4's (the tension is present in
/// the paper itself; footnote 4 notes 128 B "amplifies the difference").
pub fn r350_burst() -> MachineProfile {
    let mut m = MachineProfile::r350();
    m.name = "R350 (burst tool path)";
    m.syscall_cycles = 0.0;
    m.fixed_packet_cycles = 2_000.0;
    m.predictor_discount = 1.0;
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use kop_net::{EtherType, MacAddr};

    #[test]
    fn two_region_policy_lets_driver_run() {
        let mut s = carat_sender(MachineProfile::r350(), two_region_policy(), 0);
        s.sendmsg(MacAddr::BROADCAST, EtherType::Experimental, &[0u8; 114])
            .expect("kernel-half traffic permitted");
        assert_eq!(s.sink.frames, 1);
    }

    #[test]
    fn n_region_policy_lets_driver_run_at_64() {
        for n in [2usize, 16, 64] {
            let mut s = carat_sender(MachineProfile::r350(), n_region_policy(n), hit_pos_for(n));
            s.send_burst(MacAddr::BROADCAST, EtherType::Experimental, 128, 10)
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert_eq!(s.sink.frames, 10);
        }
    }

    #[test]
    #[should_panic(expected = "table policy supports")]
    fn n_region_policy_rejects_oversize() {
        let _ = n_region_policy(65);
    }

    #[test]
    fn burst_profile_differs() {
        let b = r350_burst();
        assert_eq!(b.syscall_cycles, 0.0);
        assert!(b.fixed_packet_cycles < MachineProfile::r350().fixed_packet_cycles);
    }
}
