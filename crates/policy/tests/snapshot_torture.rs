//! Concurrency torture tests for the SMP guard path: N readers hammer
//! `check` while a writer grants/revokes — no torn tables, no stale
//! admits after a revoke returns, generations monotonic, and the
//! lock-free check agrees with a linear scan of the published rules on
//! every input.
//!
//! The stale-admit detector uses an odd/even state counter to rule out
//! TOCTOU false positives: the writer stores `2k` (even) *before* it
//! starts a grant and `2k+1` (odd) only *after* the matching revoke has
//! returned. A reader samples the counter before (`s1`) and after (`s2`)
//! its check; `s1 == s2 && odd` proves — in the `SeqCst` total order —
//! that the whole check ran inside a window where the revoke had
//! completed and no new grant had begun, so an allowed access in that
//! window is a genuine stale admit.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use kop_core::error::ViolationKind;
use kop_core::{AccessFlags, Protection, Region, Size, VAddr};
use kop_policy::{DefaultAction, GuardFront, PolicyCheck, PolicyModule, SiteMap, StoreKind};

use proptest::prelude::*;

fn region(base: u64, len: u64, prot: Protection) -> Region {
    Region::new(VAddr(base), Size(len), prot).unwrap()
}

/// Run `readers` concurrent reader bodies against a grant/revoke storm.
/// `reader` receives (policy, state counter, stop flag) and returns the
/// number of stale admits it observed plus the guards it ran, which must
/// reconcile exactly with the policy's `checks` once every reader is done.
/// Returns the stale admits.
fn storm<F>(churns: u64, readers: usize, reader: F) -> u64
where
    F: Fn(&Arc<PolicyModule>, &AtomicU64, &AtomicBool) -> (u64, u64) + Sync,
{
    let pm = Arc::new(PolicyModule::new()); // default deny
    let state = AtomicU64::new(1); // odd: nothing granted yet
    let stop = AtomicBool::new(false);
    let r = region(0x1000, 0x1000, Protection::READ_WRITE);

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|_| s.spawn(|| reader(&pm, &state, &stop)))
            .collect();
        for k in 0..churns {
            state.store(2 * k + 2, Ordering::SeqCst); // grant may begin
            pm.add_region(r).unwrap();
            // Let readers run inside the grant window, so their slots
            // fill there and must be staled by the revoke.
            std::thread::yield_now();
            pm.remove_region(r.base).unwrap();
            state.store(2 * k + 3, Ordering::SeqCst); // revoke settled
            std::thread::yield_now();
        }
        stop.store(true, Ordering::SeqCst);
        let (mut stale, mut guards) = (0, 0);
        for h in handles {
            let (s, g) = h.join().unwrap();
            stale += s;
            guards += g;
        }
        assert_eq!(pm.stats().checks, guards, "policy.checks == guard calls");
        stale
    })
}

#[test]
fn revoke_storm_never_admits_stale_access_on_snapshot_path() {
    let stale = storm(2_000, 4, |pm, state, stop| {
        let (mut stale, mut guards) = (0u64, 0u64);
        while !stop.load(Ordering::SeqCst) {
            let s1 = state.load(Ordering::SeqCst);
            let allowed = pm.check(VAddr(0x1800), Size(8), AccessFlags::RW).is_ok();
            let s2 = state.load(Ordering::SeqCst);
            if allowed && s1 == s2 && s1 % 2 == 1 {
                stale += 1;
            }
            guards += 1;
        }
        (stale, guards)
    });
    assert_eq!(stale, 0, "snapshot path admitted after revoke returned");
}

#[test]
fn revoke_storm_never_admits_stale_access_through_the_front() {
    let stale = storm(2_000, 4, |pm, state, stop| {
        // Each reader owns its front — the per-queue structure under test.
        let front = GuardFront::new(Arc::clone(pm), SiteMap::new(0));
        let (mut stale, mut guards) = (0u64, 0u64);
        while !stop.load(Ordering::SeqCst) {
            let s1 = state.load(Ordering::SeqCst);
            let allowed = front
                .carat_guard(VAddr(0x1800), Size(8), AccessFlags::RW)
                .is_ok();
            let s2 = state.load(Ordering::SeqCst);
            if allowed && s1 == s2 && s1 % 2 == 1 {
                stale += 1;
            }
            guards += 1;
        }
        // Dropping the front drains its admits into the policy's stats.
        (stale, guards)
    });
    assert_eq!(stale, 0, "guard front admitted after revoke returned");
}

#[test]
fn generations_are_monotonic_under_churn() {
    let pm = PolicyModule::new();
    let start = pm.store_generation();
    let stop = AtomicBool::new(false);
    let r = region(0x1000, 0x1000, Protection::READ_WRITE);
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let mut last = 0u64;
                    let mut observed = 0u64;
                    while !stop.load(Ordering::SeqCst) {
                        let g = pm.store_generation();
                        assert!(g >= last, "generation went backwards: {last} -> {g}");
                        if g != last {
                            observed += 1;
                        }
                        last = g;
                    }
                    observed
                })
            })
            .collect();
        for _ in 0..2_000 {
            pm.add_region(r).unwrap();
            pm.remove_region(r.base).unwrap();
        }
        stop.store(true, Ordering::SeqCst);
        for h in readers {
            h.join().unwrap();
        }
    });
    // 2 publishes per churn, each at a fresh generation.
    assert_eq!(pm.snapshot_publishes(), 2 * 2_000);
    assert!(pm.store_generation() >= start + 2 * 2_000);
}

#[test]
fn replace_regions_is_atomic_no_torn_rulesets() {
    // Two disjoint rule sets; readers must only ever observe exactly one
    // of them, never a mixture.
    let set_a = vec![
        region(0x1000, 0x1000, Protection::READ_WRITE),
        region(0x3000, 0x1000, Protection::READ_ONLY),
    ];
    let set_b = vec![
        region(0x10_000, 0x1000, Protection::READ_WRITE),
        region(0x30_000, 0x1000, Protection::READ_ONLY),
        region(0x50_000, 0x1000, Protection::NONE),
    ];
    let key = |rs: &[Region]| -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = rs.iter().map(|r| (r.base.raw(), r.len.raw())).collect();
        v.sort_unstable();
        v
    };
    let key_a = key(&set_a);
    let key_b = key(&set_b);

    let pm = PolicyModule::new();
    pm.replace_regions(set_a.iter().copied()).unwrap();
    let stop = AtomicBool::new(false);

    std::thread::scope(|s| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    let mut seen_a = false;
                    let mut seen_b = false;
                    while !stop.load(Ordering::SeqCst) {
                        let snap = pm.policy_snapshot();
                        let k = key(snap.regions());
                        if k == key_a {
                            seen_a = true;
                        } else if k == key_b {
                            seen_b = true;
                        } else {
                            panic!("torn ruleset observed: {k:?}");
                        }
                    }
                    (seen_a, seen_b)
                })
            })
            .collect();
        for i in 0..2_000 {
            let set = if i % 2 == 0 { &set_b } else { &set_a };
            pm.replace_regions(set.iter().copied()).unwrap();
        }
        stop.store(true, Ordering::SeqCst);
        for h in readers {
            h.join().unwrap();
        }
    });
}

#[test]
fn concurrent_stats_reconcile_exactly() {
    // Fixed policy, hammering readers: the relaxed counters must not
    // lose updates.
    let pm = Arc::new(PolicyModule::new());
    pm.add_region(region(0x1000, 0x1000, Protection::READ_WRITE))
        .unwrap();
    let per_thread = 10_000u64;
    std::thread::scope(|s| {
        for t in 0..4 {
            let pm = Arc::clone(&pm);
            s.spawn(move || {
                for i in 0..per_thread {
                    // Half permitted, half denied.
                    let addr = if (i + t) % 2 == 0 { 0x1800 } else { 0x9000 };
                    let _ = pm.check(VAddr(addr), Size(8), AccessFlags::RW);
                }
            });
        }
    });
    let s = pm.stats();
    assert_eq!(s.checks, 4 * per_thread);
    assert_eq!(s.permitted + s.denied_no_match, 4 * per_thread);
}

// ---------------------------------------------------------------------
// Property tests: the lock-free check agrees with the paper's table walk.
// ---------------------------------------------------------------------

fn arb_prot() -> impl Strategy<Value = Protection> {
    prop_oneof![
        Just(Protection::NONE),
        Just(Protection::READ_ONLY),
        Just(Protection::READ_WRITE),
        Just(Protection::ALL),
    ]
}

fn arb_region() -> impl Strategy<Value = Region> {
    // Bases on a coarse grid so regions overlap often.
    (0u64..32, 1u64..5, arb_prot())
        .prop_map(|(slot, pages, prot)| region(0x1000 * slot, 0x1000 * pages, prot))
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

fn arb_flags() -> impl Strategy<Value = AccessFlags> {
    prop_oneof![
        Just(AccessFlags::READ),
        Just(AccessFlags::WRITE),
        Just(AccessFlags::RW),
        Just(AccessFlags::EXEC),
    ]
}

/// One step of the interleaved front proptest: a guard, or a mutation
/// of the policy the front is bound to.
#[derive(Clone, Debug)]
enum Op {
    Probe(u64, u64, AccessFlags),
    Add(Region),
    /// Remove the rule at this index (mod the rule count).
    Remove(u8),
    Replace(Vec<Region>),
    BumpEpoch,
    Default(bool),
}

/// Where probes land: two anchors per site, each a few words wide, so a
/// filled slot is probed again after the mutations that follow it.
const ANCHORS: [u64; 6] = [0x1800, 0x3ff8, 0x9000, 0xc7f8, 0x11000, 0x1e000];

fn arb_probe() -> impl Strategy<Value = Op> {
    (
        0usize..ANCHORS.len(),
        0u64..2,
        prop_oneof![Just(1u64), Just(2), Just(4), Just(8)],
        arb_flags(),
    )
        .prop_map(|(a, word, s, f)| Op::Probe(ANCHORS[a] + 8 * word, s, f))
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Probes dominate.
    prop_oneof![
        arb_probe(),
        arb_probe(),
        arb_probe(),
        arb_probe(),
        arb_region().prop_map(Op::Add),
        any::<u8>().prop_map(Op::Remove),
        proptest::collection::vec(arb_region(), 0..6).prop_map(Op::Replace),
        Just(Op::BumpEpoch),
        any::<bool>().prop_map(Op::Default),
        any::<bool>().prop_map(Op::Default),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn check_agrees_with_linear_scan_of_regions(
        regions in proptest::collection::vec(arb_region(), 0..10),
        probes in proptest::collection::vec(
            (0u64..0x40_000, prop_oneof![Just(1u64), Just(2), Just(4), Just(8)], arb_flags()),
            1..20,
        ),
        allow in any::<bool>(),
    ) {
        for kind in StoreKind::ALL {
            let pm = PolicyModule::with_kind(kind);
            if allow {
                pm.set_default_action(DefaultAction::Allow);
            }
            for r in &regions {
                // Inadmissible rules (duplicate bases, sorted-kind
                // overlaps) are rejected; the scan sees what was kept.
                let _ = pm.add_region(*r);
            }
            for &(addr, size, flags) in &probes {
                let (addr, size) = (VAddr(addr), Size(size));
                let check = pm.check(addr, size, flags).map_err(|v| v.kind);
                prop_assert_eq!(
                    check, scan_verdict(&pm, addr, size, flags),
                    "check diverged ({:?} {:?})", kind, addr
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn front_agrees_with_full_check_across_mutations(
        regions in proptest::collection::vec(arb_region(), 0..8),
        ops in proptest::collection::vec(arb_op(), 1..100),
    ) {
        let pm = Arc::new(PolicyModule::new());
        for r in &regions {
            let _ = pm.add_region(*r);
        }
        // Three sites: two address ranges plus the fallback.
        let map = SiteMap::new(2).range(0, 0x8000, 0).range(0x8000, 0x10_000, 1);
        let front = GuardFront::new(Arc::clone(&pm), map.clone());
        // Sites whose slot a generation bump has staled since their last
        // general check: their next guard must not admit from the slot.
        let mut stale = [false; 3];
        let mut probes = 0u64;
        for op in &ops {
            let gen = pm.store_generation();
            match op {
                Op::Probe(addr, size, flags) => {
                    let (addr, size) = (VAddr(*addr), Size(*size));
                    let site = map.classify(addr.raw()) as usize;
                    let admits = front.flush_admits();
                    let verdict = front.carat_guard(addr, size, *flags).map_err(|v| v.kind);
                    probes += 1;
                    prop_assert_eq!(
                        verdict, scan_verdict(&pm, addr, size, *flags),
                        "front diverged at {:?}", addr
                    );
                    let inline = front.flush_admits() > admits;
                    prop_assert!(!(inline && stale[site]), "stale admit at site {}", site);
                    // Only a region grant may fill a slot, so only a
                    // covering, granting region may admit inline.
                    let granted = pm.regions().iter().any(|r| r.permits(addr, size, *flags));
                    prop_assert!(!inline || granted, "slot admit without a grant at {:?}", addr);
                    stale[site] = false;
                }
                Op::Add(r) => {
                    let _ = pm.add_region(*r);
                }
                Op::Remove(i) => {
                    let rules = pm.regions();
                    if !rules.is_empty() {
                        pm.remove_region(rules[*i as usize % rules.len()].base).unwrap();
                    }
                }
                Op::Replace(rs) => {
                    let _ = pm.replace_regions(rs.iter().copied());
                }
                Op::BumpEpoch => {
                    pm.bump_epoch();
                }
                Op::Default(allow) => pm.set_default_action(if *allow {
                    DefaultAction::Allow
                } else {
                    DefaultAction::Deny
                }),
            }
            if pm.store_generation() != gen {
                stale = [true; 3];
            }
        }
        drop(front);
        prop_assert_eq!(pm.stats().checks, probes, "policy.checks == guard calls");
    }
}

#[test]
fn malformed_access_kinds_survive_concurrency() {
    // The precheck path (malformed/overflow) runs before any lookup.
    let pm = PolicyModule::new();
    // Size-0 with intent flags is the vacuous range-guard case —
    // allowed. Only the flag-less shape is malformed.
    assert!(pm.check(VAddr(0x1000), Size(0), AccessFlags::READ).is_ok());
    let v = pm
        .check(VAddr(0x1000), Size(0), AccessFlags::NONE)
        .unwrap_err();
    assert_eq!(v.kind, ViolationKind::MalformedAccess);
    let v = pm
        .check(VAddr(u64::MAX), Size(8), AccessFlags::READ)
        .unwrap_err();
    assert_eq!(v.kind, ViolationKind::AddressOverflow);
}
