//! Concurrency: guard checks race against policy mutation — the real
//! deployment shape (driver contexts invoke `carat_guard` while the
//! operator reconfigures rules over ioctl). The policy module must stay
//! consistent: every check sees either the old or the new rule set,
//! never a torn one.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use kop_core::{AccessFlags, Protection, Region, Size, VAddr};
use kop_policy::{DefaultAction, PolicyModule, StoreKind, ViolationAction};

fn region(base: u64, len: u64) -> Region {
    Region::new(VAddr(base), Size(len), Protection::READ_WRITE).unwrap()
}

#[test]
fn checks_race_mutations_without_tearing() {
    for kind in StoreKind::ALL {
        let pm = Arc::new(PolicyModule::with_kind(kind));
        pm.set_violation_action(ViolationAction::LogAndDeny);
        // A permanent region that must never stop matching.
        pm.add_region(region(0x100_0000, 0x1000)).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        // Mutation starts only once every checker has checked, so checks
        // race the mutations however the threads are scheduled.
        let checking = Arc::new(Barrier::new(5));

        let checkers: Vec<_> = (0..4)
            .map(|_| {
                let pm = Arc::clone(&pm);
                let stop = Arc::clone(&stop);
                let checking = Arc::clone(&checking);
                std::thread::spawn(move || {
                    let mut permitted = 0u64;
                    loop {
                        // The permanent region must always permit.
                        let r = pm.check(VAddr(0x100_0800), Size(8), AccessFlags::RW);
                        assert!(r.is_ok(), "{kind}: permanent rule disappeared");
                        permitted += 1;
                        // A churned region may permit or deny — either is
                        // fine, it must just not panic or tear.
                        let _ = pm.check(VAddr(0x200_0000), Size(8), AccessFlags::READ);
                        if permitted == 1 {
                            checking.wait();
                        }
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    permitted
                })
            })
            .collect();

        let mutator = {
            let pm = Arc::clone(&pm);
            let stop = Arc::clone(&stop);
            let checking = Arc::clone(&checking);
            std::thread::spawn(move || {
                checking.wait();
                for i in 0..500u64 {
                    let r = region(0x200_0000, 0x1000);
                    let _ = pm.add_region(r);
                    let _ = pm.remove_region(VAddr(0x200_0000));
                    if i % 50 == 0 {
                        pm.reset_stats();
                    }
                }
                stop.store(true, Ordering::Relaxed);
            })
        };

        mutator.join().unwrap();
        let total: u64 = checkers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total > 0, "{kind}: checkers made progress");
        // Permanent region still present and correct.
        assert!(pm
            .check(VAddr(0x100_0000), Size(8), AccessFlags::RW)
            .is_ok());
    }
}

#[test]
fn stats_are_coherent_under_contention() {
    let pm = Arc::new(PolicyModule::new());
    pm.set_default_action(DefaultAction::Allow);
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let pm = Arc::clone(&pm);
            std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    pm.check(VAddr(0x1000 + i * 8), Size(8), AccessFlags::READ)
                        .unwrap();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let s = pm.stats();
    assert_eq!(s.checks, 40_000);
    assert_eq!(s.permitted, 40_000);
    assert_eq!(s.denied(), 0);
}

#[test]
fn violation_log_capped_under_concurrent_denials() {
    let pm = Arc::new(PolicyModule::new()); // default deny
    pm.set_violation_action(ViolationAction::LogAndDeny);
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let pm = Arc::clone(&pm);
            std::thread::spawn(move || {
                for i in 0..2_000u64 {
                    let _ = pm.check(VAddr(t * 1_000_000 + i), Size(1), AccessFlags::WRITE);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    assert_eq!(pm.stats().denied(), 8_000);
    assert!(pm.violation_log().len() <= 1024, "log stays capped");
}
