//! End-to-end SMP guard path: a guarded driver transmits through a
//! per-queue guard front while every policy counter — guard stats,
//! snapshot publishes, dropped log entries — flows into the tracer's
//! unified registry and out through the `/dev/trace` control protocol,
//! and `policy.checks` balances the driver's guard calls exactly, before
//! and after a mid-run publish.

use std::sync::Arc;

use kop_e1000e::device::CountSink;
use kop_e1000e::{driver_site_map, DirectMem, E1000Device, E1000Driver, GuardedMem, MemSpace};
use kop_policy::{GuardFront, PolicyModule};
use kop_trace::{control, Tracer};

#[test]
fn front_checks_flow_through_dev_trace_and_reconcile() {
    let pm = Arc::new(PolicyModule::two_region_paper_policy());
    let tracer = Tracer::new();
    // All policy counters (guard stats + snapshot publishes + dropped
    // log entries) into the tracer's registry, as the kernel does at
    // boot.
    pm.register_counters(tracer.counters());
    let mem = DirectMem::with_defaults(E1000Device::default());
    let map = driver_site_map(mem.arena_base(), mem.mmio_base());
    let front = GuardFront::new(Arc::clone(&pm), map);
    let mem = GuardedMem::with_tracer(mem, front, Arc::clone(&tracer));

    // Read a counter back through the /dev/trace control protocol.
    let value = |name: &str| -> u64 {
        let text = control::handle(&tracer, "counters").expect("counters view");
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{name}=")))
            .unwrap_or_else(|| panic!("{name} missing from counters view:\n{text}"))
            .trim()
            .parse()
            .expect("counter value")
    };

    let mut drv = E1000Driver::probe(mem).expect("probe");
    drv.up().expect("up");
    let mut sink = CountSink::default();
    let payload = [0u8; 114];
    for _ in 0..200 {
        drv.xmit_and_flush([0xffu8; 6], 0x88b5, &payload, &mut sink)
            .expect("xmit");
    }
    // A live observer, reading between frames with no accessor call:
    // the frame's device tick drained the front, so the books balance.
    let live = value("policy.checks");
    let before = drv.counts();
    assert!(before.guard_calls > 0);
    assert_eq!(live, before.guard_calls, "policy.checks == guard calls");
    assert!(
        before.inline_admits > before.guard_calls - before.inline_admits,
        "steady-state TX must be answered mostly from the slots"
    );

    // A policy mutation mid-run: bumps the publish counter and stales
    // every slot via generation bump; traffic keeps flowing afterwards.
    pm.add_region(
        kop_core::Region::new(
            kop_core::VAddr(0x1000),
            kop_core::Size(0x1000),
            kop_core::Protection::READ_ONLY,
        )
        .unwrap(),
    )
    .unwrap();
    for _ in 0..50 {
        drv.xmit_and_flush([0xffu8; 6], 0x88b5, &payload, &mut sink)
            .expect("xmit after publish");
    }
    let after = drv.counts();
    assert_eq!(value("policy.checks"), after.guard_calls);
    // The publish forced at least one refill per site the TX path uses.
    let refills = |c: &kop_e1000e::AccessCounts| c.guard_calls - c.inline_admits;
    assert!(refills(&after) > refills(&before));

    // The mid-run mutation published exactly once (two_region_paper_policy
    // itself published twice while being built).
    assert_eq!(value("policy.snapshot_publishes"), 3);
    assert_eq!(
        value("policy.log_dropped"),
        0,
        "no denials, so nothing can have been dropped"
    );
    assert_eq!(value("policy.permitted"), after.guard_calls);
}
