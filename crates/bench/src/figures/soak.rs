use kop_compiler::{compile_module, CompileOptions};
use kop_e1000e::{DriverError, E1000Driver, MemSpace};
use kop_faultline::{FaultPlan, Trigger};
use kop_kernel::{Kernel, KernelConfig};
use kop_policy::PolicyModule;
use kop_sim::cdf_points;

use crate::corpus;
use crate::setup;

use super::quick;
use super::rig::{driver, guarded};
use super::{FigureData, Series};

/// Outcome of one chaos-soak pass over a (supervised or bare) fleet of
/// scanner modules. All units are supervision rounds — deterministic.
struct SoakRun {
    delivered: u64,
    attempts: u64,
    restarts: u64,
    recovery: Vec<f64>,
}

/// Drive `fleet` instances of the credscan scanner for `rounds`
/// supervision rounds. Each round each instance either does one unit of
/// legal work (a scan over the permitted kernel half) or — when its
/// seeded `restart_storm` fault point fires — probes the forbidden user
/// half, burning violation budget toward quarantine. With
/// `supervised = false` a quarantined instance stays dead for the rest
/// of the run; with `supervised = true` a [`kop_super::Supervisor`]
/// ticks once per round and re-insmods it from the cached image.
///
/// Two invariants are asserted on every run: the tracer's per-site
/// totals reconcile *exactly* with the interpreter's dynamic guard
/// count (through every restart), and restarts register no new sites.
fn soak_fleet_run(
    signed: &kop_compiler::SignedModule,
    rate: f64,
    seed: u64,
    rounds: u64,
    fleet: usize,
    supervised: bool,
) -> SoakRun {
    use kop_interp::Interp;
    use kop_policy::ViolationAction;
    use kop_super::{SuperConfig, Supervisor};

    const WORK_ADDR: u64 = kop_core::layout::DIRECT_MAP_BASE + 0x10_0000;
    const PROBE_ADDR: u64 = 0x0060_0000; // user half: always a violation

    let key = setup::operator_key();
    let policy = std::sync::Arc::new(PolicyModule::two_region_paper_policy());
    policy.set_violation_action(ViolationAction::Quarantine);
    let mut kernel = Kernel::boot(policy, vec![key], KernelConfig::default());
    kernel.tracer().set_enabled(true);

    let names: Vec<String> = (0..fleet).map(|t| format!("scanner{t}")).collect();
    for name in &names {
        kernel.insmod_named(signed, name).expect("fleet insmod");
    }
    let sites_at_start = kernel.tracer().site_count();

    let mut sup = if supervised {
        let mut s = Supervisor::new(SuperConfig {
            max_restarts: 10_000, // the soak measures recovery, not escalation
            base_backoff_ticks: 1,
            max_backoff_ticks: 8,
        });
        for name in &names {
            s.attach(&kernel, name, signed).expect("attach");
        }
        Some(s)
    } else {
        None
    };

    // One independent misbehaviour schedule per tenant; same seeds for
    // the supervised and baseline passes, so the storms are identical.
    let mut storms: Vec<_> = (0..fleet)
        .map(|t| {
            FaultPlan::new(seed + t as u64)
                .with_restart_storm(Trigger::Probability(rate))
                .restart_storm
        })
        .collect();

    let mut delivered = 0u64;
    let mut attempts = 0u64;
    let mut total_guards = 0u64;
    // The kernel heap is a bump allocator: allocate one module stack up
    // front and thread it through every per-round interpreter.
    let stack = Interp::new(&mut kernel).expect("interp").stack_base();
    for _round in 0..rounds {
        {
            let mut interp = Interp::with_stack(&mut kernel, stack);
            for (t, name) in names.iter().enumerate() {
                if storms[t].check() {
                    // Chaos: probe the forbidden half. Squashed while
                    // under budget; the budget-exhausting probe
                    // quarantines the instance mid-call.
                    let _ = interp.call(name, "scan", &[PROBE_ADDR, 8]);
                } else {
                    attempts += 1;
                    if matches!(interp.call(name, "scan", &[WORK_ADDR, 64]), Ok(Some(0))) {
                        delivered += 1;
                    }
                }
            }
            total_guards += interp.stats().guards;
        }
        if let Some(s) = sup.as_mut() {
            s.tick(&mut kernel);
        }
    }

    // Exact per-site reconciliation through every quarantine/restart
    // cycle: the cached image keeps its site table alive, so no check is
    // ever attributed to a dangling or duplicated site.
    assert_eq!(
        kernel.tracer().total_checks(),
        total_guards,
        "per-site totals must reconcile exactly with dynamic guard count"
    );
    assert_eq!(
        kernel.tracer().site_count(),
        sites_at_start,
        "restarts must not re-register guard sites"
    );

    let restarts = names.iter().map(|n| kernel.lifecycle().restarts(n)).sum();
    let recovery = sup
        .map(|s| s.recovery_latencies().iter().map(|&t| t as f64).collect())
        .unwrap_or_default();
    SoakRun {
        delivered,
        attempts,
        restarts,
        recovery,
    }
}

/// A sequence-numbered 128 B raw Ethernet frame: the LE `u64` sequence
/// sits at payload bytes 0..8 (`frame[14..22]`), where
/// [`kop_net::LedgerSink`] audits it.
fn seq_frame(seq: u64) -> Vec<u8> {
    let mut f = vec![0u8; 128];
    f[0..6].copy_from_slice(&[0x52, 0x54, 0x00, 0x5e, 0x00, 0x01]);
    f[6..12].copy_from_slice(&[0x02, 0x00, 0x00, 0x00, 0x00, 0x01]);
    f[12] = 0x88;
    f[13] = 0xb5;
    f[14..22].copy_from_slice(&seq.to_le_bytes());
    f
}

/// A [`kop_net::LedgerSink`] shared across queue threads and the drain
/// port behind one mutex.
#[derive(Clone)]
struct SharedLedger(std::sync::Arc<std::sync::Mutex<kop_net::LedgerSink>>);

impl kop_e1000e::FrameSink for SharedLedger {
    fn deliver(&mut self, frame: &[u8]) {
        self.0.lock().expect("ledger lock").deliver(frame);
    }
}

/// [`kop_super::DrainPort`] over a real driver: the upgrade protocol
/// drains v1's queues through this, then force-migrates what a wedged
/// device leaves behind.
struct DriverDrain<M: MemSpace> {
    drv: E1000Driver<M>,
    sink: SharedLedger,
}

impl<M: MemSpace> kop_super::DrainPort for DriverDrain<M> {
    fn drain(&mut self, max_ticks: u64) -> u64 {
        self.drv.drain(&mut self.sink, max_ticks).unwrap_or(0)
    }
    fn pending(&self) -> u64 {
        self.drv.tx_pending()
    }
    fn migrate(&mut self) -> Vec<Vec<u8>> {
        self.drv.take_pending_frames().unwrap_or_default()
    }
}

/// What the live-upgrade half of the soak observed.
struct UpgradeSoak {
    drained: u64,
    migrated: u64,
    duplicates: u64,
    missing: u64,
    stale_admits: u64,
    /// The policy's snapshot publishes across the upgrade.
    publishes: u64,
    delivered: u64,
    expected: u64,
}

/// Zero-downtime live upgrade under concurrent multi-queue guarded TX.
///
/// v1's NIC is wedged (permanent TX hang — the reason an operator would
/// upgrade) with a backlog of sequence-numbered frames queued. While N
/// queue threads hammer their own guarded drivers over the *shared*
/// policy, the main thread runs [`kop_super::upgrade_module`]: v2 loads
/// alongside, the bounded drain times out, the backlog is
/// force-migrated, dispatch swaps behind a policy epoch bump, and v1
/// unloads. The migrated frames are resubmitted through a successor
/// driver. The shared [`kop_net::LedgerSink`] then proves zero dropped
/// and zero duplicated frames, and every queue thread checks the
/// stale-grant discipline: once the swap epoch is published, no admit
/// may observe an older policy generation.
fn soak_upgrade(signed: &kop_compiler::SignedModule) -> UpgradeSoak {
    use kop_policy::ViolationAction;
    use kop_super::{upgrade_module, UpgradeOptions};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    const BACKLOG: u64 = 12;
    let (queues, per_queue): (usize, u64) = if quick() { (2, 60) } else { (3, 200) };

    let key = setup::operator_key();
    let policy = Arc::new(PolicyModule::two_region_paper_policy());
    policy.set_violation_action(ViolationAction::Quarantine);
    let mut kernel = Kernel::boot(Arc::clone(&policy), vec![key], KernelConfig::default());
    kernel.tracer().set_enabled(true);
    kernel.insmod(signed).expect("insmod v1");

    let ledger = Arc::new(Mutex::new(kop_net::LedgerSink::new()));

    // v1's NIC: TX DMA permanently hung, backlog queued and undelivered.
    let hung = kop_faultline::FaultyMem::new(
        guarded(Arc::clone(&policy)),
        FaultPlan::new(9_001).with_tx_hang(Trigger::Window {
            start: 1,
            len: u64::MAX / 2,
        }),
    );
    let mut v1_drv = driver(hung);
    for seq in 0..BACKLOG {
        v1_drv.xmit_raw(&seq_frame(seq)).expect("queue backlog");
    }
    assert_eq!(v1_drv.tx_pending(), BACKLOG);
    let mut port = DriverDrain {
        drv: v1_drv,
        sink: SharedLedger(Arc::clone(&ledger)),
    };

    let gen_before = policy.store_generation();
    let publishes_before = policy.snapshot_publishes();
    let swap_gen = AtomicU64::new(u64::MAX);
    let stale = AtomicU64::new(0);

    let report = std::thread::scope(|s| {
        for q in 0..queues {
            let policy = Arc::clone(&policy);
            let mut ledger = SharedLedger(Arc::clone(&ledger));
            let swap_gen = &swap_gen;
            let stale = &stale;
            s.spawn(move || {
                let mut drv = driver(guarded(Arc::clone(&policy)));
                let base = 1_000 + q as u64 * per_queue;
                for i in 0..per_queue {
                    // Stale-grant discipline: after the swap epoch is
                    // visible, every admit must observe a generation at
                    // or beyond it.
                    let sg = swap_gen.load(Ordering::SeqCst);
                    let g = policy.store_generation();
                    if sg != u64::MAX && g < sg {
                        stale.fetch_add(1, Ordering::SeqCst);
                    }
                    let frame = seq_frame(base + i);
                    loop {
                        match drv.xmit_raw(&frame) {
                            Ok(()) => break,
                            Err(DriverError::RingFull) => {
                                let _ = drv.drain(&mut ledger, 4);
                            }
                            Err(e) => panic!("queue {q} xmit: {e}"),
                        }
                    }
                    let _ = drv.drain(&mut ledger, 2);
                }
                drv.drain(&mut ledger, 2_048).expect("final drain");
                assert_eq!(drv.tx_pending(), 0, "queue {q} must drain clean");
            });
        }

        // Main thread, concurrent with the TX storm: the live upgrade.
        let report = upgrade_module(
            &mut kernel,
            "credscan",
            signed,
            &mut port,
            UpgradeOptions { drain_ticks: 4 },
        )
        .expect("upgrade");
        swap_gen.store(report.generation, Ordering::SeqCst);
        report
    });

    assert_eq!(kernel.dispatch_target("credscan"), Some("credscan#v2"));
    assert_eq!(
        report.migrated.len() as u64,
        BACKLOG,
        "wedged v1 forces full migration of the backlog"
    );

    // Resubmit the migrated in-flight frames through the successor's
    // driver — in order, before any new traffic on that queue.
    let mut v2_drv = driver(guarded(Arc::clone(&policy)));
    let mut sink = SharedLedger(Arc::clone(&ledger));
    for frame in &report.migrated {
        v2_drv.xmit_raw(frame).expect("resubmit migrated");
    }
    v2_drv.drain(&mut sink, 2_048).expect("drain migrated");
    assert_eq!(v2_drv.tx_pending(), 0);

    let expected = BACKLOG + queues as u64 * per_queue;
    let l = ledger.lock().expect("ledger");
    let mut missing = 0u64;
    for seq in 0..BACKLOG {
        if !l.has(seq) {
            missing += 1;
        }
    }
    for q in 0..queues as u64 {
        for i in 0..per_queue {
            if !l.has(1_000 + q * per_queue + i) {
                missing += 1;
            }
        }
    }
    let stale_admits = stale.load(Ordering::SeqCst);

    assert_eq!(missing, 0, "zero dropped frames across the live upgrade");
    assert_eq!(
        l.duplicates, 0,
        "zero duplicated frames across the live upgrade"
    );
    assert_eq!(l.distinct(), expected);
    assert_eq!(
        stale_admits, 0,
        "zero stale-grant admits across the epoch bump"
    );
    assert!(report.generation > gen_before, "epoch must advance");

    UpgradeSoak {
        drained: report.drained,
        migrated: report.migrated.len() as u64,
        duplicates: l.duplicates,
        missing,
        stale_admits,
        publishes: policy.snapshot_publishes() - publishes_before,
        delivered: l.frames,
        expected,
    }
}

/// SOAK: fleet-scale chaos soak for the module lifecycle supervisor.
///
/// Part 1 sweeps misbehaviour-storm rates over a fleet of scanner
/// modules, comparing delivered work fraction with and without
/// supervision (identical seeded storms). The supervised fleet must
/// dominate at every rate — quarantine still fires instantly, but the
/// supervisor's backoff'd restarts reclaim the downtime. Part 2 runs the
/// zero-downtime live upgrade under concurrent multi-queue guarded TX
/// (see `soak_upgrade`). Every correctness claim is asserted on every
/// run; the figure reports the numbers.
pub fn soak() -> FigureData {
    let (rates, rounds, fleet): (&[f64], u64, usize) = if quick() {
        (&[0.0, 0.05], 120, 2)
    } else {
        (&[0.0, 0.02, 0.05], 400, 3)
    };
    let max_rate = *rates.last().expect("nonempty rates");

    let key = setup::operator_key();
    let signed = compile_module(
        corpus::parse(corpus::ROOTKIT_IR),
        &CompileOptions::carat_kop(),
        &key,
    )
    .expect("compile scanner")
    .signed;

    let mut base_points = Vec::new();
    let mut super_points = Vec::new();
    let mut headlines = Vec::new();
    let mut cdf_series = Vec::new();

    for (i, &rate) in rates.iter().enumerate() {
        let seed = 7_001 + i as u64 * 101;
        let base = soak_fleet_run(&signed, rate, seed, rounds, fleet, false);
        let sup = soak_fleet_run(&signed, rate, seed, rounds, fleet, true);
        let frac = |r: &SoakRun| r.delivered as f64 / r.attempts.max(1) as f64;
        let (bf, sf) = (frac(&base), frac(&sup));
        assert!(
            sf + 1e-9 >= bf,
            "supervised delivered fraction must dominate at rate {rate}: {sf} < {bf}"
        );
        base_points.push((rate, bf));
        super_points.push((rate, sf));
        let pm = (rate * 1000.0).round() as u64;
        headlines.push((format!("base_delivered_frac_r{pm}"), bf));
        headlines.push((format!("super_delivered_frac_r{pm}"), sf));
        headlines.push((format!("super_restarts_r{pm}"), sup.restarts as f64));
        if rate == max_rate && rate > 0.0 {
            assert!(
                sup.restarts > 0,
                "the storm at the top rate must force restarts"
            );
            assert!(
                sf > bf,
                "supervision must strictly dominate at the top rate ({sf} vs {bf})"
            );
            headlines.push((
                "recovery_p50_ticks".into(),
                kop_sim::percentile(&sup.recovery, 50.0),
            ));
            headlines.push((
                "recovery_p95_ticks".into(),
                kop_sim::percentile(&sup.recovery, 95.0),
            ));
            cdf_series.push(Series {
                label: format!("recovery-cdf-r{pm}"),
                points: cdf_points(&sup.recovery),
            });
        }
    }

    let up = soak_upgrade(&signed);
    headlines.push(("upgrade_drained".into(), up.drained as f64));
    headlines.push(("upgrade_migrated".into(), up.migrated as f64));
    headlines.push(("upgrade_duplicates".into(), up.duplicates as f64));
    headlines.push(("upgrade_missing".into(), up.missing as f64));
    headlines.push(("upgrade_stale_admits".into(), up.stale_admits as f64));
    headlines.push(("upgrade_generation_delta".into(), up.publishes as f64));
    headlines.push(("upgrade_delivered".into(), up.delivered as f64));
    headlines.push(("upgrade_expected".into(), up.expected as f64));

    let mut series = vec![
        Series {
            label: "supervised".into(),
            points: super_points,
        },
        Series {
            label: "baseline".into(),
            points: base_points,
        },
    ];
    series.append(&mut cdf_series);

    FigureData {
        id: "soak",
        title: "chaos soak: supervised vs bare module fleet under misbehaviour storms; live upgrade under concurrent MQ TX".into(),
        axes: ("misbehaviour rate (per round per module)", "delivered work fraction"),
        series,
        headlines,
        notes: vec![
            "storms: seeded restart_storm fault points drive forbidden probes; quarantine at the kernel's violation budget".into(),
            "supervisor: exponential backoff on a virtual clock, restart from the cached image (no recompile, attestation re-verified)".into(),
            "asserted every run: supervised >= baseline at every rate; exact per-site trace reconciliation through restarts".into(),
            "asserted every run: upgrade drops zero frames, duplicates zero frames, admits zero stale grants across the epoch bump".into(),
            "recovery-cdf-r* series: restart latency CDF in supervision rounds at the top storm rate".into(),
        ],
    }
}
