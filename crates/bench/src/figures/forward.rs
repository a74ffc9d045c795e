use kop_compiler::{compile_module, CompileOptions};
use kop_kernel::{Kernel, KernelConfig};
use kop_policy::PolicyModule;

use crate::corpus;
use crate::setup;

use super::measure::{best_of, cores};
use super::quick;
use super::rig::{
    chunked_forward, forward_capture, forward_once, guarded, traced_forward, unguarded,
};
use super::{FigureData, Series};

/// FWD: the receive/forwarding benchmark (`reproduce forward`) — the RX
/// mirror of the paper's TX-only evaluation. Flow-level offered load
/// (thousands of flows, heavy-tailed sizes, seeded bursts) is DMA'd into
/// policy-guarded buffers, serviced NAPI-style (ISR entry, budgeted
/// polls, batched RDT recycling, re-arm on drain), parsed with guarded
/// header reads, rewritten, and transmitted back out the guarded TX
/// path.
///
/// Asserted on every run, not just measured: (a) baseline and guarded
/// forwarding produce byte-identical wire output and identical
/// [`kop_net::ForwardReport`]s from the same seed; (b) every queue's
/// ledger audit is exact at every scale; (c) per-site trace attribution
/// across the combined RX+TX path reconciles exactly with the guard
/// counter; (d) a policy-churn storm with an epoch bump mid-load admits
/// zero stale grants; (e) the `@fwd_rewrite` KIR module loads under
/// static verification and both execution engines produce byte-identical
/// rewrites matching the native datapath.
pub fn forward() -> FigureData {
    use kop_interp::{Engine, ExecStats, Interp};
    use std::sync::atomic::{AtomicU64, Ordering as AO};
    use std::sync::Arc;

    let (loads, repeats, flows, budget): (&[u64], usize, usize, u64) = if quick() {
        (&[300, 600], 2, 256, 64)
    } else {
        (&[1_000, 2_000, 4_000, 8_000], 3, 512, 64)
    };

    let mut headlines = Vec::new();
    let mut notes = Vec::new();

    // ---- Offered-load sweep: guarded vs baseline forwarding rate. ----
    // Same seed per load point, best of interleaved repeats; the reports
    // themselves must be identical (the guards change timing, never
    // behaviour).
    let mut base_pts = Vec::new();
    let mut guard_pts = Vec::new();
    for (i, &offered) in loads.iter().enumerate() {
        let load = (4_100 + i as u64 * 17, flows, offered, budget);
        let [(base_rate, rep_b, _), (guard_rate, rep_g, counts)] = best_of(
            [false, true],
            repeats,
            |guard| {
                if guard {
                    forward_once(guarded(setup::two_region_policy()), load)
                } else {
                    forward_once(unguarded(), load)
                }
            },
            |(rate, _, _)| 1.0 / rate,
        );
        assert_eq!(
            rep_b, rep_g,
            "baseline and guarded forwarding must be behaviourally identical"
        );
        assert!(counts.guard_calls > 0);
        base_pts.push((offered as f64, base_rate));
        guard_pts.push((offered as f64, guard_rate));
        headlines.push((format!("base_fwd_rate_o{offered}"), base_rate));
        headlines.push((format!("guard_fwd_rate_o{offered}"), guard_rate));
    }
    let top = *loads.last().expect("nonempty loads");
    let slowdown = base_pts.last().expect("base").1 / guard_pts.last().expect("guard").1;
    headlines.push((format!("guard_slowdown_o{top}"), slowdown));

    // ---- Byte identity: the guarded forwarder's wire output is the ----
    // baseline's, frame for frame.
    {
        let load = (4_400, flows, loads[0], budget);
        let base_sink = forward_capture(unguarded(), load);
        let guard_sink = forward_capture(guarded(setup::two_region_policy()), load);
        assert_eq!(base_sink.frames, guard_sink.frames);
        assert_eq!(
            base_sink.captured_raw(),
            guard_sink.captured_raw(),
            "byte-identical forwarded frames"
        );
        headlines.push(("byte_identical_frames".into(), base_sink.frames as f64));
    }

    // ---- Per-queue RX scaling: N forwarding queues over one shared ----
    // policy, each queue's ledger audited, guard calls reconciled with
    // the shared policy's check counter per run.
    let queue_counts: &[usize] = if quick() { &[1, 2] } else { &[1, 2, 4] };
    let per_queue = if quick() { 300 } else { 1_500 };
    let mut mq_pts = Vec::new();
    for &q in queue_counts {
        let pm = Arc::new(PolicyModule::two_region_paper_policy());
        // Seeds 8_800.. per repeat; the warm-up takes the first.
        let mut seeds = (8_800..8_800 + repeats as u64).cycle();
        let [rate] = best_of(
            [q],
            repeats,
            |q| {
                let before = pm.stats().checks;
                let seed = seeds.next().expect("cycle");
                let report = kop_net::run_mq_forward(q, per_queue, flows, seed, budget, |_| {
                    guarded(Arc::clone(&pm))
                })
                .expect("mq forward");
                assert!(report.all_clean(), "every queue's ledger audit is exact");
                assert_eq!(
                    pm.stats().checks - before,
                    report.guard_calls(),
                    "every guard on every RX queue reached the shared policy"
                );
                report.frames_per_sec()
            },
            |rate| 1.0 / rate,
        );
        mq_pts.push((q as f64, rate));
        headlines.push((format!("mq_fwd_rate_q{q}"), rate));
    }

    // Striping the policy counters removed the shared-cell ping-pong
    // that once made two queues *slower* than one; hold that line with a
    // monotone-with-slack scaling assertion over the per-queue rates.
    // Like the SMP figure's scaling asserts, this is only meaningful in
    // the standalone quick smoke run on a multi-core host — under
    // `cargo test` sibling tests pollute the scheduler and per-queue
    // rates are noise.
    const MQ_SLACK: f64 = 0.85;
    if quick() && cores() >= 4 {
        for w in mq_pts.windows(2) {
            let ((ql, lo), (qh, hi)) = (w[0], w[1]);
            assert!(
                hi >= lo * MQ_SLACK,
                "mq scaling anomaly: q{qh} rate {hi:.0} fps < {MQ_SLACK} x q{ql} rate {lo:.0} fps"
            );
        }
    }
    headlines.push(("mq_monotonic_slack".into(), MQ_SLACK));

    // ---- Per-site trace reconciliation across the combined RX+TX ----
    // path: profile exactly one forwarding window and require the
    // per-site totals to equal the driver's guard-call delta.
    {
        let load = (4_500, flows, loads[0], budget);
        let (rep, tracer, guard_calls) = traced_forward(setup::two_region_policy(), load);
        let sites = tracer.profile_snapshot();
        assert!(!sites.is_empty(), "guard sites were profiled");
        for (meta, prof) in &sites {
            notes.push(format!(
                "site {}/{}: hits {} ({:.1}%)",
                meta.module,
                meta.label,
                prof.hits,
                100.0 * prof.hits as f64 / guard_calls.max(1) as f64
            ));
        }
        headlines.push(("traced_guard_calls".into(), guard_calls as f64));
        headlines.push(("traced_sites".into(), sites.len() as f64));
        headlines.push(("traced_forwarded".into(), rep.forwarded as f64));
        headlines.push((
            "traced_polls_per_irq".into(),
            rep.polls as f64 / rep.irqs.max(1) as f64,
        ));
    }

    // ---- Policy-churn epoch bump mid-load: a ruleset-reload storm ----
    // runs concurrently with guarded forwarding, then the epoch bumps;
    // once the swap generation is published, no admit may observe an
    // older policy generation. The headline counts the policy's publishes
    // over the window, each of which moved its generation.
    let (churn_forwarded, stale_admits, publishes) = {
        let pm = Arc::new(PolicyModule::two_region_paper_policy());
        let ruleset = pm.regions();
        let publishes_before = pm.snapshot_publishes();
        let swap_gen = AtomicU64::new(u64::MAX);
        let chunks = if quick() { 6u64 } else { 16 };
        let per_chunk = if quick() { 60u64 } else { 150 };
        let churns = if quick() { 200u64 } else { 1_000 };

        let (forwarded, stale_admits) = std::thread::scope(|s| {
            // Stale-grant discipline: after the swap epoch is published,
            // every admit must observe a policy generation at or beyond
            // it.
            let worker = s.spawn(|| {
                chunked_forward(&pm, 9_090, flows, (chunks, per_chunk, budget), || {
                    let sg = swap_gen.load(AO::SeqCst);
                    sg != u64::MAX && pm.store_generation() < sg
                })
            });
            // Main thread, concurrent with forwarding: reload the same
            // ruleset over and over (each reload is one atomic publish),
            // then bump the epoch and publish the swap generation.
            for _ in 0..churns {
                pm.replace_regions(ruleset.iter().copied())
                    .expect("ruleset reload");
            }
            swap_gen.store(pm.bump_epoch(), AO::SeqCst);
            worker.join().expect("churn worker")
        });
        let publishes = pm.snapshot_publishes() - publishes_before;
        assert_eq!(
            stale_admits, 0,
            "zero stale-grant admits across the mid-load epoch bump"
        );
        assert!(publishes > churns, "the churn storm really published");
        (forwarded, stale_admits, publishes)
    };
    headlines.push(("churn_stale_admits".into(), stale_admits as f64));
    headlines.push(("churn_generation_delta".into(), publishes as f64));
    headlines.push(("churn_forwarded".into(), churn_forwarded as f64));

    // ---- The rewrite as a transformed module: `@fwd_rewrite` loads ----
    // under static verification and both engines produce byte-identical
    // rewrites matching the native datapath.
    {
        let key = setup::operator_key();
        let out = compile_module(
            corpus::parse(corpus::FORWARD_IR),
            &CompileOptions::carat_kop(),
            &key,
        )
        .expect("compile fwd-rewrite");
        let own_mac: [u8; 6] = [0x02, 0x4b, 0x4f, 0x50, 0x00, 0x63];
        let own48 = u64::from_le_bytes([
            own_mac[0], own_mac[1], own_mac[2], own_mac[3], own_mac[4], own_mac[5], 0, 0,
        ]);
        let wire = kop_net::FlowGen::new(31, 4).next_frame();
        let calls = 64u64;

        let ir_run = |engine: Engine| -> (Vec<u8>, ExecStats) {
            let mut kernel = Kernel::boot(
                setup::two_region_policy(),
                vec![key.clone()],
                KernelConfig {
                    verification: kop_kernel::Verification::SignatureAndStatic,
                    ..KernelConfig::default()
                },
            );
            kernel
                .insmod(&out.signed)
                .expect("fwd-rewrite loads under static verification");
            let rx = kernel.kmalloc(2_048).expect("rx buffer");
            let tx = kernel.kmalloc(2_048).expect("tx buffer");
            kernel.mem.write_bytes(rx, &wire).expect("seed rx buffer");
            let stats = {
                let mut interp = Interp::new(&mut kernel).expect("interp");
                interp.set_engine(engine);
                for _ in 0..calls {
                    interp
                        .call(
                            "fwd-rewrite",
                            "fwd_rewrite",
                            &[rx.raw(), tx.raw(), own48, wire.len() as u64],
                        )
                        .expect("fwd_rewrite call");
                }
                interp.stats()
            };
            let mut tx_bytes = vec![0u8; wire.len()];
            kernel.mem.read_bytes(tx, &mut tx_bytes).expect("tx back");
            (tx_bytes, stats)
        };

        let (tree_tx, tree_stats) = ir_run(Engine::Tree);
        let (vm_tx, vm_stats) = ir_run(Engine::Bytecode);
        assert_eq!(tree_stats, vm_stats, "engine ExecStats must match");
        assert_eq!(tree_tx, vm_tx, "engines produce byte-identical rewrites");
        assert!(tree_stats.guards > 0, "the carat build executes guards");

        // The KIR rewrite equals the native one: destination is the
        // original source, source is the forwarder, everything else is
        // untouched.
        let mut expect = wire.clone();
        expect[0..6].copy_from_slice(&wire[6..12]);
        expect[6..12].copy_from_slice(&own_mac);
        assert_eq!(
            tree_tx, expect,
            "the transformed module's rewrite matches the native datapath"
        );
        headlines.push((
            "ir_guards_per_rewrite".into(),
            (tree_stats.guards / calls) as f64,
        ));
        headlines.push(("ir_dynamic_guards".into(), tree_stats.guards as f64));
    }

    notes.push(
        "offered-load sweep: same seed per point; baseline and guarded ForwardReports asserted identical, wire bytes asserted identical".into(),
    );
    notes.push(
        "mq_fwd_rate_q*: N RX queues forwarding concurrently over one shared policy; ledger audits and guard reconciliation asserted per run".into(),
    );
    notes.push(format!(
        "policy churn: ruleset reloads concurrent with forwarding, epoch bump mid-load -> {stale_admits} stale admits (asserted zero)"
    ));
    notes.push(
        "@fwd_rewrite: compiled, attested, loaded under SignatureAndStatic; tree and bytecode engines byte-identical and equal to the native rewrite".into(),
    );

    let series = vec![
        Series {
            label: "guarded".into(),
            points: guard_pts,
        },
        Series {
            label: "baseline".into(),
            points: base_pts,
        },
        Series {
            label: "mq-scaling".into(),
            points: mq_pts,
        },
    ];

    FigureData {
        id: "forward",
        title: "RX path + guarded forwarding: rate vs offered load, per-queue scaling, trace reconciliation, churn, engine equivalence".into(),
        axes: ("offered frames | queues", "forwarded frames/s"),
        series,
        headlines,
        notes,
    }
}
