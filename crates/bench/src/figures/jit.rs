use kop_compiler::CompileOptions;
use kop_kernel::KernelConfig;

use crate::setup;

use super::measure::best_of;
use super::quick;
use super::rig::{default_site_map, forward_once, guarded, unguarded, TxRig};
use super::{FigureData, Series};

/// JIT: the profile-directed superblock trace tier (`reproduce jit`).
/// Closes the loop between kop-trace and kop-vm: per-site hit/latency
/// profiles select hot guard sites, the kernel re-lowers their
/// containing functions with the granting region's `[lo, hi)` bound
/// inlined as immediate compares (each baked bound re-derived by the
/// independent translation validator before install), and the promoted
/// dispatch runs the specialized copies until a policy publish drops the
/// tier. The native forwarding datapath gets the same tag-and-bound check
/// from a per-queue [`kop_policy::GuardFront`], whose slots fill on miss.
///
/// Asserted, not just measured: (a) the promoted tier and the front at
/// least halve the guard *overhead* (guarded minus baseline ns/packet)
/// over the general path on the interpreter TX loop and the native
/// forwarding datapath respectively; (b) general and fast runs are
/// observably identical — ExecStats and ring/frame/@stats/TDT bytes on
/// the TX loop, ForwardReports on the datapath; (c) steady state answers
/// every interpreter guard inline with zero deopts and most forwarding
/// guards from a slot, and fast admits still reconcile (`policy.checks`
/// == guard count); (d) with the tracer on the tier stays promoted —
/// every guard inline, zero deopts — and its per-site hits equal a
/// traced general-bytecode pass exactly; (e) a policy publish drops the
/// tier atomically — zero stale admits — and lazy re-promotion restores
/// it at the new generation.
pub fn jit() -> FigureData {
    use kop_interp::Engine;
    use kop_policy::GuardFront;
    use std::sync::Arc;

    let (packets, repeats) = if quick() {
        (2_000u64, 3)
    } else {
        (20_000u64, 6)
    };
    let profile_pkts = 256u64;
    // Timing asserts only in the standalone quick smoke run: under
    // `cargo test` sibling tests pollute the scheduler (and debug builds
    // distort the engine ratios); correctness is asserted everywhere.
    let assert_timing = quick();
    let carat = CompileOptions::carat_kop();
    let boot = |opts: &CompileOptions| {
        TxRig::boot(opts, setup::two_region_policy(), KernelConfig::default())
    };

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Mode {
        Baseline,
        General,
        Promoted,
    }

    // One timed pass on a fresh rig: the rig, the run, and the ops the
    // promotion baked.
    let run = |mode: Mode| {
        let mut rig = match mode {
            Mode::Baseline => boot(&CompileOptions::baseline()),
            _ => boot(&carat),
        };
        // Profile window — identical in every mode so the deterministic
        // outputs stay comparable. The tracer builds the per-site
        // envelopes promotion feeds on (a no-op for the baseline build,
        // which has no guard sites).
        rig.profile(profile_pkts);
        let (engine, promoted_ops) = if mode == Mode::Promoted {
            let ops = rig.promote() as u64;
            assert!(ops > 0, "hot guard sites were promoted");
            let tier = rig.image().compiled.promoted_generation();
            assert_ne!(tier, 0, "tier installed");
            (Engine::Promoted, ops)
        } else {
            (Engine::Bytecode, 0)
        };
        let tx = rig.run(engine, packets);
        (rig, tx, promoted_ops)
    };
    let [(_, base, _), (general_rig, general, _), (promoted_rig, promoted, promoted_ops)] = best_of(
        [Mode::Baseline, Mode::General, Mode::Promoted],
        repeats,
        run,
        |(_, tx, _)| tx.ns_pkt,
    );

    // Observable identity: the tier changed guard *mechanics*, never the
    // module's behaviour.
    assert_eq!(
        general.stats, promoted.stats,
        "general and promoted ExecStats must match"
    );
    assert_eq!(
        general_rig.read(),
        promoted_rig.read(),
        "TX ring, frame, @stats and TDT doorbell bytes"
    );
    assert_eq!(base.stats.guards, 0, "baseline build executes no guards");
    assert!(general.stats.guards > 0 && general.stats.guards % packets == 0);

    // Steady state: every guard answered inline, zero deopts.
    assert_eq!(
        promoted.inline_admits, promoted.stats.guards,
        "every steady-state guard is answered by the inline tier"
    );
    assert_eq!(promoted.inline_deopts, 0, "zero steady-state deopts");
    assert_eq!(general.inline_admits, 0);

    // The headline claim: the tier at least halves the guard overhead.
    let general_over = (general.ns_pkt - base.ns_pkt).max(0.0);
    let promoted_over = (promoted.ns_pkt - base.ns_pkt).max(0.0);
    if assert_timing {
        assert!(
            promoted_over <= general_over / 2.0,
            "promoted tier must at least halve the TX guard overhead \
             (baseline {:.1} ns/pkt, general {:.1}, promoted {:.1}: overhead {:.1} -> {:.1})",
            base.ns_pkt,
            general.ns_pkt,
            promoted.ns_pkt,
            general_over,
            promoted_over
        );
    }
    // Floor the residual at 1 ns so a promoted run inside noise of the
    // baseline reports a large-but-finite reduction.
    let vm_reduction = general_over / promoted_over.max(1.0);

    // Traced correctness pass: with the tracer on, the promoted tier
    // stays promoted (every guard inline, zero deopts), and its batched
    // per-site attribution equals a traced general-bytecode pass over
    // the same packets, site for site.
    let tp = if quick() { 512 } else { 2_048 };
    let traced_pass = |engine: Engine| {
        let mut rig = boot(&carat);
        rig.profile(profile_pkts);
        assert!(rig.promote() > 0);
        // The measured window's profile starts from zero.
        rig.kernel.tracer().reset_profiles();
        rig.kernel.tracer().set_enabled(true);
        let tx = rig.run(engine, tp);
        let tracer = rig.kernel.tracer();
        let inline: u64 = tracer
            .profile_snapshot()
            .iter()
            .map(|(_, p)| p.inline)
            .sum();
        (tx, tracer.total_checks(), inline, rig.site_hits())
    };
    let (traced_checks, traced_guards, traced_admits) = {
        let (general, general_checks, general_inline, general_sites) =
            traced_pass(Engine::Bytecode);
        let (promoted, checks, inline, sites) = traced_pass(Engine::Promoted);
        assert_eq!(promoted.stats, general.stats, "traced ExecStats must match");
        assert_eq!(
            promoted.inline_admits, promoted.stats.guards,
            "with tracing on, every guard is still answered by the inline tier"
        );
        assert_eq!(promoted.inline_deopts, 0, "tracing causes no deopts");
        for (c, g) in [
            (general_checks, general.stats.guards),
            (checks, promoted.stats.guards),
        ] {
            assert_eq!(
                c, g,
                "per-site profile totals must reconcile with the guard counter"
            );
        }
        assert_eq!(
            inline, promoted.inline_admits,
            "every inline admit profiled as inline"
        );
        assert_eq!(general_inline, 0);
        assert_eq!(
            sites, general_sites,
            "per-site hits equal a traced general-bytecode pass over the same packets"
        );
        (checks, promoted.stats.guards, promoted.inline_admits)
    };

    // Invalidation and lazy re-promotion: a policy publish drops the
    // tier wholesale (zero stale admits by construction — the promoted
    // dispatch deopts to the general bytecode), and the next promotion
    // re-bakes at the new generation.
    let bump_generation_delta = {
        let policy = setup::two_region_policy();
        let config = KernelConfig {
            // The sweep threshold `tick()` uses — one hit qualifies,
            // so the standing profile re-promotes after the bump.
            hot_threshold: 1,
            ..KernelConfig::default()
        };
        let mut rig = TxRig::boot(&carat, Arc::clone(&policy), config);
        let image = rig.image();
        let compiled = &image.compiled;
        rig.profile(profile_pkts);
        assert!(rig.promote() > 0);
        let gen1 = compiled.promoted_generation();
        assert_eq!(gen1, policy.store_generation(), "tier is current");
        let r1 = rig.run(Engine::Promoted, 64);
        assert_eq!(r1.inline_admits, r1.stats.guards);
        assert_eq!(r1.inline_deopts, 0);

        // The publish: the generation subscription drops the tier on the
        // publishing thread, before bump_epoch returns.
        policy.bump_epoch();
        assert_eq!(
            compiled.promoted_generation(),
            0,
            "a policy publish drops the promoted tier wholesale"
        );
        let r2 = rig.run(Engine::Promoted, 64);
        assert_eq!(
            r2.inline_admits, 0,
            "zero stale admits after the epoch bump"
        );
        assert_eq!(
            r2.inline_deopts, 0,
            "tier dropped before any op could even deopt"
        );
        assert_eq!(
            r2.stats.guards, r1.stats.guards,
            "general path answered everything"
        );

        // Lazy re-promotion: the accumulated profile still qualifies, so
        // the next sweep re-bakes against the *new* snapshot.
        assert!(
            rig.kernel.tick() > 0,
            "re-promotion from the standing profile"
        );
        let gen2 = compiled.promoted_generation();
        assert_eq!(gen2, policy.store_generation());
        assert!(gen2 > gen1);
        let r3 = rig.run(Engine::Promoted, 64);
        assert_eq!(
            r3.inline_admits, r3.stats.guards,
            "inline admits resume at the new generation"
        );
        assert_eq!(r3.inline_deopts, 0);
        gen2 - gen1
    };

    // ---- The native forwarding datapath: a per-queue GuardFront in ----
    // front of the shared policy module.
    let (fwd_offered, fwd_repeats, fwd_flows, fwd_budget) = if quick() {
        (600u64, 2usize, 256usize, 64u64)
    } else {
        (4_000, 3, 512, 64)
    };
    let fwd_seed = 7_300u64;

    // The forwarding comparison runs a 32-region table policy — the
    // per-allocation shape a CARAT-tracked kernel actually carries, with
    // the driver's grants at the worst-case scan position (as in the
    // Figure 5 sweep). General and front runs share the same policy; the
    // front's filled bounds are what make its cost independent of table
    // size.
    let pm = setup::n_region_policy(32);
    #[derive(Clone, Copy, Debug)]
    enum Leg {
        Unguarded,
        General,
        Front,
    }
    // One pass as (ns per frame, report, access counts).
    let fwd_run = |leg: Leg| {
        let checks0 = pm.stats().checks;
        let load = (fwd_seed, fwd_flows, fwd_offered, fwd_budget);
        let (rate, rep, counts) = match leg {
            Leg::Unguarded => forward_once(unguarded(), load),
            Leg::General => forward_once(guarded(Arc::clone(&pm)), load),
            Leg::Front => {
                let front = GuardFront::new(Arc::clone(&pm), default_site_map());
                forward_once(guarded(front), load)
            }
        };
        // One rule for every leg: every guard reached the policy's books.
        assert_eq!(
            pm.stats().checks - checks0,
            counts.guard_calls,
            "{leg:?}: policy.checks == guard calls"
        );
        (1e9 / rate.max(1e-9), rep, counts)
    };
    let [(fwd_base, rep_b, _), (fwd_general, rep_g, counts_g), (fwd_front, rep_f, counts_f)] =
        best_of(
            [Leg::Unguarded, Leg::General, Leg::Front],
            fwd_repeats,
            fwd_run,
            |(ns, _, _)| *ns,
        );
    assert_eq!(
        rep_b, rep_g,
        "general forwarding is behaviourally identical"
    );
    assert_eq!(rep_b, rep_f, "front forwarding is behaviourally identical");
    let fwd_guard_calls = counts_g.guard_calls;
    assert_eq!(
        counts_f.guard_calls, fwd_guard_calls,
        "same guard count either way"
    );
    let fwd_admits = counts_f.inline_admits;
    assert!(
        fwd_admits > fwd_guard_calls - fwd_admits,
        "the front answers most forwarding guards from a slot ({fwd_admits} of {fwd_guard_calls})"
    );
    let fwd_general_over = (fwd_general - fwd_base).max(0.0);
    let fwd_front_over = (fwd_front - fwd_base).max(0.0);
    if assert_timing {
        assert!(
            fwd_front_over <= fwd_general_over / 2.0,
            "the front must at least halve the forwarding guard overhead \
             (baseline {fwd_base:.1} ns/frame, general {fwd_general:.1}, \
              front {fwd_front:.1}: overhead {fwd_general_over:.1} -> {fwd_front_over:.1})"
        );
    }
    let fwd_reduction = fwd_general_over / fwd_front_over.max(1.0);

    let guards_per_packet = general.stats.guards / packets;
    let notes = vec![
        "tx: x=0 baseline build, x=1 guarded general bytecode, x=2 guarded promoted tier (ns/packet); fwd: x=0 unguarded, x=1 general check, x=2 GuardFront (ns/frame)".into(),
        "promotion: tracer envelopes -> covering region of the current snapshot -> inlined [lo,hi)+perm+generation, self-validated by the translation validator before install".into(),
        format!(
            "steady state: {} inline admits, {} deopts; traced promoted pass: {traced_admits} inline admits, 0 deopts, {traced_checks} profiled checks == {traced_guards} guards, per-site hits == traced bytecode",
            promoted.inline_admits, promoted.inline_deopts
        ),
        format!(
            "epoch bump dropped the tier atomically (generation +{bump_generation_delta}), zero stale admits, tick() re-promoted"
        ),
        format!(
            "native datapath: GuardFront admits {fwd_admits} of {fwd_guard_calls} guards from a slot; policy.checks == guard calls (asserted exact)"
        ),
        if assert_timing {
            ">=2x guard-overhead reduction asserted on both the TX and forwarding paths".into()
        } else {
            format!(
                "timing asserts skipped (quick={}): shapes reported, correctness still asserted",
                quick()
            )
        },
    ];

    FigureData {
        id: "jit",
        title: "inline guard bounds: promoted VM sites and the native guard front vs the general guarded path".into(),
        axes: ("configuration", "ns per packet | ns per frame"),
        series: vec![
            Series {
                label: "tx_ns_per_packet".into(),
                points: vec![
                    (0.0, base.ns_pkt),
                    (1.0, general.ns_pkt),
                    (2.0, promoted.ns_pkt),
                ],
            },
            Series {
                label: "fwd_ns_per_frame".into(),
                points: vec![
                    (0.0, fwd_base),
                    (1.0, fwd_general),
                    (2.0, fwd_front),
                ],
            },
        ],
        headlines: vec![
            ("vm_baseline_ns_pkt".into(), base.ns_pkt),
            ("vm_general_ns_pkt".into(), general.ns_pkt),
            ("vm_promoted_ns_pkt".into(), promoted.ns_pkt),
            ("vm_overhead_reduction".into(), vm_reduction),
            ("vm_promoted_ops".into(), promoted_ops as f64),
            ("vm_inline_admits".into(), promoted.inline_admits as f64),
            ("vm_inline_deopts".into(), promoted.inline_deopts as f64),
            ("vm_guards_per_packet".into(), guards_per_packet as f64),
            ("vm_traced_checks".into(), traced_checks as f64),
            ("vm_traced_inline_admits".into(), traced_admits as f64),
            ("bump_generation_delta".into(), bump_generation_delta as f64),
            ("fwd_baseline_ns_frame".into(), fwd_base),
            ("fwd_general_ns_frame".into(), fwd_general),
            ("fwd_front_ns_frame".into(), fwd_front),
            ("fwd_overhead_reduction".into(), fwd_reduction),
            ("fwd_inline_admits".into(), fwd_admits as f64),
            ("fwd_guard_calls".into(), fwd_guard_calls as f64),
        ],
        notes,
    }
}
