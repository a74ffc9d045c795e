use kop_compiler::CompileOptions;
use kop_kernel::KernelConfig;

use crate::setup;

use super::measure::best_of;
use super::quick;
use super::rig::{opt_workload, traced_engines_agree, TxRig};
use super::{FigureData, Series};

/// The OPT figure (`reproduce opt`): the guard-optimizing analysis tier
/// end to end on the interpreter-driven e1000e TX path. Compares the
/// paper build (every access guarded) against the optimized build
/// (cross-block redundant-guard elimination + counted-loop range
/// coalescing, obligations validated at signing *and* insmod) on both
/// execution engines.
///
/// Asserted, not just measured: (a) guards executed per packet strictly
/// drop under optimization; (b) ring/frame/@stats/TDT bytes are
/// identical across all four configurations — the optimizer changed the
/// guard schedule, never the driver's observable behaviour; (c) per-site
/// guard attribution reconciles exactly across engines within each
/// build; (d) the optimized container round-trips the loader's
/// ledger-replaying static verification.
pub fn opt() -> FigureData {
    use kop_interp::Engine;

    let (packets, repeats) = if quick() {
        (2_000u64, 3)
    } else {
        (20_000u64, 6)
    };
    let unopt = CompileOptions::carat_kop();
    let opt = CompileOptions::optimized();
    // Static verification mode: insmod replays the attested obligation
    // ledger through the independent validator, exactly the audit the
    // signer ran.
    let boot = |opts: &CompileOptions| {
        let config = KernelConfig {
            verification: kop_kernel::Verification::SignatureAndStatic,
            ..KernelConfig::default()
        };
        TxRig::boot(opts, setup::two_region_policy(), config)
    };

    // Timed passes, each on a fresh rig, kept whole with their rig.
    let [(ut_rig, ut), (ub_rig, ub), (ot_rig, ot), (ob_rig, ob)] = best_of(
        [
            (&unopt, Engine::Tree),
            (&unopt, Engine::Bytecode),
            (&opt, Engine::Tree),
            (&opt, Engine::Bytecode),
        ],
        repeats,
        |(opts, engine)| {
            let mut rig = boot(opts);
            let run = rig.run(engine, packets);
            (rig, run)
        },
        |(_, run)| run.ns_pkt,
    );

    // Engine equivalence within each build flavour.
    assert_eq!(ut.stats, ub.stats, "unoptimized ExecStats must match");
    assert_eq!(ot.stats, ob.stats, "optimized ExecStats must match");
    // Byte identity across ALL four configurations: optimization must not
    // change what the driver writes, only how often it checks.
    let bytes = ut_rig.read();
    for (r, what) in [
        (&ub_rig, "unopt/bytecode"),
        (&ot_rig, "opt/tree"),
        (&ob_rig, "opt/bytecode"),
    ] {
        assert_eq!(
            bytes,
            r.read(),
            "{what}: TX ring, frame, @stats and TDT doorbell bytes"
        );
    }
    // The point of the tier: strictly fewer guards, statically and
    // dynamically, with per-packet granularity.
    let (static_unopt, static_opt) = (ut_rig.static_guards, ot_rig.static_guards);
    assert!(
        static_opt < static_unopt,
        "optimization must reduce static guard sites ({static_opt} vs {static_unopt})"
    );
    assert!(ut.stats.guards % packets == 0 && ot.stats.guards % packets == 0);
    let gpp_unopt = ut.stats.guards / packets;
    let gpp_opt = ot.stats.guards / packets;
    assert!(
        gpp_opt < gpp_unopt,
        "optimization must reduce guards executed per packet ({gpp_opt} vs {gpp_unopt})"
    );

    // Traced correctness pass (untimed, smaller): exact per-site
    // reconciliation for both builds, across both engines.
    let tp = if quick() { 512 } else { 2_048 };
    for opts in [&unopt, &opt] {
        traced_engines_agree(|| boot(opts), tp);
    }

    // The counted-loop half of the tier, on the loop-heavy workload: the
    // per-iteration element guards collapse to one range guard per entry.
    let (_, wl_unopt, wl_r) = opt_workload(&unopt);
    let (_, wl_opt, wl_r_opt) = opt_workload(&opt);
    assert_eq!(wl_r, wl_r_opt, "optimization preserves semantics");
    assert!(
        wl_opt < wl_unopt,
        "range coalescing must cut the loop workload's dynamic guards"
    );

    FigureData {
        id: "opt",
        title: "guard-optimizing analysis tier: unoptimized vs optimized guards on the e1000e TX path, both engines".into(),
        axes: ("configuration", "ns per packet"),
        series: vec![
            Series {
                label: "ns_per_packet".into(),
                points: vec![
                    (0.0, ut.ns_pkt),
                    (1.0, ub.ns_pkt),
                    (2.0, ot.ns_pkt),
                    (3.0, ob.ns_pkt),
                ],
            },
            Series {
                label: "guards_per_packet".into(),
                points: vec![(0.0, gpp_unopt as f64), (1.0, gpp_opt as f64)],
            },
        ],
        headlines: vec![
            ("guards_per_packet_unopt".into(), gpp_unopt as f64),
            ("guards_per_packet_opt".into(), gpp_opt as f64),
            (
                "guards_per_packet_reduction".into(),
                1.0 - gpp_opt as f64 / gpp_unopt as f64,
            ),
            ("static_guards_unopt".into(), static_unopt as f64),
            ("static_guards_opt".into(), static_opt as f64),
            ("tree_unopt_ns_pkt".into(), ut.ns_pkt),
            ("bytecode_unopt_ns_pkt".into(), ub.ns_pkt),
            ("tree_opt_ns_pkt".into(), ot.ns_pkt),
            ("bytecode_opt_ns_pkt".into(), ob.ns_pkt),
            ("workload_dynamic_guards_unopt".into(), wl_unopt),
            ("workload_dynamic_guards_opt".into(), wl_opt),
            ("workload_result".into(), wl_r as f64),
        ],
        notes: vec![
            "x=0 tree/unopt, x=1 bytecode/unopt, x=2 tree/opt, x=3 bytecode/opt".into(),
            "modules loaded under Verification::Static: insmod replays the attested obligation ledger through the independent translation validator".into(),
            "asserted: ring/frame/@stats/TDT bytes identical across all four configurations; per-site attribution reconciles exactly per build".into(),
            format!(
                "e1000e TX path: {gpp_unopt} -> {gpp_opt} guards/packet (elimination + read/write widening); loop workload: {wl_unopt} -> {wl_opt} dynamic guards (range coalescing)"
            ),
        ],
    }
}
