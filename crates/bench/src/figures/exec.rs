use kop_compiler::CompileOptions;
use kop_kernel::KernelConfig;

use crate::setup;

use super::measure::best_of;
use super::quick;
use super::rig::{traced_engines_agree, TxRig};
use super::{FigureData, Series};

/// EXEC: execution-engine ablation (`reproduce exec`). The e1000e TX
/// path is driven *through the module interpreter* — `@xmit` from the
/// mini-e1000e KIR corpus module — under both engines: the tree walker
/// and the flat bytecode the loader compiles once at insmod (`kop-vm`),
/// for the guarded (carat_kop) and unguarded (baseline) builds.
///
/// Timed passes go through the harness's best-of-k over the four
/// interleaved configurations. A separate traced pass proves the engines
/// equivalent, asserted on every run: identical `ExecStats` (fuel
/// accounting included), identical dynamic guard counts, *exact*
/// per-site trace attribution, and byte-identical memory effects — TX
/// ring, frame buffer, `@stats` counters, and the TDT doorbell cell.
/// The ≥3x bytecode speedup claim is asserted in quick mode (release
/// CI smoke); full runs report it as a headline.
pub fn exec() -> FigureData {
    use kop_interp::Engine;

    let (packets, repeats) = if quick() {
        (2_000u64, 3)
    } else {
        (20_000u64, 6)
    };
    let carat = CompileOptions::carat_kop();
    let baseline = CompileOptions::baseline();
    let boot = |opts: &CompileOptions| {
        TxRig::boot(opts, setup::two_region_policy(), KernelConfig::default())
    };

    // Timed passes, each on a fresh rig, kept whole with their rig.
    let [(gt_rig, gt), (gb_rig, gb), (bt_rig, bt), (bb_rig, bb)] = best_of(
        [
            (&carat, Engine::Tree),
            (&carat, Engine::Bytecode),
            (&baseline, Engine::Tree),
            (&baseline, Engine::Bytecode),
        ],
        repeats,
        |(opts, engine)| {
            let mut rig = boot(opts);
            let run = rig.run(engine, packets);
            (rig, run)
        },
        |(_, run)| run.ns_pkt,
    );
    let fused = gb_rig.image().compiled.fused_guard_count() as u64;

    // Engine equivalence on the timed runs: the deterministic outputs of
    // the fastest passes must be identical per build flavour.
    assert_eq!(gt.stats, gb.stats, "guarded ExecStats must match");
    assert_eq!(bt.stats, bb.stats, "baseline ExecStats must match");
    for (a, b, what) in [
        (&gt_rig, &gb_rig, "guarded"),
        (&bt_rig, &bb_rig, "baseline"),
    ] {
        assert_eq!(
            a.read(),
            b.read(),
            "{what}: TX ring, frame, @stats and TDT doorbell bytes"
        );
    }
    assert_eq!(bt.stats.guards, 0, "baseline build executes no guards");
    assert!(gt.stats.guards > 0 && gt.stats.guards % packets == 0);
    let guards_per_packet = gt.stats.guards / packets;
    assert!(
        fused > 0,
        "the guarded bytecode must contain fused guard-access superinstructions"
    );

    // Traced correctness pass (untimed, smaller): per-site attribution
    // must reconcile exactly across engines and with the guard counter.
    let tp = if quick() { 512 } else { 2_048 };
    let (tree_sites, tree_checks) = traced_engines_agree(|| boot(&carat), tp);

    let speedup_guarded = gt.ns_pkt / gb.ns_pkt;
    let speedup_baseline = bt.ns_pkt / bb.ns_pkt;
    if quick() {
        assert!(
            speedup_guarded >= 3.0,
            "bytecode must be >=3x faster than the tree on the guarded TX path \
             (measured {speedup_guarded:.2}x)"
        );
    }

    let mut notes = vec![
        "x=0 tree/guarded, x=1 bytecode/guarded, x=2 tree/baseline, x=3 bytecode/baseline".into(),
        "engines asserted equivalent: ExecStats, guard counts, per-site attribution, and ring/frame/@stats/TDT bytes all identical".into(),
        format!(
            "bytecode lowered at insmod: {fused} fused guard-access superinstructions on the guarded build"
        ),
    ];
    for (module, label, hits) in &tree_sites {
        notes.push(format!("site {module}/{label}: hits {hits} (both engines)"));
    }

    FigureData {
        id: "exec",
        title: "execution-engine ablation: tree interpreter vs insmod-compiled bytecode on the interpreter-driven e1000e TX path".into(),
        axes: ("configuration", "ns per packet"),
        series: vec![Series {
            label: "ns_per_packet".into(),
            points: vec![
                (0.0, gt.ns_pkt),
                (1.0, gb.ns_pkt),
                (2.0, bt.ns_pkt),
                (3.0, bb.ns_pkt),
            ],
        }],
        headlines: vec![
            ("tree_guarded_ns_pkt".into(), gt.ns_pkt),
            ("bytecode_guarded_ns_pkt".into(), gb.ns_pkt),
            ("tree_baseline_ns_pkt".into(), bt.ns_pkt),
            ("bytecode_baseline_ns_pkt".into(), bb.ns_pkt),
            ("bytecode_speedup_guarded".into(), speedup_guarded),
            ("bytecode_speedup_baseline".into(), speedup_baseline),
            ("guards_per_packet".into(), guards_per_packet as f64),
            ("dynamic_guards".into(), gt.stats.guards as f64),
            ("fused_superinstructions".into(), fused as f64),
            ("profiled_checks".into(), tree_checks as f64),
            ("profiled_sites".into(), tree_sites.len() as f64),
        ],
        notes,
    }
}
