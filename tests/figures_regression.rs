//! Regression tests over the figure generators: the paper's qualitative
//! claims must keep holding. These assert *shapes* — who wins, by what
//! rough factor, where trends point — not absolute host performance.

use kop_bench::figures;

#[test]
fn fig3_slow_machine_overhead_under_0_8_percent() {
    let fig = figures::fig3();
    let rel = fig.headline("median_rel_change").unwrap();
    assert!(rel > 0.0, "carat must be (slightly) slower: rel={rel}");
    assert!(rel < 0.008, "paper: <0.8% — got {rel}");
    let delta = fig.headline("median_delta_pps").unwrap();
    assert!(
        delta > 100.0 && delta < 2_000.0,
        "paper: ~1,000 pps delta — got {delta}"
    );
    // Median throughput in the figure's plotted range (105k–130k pps).
    let base = fig.headline("baseline_median_pps").unwrap();
    assert!(base > 105_000.0 && base < 130_000.0, "{base}");
    // Both CDFs span the full 0..1 range and are monotone.
    for s in &fig.series {
        assert!(s.points.len() > 10);
        assert!((s.points.last().unwrap().1 - 1.0).abs() < 1e-9);
        for w in s.points.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 < w[1].1);
        }
    }
}

#[test]
fn fig4_fast_machine_overhead_under_0_1_percent() {
    let fig = figures::fig4();
    let rel = fig.headline("median_rel_change").unwrap();
    assert!(rel > 0.0);
    assert!(rel < 0.001, "paper: <0.1% — got {rel}");
    let base = fig.headline("baseline_median_pps").unwrap();
    assert!(base > 90_000.0 && base < 130_000.0, "{base}");
}

#[test]
fn fig4_effect_smaller_than_fig3() {
    let slow = figures::fig3().headline("median_rel_change").unwrap();
    let fast = figures::fig4().headline("median_rel_change").unwrap();
    assert!(
        fast < slow / 3.0,
        "the faster machine must hide guards much better ({fast} vs {slow})"
    );
}

#[test]
fn fig5_regions_ordered_and_all_under_1_percent() {
    let fig = figures::fig5();
    let r2 = fig.headline("carat_median_rel_change").unwrap();
    let r16 = fig.headline("carat16_median_rel_change").unwrap();
    let r64 = fig.headline("carat64_median_rel_change").unwrap();
    assert!(
        r2 < r16 && r16 < r64,
        "effect must grow with n: {r2} {r16} {r64}"
    );
    assert!(
        r64 < 0.01,
        "paper: even n=64 changes the median <1% — got {r64}"
    );
    assert!(r64 > r2 * 2.0, "n=64 must be visibly worse than n=2");
}

#[test]
fn fig6_slowdown_concentrated_on_small_packets() {
    let fig = figures::fig6();
    let series = fig.series("carat").unwrap();
    // Monotonically non-increasing slowdown with size.
    for w in series.points.windows(2) {
        assert!(
            w[1].1 <= w[0].1 + 1e-4,
            "slowdown must shrink with packet size: {:?}",
            series.points
        );
    }
    let max = fig.headline("max_slowdown").unwrap();
    assert!(max > 1.01 && max < 1.03, "paper: max ~2.5% — got {max}");
    let at1500 = fig.headline("slowdown_at_1500").unwrap();
    assert!(
        at1500 < 1.005,
        "large packets nearly unaffected — got {at1500}"
    );
}

#[test]
fn fig7_latency_medians_closely_matched() {
    let fig = figures::fig7();
    let base = fig.headline("base_median_cycles").unwrap();
    let carat = fig.headline("carat_median_cycles").unwrap();
    // Paper: 686 vs 694 cycles.
    assert!((base - 686.0).abs() < 25.0, "baseline median {base}");
    assert!(carat > base, "carat must be slower");
    assert!(
        carat - base < 30.0,
        "within measurement noise: {}",
        carat - base
    );
    // Histograms overlap: same bucket grid, both non-empty in the bulk.
    let b = fig.series("base").unwrap();
    let c = fig.series("carat").unwrap();
    assert_eq!(b.points.len(), c.points.len());
    let b_total: f64 = b.points.iter().map(|p| p.1).sum();
    let c_total: f64 = c.points.iter().map(|p| p.1).sum();
    assert!(b_total > 30_000.0 && c_total > 30_000.0);
    assert!(fig.headline("outliers_excluded").unwrap() > 0.0);
}

#[test]
fn claims_zero_source_change_guards() {
    let fig = figures::claims();
    // One guard per memory access for every corpus module.
    for module in ["mini-e1000e", "opt-workload", "credscan", "synthetic_19k"] {
        let accesses = fig.headline(&format!("{module}_mem_accesses")).unwrap();
        let guards = fig.headline(&format!("{module}_guards_injected")).unwrap();
        assert_eq!(accesses, guards, "{module}");
        assert!(accesses > 0.0);
    }
    // The paper-scale module (~19 kLoC) transforms in interactive time.
    let lines = fig.headline("synthetic_19k_ir_lines").unwrap();
    assert!(lines > 18_000.0, "scale module is paper-sized: {lines}");
    let ms = fig.headline("synthetic_19k_compile_ms").unwrap();
    assert!(ms < 5_000.0, "transformation stays interactive: {ms} ms");
}

#[test]
fn analysis_proves_corpus_with_full_precision() {
    let fig = figures::analysis();
    // Every guarded build — paper configuration and optimized — proves
    // every access covered (precision 1.0), at interactive cost.
    for module in ["mini-e1000e", "opt-workload", "credscan", "synthetic-200"] {
        for cfg in ["carat", "opt"] {
            let precision = fig
                .headline(&format!("{module}_{cfg}_precision"))
                .unwrap_or_else(|| panic!("missing {module}_{cfg}_precision"));
            assert_eq!(precision, 1.0, "{module}/{cfg}");
            let us = fig.headline(&format!("{module}_{cfg}_verify_us")).unwrap();
            assert!(us < 1_000_000.0, "{module}/{cfg} verify cost: {us} us");
        }
    }
    // The rootkit module's inttoptr laundering is surfaced.
    assert!(fig.headline("credscan_laundered_accesses").unwrap() > 0.0);
    // Cost series is present and covers the size spread.
    let series = fig.series("verify_us").unwrap();
    assert!(series.points.len() >= 8);
}

#[test]
fn ablation_opt_reduces_dynamic_guards() {
    let fig = figures::ablation_opt();
    let unopt = fig.headline("dynamic_guards_unopt").unwrap();
    let opt = fig.headline("dynamic_guards_opt").unwrap();
    assert!(opt < unopt, "optimization must reduce dynamic guards");
    let reduction = fig.headline("dynamic_reduction").unwrap();
    assert!(
        reduction > 0.5,
        "hoisting + dedup should eliminate most loop guards: {reduction}"
    );
    // Static count barely changes (guards move, and one dedups).
    let s_unopt = fig.headline("static_guards_unopt").unwrap();
    let s_opt = fig.headline("static_guards_opt").unwrap();
    assert!(s_opt <= s_unopt);
}

#[test]
fn opt_figure_reduces_guards_with_identical_observables() {
    // Byte-identity of ring/frame/stats memory and exact per-site trace
    // reconciliation are asserted unconditionally inside opt(); here we
    // pin the figure's shape and the headline arithmetic.
    let fig = figures::opt();
    assert_eq!(fig.id, "opt");

    // Four timed configurations: unopt/opt x tree/bytecode.
    let ns = fig.series("ns_per_packet").unwrap();
    assert_eq!(ns.points.len(), 4);
    assert!(ns.points.iter().all(|&(_, y)| y > 0.0));
    let gpp_series = fig.series("guards_per_packet").unwrap();
    assert_eq!(gpp_series.points.len(), 2);

    // The TX path sheds guards without shedding accesses.
    let unopt = fig.headline("guards_per_packet_unopt").unwrap();
    let opt = fig.headline("guards_per_packet_opt").unwrap();
    assert_eq!(unopt, 10.0, "mini-e1000e TX path is 10 guarded accesses");
    assert!(opt < unopt, "optimizer must shed TX-path guards: {opt}");
    let reduction = fig.headline("guards_per_packet_reduction").unwrap();
    assert!(
        (reduction - (1.0 - opt / unopt)).abs() < 1e-9,
        "reduction headline must reconcile: {reduction}"
    );
    assert!(reduction > 0.0 && reduction < 1.0);

    // Static guard count shrinks too (elision + coalescing).
    let s_unopt = fig.headline("static_guards_unopt").unwrap();
    let s_opt = fig.headline("static_guards_opt").unwrap();
    assert!(s_opt < s_unopt, "static: {s_opt} vs {s_unopt}");

    // The loop-heavy workload shows the range coalescer's full effect.
    let w_unopt = fig.headline("workload_dynamic_guards_unopt").unwrap();
    let w_opt = fig.headline("workload_dynamic_guards_opt").unwrap();
    assert!(
        w_opt < w_unopt / 2.0,
        "range coalescing should halve workload guards: {w_opt} vs {w_unopt}"
    );

    // All four ns/pkt headlines present and positive.
    for h in [
        "tree_unopt_ns_pkt",
        "tree_opt_ns_pkt",
        "bytecode_unopt_ns_pkt",
        "bytecode_opt_ns_pkt",
    ] {
        assert!(fig.headline(h).unwrap() > 0.0, "{h}");
    }
    let json = fig.render_json();
    assert!(json.contains("\"id\": \"opt\""));
    assert!(json.contains("\"guards_per_packet_reduction\""));
}

#[test]
fn resilience_degrades_smoothly_and_guards_do_not_impede_recovery() {
    let figs = figures::resilience();
    let fig = &figs[0];
    assert_eq!(fig.id, "resilience");

    // No faults, no loss.
    assert_eq!(fig.headline("base_delivered_frac_r0").unwrap(), 1.0);
    assert_eq!(fig.headline("carat_delivered_frac_r0").unwrap(), 1.0);

    let carat = fig.series("carat").unwrap();
    let base = fig.series("baseline").unwrap();
    // Guards do not impede recovery: the fault layer stacks above the
    // guard layer, so the two builds must degrade *identically* — a far
    // stronger property than the ±1% acceptance bound.
    assert_eq!(carat.points, base.points);
    // Delivered fraction degrades smoothly (non-increasing) with rate,
    // and even the worst storm keeps the majority of frames flowing.
    for w in carat.points.windows(2) {
        assert!(w[0].0 < w[1].0, "rates strictly increasing");
        assert!(
            w[1].1 <= w[0].1 + 1e-12,
            "delivery must not improve with more faults: {:?}",
            carat.points
        );
    }
    let worst = carat.points.last().unwrap().1;
    assert!(
        worst > 0.5 && worst < 1.0,
        "worst-case delivery degraded but survivable: {worst}"
    );

    // The sustained hang window at the top rates engages the watchdog,
    // and every fire leads to a reset.
    let fires = fig.headline("carat_watchdog_fires_r100").unwrap();
    let resets = fig.headline("carat_resets_r100").unwrap();
    assert!(fires >= 1.0, "watchdog must fire at the max rate");
    assert_eq!(fires, resets, "each confirmed hang ends in one reset");

    // Recovery latency is watchdog-bounded: transient stalls clear in a
    // couple of ticks, the sustained hang within the injected window.
    let p95 = fig.headline("carat_recovery_p95_ticks").unwrap();
    let max = fig.headline("carat_recovery_max_ticks").unwrap();
    assert!(p95 <= 4.0, "transient stalls clear quickly: p95={p95}");
    assert!(max <= 128.0, "watchdog bounds the worst stall: max={max}");
    assert!(max >= p95);

    // The stall-length CDF is a proper monotone CDF ending at 1.
    let latency = &figs[1];
    assert_eq!(latency.id, "resilience-latency");
    for s in &latency.series {
        assert!(!s.points.is_empty());
        assert!((s.points.last().unwrap().1 - 1.0).abs() < 1e-9);
        for w in s.points.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1, "CDF monotone");
        }
    }
}

#[test]
fn resilience_output_is_deterministic() {
    let a = figures::resilience();
    let b = figures::resilience();
    assert_eq!(a.len(), b.len());
    for (fa, fb) in a.iter().zip(&b) {
        assert_eq!(fa.render_csv(), fb.render_csv(), "{}", fa.id);
        assert_eq!(fa.render_text(), fb.render_text(), "{}", fa.id);
    }
}

#[test]
fn smp_correctness_invariants_hold_at_paper_scale() {
    // Timing asserts are gated inside smp() (they need a quiet multi-core
    // host); what must hold everywhere is correctness: zero stale admits
    // under the revoke/grant storm, `policy.checks == guard calls` on
    // every MQ run, and one snapshot publish per table write. smp() asserts those internally;
    // here we additionally pin the figure's shape and the headline values.
    let fig = figures::smp();
    assert_eq!(fig.id, "smp");
    for label in [
        "checkrate_mutex",
        "checkrate_snapshot",
        "checkrate_snapshot_front",
        "mq_tx_mutex",
        "mq_tx_snapshot_front",
    ] {
        let s = fig
            .series(label)
            .unwrap_or_else(|| panic!("missing {label}"));
        assert!(!s.points.is_empty());
        assert!(
            s.points.iter().all(|&(_, y)| y > 0.0),
            "{label} has dead points"
        );
    }
    assert_eq!(fig.headline("stale_admits"), Some(0.0));
    let admits = fig.headline("front_inline_admits").unwrap();
    let checks = fig.headline("mq_policy_checks").unwrap();
    let guards = fig.headline("mq_guard_calls").unwrap();
    assert_eq!(
        checks, guards,
        "policy.checks must reconcile with guard calls"
    );
    assert!(
        admits > guards - admits,
        "steady-state TX must be answered mostly from the front's slots ({admits} of {guards})"
    );
    // The JSON rendering is well-formed enough for line-based checks and
    // includes every headline.
    let json = fig.render_json();
    assert!(json.contains("\"stale_admits\": 0"));
    assert!(json.contains("\"id\": \"smp\""));
}

#[test]
fn exec_engines_agree_and_guard_accounting_reconciles() {
    // Timing asserts (the >=3x bytecode speedup) are gated inside exec()
    // to quick mode on a release build; the correctness invariants —
    // identical ExecStats, byte-identical ring/frame/stats memory, exact
    // per-site trace reconciliation — are asserted unconditionally inside
    // exec() on every run. Here we pin the figure's shape and the
    // headline arithmetic.
    let fig = figures::exec();
    assert_eq!(fig.id, "exec");

    let series = fig
        .series("ns_per_packet")
        .expect("ns_per_packet series present");
    assert_eq!(
        series.points.len(),
        4,
        "tree/bytecode x guarded/baseline = 4 bars"
    );
    assert!(series.points.iter().all(|&(_, y)| y > 0.0));

    let gpp = fig.headline("guards_per_packet").unwrap();
    assert_eq!(gpp, 10.0, "mini-e1000e TX path is 10 guarded accesses");
    let dynamic = fig.headline("dynamic_guards").unwrap();
    assert!(dynamic > 0.0);
    assert_eq!(
        dynamic % gpp,
        0.0,
        "every packet takes the full guarded path"
    );
    assert!(
        fig.headline("fused_superinstructions").unwrap() > 0.0,
        "lowering must fuse adjacent guard+access pairs"
    );
    // Per-site trace attribution reconciles with the policy counter.
    let profiled = fig.headline("profiled_checks").unwrap();
    assert!(profiled > 0.0);
    assert!(fig.headline("profiled_sites").unwrap() >= 10.0);
    // All four ns/pkt headlines present and positive.
    for h in [
        "tree_guarded_ns_pkt",
        "bytecode_guarded_ns_pkt",
        "tree_baseline_ns_pkt",
        "bytecode_baseline_ns_pkt",
    ] {
        assert!(fig.headline(h).unwrap() > 0.0, "{h}");
    }
    // JSON rendering carries the machine-readable results.
    let json = fig.render_json();
    assert!(json.contains("\"id\": \"exec\""));
    assert!(json.contains("\"guards_per_packet\""));
}

#[test]
fn soak_supervised_dominates_and_upgrade_is_lossless() {
    // The hard correctness claims — supervised >= baseline at every
    // rate, exact per-site trace reconciliation through restarts, zero
    // dropped/duplicated frames and zero stale admits across the live
    // upgrade — are asserted unconditionally inside soak() on every run.
    // Here we pin the figure's shape and the headline arithmetic.
    let fig = figures::soak();
    assert_eq!(fig.id, "soak");

    let sup = fig.series("supervised").unwrap();
    let base = fig.series("baseline").unwrap();
    assert_eq!(sup.points.len(), base.points.len());
    for (s, b) in sup.points.iter().zip(&base.points) {
        assert_eq!(s.0, b.0, "same rate grid");
        assert!(
            s.1 + 1e-9 >= b.1,
            "supervised must dominate at rate {}: {} < {}",
            s.0,
            s.1,
            b.1
        );
    }
    // The top storm rate separates the two fleets and forces restarts.
    let top = sup.points.last().unwrap();
    let top_base = base.points.last().unwrap();
    assert!(top.1 > top_base.1, "strict win under the worst storm");
    let pm = (top.0 * 1000.0).round() as u64;
    assert!(fig.headline(&format!("super_restarts_r{pm}")).unwrap() >= 1.0);

    // Live upgrade: lossless, no duplicates, no stale admits, epoch
    // advanced, and the wedged backlog actually exercised migration.
    assert_eq!(fig.headline("upgrade_missing"), Some(0.0));
    assert_eq!(fig.headline("upgrade_duplicates"), Some(0.0));
    assert_eq!(fig.headline("upgrade_stale_admits"), Some(0.0));
    assert!(fig.headline("upgrade_generation_delta").unwrap() >= 1.0);
    assert!(fig.headline("upgrade_migrated").unwrap() > 0.0);
    assert_eq!(
        fig.headline("upgrade_delivered"),
        fig.headline("upgrade_expected")
    );

    // The recovery-latency CDF is a proper monotone CDF.
    let cdf = fig
        .series(&format!("recovery-cdf-r{pm}"))
        .expect("recovery CDF present at the top rate");
    assert!(cdf.points.len() >= 2);
    for w in cdf.points.windows(2) {
        assert!(w[0].0 <= w[1].0 && w[0].1 <= w[1].1, "CDF monotone");
    }
    assert!((cdf.points.last().unwrap().1 - 1.0).abs() < 1e-9);
}

#[test]
fn jit_figure_shape_and_promotion_audits() {
    // Timing asserts (the >=2x guard-overhead reduction on TX and
    // forwarding) are gated inside jit() to the quick smoke run on a
    // release build; the correctness invariants — identical ExecStats
    // and ring/frame/@stats/TDT bytes across general and promoted,
    // every steady-state guard answered inline with zero deopts, the
    // traced promoted pass (every guard still inline, zero deopts,
    // per-site hits equal to a traced bytecode pass), a stale tier
    // after an epoch bump (every bound guard deopts) with
    // re-promotion via tick() — are asserted unconditionally inside
    // jit() on every run. Here we pin the figure's shape and headline
    // arithmetic.
    let fig = figures::jit();
    assert_eq!(fig.id, "jit");

    // Three timed configurations per datapath: baseline / general /
    // fast (the promoted tier on the interpreter TX path, the guard
    // front on the native forwarder).
    for label in ["tx_ns_per_packet", "fwd_ns_per_frame"] {
        let s = fig
            .series(label)
            .unwrap_or_else(|| panic!("missing {label}"));
        assert_eq!(s.points.len(), 3, "{label}");
        assert!(s.points.iter().all(|&(_, y)| y > 0.0), "{label}");
    }

    // Promotion really happened and carried the whole steady state.
    assert!(fig.headline("vm_promoted_ops").unwrap() > 0.0);
    let admits = fig.headline("vm_inline_admits").unwrap();
    assert!(admits > 0.0);
    assert_eq!(fig.headline("vm_inline_deopts"), Some(0.0));
    assert_eq!(
        fig.headline("vm_guards_per_packet").unwrap(),
        10.0,
        "mini-e1000e TX path is 10 guarded accesses"
    );
    assert!(fig.headline("vm_traced_checks").unwrap() > 0.0);
    // Tracing kept the tier on: every traced check was an inline admit.
    assert_eq!(
        fig.headline("vm_traced_inline_admits"),
        fig.headline("vm_traced_checks")
    );

    // Invalidation: the epoch bump advanced the generation at least once.
    assert!(fig.headline("bump_generation_delta").unwrap() >= 1.0);

    // Native datapath: the front answered most guards from a slot.
    let admits = fig.headline("fwd_inline_admits").unwrap();
    let guards = fig.headline("fwd_guard_calls").unwrap();
    assert!(admits > guards - admits, "{admits} of {guards}");

    // Reduction headlines reconcile with the plotted overheads (the
    // residual is floored at 1 ns inside jit()).
    for (reduction, series) in [
        ("vm_overhead_reduction", "tx_ns_per_packet"),
        ("fwd_overhead_reduction", "fwd_ns_per_frame"),
    ] {
        let r = fig.headline(reduction).unwrap();
        assert!(r > 0.0 && r.is_finite(), "{reduction}: {r}");
        let pts = &fig.series(series).unwrap().points;
        let general_over = (pts[1].1 - pts[0].1).max(0.0);
        let promoted_over = (pts[2].1 - pts[0].1).max(0.0);
        assert!(
            (r - general_over / promoted_over.max(1.0)).abs() < 1e-9,
            "{reduction} must reconcile: {r}"
        );
    }

    // The machine-readable rendering carries the results.
    let json = fig.render_json();
    assert!(json.contains("\"id\": \"jit\""));
    assert!(json.contains("\"vm_overhead_reduction\""));
    assert!(json.contains("\"fwd_inline_admits\""));
}

#[test]
fn forward_figure_shape_and_audits() {
    // The hard claims — byte-identical forwarded frames, identical
    // baseline/guarded ForwardReports, exact per-queue ledger audits,
    // RX+TX trace reconciliation, zero stale admits across the mid-load
    // epoch bump, and tree/bytecode equivalence of @fwd_rewrite — are
    // asserted unconditionally inside forward() on every run. Here we
    // pin the figure's shape and headline arithmetic.
    let fig = figures::forward();
    assert_eq!(fig.id, "forward");

    // Rate-vs-offered-load series for both builds, on the same grid.
    let guarded = fig.series("guarded").unwrap();
    let baseline = fig.series("baseline").unwrap();
    assert_eq!(guarded.points.len(), baseline.points.len());
    assert!(guarded.points.len() >= 2);
    for (g, b) in guarded.points.iter().zip(&baseline.points) {
        assert_eq!(g.0, b.0, "same offered-load grid");
        assert!(g.1 > 0.0 && b.1 > 0.0);
    }
    // Guards cost something: baseline wins at the top load (min-of-
    // repeats keeps this stable across hosts).
    let slowdown = fig
        .headlines
        .iter()
        .find(|(k, _)| k.starts_with("guard_slowdown_o"))
        .map(|&(_, v)| v)
        .expect("slowdown headline");
    assert!(
        slowdown > 1.0,
        "guarded forwarding must be slower: {slowdown}"
    );

    // Multi-queue scaling: one point per queue count, all productive.
    let mq = fig.series("mq-scaling").unwrap();
    assert!(mq.points.len() >= 2);
    assert!(mq.points.iter().all(|&(_, y)| y > 0.0));

    // Audited invariants surface as headlines.
    assert_eq!(fig.headline("churn_stale_admits"), Some(0.0));
    assert!(fig.headline("churn_generation_delta").unwrap() > 0.0);
    assert!(fig.headline("byte_identical_frames").unwrap() > 0.0);
    assert!(fig.headline("traced_guard_calls").unwrap() > 0.0);
    assert!(fig.headline("traced_sites").unwrap() >= 5.0);
    assert!(fig.headline("ir_guards_per_rewrite").unwrap() > 0.0);
    assert!(
        fig.headline("traced_polls_per_irq").unwrap() >= 1.0,
        "every ISR entry leads to at least one poll pass"
    );

    // The machine-readable rendering carries the results.
    let json = fig.render_json();
    assert!(json.contains("\"id\": \"forward\""));
    assert!(json.contains("\"churn_stale_admits\": 0"));
}

#[test]
fn fleet_figure_shape_and_audits() {
    // The hard claims — frozen-store/linear-scan parity across store
    // kinds, exact per-tenant guard reconciliation, zero stale admits
    // across the fleet-wide upgrade storm, 64/64 insmod-storm commits,
    // per-site trace reconciliation — are asserted unconditionally
    // inside fleet() on every run (the latency-ratio bounds are gated
    // to the quick multi-core smoke run). Here we pin the figure's
    // shape and headline arithmetic.
    let fig = figures::fleet();
    assert_eq!(fig.id, "fleet");

    // The p99 sweep: all three store series on the same module grid,
    // from a single module up to fleet scale.
    let flat = fig.series("flat-scan").unwrap();
    let sorted = fig.series("frozen-sorted").unwrap();
    let interval = fig.series("frozen-interval").unwrap();
    assert!(flat.points.len() >= 4);
    assert_eq!(flat.points.len(), sorted.points.len());
    assert_eq!(flat.points.len(), interval.points.len());
    for ((f, s), i) in flat.points.iter().zip(&sorted.points).zip(&interval.points) {
        assert_eq!(f.0, s.0, "same module grid");
        assert_eq!(f.0, i.0, "same module grid");
        assert!(f.1 > 0.0 && s.1 > 0.0 && i.1 > 0.0);
    }
    assert_eq!(flat.points.first().unwrap().0, 1.0);
    assert!(flat.points.last().unwrap().0 >= 256.0);

    // The scaling separation: the flat scan degrades super-linearly
    // (asserted >= 10x inside fleet()); at the top of the sweep it
    // must sit far above both frozen indexes.
    assert!(fig.headline("flat_p99_growth_1_to_256").unwrap() >= 10.0);
    let top = flat.points.last().unwrap().1;
    assert!(top > 4.0 * sorted.points.last().unwrap().1);
    assert!(top > 4.0 * interval.points.last().unwrap().1);

    // MQ fleet throughput: every fleet size forwards productively.
    let mq = fig.series("mq-fleet").unwrap();
    assert!(mq.points.len() >= 2);
    assert!(mq.points.iter().all(|&(_, y)| y > 0.0));

    // Audited invariants surface as headlines.
    assert_eq!(fig.headline("storm_stale_admits"), Some(0.0));
    assert!(fig.headline("storm_registrations").unwrap() > 0.0);
    assert_eq!(fig.headline("insmod_storm_modules"), Some(64.0));
    assert!(fig.headline("insmod_check_p99_before_ns").unwrap() > 0.0);
    assert!(fig.headline("insmod_check_p99_during_ns").unwrap() > 0.0);
    assert!(fig.headline("traced_tenant_guard_calls").unwrap() > 0.0);
    let r1 = fig.headline("fleet_fwd_rate_f1").unwrap();
    assert!(r1 > 0.0);

    // The machine-readable rendering carries the results.
    let json = fig.render_json();
    assert!(json.contains("\"id\": \"fleet\""));
    assert!(json.contains("\"storm_stale_admits\": 0"));
}

#[test]
fn renders_are_nonempty_and_csv_parses() {
    for fig in [figures::fig6(), figures::claims()]
        .into_iter()
        .chain(figures::resilience())
    {
        let text = fig.render_text();
        assert!(text.contains(&fig.id.to_uppercase()));
        let csv = fig.render_csv();
        assert!(csv.starts_with("series,x,y"));
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), 3, "bad csv line: {line}");
        }
    }
}
