//! Figure and claim generators — one per table/figure in the paper.
//!
//! Each generator runs the full pipeline (real driver model → counted
//! work → calibrated machine model → jittered trials) and returns a
//! [`FigureData`] with the same series the paper plots. The shapes — who
//! wins, by roughly what factor, where the crossovers sit — are the
//! reproduction target; absolute numbers are calibrated, as documented in
//! DESIGN.md and EXPERIMENTS.md.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use kop_compiler::{compile_module, CompileOptions, CompilerKey};
use kop_core::{AccessFlags, Protection, Region, Size, VAddr};
use kop_e1000e::device::CountSink;
use kop_e1000e::{DriverError, E1000Driver, MemSpace};
use kop_faultline::{FaultPlan, Trigger};
use kop_kernel::{Kernel, KernelConfig};
use kop_net::{tool, EtherType, MacAddr, ToolConfig};
use kop_policy::{DefaultAction, Lookup, PolicyModule, StoreKind};
use kop_sim::{cdf_points, histogram, median, MachineProfile, Summary, TrialRunner};

use crate::baseline;
use crate::corpus;
use crate::setup;

/// Quick mode: shrink trial counts for CI smoke runs (`reproduce --quick`).
/// Off by default so tests and full reproductions keep the paper-scale
/// configuration; only the `reproduce` binary flips it.
static QUICK: AtomicBool = AtomicBool::new(false);

/// Enable or disable quick mode (see [`QUICK`]).
pub fn set_quick(on: bool) {
    QUICK.store(on, Ordering::Relaxed);
}

fn quick() -> bool {
    QUICK.load(Ordering::Relaxed)
}

/// One plotted series.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label (e.g. `"carat"`, `"baseline"`, `"carat64"`).
    pub label: String,
    /// `(x, y)` points.
    pub points: Vec<(f64, f64)>,
}

/// A regenerated figure: series plus headline numbers.
#[derive(Clone, Debug)]
pub struct FigureData {
    /// Identifier, e.g. `"fig3"`.
    pub id: &'static str,
    /// Title matching the paper's caption.
    pub title: String,
    /// Axis labels `(x, y)`.
    pub axes: (&'static str, &'static str),
    /// The plotted series.
    pub series: Vec<Series>,
    /// Headline `name = value` results (medians, deltas, ...).
    pub headlines: Vec<(String, f64)>,
    /// Free-form notes (paper expectations, substitutions).
    pub notes: Vec<String>,
}

impl FigureData {
    /// Look up a headline value.
    pub fn headline(&self, name: &str) -> Option<f64> {
        self.headlines
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Find a series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render as a text report (what `reproduce` prints).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "==== {} — {}", self.id.to_uppercase(), self.title);
        let _ = writeln!(out, "     x: {}   y: {}", self.axes.0, self.axes.1);
        for s in &self.series {
            let ys: Vec<f64> = s.points.iter().map(|p| p.1).collect();
            let xs: Vec<f64> = s.points.iter().map(|p| p.0).collect();
            if self.id == "fig6" || self.id.starts_with("ablation") {
                // Small table: x → y.
                let _ = writeln!(out, "  series {:<14}", s.label);
                for (x, y) in &s.points {
                    let _ = writeln!(out, "    x={:<8.0} y={:.4}", x, y);
                }
            } else if self.id == "fig7" {
                let _ = writeln!(
                    out,
                    "  series {:<10} {} buckets, total count {}",
                    s.label,
                    s.points.len(),
                    ys.iter().sum::<f64>() as u64
                );
            } else {
                // CDF series: print quartiles of the x values.
                let _ = writeln!(
                    out,
                    "  series {:<10} p5 {:>12.1}  p25 {:>12.1}  median {:>12.1}  p75 {:>12.1}  p95 {:>12.1}",
                    s.label,
                    kop_sim::percentile(&xs, 5.0),
                    kop_sim::percentile(&xs, 25.0),
                    kop_sim::percentile(&xs, 50.0),
                    kop_sim::percentile(&xs, 75.0),
                    kop_sim::percentile(&xs, 95.0),
                );
            }
        }
        if let Some(plot) = self.ascii_plot() {
            out.push_str(&plot);
        }
        for (name, value) in &self.headlines {
            let _ = writeln!(out, "  => {name} = {value:.6}");
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }

    /// A terminal rendering of the figure (CDF overlays and histograms),
    /// so `reproduce` output looks like the paper's plots.
    pub fn ascii_plot(&self) -> Option<String> {
        const W: usize = 64;
        const H: usize = 12;
        if self.series.is_empty() || self.series.iter().any(|s| s.points.len() < 2) {
            return None;
        }
        let glyphs = ['*', 'o', '+', 'x', '#', '@'];
        let xmin = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .fold(f64::INFINITY, f64::min);
        let xmax = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .fold(f64::NEG_INFINITY, f64::max);
        let ymin = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.1))
            .fold(f64::INFINITY, f64::min);
        let ymax = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.1))
            .fold(f64::NEG_INFINITY, f64::max);
        if xmax <= xmin || ymax <= ymin {
            return None;
        }
        let mut grid = vec![[' '; W]; H];
        for (si, s) in self.series.iter().enumerate() {
            let g = glyphs[si % glyphs.len()];
            for &(x, y) in &s.points {
                let cx = ((x - xmin) / (xmax - xmin) * (W - 1) as f64).round() as usize;
                let cy = ((y - ymin) / (ymax - ymin) * (H - 1) as f64).round() as usize;
                let row = H - 1 - cy.min(H - 1);
                let col = cx.min(W - 1);
                // First series wins contested cells; overlap reads as
                // "curves coincide", which is the story anyway.
                if grid[row][col] == ' ' {
                    grid[row][col] = g;
                }
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "  {ymax:>11.4} +");
        for row in &grid {
            let line: String = row.iter().collect();
            let _ = writeln!(out, "              |{line}");
        }
        let _ = writeln!(out, "  {:>11.4} +{}", ymin, "-".repeat(W));
        let _ = writeln!(
            out,
            "              {:<32}{:>32}",
            format!("{xmin:.1}"),
            format!("{xmax:.1}")
        );
        let legend: Vec<String> = self
            .series
            .iter()
            .enumerate()
            .map(|(si, s)| format!("{} {}", glyphs[si % glyphs.len()], s.label))
            .collect();
        let _ = writeln!(out, "              legend: {}", legend.join("   "));
        Some(out)
    }

    /// Render as CSV (`series,x,y` rows).
    pub fn render_csv(&self) -> String {
        let mut out = String::from("series,x,y\n");
        for s in &self.series {
            for (x, y) in &s.points {
                let _ = writeln!(out, "{},{},{}", s.label, x, y);
            }
        }
        out
    }

    /// Render as machine-readable JSON (what `reproduce` writes to
    /// `BENCH_<id>.json`). Hand-rolled — no serde in the tree — with
    /// non-finite values mapped to `null`.
    pub fn render_json(&self) -> String {
        fn esc(s: &str) -> String {
            s.chars()
                .flat_map(|c| match c {
                    '"' => "\\\"".chars().collect::<Vec<_>>(),
                    '\\' => "\\\\".chars().collect(),
                    '\n' => "\\n".chars().collect(),
                    c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
                    c => vec![c],
                })
                .collect()
        }
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".into()
            }
        }
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"id\": \"{}\",", esc(self.id));
        let _ = writeln!(out, "  \"title\": \"{}\",", esc(&self.title));
        let _ = writeln!(
            out,
            "  \"axes\": [\"{}\", \"{}\"],",
            esc(self.axes.0),
            esc(self.axes.1)
        );
        let series: Vec<String> = self
            .series
            .iter()
            .map(|s| {
                let pts: Vec<String> = s
                    .points
                    .iter()
                    .map(|(x, y)| format!("[{}, {}]", num(*x), num(*y)))
                    .collect();
                format!(
                    "    {{\"label\": \"{}\", \"points\": [{}]}}",
                    esc(&s.label),
                    pts.join(", ")
                )
            })
            .collect();
        let _ = writeln!(out, "  \"series\": [\n{}\n  ],", series.join(",\n"));
        let heads: Vec<String> = self
            .headlines
            .iter()
            .map(|(n, v)| format!("    \"{}\": {}", esc(n), num(*v)))
            .collect();
        let _ = writeln!(out, "  \"headlines\": {{\n{}\n  }},", heads.join(",\n"));
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("    \"{}\"", esc(n)))
            .collect();
        let _ = writeln!(out, "  \"notes\": [\n{}\n  ]", notes.join(",\n"));
        out.push_str("}\n");
        out
    }
}

/// Standard trial configuration (paper: ~100k packets/trial, many trials).
fn cfg(seed: u64) -> ToolConfig {
    if quick() {
        return ToolConfig {
            packets_per_trial: 2_000,
            trials: 7,
            frame_size: 128,
            seed,
        };
    }
    ToolConfig {
        packets_per_trial: 100_000,
        trials: 41,
        frame_size: 128,
        seed,
    }
}

fn throughput_series(
    machine: MachineProfile,
    label: &str,
    guarded: Option<(usize, u64)>, // (n regions, hit position)
    seed: u64,
) -> (Series, Summary) {
    let report = match guarded {
        None => {
            let mut s = setup::baseline_sender(machine);
            tool::run_throughput(&mut s, &cfg(seed)).expect("baseline trial")
        }
        Some((n, hit)) => {
            let mut s = setup::carat_sender(machine, setup::n_region_policy(n), hit);
            tool::run_throughput(&mut s, &cfg(seed)).expect("carat trial")
        }
    };
    let summary = report.summary;
    (
        Series {
            label: label.to_string(),
            points: cdf_points(&report.samples),
        },
        summary,
    )
}

/// Figure 3: CARAT KOP effect on packet launch throughput, slow R415,
/// two regions, 128-byte packets. Expected: minimal effect, median delta
/// <0.8% (~1,000 pps).
pub fn fig3() -> FigureData {
    let (base_s, base) = throughput_series(MachineProfile::r415(), "baseline", None, 3001);
    let (carat_s, carat) = throughput_series(MachineProfile::r415(), "carat", Some((2, 0)), 3001);
    let delta = base.median - carat.median;
    let rel = base.median_rel_change(&carat);
    FigureData {
        id: "fig3",
        title: "throughput CDF, carat vs baseline (R415, 128 B, 2 regions)".into(),
        axes: ("packets per second", "CDF"),
        series: vec![carat_s, base_s],
        headlines: vec![
            ("baseline_median_pps".into(), base.median),
            ("carat_median_pps".into(), carat.median),
            ("median_delta_pps".into(), delta),
            ("median_rel_change".into(), rel),
        ],
        notes: vec!["paper: median changes by ~1,000 pps, a relative change of <0.8%".into()],
    }
}

/// Figure 4: same experiment on the faster R350. Expected: "even smaller,
/// and, indeed, almost unmeasurable" — <0.1%.
pub fn fig4() -> FigureData {
    let (base_s, base) = throughput_series(MachineProfile::r350(), "baseline", None, 3002);
    let (carat_s, carat) = throughput_series(MachineProfile::r350(), "carat", Some((2, 0)), 3002);
    FigureData {
        id: "fig4",
        title: "throughput CDF, carat vs baseline (R350, 128 B, 2 regions)".into(),
        axes: ("packets per second", "CDF"),
        series: vec![carat_s, base_s],
        headlines: vec![
            ("baseline_median_pps".into(), base.median),
            ("carat_median_pps".into(), carat.median),
            ("median_rel_change".into(), base.median_rel_change(&carat)),
        ],
        notes: vec!["paper: relative change in the median is <0.1%".into()],
    }
}

/// Figure 5: throughput vs number of policy regions (R350, 128 B):
/// baseline, carat (2), carat16, carat64. Expected: effect exists but is
/// small; worst case (<1% median change).
pub fn fig5() -> FigureData {
    let machine = MachineProfile::r350;
    let (base_s, base) = throughput_series(machine(), "baseline", None, 3003);
    let mut series = Vec::new();
    let mut headlines = vec![("baseline_median_pps".into(), base.median)];
    for (label, n) in [("carat", 2usize), ("carat16", 16), ("carat64", 64)] {
        let (s, sum) = throughput_series(machine(), label, Some((n, setup::hit_pos_for(n))), 3003);
        headlines.push((format!("{label}_median_pps"), sum.median));
        headlines.push((
            format!("{label}_median_rel_change"),
            base.median_rel_change(&sum),
        ));
        series.push(s);
    }
    series.push(base_s);
    FigureData {
        id: "fig5",
        title: "throughput vs number of policy regions (R350, 128 B)".into(),
        axes: ("packets per second", "CDF"),
        series,
        headlines,
        notes: vec![
            "paper: n has a small but significant effect; even n=64 changes the median <1%".into(),
            "paper: for large n an O(log n) structure would ameliorate this (see ablation-ds)"
                .into(),
        ],
    }
}

/// Figure 6: mean slowdown vs packet size (64..1500 B, 2 regions, burst
/// tool path). Expected: slowdown concentrated on small packets, max
/// ~2.5%, approaching 1.0 at 1500 B.
pub fn fig6() -> FigureData {
    let sizes = [64u64, 128, 256, 512, 1024, 1500];
    let mut points = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        let seed = 3100 + i as u64;
        let c = ToolConfig {
            frame_size: size as usize,
            ..cfg(seed)
        };
        let mut base = setup::baseline_sender(setup::r350_burst());
        let rb = tool::run_throughput(&mut base, &c).expect("baseline");
        let mut carat = setup::carat_sender(setup::r350_burst(), setup::n_region_policy(2), 0);
        let rc = tool::run_throughput(&mut carat, &c).expect("carat");
        points.push((size as f64, kop_sim::slowdown(&rb.samples, &rc.samples)));
    }
    let max_slowdown = points.iter().map(|p| p.1).fold(f64::MIN, f64::max);
    let last = points.last().expect("nonempty").1;
    FigureData {
        id: "fig6",
        title: "mean throughput slowdown vs packet size (R350 burst, 2 regions)".into(),
        axes: ("packet size (bytes)", "slowdown (baseline/carat)"),
        series: vec![Series {
            label: "carat".into(),
            points,
        }],
        headlines: vec![
            ("max_slowdown".into(), max_slowdown),
            ("slowdown_at_1500".into(), last),
        ],
        notes: vec![
            "paper: impact largely independent of size; to the extent it varies (max ~2.5%) it is concentrated on small packets".into(),
            "uses the burst tool path (see EXPERIMENTS.md on the Fig.4/Fig.6 tension in the paper)".into(),
        ],
    }
}

/// Figure 7: `sendmsg` latency histograms (cycles), carat vs baseline
/// (R350, 128 B, 2 regions), outliers excluded as in the paper. Expected:
/// closely matched histograms; medians 686 (base) vs 694 (carat) with
/// outliers included — within cycle-counter noise.
pub fn fig7() -> FigureData {
    let machine = MachineProfile::r350();
    // Counted per-packet work (the paper measures the live system; we
    // probe the real driver model).
    let mut probe = setup::baseline_sender(machine.clone());
    let work = probe
        .probe_work(MacAddr::BROADCAST, EtherType::Experimental, 128)
        .expect("probe");

    let base_lat = machine.sendmsg_latency_cycles(&work);
    let carat_lat = base_lat + machine.packet_cycles_guard_overhead(&work, 1);

    let n = 40_000;
    let outlier_p = 0.0004; // ring-full descheduling
    let mut base_runner = TrialRunner::new(machine.clone(), 1, 777);
    let base_samples = base_runner.latency_samples(base_lat, n, outlier_p);
    let mut carat_runner = TrialRunner::new(machine.clone(), 1, 778);
    let carat_samples = carat_runner.latency_samples(carat_lat, n, outlier_p);

    // Medians including outliers (the paper quotes 694 vs 686 this way).
    let base_median = median(&base_samples);
    let carat_median = median(&carat_samples);

    // Histograms excluding outliers, like the figure.
    let keep = |v: &Vec<f64>| -> Vec<f64> { v.iter().copied().filter(|&c| c < 5_000.0).collect() };
    let base_clean = keep(&base_samples);
    let carat_clean = keep(&carat_samples);
    let to_series = |label: &str, samples: &[f64]| Series {
        label: label.into(),
        points: histogram(samples, 500.0, 1200.0, 28)
            .into_iter()
            .map(|(edge, count)| (edge, count as f64))
            .collect(),
    };
    FigureData {
        id: "fig7",
        title: "sendmsg latency histogram (R350, 128 B, 2 regions), outliers excluded".into(),
        axes: ("latency (cycles)", "count"),
        series: vec![to_series("base", &base_clean), to_series("carat", &carat_clean)],
        headlines: vec![
            ("base_median_cycles".into(), base_median),
            ("carat_median_cycles".into(), carat_median),
            ("median_delta_cycles".into(), carat_median - base_median),
            (
                "outliers_excluded".into(),
                (base_samples.len() - base_clean.len() + carat_samples.len() - carat_clean.len())
                    as f64,
            ),
        ],
        notes: vec![
            "paper: medians 694 (carat) vs 686 (baseline) cycles — within measurement noise".into(),
            "outliers (>10M cycles when the ring fills and the app is descheduled) excluded, as in the paper".into(),
        ],
    }
}

/// CLAIM-T (§4.1): applying CARAT KOP to an existing module is a
/// recompilation — no source changes — and every load/store gets exactly
/// one guard.
pub fn claims() -> FigureData {
    let key = CompilerKey::from_passphrase("operator-key", "carat-kop-dev");
    let mut headlines = Vec::new();
    let mut notes = Vec::new();
    for (name, module) in corpus::all() {
        let accesses = module.memory_access_count() as f64;
        let lines = module.text_lines() as f64;
        // Baseline and carat builds from the *same* input module.
        let base = compile_module(module.clone(), &CompileOptions::baseline(), &key)
            .expect("baseline build");
        let carat =
            compile_module(module, &CompileOptions::carat_kop(), &key).expect("carat build");
        headlines.push((format!("{name}_ir_lines"), lines));
        headlines.push((format!("{name}_mem_accesses"), accesses));
        headlines.push((
            format!("{name}_guards_injected"),
            carat.stats.get("guards_injected") as f64,
        ));
        assert_eq!(
            carat.stats.get("guards_injected") as f64,
            accesses,
            "one guard per access"
        );
        assert_eq!(base.stats.get("guards_injected"), 0);
        // Both validate and load under the same kernel.
        let mut kernel = Kernel::boot(
            std::sync::Arc::new(PolicyModule::new()),
            vec![key.clone()],
            KernelConfig::default(),
        );
        kernel.insmod(&carat.signed).expect("carat module loads");
        notes.push(format!(
            "{name}: same input IR for both builds (zero source changes); carat build signed {} and loaded",
            &carat.signed.content_hash()[..12]
        ));
    }
    // The scale claim, literally: a ~19 kLoC module transformed by
    // recompilation, timed.
    let big = corpus::synthetic_large(800);
    let big_lines = big.text_lines() as f64;
    let big_accesses = big.memory_access_count() as f64;
    let t0 = Instant::now();
    let big_out =
        compile_module(big, &CompileOptions::carat_kop(), &key).expect("large module compiles");
    let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        big_out.stats.get("guards_injected") as f64,
        big_accesses,
        "one guard per access at scale"
    );
    headlines.push(("synthetic_19k_ir_lines".into(), big_lines));
    headlines.push(("synthetic_19k_mem_accesses".into(), big_accesses));
    headlines.push((
        "synthetic_19k_guards_injected".into(),
        big_out.stats.get("guards_injected") as f64,
    ));
    headlines.push(("synthetic_19k_compile_ms".into(), compile_ms));
    notes.push(format!(
        "scale: a {big_lines:.0}-line synthetic module (paper's e1000e: ~19,000 lines of C) transformed, attested, and signed in {compile_ms:.0} ms"
    ));
    notes.push(
        "paper: the 19 kLoC e1000e transformed with no source changes; ours: every corpus module"
            .into(),
    );
    FigureData {
        id: "claims",
        title: "engineering-effort claims (§4.1): zero-source-change transformation".into(),
        axes: ("", ""),
        series: vec![],
        headlines,
        notes,
    }
}

/// ANALYSIS: precision and wall-clock of the `kop-analysis` static
/// guard-coverage verifier over the KIR corpus — the "prove, don't
/// trust" cost the static-verification loader mode pays per insmod.
pub fn analysis() -> FigureData {
    let key = CompilerKey::from_passphrase("operator-key", "carat-kop-dev");
    let mut headlines = Vec::new();
    let mut notes = Vec::new();
    let mut points = Vec::new();

    let mut corpus_modules = corpus::all();
    corpus_modules.push(("synthetic-200", corpus::synthetic_large(200)));

    for (name, module) in corpus_modules {
        // The raw module must be *rejected* (that is the precision floor:
        // no unguarded access sneaks through) ...
        let raw_report = kop_analysis::verify_guard_coverage(&module);
        assert!(
            !raw_report.is_clean(),
            "{name}: unguarded module must be rejected"
        );
        // ... and both the paper build and the optimized build must be
        // *proven* (no false rejection of legitimate guard placements).
        for (cfg_name, opts) in [
            ("carat", CompileOptions::carat_kop()),
            ("opt", CompileOptions::optimized()),
        ] {
            let out = compile_module(module.clone(), &opts, &key).expect("compiles");
            let ir = out
                .signed
                .verify(std::slice::from_ref(&key))
                .expect("verifies");
            // Optimized builds carry an obligation ledger; proving them
            // means replaying it, exactly as the loader does at insmod.
            let ledger = kop_analysis::ObligationLedger::parse(&out.signed.attestation.obligations)
                .expect("attested ledger parses");
            let t0 = Instant::now();
            let report = kop_analysis::validate_module(&ir, &ledger);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            assert!(report.is_clean(), "{name}/{cfg_name}: must prove clean");
            let checked = report.stat("accesses_checked") as f64;
            let proven = report.stat("accesses_proven") as f64;
            headlines.push((format!("{name}_{cfg_name}_accesses"), checked));
            headlines.push((
                format!("{name}_{cfg_name}_precision"),
                if checked > 0.0 { proven / checked } else { 1.0 },
            ));
            headlines.push((format!("{name}_{cfg_name}_verify_us"), us));
            points.push((checked, us));
        }
        // Provenance classification on the raw module: the rootkit corpus
        // member launders pointers through inttoptr and must be flagged.
        let prov = kop_analysis::provenance::analyze_provenance(&module, &[]);
        if name == "credscan" {
            let laundered = prov.stat("ptr_laundered") as f64;
            assert!(laundered > 0.0, "credscan must trip KA003");
            headlines.push(("credscan_laundered_accesses".into(), laundered));
            notes.push(
                "credscan reaches kernel memory via inttoptr: flagged KA003 before it ever runs"
                    .into(),
            );
        }
    }

    points.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    FigureData {
        id: "analysis",
        title: "static guard-coverage verification: precision and cost over the KIR corpus".into(),
        axes: ("memory accesses in module", "verify wall-clock (us)"),
        series: vec![Series {
            label: "verify_us".into(),
            points,
        }],
        headlines,
        notes: {
            notes.push(
                "precision 1.0 = every access proven guarded; raw (unguarded) builds are rejected"
                    .into(),
            );
            notes.push(
                "this is the per-insmod cost of Verification::Static — proving instead of trusting the signature".into(),
            );
            notes
        },
    }
}

/// ABL-DS: guard-check latency of the paper's linear table walk against
/// the two frozen indexes every production check uses (§3.1/§4.2's
/// sketched alternatives, as built): the one-probe sorted index over
/// disjoint rules and the layered index the same rules freeze to under
/// one overlapping shared window. Wall-clock measured on the host
/// (relative ordering is the result).
pub fn ablation_ds() -> FigureData {
    use kop_policy::{FrozenKind, FrozenStore};

    let counts = [2usize, 8, 16, 64, 256, 1024];
    let lookups = 200_000u64;
    // Skewed access pattern: 90% hit the last-inserted (worst-case for
    // the scan) region, 10% sweep the others.
    let ns_per_lookup = |n: usize, lookup: &dyn Fn(VAddr) -> Lookup| {
        let hot = 0x10_0000 + (n as u64 - 1) * 0x10_000;
        let start = Instant::now();
        let mut acc = 0u64;
        for i in 0..lookups {
            let addr = if i % 10 != 0 {
                hot + (i % 0x800)
            } else {
                0x10_0000 + (i % n as u64) * 0x10_000 + (i % 0x800)
            };
            acc += matches!(lookup(VAddr(addr)), Lookup::Permitted(_)) as u64;
        }
        assert_eq!(acc, lookups, "every lookup hits a granting rule");
        start.elapsed().as_nanos() as f64 / lookups as f64
    };
    let mut series: Vec<Series> = [
        "flat-scan",
        FrozenKind::Sorted.name(),
        FrozenKind::Interval.name(),
    ]
    .into_iter()
    .map(|label| Series {
        label: label.into(),
        points: Vec::new(),
    })
    .collect();
    for &n in &counts {
        let regions: Vec<Region> = (0..n as u64)
            .map(|i| {
                Region::new(
                    VAddr(0x10_0000 + i * 0x10_000),
                    Size(0x1000),
                    Protection::READ_WRITE,
                )
                .expect("region")
            })
            .collect();
        let disjoint = FrozenStore::build(regions.clone());
        assert_eq!(disjoint.kind(), FrozenKind::Sorted);
        let mut windowed = regions.clone();
        windowed.push(
            Region::new(
                VAddr(0x10_0000),
                Size(n as u64 * 0x10_000),
                Protection::READ_ONLY,
            )
            .expect("shared window"),
        );
        let overlapping = FrozenStore::build(windowed);
        assert_eq!(overlapping.kind(), FrozenKind::Interval);
        let structures: [&dyn Fn(VAddr) -> Lookup; 3] = [
            &|a| baseline::linear_scan(&regions, a, Size(8), AccessFlags::RW),
            &|a| disjoint.lookup_frozen(a, Size(8), AccessFlags::RW),
            &|a| overlapping.lookup_frozen(a, Size(8), AccessFlags::RW),
        ];
        for (s, lookup) in series.iter_mut().zip(structures) {
            s.points.push((n as f64, ns_per_lookup(n, lookup)));
        }
    }
    let headlines = series
        .iter()
        .map(|s| {
            let at_64 = s.points.iter().find(|(n, _)| *n == 64.0).expect("n=64");
            (format!("{}_ns_at_64", s.label), at_64.1)
        })
        .collect();
    FigureData {
        id: "ablation-ds",
        title: "policy-structure ablation: ns/guard-check vs region count (host wall-clock)".into(),
        axes: ("regions", "ns per lookup"),
        series,
        headlines,
        notes: vec![
            "paper §4.2: linear scan is fine to ~64 regions; beyond that a logarithmic structure should win".into(),
            "flat-scan: the paper's table walk; frozen-sorted: one binary search over disjoint rules; frozen-interval: the same rules under one overlapping window, one binary search per layer".into(),
            "expected ordering at large n: frozen-sorted < frozen-interval (two layers) < flat-scan (linear)".into(),
        ],
    }
}

/// ABL-OPT: what the CARAT CAKE-style guard optimizations the paper
/// deliberately omits would buy — static and dynamic guard counts for the
/// unoptimized vs optimized pipelines.
pub fn ablation_opt() -> FigureData {
    use kop_interp::Interp;
    let key = CompilerKey::from_passphrase("operator-key", "carat-kop-dev");
    let module = corpus::parse(corpus::OPT_WORKLOAD_IR);

    let run = |opts: &CompileOptions| -> (f64, f64, u64) {
        let out = compile_module(module.clone(), opts, &key).expect("compiles");
        let static_guards = out.signed.attestation.guard_count as f64;
        let policy = std::sync::Arc::new(PolicyModule::new());
        policy.set_default_action(DefaultAction::Allow);
        let mut kernel = Kernel::boot(policy, vec![key.clone()], KernelConfig::default());
        kernel.insmod(&out.signed).expect("loads");
        let buf = kernel.kmalloc(4096).expect("buf");
        let mut interp = Interp::new(&mut kernel).expect("interp");
        let r = interp
            .call("opt-workload", "run", &[buf.raw(), 256])
            .expect("runs")
            .expect("returns");
        (static_guards, interp.stats().guards as f64, r)
    };

    let (static_plain, dyn_plain, r_plain) = run(&CompileOptions::carat_kop());
    let (static_opt, dyn_opt, r_opt) = run(&CompileOptions::optimized());
    assert_eq!(r_plain, r_opt, "optimizations must preserve semantics");

    FigureData {
        id: "ablation-opt",
        title: "guard-optimization ablation: CARAT KOP (unoptimized) vs CARAT CAKE-style passes"
            .into(),
        axes: ("", ""),
        series: vec![
            Series {
                label: "static_guards".into(),
                points: vec![(0.0, static_plain), (1.0, static_opt)],
            },
            Series {
                label: "dynamic_guards".into(),
                points: vec![(0.0, dyn_plain), (1.0, dyn_opt)],
            },
        ],
        headlines: vec![
            ("static_guards_unopt".into(), static_plain),
            ("static_guards_opt".into(), static_opt),
            ("dynamic_guards_unopt".into(), dyn_plain),
            ("dynamic_guards_opt".into(), dyn_opt),
            ("dynamic_reduction".into(), 1.0 - dyn_opt / dyn_plain),
        ],
        notes: vec![
            "x=0: paper configuration (every access guarded); x=1: cross-block redundant-elim + range coalescing".into(),
            "the paper argues the unoptimized overhead is already <1%, so these passes are optional — this quantifies what they would save anyway".into(),
        ],
    }
}

/// Outcome of one fault-storm run: what got through and how long the
/// stalls were. All units are DMA tick-rounds — fully deterministic.
struct ResilienceRun {
    delivered: u64,
    submitted: u64,
    ticks: u64,
    stall_lengths: Vec<f64>,
    watchdog_fires: u64,
    resets: u64,
}

/// Drive `frames` transmissions through a (possibly faulty) driver with
/// the full recovery stack engaged: bounded submit retries on `RingFull`,
/// a periodic watchdog (every 8 frames, like the real driver's timer),
/// and adapter reset on persistent errors. Recovery latency is measured
/// as the length of each stall — a maximal run of tick-rounds where
/// descriptors were pending but nothing reached the wire.
fn resilience_run<M: MemSpace>(drv: &mut E1000Driver<M>, frames: u64) -> ResilienceRun {
    const DST: [u8; 6] = [0x52, 0x54, 0x00, 0xfa, 0x11, 0x7e];
    let payload = [0xabu8; 114]; // 128 B frames, as in the throughput figures
    let mut sink = CountSink::default();
    let mut ticks = 0u64;
    let mut submitted = 0u64;
    let mut stall = 0u64;
    let mut stalls = Vec::new();

    let account = |got: u64, pending: u64, stall: &mut u64, stalls: &mut Vec<f64>| {
        if got == 0 && pending > 0 {
            *stall += 1;
        } else if *stall > 0 {
            stalls.push(*stall as f64);
            *stall = 0;
        }
    };

    for i in 0..frames {
        // Submit with bounded retry; the watchdog breaks TX hangs.
        for _attempt in 0..8 {
            match drv.xmit(DST, 0x0800, &payload) {
                Ok(()) => {
                    submitted += 1;
                    break;
                }
                Err(DriverError::RingFull) => {
                    ticks += 1;
                    let got = drv.mem().tx_tick(&mut sink);
                    account(got, drv.tx_pending(), &mut stall, &mut stalls);
                    let _ = drv.clean_tx();
                    let _ = drv.watchdog();
                }
                Err(_) => {
                    // Device-level failure (e.g. link reported down): full
                    // adapter reset, then retry the frame.
                    let _ = drv.reset();
                }
            }
        }
        ticks += 1;
        let got = drv.mem().tx_tick(&mut sink);
        account(got, drv.tx_pending(), &mut stall, &mut stalls);
        if i % 8 == 0 {
            let _ = drv.watchdog();
        }
    }
    // Drain what is still queued (bounded: a hung device stops mattering
    // once the budget is spent).
    for _ in 0..1024 {
        if drv.tx_pending() == 0 {
            break;
        }
        ticks += 1;
        let got = drv.mem().tx_tick(&mut sink);
        account(got, drv.tx_pending(), &mut stall, &mut stalls);
        let _ = drv.clean_tx();
        let _ = drv.watchdog();
    }
    if stall > 0 {
        stalls.push(stall as f64);
    }
    ResilienceRun {
        delivered: sink.frames,
        submitted,
        ticks,
        stall_lengths: stalls,
        watchdog_fires: drv.stats().watchdog_fires,
        resets: drv.stats().resets,
    }
}

/// RESILIENCE: survive-the-violation. Injects TX hangs and wire-side
/// frame drops at increasing rates (seeded, deterministic) into the
/// e1000e device seam and measures what the recovery stack (watchdog,
/// adapter reset, bounded retry) still delivers — baseline vs carat
/// (two-region policy, R350 vehicle). Returns two figures: delivered
/// fraction vs fault rate, and the recovery-latency CDF at the highest
/// injected rate.
pub fn resilience() -> Vec<FigureData> {
    let (rates, frames): (&[f64], u64) = if quick() {
        (&[0.0, 0.02, 0.1], 400)
    } else {
        (&[0.0, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1], 4_000)
    };
    let cdf_rate = *rates.last().expect("nonempty rates");

    // Two fault shapes per rate: wire-side drops as a Bernoulli per tick
    // (transient loss), and one sustained TX hang whose length scales
    // with the rate (640 ticks × rate) — the shape the watchdog exists
    // for: single-tick hiccups self-heal, a stuck TDH needs a reset.
    let plan_for = |rate: f64, seed: u64| {
        let plan = FaultPlan::new(seed);
        if rate == 0.0 {
            return plan;
        }
        plan.with_dma_drop(Trigger::Probability(rate))
            .with_tx_hang(Trigger::Window {
                start: 64,
                len: (rate * 640.0).round() as u64,
            })
    };

    let mut base_points = Vec::new();
    let mut carat_points = Vec::new();
    let mut headlines = Vec::new();
    let mut cdf_series = Vec::new();

    for (i, &rate) in rates.iter().enumerate() {
        let seed = 4001 + i as u64;

        // Baseline: faults injected under the unguarded driver.
        let mem = kop_faultline::FaultyMem::new(
            kop_e1000e::DirectMem::with_defaults(kop_e1000e::E1000Device::default()),
            plan_for(rate, seed),
        );
        let mut drv = E1000Driver::probe(mem).expect("probe baseline");
        drv.up().expect("up baseline");
        let base = resilience_run(&mut drv, frames);

        // Carat: the identical fault schedule (same seed) injected above
        // the guard layer; guards check every driver access throughout.
        let mem = kop_faultline::FaultyMem::new(
            kop_e1000e::GuardedMem::new(
                kop_e1000e::DirectMem::with_defaults(kop_e1000e::E1000Device::default()),
                setup::two_region_policy(),
            ),
            plan_for(rate, seed),
        );
        let mut drv = E1000Driver::probe(mem).expect("probe carat");
        drv.up().expect("up carat");
        let carat = resilience_run(&mut drv, frames);

        let frac = |r: &ResilienceRun| r.delivered as f64 / frames as f64;
        base_points.push((rate, frac(&base)));
        carat_points.push((rate, frac(&carat)));
        let pct = (rate * 1000.0).round() as u64; // per-mille label, stable
        headlines.push((format!("base_delivered_frac_r{pct}"), frac(&base)));
        headlines.push((format!("carat_delivered_frac_r{pct}"), frac(&carat)));
        headlines.push((
            format!("carat_watchdog_fires_r{pct}"),
            carat.watchdog_fires as f64,
        ));
        headlines.push((format!("carat_resets_r{pct}"), carat.resets as f64));
        if rate == cdf_rate {
            headlines.push(("base_submitted_at_max_rate".into(), base.submitted as f64));
            headlines.push(("carat_ticks_at_max_rate".into(), carat.ticks as f64));
            headlines.push((
                "carat_recovery_p95_ticks".into(),
                kop_sim::percentile(&carat.stall_lengths, 95.0),
            ));
            headlines.push((
                "carat_recovery_max_ticks".into(),
                kop_sim::percentile(&carat.stall_lengths, 100.0),
            ));
            for (label, run) in [("base", &base), ("carat", &carat)] {
                cdf_series.push(Series {
                    label: label.to_string(),
                    points: cdf_points(&run.stall_lengths),
                });
            }
        }
    }

    let throughput = FigureData {
        id: "resilience",
        title: "delivered fraction vs injected device-fault rate (R350, 128 B, 2 regions)".into(),
        axes: ("fault rate (per DMA tick)", "delivered fraction"),
        series: vec![
            Series {
                label: "carat".into(),
                points: carat_points,
            },
            Series {
                label: "baseline".into(),
                points: base_points,
            },
        ],
        headlines,
        notes: vec![
            "faults: TX hang (TDH stuck) + wire-side frame drop, each Bernoulli per tick at the x-axis rate".into(),
            "recovery stack: stuck-TDH watchdog, full adapter reset with ring re-init, bounded retry".into(),
            "expected: guarded and baseline degrade identically — guards do not impede recovery".into(),
        ],
    };
    let latency = FigureData {
        id: "resilience-latency",
        title: format!(
            "recovery-latency CDF at fault rate {cdf_rate} (stall length in DMA tick-rounds)"
        ),
        axes: ("stall length (ticks)", "CDF"),
        series: cdf_series,
        headlines: vec![],
        notes: vec![
            "a stall is a maximal run of ticks with descriptors pending and nothing delivered"
                .into(),
            "the watchdog bounds stalls: it fires after two stuck observations and resets the adapter".into(),
        ],
    };
    vec![throughput, latency]
}

/// TRACE: what the kop-trace subsystem costs on the guarded TX path —
/// host wall-clock ns/packet for three configurations of the same
/// guarded driver (two-region policy, 128 B frames):
///
/// * `untraced`  — `GuardedMem::new`, no tracer attached at all;
/// * `tracing_off` — a tracer is wired in but disabled (the shipping
///   configuration: one relaxed atomic load per guard);
/// * `tracing_on` — full ring events + per-site profiling.
///
/// Plus the per-site breakdown the enabled run collects (which arena
/// region the TX path's guards actually hit), reconciled against the
/// driver's own guard-call counter.
pub fn trace() -> FigureData {
    use kop_trace::Tracer;

    let (frames, repeats) = if quick() { (400u64, 5) } else { (4_000u64, 9) };
    let dst = [0xffu8; 6];
    let payload = [0u8; 114]; // 128 B on the wire with the header

    // One timed pass over a fresh driver; returns (ns/packet, tracer).
    let run_once = |tracer: Option<(std::sync::Arc<Tracer>, bool)>| -> (f64, u64) {
        let policy = setup::two_region_policy();
        let mem = match &tracer {
            Some((t, _)) => kop_e1000e::GuardedMem::with_tracer(
                kop_e1000e::DirectMem::with_defaults(kop_e1000e::E1000Device::default()),
                policy,
                std::sync::Arc::clone(t),
            ),
            None => kop_e1000e::GuardedMem::new(
                kop_e1000e::DirectMem::with_defaults(kop_e1000e::E1000Device::default()),
                policy,
            ),
        };
        let mut drv = E1000Driver::probe(mem).expect("probe");
        drv.up().expect("up");
        // Enable only now: the profiled window is exactly the measured
        // loop, so per-site hits reconcile with the guard-call delta.
        if let Some((t, enabled)) = &tracer {
            t.set_enabled(*enabled);
        }
        let mut sink = CountSink::default();
        let before = drv.counts();
        let start = Instant::now();
        for _ in 0..frames {
            drv.xmit_and_flush(dst, 0x88b5, &payload, &mut sink)
                .expect("xmit");
        }
        let ns = start.elapsed().as_nanos() as f64 / frames as f64;
        (ns, drv.counts().since(&before).guard_calls)
    };

    // Interleave the three configurations within each repeat round and
    // keep the minimum — the standard host-wall-clock discipline the
    // ablation figures use (minima are robust to scheduler noise).
    let mut untraced_ns = f64::MAX;
    let mut off_ns = f64::MAX;
    let mut on_ns = f64::MAX;
    let mut guard_calls = 0u64;
    let mut on_tracer = Tracer::new();
    for _ in 0..repeats {
        untraced_ns = untraced_ns.min(run_once(None).0);
        off_ns = off_ns.min(run_once(Some((Tracer::new(), false))).0);
        // A fresh tracer per repeat: the kept profile belongs to exactly
        // one measured pass, so hits reconcile with that pass's guards.
        let t = Tracer::with_capacity(kop_trace::DEFAULT_CAPACITY);
        let (ns, calls) = run_once(Some((std::sync::Arc::clone(&t), true)));
        if ns < on_ns {
            on_ns = ns;
            on_tracer = t;
            guard_calls = calls;
        }
    }

    let total_checks = on_tracer.total_checks();
    assert_eq!(
        total_checks, guard_calls,
        "per-site profile totals must reconcile with the driver's guard counter"
    );

    // Per-site breakdown from the kept enabled run.
    let mut site_points = Vec::new();
    let mut site_notes = Vec::new();
    for (i, (meta, prof)) in on_tracer.profile_snapshot().into_iter().enumerate() {
        site_points.push((i as f64, prof.hits as f64));
        site_notes.push(format!(
            "site {} = {}/{}: hits {} ({:.1}%), mean {:.0} ns",
            i,
            meta.module,
            meta.label,
            prof.hits,
            100.0 * prof.hits as f64 / total_checks.max(1) as f64,
            prof.mean_ns()
        ));
    }

    let off_overhead = off_ns / untraced_ns - 1.0;
    let on_overhead = on_ns / untraced_ns - 1.0;
    assert!(
        off_overhead < 0.02,
        "disabled tracing must cost <2% on the guarded TX path (measured {:.2}%)",
        off_overhead * 100.0
    );
    let mut notes = vec![
        "tracing_off is the shipping configuration: the only added work per guard is one relaxed atomic load".into(),
        "expected: tracing_off within noise of untraced (<2%); tracing_on pays for ring events + histograms".into(),
    ];
    notes.extend(site_notes);

    FigureData {
        id: "trace",
        title: "kop-trace overhead on the guarded TX path (host wall-clock) + per-site breakdown"
            .into(),
        axes: ("site index", "guard hits"),
        series: vec![
            Series {
                label: "site_hits".into(),
                points: site_points,
            },
            Series {
                label: "ns_per_packet".into(),
                points: vec![(0.0, untraced_ns), (1.0, off_ns), (2.0, on_ns)],
            },
        ],
        headlines: vec![
            ("untraced_ns_pkt".into(), untraced_ns),
            ("tracing_off_ns_pkt".into(), off_ns),
            ("tracing_on_ns_pkt".into(), on_ns),
            ("tracing_off_overhead_frac".into(), off_overhead),
            ("tracing_on_overhead_frac".into(), on_overhead),
            ("profiled_checks".into(), total_checks as f64),
            ("driver_guard_calls".into(), guard_calls as f64),
        ],
        notes,
    }
}

/// EXEC: execution-engine ablation (`reproduce exec`). The e1000e TX
/// path is driven *through the module interpreter* — `@xmit` from the
/// mini-e1000e KIR corpus module — under both engines: the tree walker
/// and the flat bytecode the loader compiles once at insmod (`kop-vm`),
/// for the guarded (carat_kop) and unguarded (baseline) builds.
///
/// Timed passes use the min-of-repeats wall-clock discipline the other
/// host figures use. A separate traced pass proves the engines
/// equivalent, asserted on every run: identical `ExecStats` (fuel
/// accounting included), identical dynamic guard counts, *exact*
/// per-site trace attribution, and byte-identical memory effects — TX
/// ring, frame buffer, `@stats` counters, and the TDT doorbell cell.
/// The ≥3x bytecode speedup claim is asserted in quick mode (release
/// CI smoke); full runs report it as a headline.
pub fn exec() -> FigureData {
    use kop_interp::{Engine, ExecStats, Interp};

    let key = CompilerKey::from_passphrase("operator-key", "carat-kop-dev");
    let (packets, repeats) = if quick() {
        (2_000u64, 3)
    } else {
        (20_000u64, 7)
    };

    const RING_BYTES: u64 = 256 * 16; // 256 descriptors x {i64,i32,i32}
    const FRAME_BYTES: u64 = 64;
    const MMIO_BYTES: u64 = 0x4000; // covers the TDT doorbell at +0x3818
    const TDT_OFF: u64 = 0x3818;
    const STATS_BYTES: usize = 24;
    const LEN: u64 = 114; // 128 B on the wire with the header

    /// Everything one pass can observably produce.
    struct RunOut {
        ns_pkt: f64,
        stats: ExecStats,
        fused: u64,
        ring: Vec<u8>,
        frame: Vec<u8>,
        stats_glob: Vec<u8>,
        tdt: u64,
        profiled: Vec<(String, String, u64)>,
        profiled_checks: u64,
    }

    let run = |opts: &CompileOptions, engine: Engine, packets: u64, traced: bool| -> RunOut {
        let module = corpus::parse(corpus::MINI_E1000E_IR);
        let out = compile_module(module, opts, &key).expect("compiles");
        let policy = setup::two_region_policy();
        let mut kernel = Kernel::boot(policy, vec![key.clone()], KernelConfig::default());
        kernel.insmod(&out.signed).expect("loads");
        let image = std::sync::Arc::clone(kernel.module("mini-e1000e").expect("loaded").image());
        let fused = image.compiled.fused_guard_count() as u64;
        let stats_addr = image
            .globals
            .get("stats")
            .copied()
            .expect("@stats laid out");
        let ring = kernel.kmalloc(RING_BYTES).expect("ring");
        let frame = kernel.kmalloc(FRAME_BYTES).expect("frame");
        // A heap block stands in for the BAR: the doorbell store lands at
        // +0x3818 and reads back for the byte-identity check.
        let mmio = kernel.kmalloc(MMIO_BYTES).expect("mmio window");
        if traced {
            kernel.tracer().set_enabled(true);
        }
        let (ns_pkt, stats) = {
            let mut interp = Interp::new(&mut kernel).expect("interp");
            interp.set_engine(engine);
            let start = Instant::now();
            for p in 0..packets {
                // head == slot: clean_tx finds nothing to reclaim, the
                // hot path is header + descriptor + stats + doorbell.
                let slot = p & 255;
                interp
                    .call(
                        "mini-e1000e",
                        "xmit",
                        &[ring.raw(), frame.raw(), mmio.raw(), slot, LEN, slot],
                    )
                    .expect("xmit");
            }
            (
                start.elapsed().as_nanos() as f64 / packets as f64,
                interp.stats(),
            )
        };
        let mut ring_bytes = vec![0u8; RING_BYTES as usize];
        kernel.mem.read_bytes(ring, &mut ring_bytes).expect("ring");
        let mut frame_bytes = vec![0u8; FRAME_BYTES as usize];
        kernel
            .mem
            .read_bytes(frame, &mut frame_bytes)
            .expect("frame");
        let mut stats_glob = vec![0u8; STATS_BYTES];
        kernel
            .mem
            .read_bytes(stats_addr, &mut stats_glob)
            .expect("@stats");
        let tdt = kernel
            .mem
            .read_uint(kop_core::VAddr(mmio.raw() + TDT_OFF), Size(4))
            .expect("tdt");
        let (profiled, profiled_checks) = if traced {
            let t = kernel.tracer();
            (
                t.profile_snapshot()
                    .into_iter()
                    .map(|(meta, prof)| (meta.module.clone(), meta.label.clone(), prof.hits))
                    .collect(),
                t.total_checks(),
            )
        } else {
            (Vec::new(), 0)
        };
        RunOut {
            ns_pkt,
            stats,
            fused,
            ring: ring_bytes,
            frame: frame_bytes,
            stats_glob,
            tdt,
            profiled,
            profiled_checks,
        }
    };

    let carat = CompileOptions::carat_kop();
    let baseline = CompileOptions::baseline();

    // Timed passes: interleave all four configurations within each repeat
    // round and keep the fastest (minima are robust to scheduler noise).
    let mut best: [Option<RunOut>; 4] = [None, None, None, None];
    for _ in 0..repeats {
        for (i, (opts, engine)) in [
            (&carat, Engine::Tree),
            (&carat, Engine::Bytecode),
            (&baseline, Engine::Tree),
            (&baseline, Engine::Bytecode),
        ]
        .into_iter()
        .enumerate()
        {
            let r = run(opts, engine, packets, false);
            if best[i].as_ref().is_none_or(|b| r.ns_pkt < b.ns_pkt) {
                best[i] = Some(r);
            }
        }
    }
    let [gt, gb, bt, bb] = best.map(|o| o.expect("all configurations ran"));

    // Engine equivalence on the timed runs: the deterministic outputs of
    // the fastest passes must be identical per build flavour.
    assert_eq!(gt.stats, gb.stats, "guarded ExecStats must match");
    assert_eq!(bt.stats, bb.stats, "baseline ExecStats must match");
    for (a, b, what) in [(&gt, &gb, "guarded"), (&bt, &bb, "baseline")] {
        assert_eq!(a.ring, b.ring, "{what}: TX ring bytes");
        assert_eq!(a.frame, b.frame, "{what}: frame buffer bytes");
        assert_eq!(a.stats_glob, b.stats_glob, "{what}: @stats bytes");
        assert_eq!(a.tdt, b.tdt, "{what}: TDT doorbell cell");
    }
    assert_eq!(bt.stats.guards, 0, "baseline build executes no guards");
    assert!(gt.stats.guards > 0 && gt.stats.guards % packets == 0);
    let guards_per_packet = gt.stats.guards / packets;
    assert!(
        gb.fused > 0,
        "the guarded bytecode must contain fused guard-access superinstructions"
    );

    // Traced correctness pass (untimed, smaller): per-site attribution
    // must reconcile exactly across engines and with the guard counter.
    let tp = if quick() { 512 } else { 2_048 };
    let t_tree = run(&carat, Engine::Tree, tp, true);
    let t_vm = run(&carat, Engine::Bytecode, tp, true);
    assert_eq!(t_tree.stats, t_vm.stats, "traced ExecStats must match");
    assert_eq!(
        t_tree.profiled, t_vm.profiled,
        "per-site hit attribution must match exactly across engines"
    );
    assert!(!t_tree.profiled.is_empty(), "guard sites were profiled");
    for t in [&t_tree, &t_vm] {
        assert_eq!(
            t.profiled_checks, t.stats.guards,
            "per-site profile totals must reconcile with the interp guard counter"
        );
    }

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
            "bytecode lowered at insmod: {} fused guard-access superinstructions on the guarded build",
            gb.fused
        ),
    ];
    for (module, label, hits) in &t_tree.profiled {
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
            ("fused_superinstructions".into(), gb.fused as f64),
            ("profiled_checks".into(), t_tree.profiled_checks as f64),
            ("profiled_sites".into(), t_tree.profiled.len() as f64),
        ],
        notes,
    }
}

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
    use kop_e1000e::{DirectMem, E1000Device, GuardedMem};
    use kop_interp::{Engine, ExecStats, Interp};
    use kop_policy::GuardFront;
    use std::sync::Arc;

    let key = CompilerKey::from_passphrase("operator-key", "carat-kop-dev");
    let (packets, repeats) = if quick() {
        (2_000u64, 3)
    } else {
        (20_000u64, 7)
    };
    let profile_pkts = 256u64;
    // Timing asserts only in the standalone quick smoke run: under
    // `cargo test` sibling tests pollute the scheduler (and debug builds
    // distort the engine ratios); correctness is asserted everywhere.
    let assert_timing = quick();

    const RING_BYTES: u64 = 256 * 16;
    const FRAME_BYTES: u64 = 64;
    const MMIO_BYTES: u64 = 0x4000;
    const TDT_OFF: u64 = 0x3818;
    const STATS_BYTES: usize = 24;
    const LEN: u64 = 114;

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Mode {
        Baseline,
        General,
        Promoted,
    }

    struct RunOut {
        ns_pkt: f64,
        stats: ExecStats,
        promoted_ops: u64,
        inline_admits: u64,
        inline_deopts: u64,
        ring: Vec<u8>,
        frame: Vec<u8>,
        stats_glob: Vec<u8>,
        tdt: u64,
    }

    let run = |mode: Mode, packets: u64| -> RunOut {
        let opts = match mode {
            Mode::Baseline => CompileOptions::baseline(),
            _ => CompileOptions::carat_kop(),
        };
        let out =
            compile_module(corpus::parse(corpus::MINI_E1000E_IR), &opts, &key).expect("compiles");
        let mut kernel = Kernel::boot(
            setup::two_region_policy(),
            vec![key.clone()],
            KernelConfig::default(),
        );
        kernel.insmod(&out.signed).expect("loads");
        let image = Arc::clone(kernel.module("mini-e1000e").expect("loaded").image());
        let stats_addr = image
            .globals
            .get("stats")
            .copied()
            .expect("@stats laid out");
        let ring = kernel.kmalloc(RING_BYTES).expect("ring");
        let frame = kernel.kmalloc(FRAME_BYTES).expect("frame");
        let mmio = kernel.kmalloc(MMIO_BYTES).expect("mmio window");

        // Profile window — identical in every mode so the deterministic
        // outputs stay comparable. The tracer builds the per-site
        // envelopes promotion feeds on (a no-op for the baseline build,
        // which has no guard sites).
        kernel.tracer().set_enabled(true);
        {
            let mut interp = Interp::new(&mut kernel).expect("interp");
            interp.set_engine(Engine::Bytecode);
            for p in 0..profile_pkts {
                let slot = p & 255;
                interp
                    .call(
                        "mini-e1000e",
                        "xmit",
                        &[ring.raw(), frame.raw(), mmio.raw(), slot, LEN, slot],
                    )
                    .expect("profile xmit");
            }
        }
        kernel.tracer().set_enabled(false);

        let mut promoted_ops = 0u64;
        if mode == Mode::Promoted {
            promoted_ops = kernel
                .promote_hot("mini-e1000e", 1)
                .expect("promotion passes its own validation") as u64;
            assert!(promoted_ops > 0, "hot guard sites were promoted");
            assert_ne!(image.compiled.promoted_generation(), 0, "tier installed");
        }

        let engine = if mode == Mode::Promoted {
            Engine::Promoted
        } else {
            Engine::Bytecode
        };
        let (ns_pkt, stats, inline_admits, inline_deopts) = {
            let mut interp = Interp::new(&mut kernel).expect("interp");
            interp.set_engine(engine);
            let start = Instant::now();
            for p in 0..packets {
                let slot = p & 255;
                interp
                    .call(
                        "mini-e1000e",
                        "xmit",
                        &[ring.raw(), frame.raw(), mmio.raw(), slot, LEN, slot],
                    )
                    .expect("xmit");
            }
            (
                start.elapsed().as_nanos() as f64 / packets as f64,
                interp.stats(),
                interp.inline_admits(),
                interp.inline_deopts(),
            )
        };
        let mut ring_bytes = vec![0u8; RING_BYTES as usize];
        kernel.mem.read_bytes(ring, &mut ring_bytes).expect("ring");
        let mut frame_bytes = vec![0u8; FRAME_BYTES as usize];
        kernel
            .mem
            .read_bytes(frame, &mut frame_bytes)
            .expect("frame");
        let mut stats_glob = vec![0u8; STATS_BYTES];
        kernel
            .mem
            .read_bytes(stats_addr, &mut stats_glob)
            .expect("@stats");
        let tdt = kernel
            .mem
            .read_uint(kop_core::VAddr(mmio.raw() + TDT_OFF), Size(4))
            .expect("tdt");
        RunOut {
            ns_pkt,
            stats,
            promoted_ops,
            inline_admits,
            inline_deopts,
            ring: ring_bytes,
            frame: frame_bytes,
            stats_glob,
            tdt,
        }
    };

    // Timed passes: interleave the three configurations within each
    // repeat round and keep the fastest (minima are robust to noise).
    let mut best: [Option<RunOut>; 3] = [None, None, None];
    for _ in 0..repeats {
        for (i, mode) in [Mode::Baseline, Mode::General, Mode::Promoted]
            .into_iter()
            .enumerate()
        {
            let r = run(mode, packets);
            if best[i].as_ref().is_none_or(|b| r.ns_pkt < b.ns_pkt) {
                best[i] = Some(r);
            }
        }
    }
    let [base, general, promoted] = best.map(|o| o.expect("all configurations ran"));

    // Observable identity: the tier changed guard *mechanics*, never the
    // module's behaviour.
    assert_eq!(
        general.stats, promoted.stats,
        "general and promoted ExecStats must match"
    );
    assert_eq!(general.ring, promoted.ring, "TX ring bytes");
    assert_eq!(general.frame, promoted.frame, "frame buffer bytes");
    assert_eq!(general.stats_glob, promoted.stats_glob, "@stats bytes");
    assert_eq!(general.tdt, promoted.tdt, "TDT doorbell cell");
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
    struct TracedOut {
        stats: ExecStats,
        admits: u64,
        deopts: u64,
        checks: u64,
        inline: u64,
        sites: Vec<(String, u64)>,
    }
    let traced_pass = |engine: Engine| -> TracedOut {
        let tp = if quick() { 512 } else { 2_048 };
        let out = compile_module(
            corpus::parse(corpus::MINI_E1000E_IR),
            &CompileOptions::carat_kop(),
            &key,
        )
        .expect("compiles");
        let mut kernel = Kernel::boot(
            setup::two_region_policy(),
            vec![key.clone()],
            KernelConfig::default(),
        );
        kernel.insmod(&out.signed).expect("loads");
        let ring = kernel.kmalloc(RING_BYTES).expect("ring");
        let frame = kernel.kmalloc(FRAME_BYTES).expect("frame");
        let mmio = kernel.kmalloc(MMIO_BYTES).expect("mmio window");
        let xmit_n = |kernel: &mut Kernel, n: u64, engine: Engine| {
            let mut interp = Interp::new(kernel).expect("interp");
            interp.set_engine(engine);
            for p in 0..n {
                let slot = p & 255;
                interp
                    .call(
                        "mini-e1000e",
                        "xmit",
                        &[ring.raw(), frame.raw(), mmio.raw(), slot, LEN, slot],
                    )
                    .expect("traced xmit");
            }
            (
                interp.stats(),
                interp.inline_admits(),
                interp.inline_deopts(),
            )
        };
        kernel.tracer().set_enabled(true);
        xmit_n(&mut kernel, profile_pkts, Engine::Bytecode);
        kernel.tracer().set_enabled(false);
        assert!(kernel.promote_hot("mini-e1000e", 1).expect("promote") > 0);
        // The measured window's profile starts from zero.
        kernel.tracer().reset_profiles();
        kernel.tracer().set_enabled(true);
        let (stats, admits, deopts) = xmit_n(&mut kernel, tp, engine);
        let profile = kernel.tracer().profile_snapshot();
        TracedOut {
            stats,
            admits,
            deopts,
            checks: kernel.tracer().total_checks(),
            inline: profile.iter().map(|(_, p)| p.inline).sum(),
            sites: profile
                .into_iter()
                .map(|(m, p)| (m.label, p.hits))
                .collect(),
        }
    };
    let (traced_checks, traced_guards, traced_admits) = {
        let general = traced_pass(Engine::Bytecode);
        let promoted = traced_pass(Engine::Promoted);
        assert_eq!(promoted.stats, general.stats, "traced ExecStats must match");
        assert_eq!(
            promoted.admits, promoted.stats.guards,
            "with tracing on, every guard is still answered by the inline tier"
        );
        assert_eq!(promoted.deopts, 0, "tracing causes no deopts");
        for t in [&general, &promoted] {
            assert_eq!(
                t.checks, t.stats.guards,
                "per-site profile totals must reconcile with the guard counter"
            );
        }
        assert_eq!(
            promoted.inline, promoted.admits,
            "every inline admit profiled as inline"
        );
        assert_eq!(general.inline, 0);
        assert_eq!(
            promoted.sites, general.sites,
            "per-site hits equal a traced general-bytecode pass over the same packets"
        );
        (promoted.checks, promoted.stats.guards, promoted.admits)
    };

    // Invalidation and lazy re-promotion: a policy publish drops the
    // tier wholesale (zero stale admits by construction — the promoted
    // dispatch deopts to the general bytecode), and the next promotion
    // re-bakes at the new generation.
    let bump_generation_delta = {
        let out = compile_module(
            corpus::parse(corpus::MINI_E1000E_IR),
            &CompileOptions::carat_kop(),
            &key,
        )
        .expect("compiles");
        let policy = setup::two_region_policy();
        let mut kernel = Kernel::boot(
            Arc::clone(&policy),
            vec![key.clone()],
            KernelConfig {
                // The sweep threshold `tick()` uses — one hit qualifies,
                // so the standing profile re-promotes after the bump.
                hot_threshold: 1,
                ..KernelConfig::default()
            },
        );
        kernel.insmod(&out.signed).expect("loads");
        let image = Arc::clone(kernel.module("mini-e1000e").expect("loaded").image());
        let compiled = &image.compiled;
        let ring = kernel.kmalloc(RING_BYTES).expect("ring");
        let frame = kernel.kmalloc(FRAME_BYTES).expect("frame");
        let mmio = kernel.kmalloc(MMIO_BYTES).expect("mmio window");
        let xmit_n = |kernel: &mut Kernel, n: u64, engine: Engine| -> (ExecStats, u64, u64) {
            let mut interp = Interp::new(kernel).expect("interp");
            interp.set_engine(engine);
            for p in 0..n {
                let slot = p & 255;
                interp
                    .call(
                        "mini-e1000e",
                        "xmit",
                        &[ring.raw(), frame.raw(), mmio.raw(), slot, LEN, slot],
                    )
                    .expect("xmit");
            }
            (
                interp.stats(),
                interp.inline_admits(),
                interp.inline_deopts(),
            )
        };
        kernel.tracer().set_enabled(true);
        xmit_n(&mut kernel, profile_pkts, Engine::Bytecode);
        kernel.tracer().set_enabled(false);
        assert!(kernel.promote_hot("mini-e1000e", 1).expect("promote") > 0);
        let gen1 = compiled.promoted_generation();
        assert_eq!(gen1, policy.store_generation(), "tier is current");
        let (s1, a1, d1) = xmit_n(&mut kernel, 64, Engine::Promoted);
        assert_eq!(a1, s1.guards);
        assert_eq!(d1, 0);

        // The publish: the generation subscription drops the tier on the
        // publishing thread, before bump_epoch returns.
        policy.bump_epoch();
        assert_eq!(
            compiled.promoted_generation(),
            0,
            "a policy publish drops the promoted tier wholesale"
        );
        let (s2, a2, d2) = xmit_n(&mut kernel, 64, Engine::Promoted);
        assert_eq!(a2, 0, "zero stale admits after the epoch bump");
        assert_eq!(d2, 0, "tier dropped before any op could even deopt");
        assert_eq!(s2.guards, s1.guards, "general path answered everything");

        // Lazy re-promotion: the accumulated profile still qualifies, so
        // the next sweep re-bakes against the *new* snapshot.
        assert!(kernel.tick() > 0, "re-promotion from the standing profile");
        let gen2 = compiled.promoted_generation();
        assert_eq!(gen2, policy.store_generation());
        assert!(gen2 > gen1);
        let (s3, a3, d3) = xmit_n(&mut kernel, 64, Engine::Promoted);
        assert_eq!(a3, s3.guards, "inline admits resume at the new generation");
        assert_eq!(d3, 0);
        gen2 - gen1
    };

    // ---- The native forwarding datapath: a per-queue GuardFront in ----
    // front of the shared policy module.
    let (fwd_offered, fwd_repeats, fwd_flows, fwd_budget) = if quick() {
        (600u64, 2usize, 256usize, 64u64)
    } else {
        (4_000, 4, 512, 64)
    };
    let fwd_seed = 7_300u64;

    // The forwarding comparison runs a 32-region table policy — the
    // per-allocation shape a CARAT-tracked kernel actually carries, with
    // the driver's grants at the worst-case scan position (as in the
    // Figure 5 sweep). General and front runs share the same policy; the
    // front's filled bounds are what make its cost independent of table
    // size.
    let pm = setup::n_region_policy(32);
    // One untimed guarded pass first, so the first timed configuration
    // does not pay the cold start alone.
    forward_once(
        GuardedMem::new(
            DirectMem::with_defaults(E1000Device::default()),
            Arc::clone(&pm),
        ),
        fwd_seed,
        fwd_flows,
        fwd_offered,
        fwd_budget,
    );
    let mut fwd_base_best = f64::MAX;
    let mut fwd_general_best = f64::MAX;
    let mut fwd_front_best = f64::MAX;
    let mut fwd_guard_calls = 0u64;
    let mut fwd_admits = 0u64;
    for _ in 0..fwd_repeats {
        let (rate_b, rep_b, _) = forward_once(
            DirectMem::with_defaults(E1000Device::default()),
            fwd_seed,
            fwd_flows,
            fwd_offered,
            fwd_budget,
        );
        let checks0 = pm.stats().checks;
        let (rate_g, rep_g, general_counts) = forward_once(
            GuardedMem::new(
                DirectMem::with_defaults(E1000Device::default()),
                Arc::clone(&pm),
            ),
            fwd_seed,
            fwd_flows,
            fwd_offered,
            fwd_budget,
        );
        let checks1 = pm.stats().checks;
        let front = GuardFront::new(Arc::clone(&pm), default_site_map());
        let (rate_f, rep_f, front_counts) = forward_once(
            GuardedMem::new(DirectMem::with_defaults(E1000Device::default()), front),
            fwd_seed,
            fwd_flows,
            fwd_offered,
            fwd_budget,
        );
        let checks2 = pm.stats().checks;

        assert_eq!(
            rep_b, rep_g,
            "general forwarding is behaviourally identical"
        );
        assert_eq!(rep_b, rep_f, "front forwarding is behaviourally identical");
        let guard_calls = general_counts.guard_calls;
        assert_eq!(
            front_counts.guard_calls, guard_calls,
            "same guard count either way"
        );
        // One rule for both: every guard reached the policy's books.
        assert_eq!(
            checks1 - checks0,
            guard_calls,
            "general: policy.checks == guard calls"
        );
        assert_eq!(
            checks2 - checks1,
            guard_calls,
            "front: policy.checks == guard calls"
        );
        let admits = front_counts.inline_admits;
        assert!(
            admits > guard_calls - admits,
            "the front answers most forwarding guards from a slot ({admits} of {guard_calls})"
        );
        fwd_guard_calls = guard_calls;
        fwd_admits = admits;
        // Keep the *fastest* pass per configuration, as ns per frame.
        fwd_base_best = fwd_base_best.min(1e9 / rate_b.max(1e-9));
        fwd_general_best = fwd_general_best.min(1e9 / rate_g.max(1e-9));
        fwd_front_best = fwd_front_best.min(1e9 / rate_f.max(1e-9));
    }
    let fwd_general_over = (fwd_general_best - fwd_base_best).max(0.0);
    let fwd_front_over = (fwd_front_best - fwd_base_best).max(0.0);
    if assert_timing {
        assert!(
            fwd_front_over <= fwd_general_over / 2.0,
            "the front must at least halve the forwarding guard overhead \
             (baseline {fwd_base_best:.1} ns/frame, general {fwd_general_best:.1}, \
              front {fwd_front_best:.1}: overhead {fwd_general_over:.1} -> {fwd_front_over:.1})"
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
                    (0.0, fwd_base_best),
                    (1.0, fwd_general_best),
                    (2.0, fwd_front_best),
                ],
            },
        ],
        headlines: vec![
            ("vm_baseline_ns_pkt".into(), base.ns_pkt),
            ("vm_general_ns_pkt".into(), general.ns_pkt),
            ("vm_promoted_ns_pkt".into(), promoted.ns_pkt),
            ("vm_overhead_reduction".into(), vm_reduction),
            ("vm_promoted_ops".into(), promoted.promoted_ops as f64),
            ("vm_inline_admits".into(), promoted.inline_admits as f64),
            ("vm_inline_deopts".into(), promoted.inline_deopts as f64),
            ("vm_guards_per_packet".into(), guards_per_packet as f64),
            ("vm_traced_checks".into(), traced_checks as f64),
            ("vm_traced_inline_admits".into(), traced_admits as f64),
            ("bump_generation_delta".into(), bump_generation_delta as f64),
            ("fwd_baseline_ns_frame".into(), fwd_base_best),
            ("fwd_general_ns_frame".into(), fwd_general_best),
            ("fwd_front_ns_frame".into(), fwd_front_best),
            ("fwd_overhead_reduction".into(), fwd_reduction),
            ("fwd_inline_admits".into(), fwd_admits as f64),
            ("fwd_guard_calls".into(), fwd_guard_calls as f64),
        ],
        notes,
    }
}

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
    use kop_interp::{Engine, ExecStats, Interp};

    let key = CompilerKey::from_passphrase("operator-key", "carat-kop-dev");
    let (packets, repeats) = if quick() {
        (2_000u64, 3)
    } else {
        (20_000u64, 7)
    };

    const RING_BYTES: u64 = 256 * 16;
    const FRAME_BYTES: u64 = 64;
    const MMIO_BYTES: u64 = 0x4000;
    const TDT_OFF: u64 = 0x3818;
    const STATS_BYTES: usize = 24;
    const LEN: u64 = 114;

    struct RunOut {
        ns_pkt: f64,
        stats: ExecStats,
        static_guards: u64,
        ring: Vec<u8>,
        frame: Vec<u8>,
        stats_glob: Vec<u8>,
        tdt: u64,
        profiled: Vec<(String, String, u64)>,
        profiled_checks: u64,
    }

    let run = |opts: &CompileOptions, engine: Engine, packets: u64, traced: bool| -> RunOut {
        let module = corpus::parse(corpus::MINI_E1000E_IR);
        let out = compile_module(module, opts, &key).expect("compiles");
        let static_guards = out.signed.attestation.guard_count;
        let policy = setup::two_region_policy();
        // Static verification mode: insmod replays the attested
        // obligation ledger through the independent validator, exactly
        // the audit the signer ran.
        let mut kernel = Kernel::boot(
            policy,
            vec![key.clone()],
            KernelConfig {
                verification: kop_kernel::Verification::SignatureAndStatic,
                ..KernelConfig::default()
            },
        );
        kernel.insmod(&out.signed).expect("loads");
        let image = std::sync::Arc::clone(kernel.module("mini-e1000e").expect("loaded").image());
        let stats_addr = image
            .globals
            .get("stats")
            .copied()
            .expect("@stats laid out");
        let ring = kernel.kmalloc(RING_BYTES).expect("ring");
        let frame = kernel.kmalloc(FRAME_BYTES).expect("frame");
        let mmio = kernel.kmalloc(MMIO_BYTES).expect("mmio window");
        if traced {
            kernel.tracer().set_enabled(true);
        }
        let (ns_pkt, stats) = {
            let mut interp = Interp::new(&mut kernel).expect("interp");
            interp.set_engine(engine);
            let start = Instant::now();
            for p in 0..packets {
                let slot = p & 255;
                interp
                    .call(
                        "mini-e1000e",
                        "xmit",
                        &[ring.raw(), frame.raw(), mmio.raw(), slot, LEN, slot],
                    )
                    .expect("xmit");
            }
            (
                start.elapsed().as_nanos() as f64 / packets as f64,
                interp.stats(),
            )
        };
        let mut ring_bytes = vec![0u8; RING_BYTES as usize];
        kernel.mem.read_bytes(ring, &mut ring_bytes).expect("ring");
        let mut frame_bytes = vec![0u8; FRAME_BYTES as usize];
        kernel
            .mem
            .read_bytes(frame, &mut frame_bytes)
            .expect("frame");
        let mut stats_glob = vec![0u8; STATS_BYTES];
        kernel
            .mem
            .read_bytes(stats_addr, &mut stats_glob)
            .expect("@stats");
        let tdt = kernel
            .mem
            .read_uint(kop_core::VAddr(mmio.raw() + TDT_OFF), Size(4))
            .expect("tdt");
        let (profiled, profiled_checks) = if traced {
            let t = kernel.tracer();
            (
                t.profile_snapshot()
                    .into_iter()
                    .map(|(meta, prof)| (meta.module.clone(), meta.label.clone(), prof.hits))
                    .collect(),
                t.total_checks(),
            )
        } else {
            (Vec::new(), 0)
        };
        RunOut {
            ns_pkt,
            stats,
            static_guards,
            ring: ring_bytes,
            frame: frame_bytes,
            stats_glob,
            tdt,
            profiled,
            profiled_checks,
        }
    };

    let unopt = CompileOptions::carat_kop();
    let opt = CompileOptions::optimized();

    // Timed passes, interleaved per repeat round; keep the fastest.
    let mut best: [Option<RunOut>; 4] = [None, None, None, None];
    for _ in 0..repeats {
        for (i, (opts, engine)) in [
            (&unopt, Engine::Tree),
            (&unopt, Engine::Bytecode),
            (&opt, Engine::Tree),
            (&opt, Engine::Bytecode),
        ]
        .into_iter()
        .enumerate()
        {
            let r = run(opts, engine, packets, false);
            if best[i].as_ref().is_none_or(|b| r.ns_pkt < b.ns_pkt) {
                best[i] = Some(r);
            }
        }
    }
    let [ut, ub, ot, ob] = best.map(|o| o.expect("all configurations ran"));

    // Engine equivalence within each build flavour.
    assert_eq!(ut.stats, ub.stats, "unoptimized ExecStats must match");
    assert_eq!(ot.stats, ob.stats, "optimized ExecStats must match");
    // Byte identity across ALL four configurations: optimization must not
    // change what the driver writes, only how often it checks.
    for (r, what) in [
        (&ub, "unopt/bytecode"),
        (&ot, "opt/tree"),
        (&ob, "opt/bytecode"),
    ] {
        assert_eq!(ut.ring, r.ring, "{what}: TX ring bytes");
        assert_eq!(ut.frame, r.frame, "{what}: frame buffer bytes");
        assert_eq!(ut.stats_glob, r.stats_glob, "{what}: @stats bytes");
        assert_eq!(ut.tdt, r.tdt, "{what}: TDT doorbell cell");
    }
    // The point of the tier: strictly fewer guards, statically and
    // dynamically, with per-packet granularity.
    assert!(
        ot.static_guards < ut.static_guards,
        "optimization must reduce static guard sites ({} vs {})",
        ot.static_guards,
        ut.static_guards
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
        let t_tree = run(opts, Engine::Tree, tp, true);
        let t_vm = run(opts, Engine::Bytecode, tp, true);
        assert_eq!(t_tree.stats, t_vm.stats, "traced ExecStats must match");
        assert_eq!(
            t_tree.profiled, t_vm.profiled,
            "per-site hit attribution must match exactly across engines"
        );
        assert!(!t_tree.profiled.is_empty(), "guard sites were profiled");
        for t in [&t_tree, &t_vm] {
            assert_eq!(
                t.profiled_checks, t.stats.guards,
                "per-site profile totals must reconcile with the interp guard counter"
            );
        }
    }

    // The counted-loop half of the tier, on the loop-heavy workload: the
    // per-iteration element guards collapse to one range guard per entry.
    let (wl_unopt, wl_opt, wl_r) = {
        let module = corpus::parse(corpus::OPT_WORKLOAD_IR);
        let mut dyn_guards = [0u64; 2];
        let mut results = [0u64; 2];
        for (i, opts) in [&unopt, &opt].into_iter().enumerate() {
            let out = compile_module(module.clone(), opts, &key).expect("compiles");
            let policy = std::sync::Arc::new(PolicyModule::new());
            policy.set_default_action(DefaultAction::Allow);
            let mut kernel = Kernel::boot(policy, vec![key.clone()], KernelConfig::default());
            kernel.insmod(&out.signed).expect("loads");
            let buf = kernel.kmalloc(4096).expect("buf");
            let mut interp = Interp::new(&mut kernel).expect("interp");
            results[i] = interp
                .call("opt-workload", "run", &[buf.raw(), 256])
                .expect("runs")
                .expect("returns");
            dyn_guards[i] = interp.stats().guards;
        }
        assert_eq!(results[0], results[1], "optimization preserves semantics");
        assert!(
            dyn_guards[1] < dyn_guards[0],
            "range coalescing must cut the loop workload's dynamic guards"
        );
        (dyn_guards[0], dyn_guards[1], results[0])
    };

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
            ("static_guards_unopt".into(), ut.static_guards as f64),
            ("static_guards_opt".into(), ot.static_guards as f64),
            ("tree_unopt_ns_pkt".into(), ut.ns_pkt),
            ("bytecode_unopt_ns_pkt".into(), ub.ns_pkt),
            ("tree_opt_ns_pkt".into(), ot.ns_pkt),
            ("bytecode_opt_ns_pkt".into(), ob.ns_pkt),
            ("workload_dynamic_guards_unopt".into(), wl_unopt as f64),
            ("workload_dynamic_guards_opt".into(), wl_opt as f64),
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

/// The SMP guard-path figure (`reproduce smp`): guarded check rate and
/// multi-queue TX throughput vs thread count, for the mutex baseline
/// (one lock around every check, [`baseline::LockedPolicy`]), the
/// lock-free snapshot path, and snapshot + per-thread
/// [`kop_policy::GuardFront`] — plus a writer-churn phase proving revoked
/// grants are never admitted (DESIGN §3.13).
///
/// Three claims, asserted in CI quick mode on a multi-core runner:
/// (a) snapshot+front check throughput scales ≥3x from 1 to 4 threads
/// while the mutex path stays ≤1.5x; (b) single-thread ns/check for
/// snapshot+front is no worse than the mutex path; (c) a revoke/grant
/// storm never admits a stale access (asserted at every scale, every
/// run). On every MQ run `policy.checks` equals the drivers' guard
/// calls exactly, and the front answers most of them from a slot.
pub fn smp() -> FigureData {
    use kop_policy::{GuardFront, PolicyCheck, SiteMap};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AO};
    use std::sync::{Arc, Barrier};

    let threads: &[usize] = if quick() { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let (iters, repeats, mq_frames) = if quick() {
        (60_000u64, 3usize, 200u64)
    } else {
        (250_000u64, 5usize, 1_500u64)
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Timing asserts only when this process is the standalone quick smoke
    // run on a multi-core host: under `cargo test` (paper scale) sibling
    // tests pollute the scheduler and scaling ratios are meaningless.
    let assert_timing = quick() && cores >= 4;

    #[derive(Clone, Copy, PartialEq)]
    enum Path {
        Mutex,
        Snapshot,
        SnapshotFront,
    }

    // One check-rate measurement: n threads hammer one shared policy
    // with permitted kernel-half accesses; returns aggregate checks/sec
    // (best of `repeats`, min-time discipline).
    let check_rate = |path: Path, n: usize| -> f64 {
        let mut best = 0.0f64;
        for _ in 0..repeats {
            let pm = setup::two_region_policy();
            let locked = baseline::LockedPolicy::new(std::sync::Arc::clone(&pm));
            let barrier = Barrier::new(n);
            let base = kop_core::layout::DIRECT_MAP_BASE;
            let worst_ns = std::thread::scope(|s| {
                let handles: Vec<_> = (0..n)
                    .map(|t| {
                        let pm = std::sync::Arc::clone(&pm);
                        let locked = locked.clone();
                        let barrier = &barrier;
                        s.spawn(move || {
                            // One site: the leg times the slot check itself.
                            let front = GuardFront::new(Arc::clone(&pm), SiteMap::new(0));
                            barrier.wait();
                            let t0 = Instant::now();
                            for i in 0..iters {
                                let addr = VAddr(base + ((i ^ t as u64) % 512) * 8);
                                let r = match path {
                                    Path::SnapshotFront => {
                                        front.carat_guard(addr, Size(8), AccessFlags::RW)
                                    }
                                    Path::Snapshot => pm.check(addr, Size(8), AccessFlags::RW),
                                    Path::Mutex => {
                                        locked.carat_guard(addr, Size(8), AccessFlags::RW)
                                    }
                                };
                                debug_assert!(r.is_ok());
                                std::hint::black_box(&r);
                            }
                            t0.elapsed().as_nanos() as u64
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("rate worker"))
                    .max()
                    .unwrap_or(1)
            });
            let rate = (iters as f64 * n as f64) / (worst_ns as f64 / 1e9);
            best = best.max(rate);
        }
        best
    };

    let mut series = Vec::new();
    let mut rate_1t = std::collections::HashMap::new();
    let mut rate_4t = std::collections::HashMap::new();
    for (label, path) in [
        ("checkrate_mutex", Path::Mutex),
        ("checkrate_snapshot", Path::Snapshot),
        ("checkrate_snapshot_front", Path::SnapshotFront),
    ] {
        let points: Vec<(f64, f64)> = threads
            .iter()
            .map(|&n| {
                let r = check_rate(path, n);
                if n == 1 {
                    rate_1t.insert(label, r);
                }
                if n == 4 {
                    rate_4t.insert(label, r);
                }
                (n as f64, r / 1e6) // Mchecks/s
            })
            .collect();
        series.push(Series {
            label: label.into(),
            points,
        });
    }

    // Single-thread ns/check from the measured rates.
    let ns_per_check = |label: &str| 1e9 / rate_1t.get(label).copied().unwrap_or(1.0);
    let mutex_ns = ns_per_check("checkrate_mutex");
    let snapshot_ns = ns_per_check("checkrate_snapshot");
    let front_ns = ns_per_check("checkrate_snapshot_front");

    // Multi-queue TX throughput: N queues, each its own driver + ring,
    // sharing one policy. Either way the shared policy's checks reconcile
    // exactly with the drivers' guard calls.
    let mut mq_guard_calls = 0u64;
    let mut mq_policy_checks = 0u64;
    let mut front_admits = 0u64;
    for (label, use_front) in [("mq_tx_mutex", false), ("mq_tx_snapshot_front", true)] {
        let mut points = Vec::new();
        for &n in threads {
            let mut best = 0.0f64;
            for _ in 0..repeats.min(3) {
                let pm = setup::two_region_policy();
                let report = if use_front {
                    let map = default_site_map();
                    kop_e1000e::run_mq_tx(n, mq_frames, 64, |_q| {
                        GuardFront::new(Arc::clone(&pm), map.clone())
                    })
                } else {
                    let locked = baseline::LockedPolicy::new(Arc::clone(&pm));
                    kop_e1000e::run_mq_tx(n, mq_frames, 64, |_q| locked.clone())
                }
                .expect("mq tx run");
                assert_eq!(
                    report.delivered(),
                    mq_frames * n as u64,
                    "every queue must deliver every frame"
                );
                assert_eq!(
                    pm.stats().checks,
                    report.guard_calls(),
                    "policy.checks must reconcile exactly with guard calls"
                );
                if use_front {
                    let admits = report.inline_admits();
                    assert!(
                        admits > report.guard_calls() - admits,
                        "the front must answer most guards from a slot ({admits} of {})",
                        report.guard_calls()
                    );
                    mq_guard_calls = report.guard_calls();
                    mq_policy_checks = pm.stats().checks;
                    front_admits = admits;
                }
                best = best.max(report.frames_per_sec());
            }
            points.push((n as f64, best));
        }
        series.push(Series {
            label: label.into(),
            points,
        });
    }

    // Writer-churn phase: revoke/grant storm with an odd/even settle
    // counter; an allowed check observed strictly inside a revoked
    // window is a stale admit. Asserted zero at every scale.
    let churns = if quick() { 1_000u64 } else { 5_000 };
    let stale_admits;
    let churn_publishes;
    {
        let pm = Arc::new(PolicyModule::new()); // default deny
        let before_publishes = pm.snapshot_publishes();
        let state = AtomicU64::new(1);
        let stop = AtomicBool::new(false);
        let grant =
            Region::new(VAddr(0x1000), Size(0x1000), Protection::READ_WRITE).expect("grant region");
        let readers = 3usize;
        let guards;
        (stale_admits, guards) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..readers)
                .map(|_| {
                    let pm = &pm;
                    let state = &state;
                    let stop = &stop;
                    s.spawn(move || {
                        let front = GuardFront::new(Arc::clone(pm), SiteMap::new(0));
                        let (mut stale, mut guards) = (0u64, 0u64);
                        while !stop.load(AO::SeqCst) {
                            let s1 = state.load(AO::SeqCst);
                            let ok = front
                                .carat_guard(VAddr(0x1800), Size(8), AccessFlags::RW)
                                .is_ok();
                            let s2 = state.load(AO::SeqCst);
                            if ok && s1 == s2 && s1 % 2 == 1 {
                                stale += 1;
                            }
                            guards += 1;
                        }
                        (stale, guards)
                    })
                })
                .collect();
            for k in 0..churns {
                state.store(2 * k + 2, AO::SeqCst);
                pm.add_region(grant).expect("grant");
                pm.remove_region(grant.base).expect("revoke");
                state.store(2 * k + 3, AO::SeqCst);
            }
            stop.store(true, AO::SeqCst);
            handles
                .into_iter()
                .map(|h| h.join().expect("reader"))
                .fold((0, 0), |(s, g), (s1, g1)| (s + s1, g + g1))
        });
        assert_eq!(
            pm.stats().checks,
            guards,
            "churn readers: policy.checks == guard calls"
        );
        churn_publishes = pm.snapshot_publishes() - before_publishes;
        assert_eq!(
            stale_admits, 0,
            "a revoked grant must never be admitted after the revoke returns"
        );
        assert_eq!(churn_publishes, 2 * churns, "one publish per table write");
    }

    // Timing claims — only meaningful on a quiet multi-core host.
    let scaling = |label: &str| -> f64 {
        match (rate_1t.get(label), rate_4t.get(label)) {
            (Some(&r1), Some(&r4)) if r1 > 0.0 => r4 / r1,
            _ => f64::NAN,
        }
    };
    let front_scaling = scaling("checkrate_snapshot_front");
    let mutex_scaling = scaling("checkrate_mutex");
    if assert_timing {
        assert!(
            front_scaling >= 3.0,
            "snapshot+front must scale >=3x from 1 to 4 threads (got {front_scaling:.2}x)"
        );
        assert!(
            mutex_scaling <= 1.5,
            "mutex path must not scale past 1.5x (got {mutex_scaling:.2}x)"
        );
        assert!(
            front_ns <= mutex_ns * 1.10,
            "single-thread snapshot+front ns/check ({front_ns:.1}) must be no worse than mutex ({mutex_ns:.1})"
        );
    }

    let notes = vec![
        "checkrate_*: N threads hammer one shared PolicyModule with permitted accesses (Mchecks/s, best of repeats)".into(),
        "mutex path serializes every guard on one lock around PolicyModule::check (the pre-snapshot baseline); snapshot path is lock-free RCU-style; +front adds a per-thread GuardFront (one self-filling slot per site)".into(),
        "mq_tx_*: N TX queues, each a full driver over its own ring, sharing only the policy (frames/s)".into(),
        format!(
            "writer churn: {churns} grant/revoke pairs against {} concurrent front readers -> 0 stale admits (asserted)",
            3
        ),
        format!(
            "reconciliation: policy.checks {mq_policy_checks} == {mq_guard_calls} guard calls (asserted exact), {front_admits} answered from a slot"
        ),
        if assert_timing {
            format!("scaling asserted on this host ({cores} cores): snapshot+front >=3x @4t, mutex <=1.5x @4t, 1t parity")
        } else {
            format!("timing asserts skipped (quick={}, cores={cores}): shapes reported, correctness still asserted", quick())
        },
    ];

    FigureData {
        id: "smp",
        title: "SMP guard path: check rate & multi-queue TX vs threads (mutex vs snapshot vs snapshot+front)"
            .into(),
        axes: ("threads", "Mchecks/s | frames/s"),
        series,
        headlines: vec![
            ("mutex_ns_check_1t".into(), mutex_ns),
            ("snapshot_ns_check_1t".into(), snapshot_ns),
            ("snapshot_front_ns_check_1t".into(), front_ns),
            ("snapshot_front_scaling_1_to_4".into(), front_scaling),
            ("mutex_scaling_1_to_4".into(), mutex_scaling),
            ("stale_admits".into(), stale_admits as f64),
            ("churn_publishes".into(), churn_publishes as f64),
            ("front_inline_admits".into(), front_admits as f64),
            ("mq_policy_checks".into(), mq_policy_checks as f64),
            ("mq_guard_calls".into(), mq_guard_calls as f64),
        ],
        notes,
    }
}

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

    let key = CompilerKey::from_passphrase("operator-key", "carat-kop-dev");
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
    generation_delta: u64,
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

    let key = CompilerKey::from_passphrase("operator-key", "carat-kop-dev");
    let policy = Arc::new(PolicyModule::two_region_paper_policy());
    policy.set_violation_action(ViolationAction::Quarantine);
    let mut kernel = Kernel::boot(Arc::clone(&policy), vec![key], KernelConfig::default());
    kernel.tracer().set_enabled(true);
    kernel.insmod(signed).expect("insmod v1");

    let ledger = Arc::new(Mutex::new(kop_net::LedgerSink::new()));

    // v1's NIC: TX DMA permanently hung, backlog queued and undelivered.
    let hung = kop_faultline::FaultyMem::new(
        kop_e1000e::GuardedMem::new(
            kop_e1000e::DirectMem::with_defaults(kop_e1000e::E1000Device::default()),
            Arc::clone(&policy),
        ),
        FaultPlan::new(9_001).with_tx_hang(Trigger::Window {
            start: 1,
            len: u64::MAX / 2,
        }),
    );
    let mut v1_drv = E1000Driver::probe(hung).expect("probe v1");
    v1_drv.up().expect("up v1");
    for seq in 0..BACKLOG {
        v1_drv.xmit_raw(&seq_frame(seq)).expect("queue backlog");
    }
    assert_eq!(v1_drv.tx_pending(), BACKLOG);
    let mut port = DriverDrain {
        drv: v1_drv,
        sink: SharedLedger(Arc::clone(&ledger)),
    };

    let gen_before = policy.store_generation();
    let swap_gen = AtomicU64::new(u64::MAX);
    let stale = AtomicU64::new(0);

    let report = std::thread::scope(|s| {
        for q in 0..queues {
            let policy = Arc::clone(&policy);
            let mut ledger = SharedLedger(Arc::clone(&ledger));
            let swap_gen = &swap_gen;
            let stale = &stale;
            s.spawn(move || {
                let mem = kop_e1000e::GuardedMem::new(
                    kop_e1000e::DirectMem::with_defaults(kop_e1000e::E1000Device::default()),
                    Arc::clone(&policy),
                );
                let mut drv = E1000Driver::probe(mem).expect("probe queue");
                drv.up().expect("up queue");
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
    let mem = kop_e1000e::GuardedMem::new(
        kop_e1000e::DirectMem::with_defaults(kop_e1000e::E1000Device::default()),
        Arc::clone(&policy),
    );
    let mut v2_drv = E1000Driver::probe(mem).expect("probe v2");
    v2_drv.up().expect("up v2");
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
        generation_delta: report.generation - gen_before,
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
/// (see [`soak_upgrade`]). Every correctness claim is asserted on every
/// run; the figure reports the numbers.
pub fn soak() -> FigureData {
    let (rates, rounds, fleet): (&[f64], u64, usize) = if quick() {
        (&[0.0, 0.05], 120, 2)
    } else {
        (&[0.0, 0.02, 0.05], 400, 3)
    };
    let max_rate = *rates.last().expect("nonempty rates");

    let key = CompilerKey::from_passphrase("operator-key", "carat-kop-dev");
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
    headlines.push((
        "upgrade_generation_delta".into(),
        up.generation_delta as f64,
    ));
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

/// One timed forwarding pass over a fresh driver: offered frames from a
/// seeded [`kop_net::FlowGen`] are injected into the RX DMA engine,
/// NAPI-polled, rewritten, and transmitted back out into a ledger. Every
/// pass is fully audited — the forwarding rate is only reported if the
/// ledger proves zero loss (beyond counted wire drops), zero duplication,
/// and zero reordering.
/// The driver's guard-site map over the arena and MMIO window
/// `DirectMem::with_defaults` lays out.
fn default_site_map() -> kop_policy::SiteMap {
    kop_e1000e::driver_site_map(
        kop_core::layout::DIRECT_MAP_BASE,
        kop_core::layout::MMIO_WINDOW_BASE,
    )
}

fn forward_once<M: MemSpace>(
    mem: M,
    seed: u64,
    flows: usize,
    offered: u64,
    budget: u64,
) -> (f64, kop_net::ForwardReport, kop_e1000e::AccessCounts) {
    let mut drv = E1000Driver::probe(mem).expect("probe");
    drv.up().expect("up");
    let mut gen = kop_net::FlowGen::new(seed, flows);
    let mut ledger = kop_net::LedgerSink::new();
    let t0 = Instant::now();
    let rep = kop_net::run_forward(&mut drv, &mut gen, &mut ledger, offered, budget)
        .expect("forwarding run");
    let dt = t0.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(
        rep.forwarded, rep.accepted,
        "every accepted frame forwarded"
    );
    assert_eq!(rep.unparseable, 0);
    assert_eq!(ledger.frames, rep.forwarded);
    assert_eq!(ledger.duplicates, 0, "zero duplicated frames");
    assert_eq!(ledger.unsequenced, 0);
    assert_eq!(
        ledger.missing(rep.offered).len() as u64,
        rep.wire_dropped,
        "every missing sequence accounted for by a counted wire drop"
    );
    (rep.forwarded as f64 / dt, rep, drv.counts())
}

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
    use kop_e1000e::{DirectMem, E1000Device, GuardedMem};
    use kop_interp::{Engine, ExecStats, Interp};
    use std::sync::atomic::{AtomicU64, Ordering as AO};
    use std::sync::Arc;

    let (loads, repeats, flows, budget): (&[u64], usize, usize, u64) = if quick() {
        (&[300, 600], 2, 256, 64)
    } else {
        (&[1_000, 2_000, 4_000, 8_000], 4, 512, 64)
    };

    let mut headlines = Vec::new();
    let mut notes = Vec::new();

    // ---- Offered-load sweep: guarded vs baseline forwarding rate. ----
    // Same seed per load point, min-of-repeats wall clock; the reports
    // themselves must be identical (the guards change timing, never
    // behaviour).
    let mut base_pts = Vec::new();
    let mut guard_pts = Vec::new();
    for (i, &offered) in loads.iter().enumerate() {
        let seed = 4_100 + i as u64 * 17;
        let mut base_best = 0f64;
        let mut guard_best = 0f64;
        for _ in 0..repeats {
            let (rate_b, rep_b, _) = forward_once(
                DirectMem::with_defaults(E1000Device::default()),
                seed,
                flows,
                offered,
                budget,
            );
            let (rate_g, rep_g, counts) = forward_once(
                GuardedMem::new(
                    DirectMem::with_defaults(E1000Device::default()),
                    setup::two_region_policy(),
                ),
                seed,
                flows,
                offered,
                budget,
            );
            assert_eq!(
                rep_b, rep_g,
                "baseline and guarded forwarding must be behaviourally identical"
            );
            assert!(counts.guard_calls > 0);
            base_best = base_best.max(rate_b);
            guard_best = guard_best.max(rate_g);
        }
        base_pts.push((offered as f64, base_best));
        guard_pts.push((offered as f64, guard_best));
        headlines.push((format!("base_fwd_rate_o{offered}"), base_best));
        headlines.push((format!("guard_fwd_rate_o{offered}"), guard_best));
    }
    let top = *loads.last().expect("nonempty loads");
    let slowdown = base_pts.last().expect("base").1 / guard_pts.last().expect("guard").1;
    headlines.push((format!("guard_slowdown_o{top}"), slowdown));

    // ---- Byte identity: the guarded forwarder's wire output is the ----
    // baseline's, frame for frame.
    {
        let seed = 4_400;
        let offered = loads[0];
        fn run<M: MemSpace>(
            mut drv: E1000Driver<M>,
            sink: &mut kop_net::PacketSink,
            seed: u64,
            flows: usize,
            offered: u64,
            budget: u64,
        ) -> kop_net::ForwardReport {
            let mut gen = kop_net::FlowGen::new(seed, flows);
            kop_net::run_forward(&mut drv, &mut gen, sink, offered, budget).expect("forward")
        }
        let mut base_sink = kop_net::PacketSink::capturing(offered as usize);
        let mut drv =
            E1000Driver::probe(DirectMem::with_defaults(E1000Device::default())).expect("probe");
        drv.up().expect("up");
        run(drv, &mut base_sink, seed, flows, offered, budget);
        let mut guard_sink = kop_net::PacketSink::capturing(offered as usize);
        let mem = GuardedMem::new(
            DirectMem::with_defaults(E1000Device::default()),
            setup::two_region_policy(),
        );
        let mut drv = E1000Driver::probe(mem).expect("probe");
        drv.up().expect("up");
        run(drv, &mut guard_sink, seed, flows, offered, budget);
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
        let mut best = 0f64;
        for r in 0..repeats {
            let before = pm.stats().checks;
            let report =
                kop_net::run_mq_forward(q, per_queue, flows, 8_800 + r as u64, budget, |_| {
                    GuardedMem::new(
                        DirectMem::with_defaults(E1000Device::default()),
                        Arc::clone(&pm),
                    )
                })
                .expect("mq forward");
            assert!(report.all_clean(), "every queue's ledger audit is exact");
            assert_eq!(
                pm.stats().checks - before,
                report.guard_calls(),
                "every guard on every RX queue reached the shared policy"
            );
            best = best.max(report.frames_per_sec());
        }
        mq_pts.push((q as f64, best));
        headlines.push((format!("mq_fwd_rate_q{q}"), best));
    }

    // Striping the policy counters removed the shared-cell ping-pong
    // that once made two queues *slower* than one; hold that line with a
    // monotone-with-slack scaling assertion over the per-queue rates.
    // Like the SMP figure's scaling asserts, this is only meaningful in
    // the standalone quick smoke run on a multi-core host — under
    // `cargo test` sibling tests pollute the scheduler and per-queue
    // rates are noise.
    const MQ_SLACK: f64 = 0.85;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if quick() && cores >= 4 {
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
        let tracer = kop_trace::Tracer::with_capacity(kop_trace::DEFAULT_CAPACITY);
        let mem = kop_e1000e::GuardedMem::with_tracer(
            DirectMem::with_defaults(E1000Device::default()),
            setup::two_region_policy(),
            Arc::clone(&tracer),
        );
        let mut drv = E1000Driver::probe(mem).expect("probe");
        drv.up().expect("up");
        tracer.set_enabled(true);
        let before = drv.counts();
        let mut gen = kop_net::FlowGen::new(4_500, flows);
        let mut ledger = kop_net::LedgerSink::new();
        let rep = kop_net::run_forward(&mut drv, &mut gen, &mut ledger, loads[0], budget)
            .expect("traced forward");
        let guard_calls = drv.counts().since(&before).guard_calls;
        assert_eq!(
            tracer.total_checks(),
            guard_calls,
            "per-site profile totals must reconcile with the RX+TX guard counter"
        );
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
    // older policy generation.
    let stale_admits;
    let generation_delta;
    let churn_forwarded;
    {
        let pm = Arc::new(PolicyModule::two_region_paper_policy());
        let ruleset = pm.regions();
        let gen_before = pm.store_generation();
        let swap_gen = AtomicU64::new(u64::MAX);
        let stale = AtomicU64::new(0);
        let chunks = if quick() { 6u64 } else { 16 };
        let per_chunk = if quick() { 60u64 } else { 150 };
        let churns = if quick() { 200u64 } else { 1_000 };

        churn_forwarded = std::thread::scope(|s| {
            let handle = {
                let pm = Arc::clone(&pm);
                let swap_gen = &swap_gen;
                let stale = &stale;
                s.spawn(move || {
                    let mem = GuardedMem::new(
                        DirectMem::with_defaults(E1000Device::default()),
                        Arc::clone(&pm),
                    );
                    let mut drv = E1000Driver::probe(mem).expect("probe churn");
                    drv.up().expect("up churn");
                    let mut gen = kop_net::FlowGen::new(9_090, flows);
                    let mut ledger = kop_net::LedgerSink::new();
                    let mut forwarded = 0u64;
                    let mut dropped = 0u64;
                    for _ in 0..chunks {
                        // Stale-grant discipline: after the swap epoch is
                        // published, every admit must observe a policy
                        // generation at or beyond it.
                        let sg = swap_gen.load(AO::SeqCst);
                        let g = pm.store_generation();
                        if sg != u64::MAX && g < sg {
                            stale.fetch_add(1, AO::SeqCst);
                        }
                        let rep = kop_net::run_forward(
                            &mut drv,
                            &mut gen,
                            &mut ledger,
                            per_chunk,
                            budget,
                        )
                        .expect("churn chunk");
                        forwarded += rep.forwarded;
                        dropped += rep.wire_dropped;
                    }
                    assert_eq!(ledger.duplicates, 0);
                    assert_eq!(ledger.frames, forwarded);
                    assert_eq!(
                        ledger.missing(chunks * per_chunk).len() as u64,
                        dropped,
                        "churn-phase loss accounting is exact"
                    );
                    forwarded
                })
            };
            // Main thread, concurrent with forwarding: reload the same
            // ruleset over and over (each reload is one atomic publish),
            // then bump the epoch and publish the swap generation.
            for _ in 0..churns {
                pm.replace_regions(ruleset.iter().copied())
                    .expect("ruleset reload");
            }
            let g = pm.bump_epoch();
            swap_gen.store(g, AO::SeqCst);
            handle.join().expect("churn worker")
        });
        stale_admits = stale.load(AO::SeqCst);
        generation_delta = pm.store_generation() - gen_before;
        assert_eq!(
            stale_admits, 0,
            "zero stale-grant admits across the mid-load epoch bump"
        );
        assert!(
            generation_delta > churns,
            "the churn storm really published"
        );
    }
    headlines.push(("churn_stale_admits".into(), stale_admits as f64));
    headlines.push(("churn_generation_delta".into(), generation_delta as f64));
    headlines.push(("churn_forwarded".into(), churn_forwarded as f64));

    // ---- The rewrite as a transformed module: `@fwd_rewrite` loads ----
    // under static verification and both engines produce byte-identical
    // rewrites matching the native datapath.
    {
        let key = CompilerKey::from_passphrase("operator-key", "carat-kop-dev");
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

/// FLEET: the policy engine at consolidation scale (DESIGN §3.19).
///
/// Four sub-experiments, each asserting its own acceptance property:
///
/// 1. **Snapshot-store p99 sweep** — per-check p99 latency vs module
///    count (16 rules per module), flat linear scan vs the frozen
///    sorted / interval indexes. Flat grows ≥ 10× from 1 → 256
///    modules; frozen stays within 2× (sub-linear, O(log n)).
/// 2. **Namespaced MQ forwarding** — per-tenant policies resolved
///    through the sharded [`NamespaceStore`]; aggregate guarded
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
    use kop_e1000e::{DirectMem, E1000Device, GuardedMem};
    use kop_policy::{FrozenKind, FrozenStore, NamespaceStore};
    use std::hint::black_box;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AO};
    use std::sync::Arc;

    let mut headlines = Vec::new();
    let mut notes = Vec::new();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

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

    /// Per-check latency (ns) of each 64-probe batch.
    fn batch_lat(
        run: &mut impl FnMut(&(VAddr, Size, AccessFlags)),
        probes: &[(VAddr, Size, AccessFlags)],
    ) -> Vec<f64> {
        probes
            .chunks(64)
            .map(|chunk| {
                let t0 = Instant::now();
                for p in chunk {
                    run(p);
                }
                t0.elapsed().as_secs_f64() / chunk.len() as f64 * 1e9
            })
            .collect()
    }

    /// p99 over a set of per-check batch latencies.
    fn p99_of(mut v: Vec<f64>) -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let idx = ((v.len() as f64 * 0.99) as usize).min(v.len() - 1);
        v[idx]
    }

    /// p99 of per-check latency. Each batch's latency is the min
    /// across repeats — the batch's actual cost for its probe mix,
    /// with scheduler preemption spikes shed — and the p99 is then
    /// taken across batches, so it still reflects the worst tenants'
    /// probe mixes rather than host noise.
    fn p99_ns(
        mut run: impl FnMut(&(VAddr, Size, AccessFlags)),
        probes: &[(VAddr, Size, AccessFlags)],
        repeats: usize,
    ) -> f64 {
        let mut mins = batch_lat(&mut run, probes);
        for _ in 1..repeats {
            for (m, v) in mins.iter_mut().zip(batch_lat(&mut run, probes)) {
                *m = m.min(v);
            }
        }
        p99_of(mins)
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
    let repeats = if quick() { 5 } else { 3 };
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
            p99_ns(
                |&(a, s, f)| {
                    black_box(baseline::linear_scan(&regions, a, s, f));
                },
                &probes,
                repeats,
            ),
            p99_ns(
                |&(a, s, f)| {
                    black_box(sorted.lookup_frozen(a, s, f));
                },
                &probes,
                repeats,
            ),
            p99_ns(
                |&(a, s, f)| {
                    black_box(interval.lookup_frozen(a, s, f));
                },
                &probes,
                repeats,
            ),
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
    let mq_repeats = if quick() { 2 } else { 4 };
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
        let mut best = 0f64;
        for r in 0..mq_repeats {
            let before: Vec<u64> = distinct.iter().map(|p| p.stats().checks).collect();
            let report = kop_net::run_mq_forward(
                mq_queues,
                per_queue,
                flows,
                11_000 + r as u64,
                budget,
                |qi| {
                    GuardedMem::new(
                        DirectMem::with_defaults(E1000Device::default()),
                        Arc::clone(&queue_tenants[qi]),
                    )
                },
            )
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
            best = best.max(report.frames_per_sec());
        }
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
    let storm_stale;
    let storm_forwarded;
    let storm_registrations;
    {
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
        let stale = AtomicU64::new(0);
        let chunks = if quick() { 6u64 } else { 16 };
        let per_chunk = if quick() { 60u64 } else { 150 };
        let churns = if quick() { 40u64 } else { 200 };

        let (forwarded, regs) = std::thread::scope(|s| {
            let handle = {
                let pm = Arc::clone(&pm);
                let revoke_epoch = &revoke_epoch;
                let stale = &stale;
                s.spawn(move || {
                    let mem = GuardedMem::new(
                        DirectMem::with_defaults(E1000Device::default()),
                        Arc::clone(&pm),
                    );
                    let mut drv = E1000Driver::probe(mem).expect("probe storm");
                    drv.up().expect("up storm");
                    let mut gen = kop_net::FlowGen::new(13_131, flows);
                    let mut ledger = kop_net::LedgerSink::new();
                    let mut forwarded = 0u64;
                    let mut dropped = 0u64;
                    for _ in 0..chunks {
                        // Stale-grant discipline: once the fleet
                        // revocation is published, every admit must
                        // observe the new revocation epoch.
                        let re = revoke_epoch.load(AO::SeqCst);
                        if re != u64::MAX && pm.revocation_epoch() < re {
                            stale.fetch_add(1, AO::SeqCst);
                        }
                        let rep = kop_net::run_forward(
                            &mut drv,
                            &mut gen,
                            &mut ledger,
                            per_chunk,
                            budget,
                        )
                        .expect("storm chunk");
                        forwarded += rep.forwarded;
                        dropped += rep.wire_dropped;
                    }
                    assert_eq!(ledger.duplicates, 0);
                    assert_eq!(ledger.frames, forwarded);
                    assert_eq!(
                        ledger.missing(chunks * per_chunk).len() as u64,
                        dropped,
                        "storm-phase loss accounting is exact"
                    );
                    forwarded
                })
            };
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
            let forwarded = handle.join().expect("storm worker");
            (forwarded, regs)
        });
        assert_eq!(ns.len(), fleet, "upgrades replace, never accumulate");
        assert_eq!(ns.revocation_count(), 1);
        storm_forwarded = forwarded;
        storm_registrations = regs;
        storm_stale = stale.load(AO::SeqCst);
        assert_eq!(
            storm_stale, 0,
            "zero stale-grant admits across the fleet-wide upgrade storm"
        );
    }
    headlines.push(("storm_stale_admits".into(), storm_stale as f64));
    headlines.push(("storm_forwarded".into(), storm_forwarded as f64));
    headlines.push(("storm_registrations".into(), storm_registrations as f64));

    // ---- 4. Concurrent insmod storm: 64 modules, stall-free checks ----
    {
        let key = CompilerKey::from_passphrase("operator-key", "carat-kop-dev");
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
        let p99_before = p99_ns(&mut check, &probes, 3);

        const STORM_MODULES: usize = 64;
        let stager = Arc::new(kernel.stager());
        let staged_done = AtomicUsize::new(0);
        let next_idx = AtomicUsize::new(0);
        // Leave a core for the concurrent check-measurement thread.
        let stager_threads = cores.saturating_sub(2).clamp(1, 6);
        let t0 = Instant::now();
        let (staged, p99_during) = std::thread::scope(|s| {
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
                lat.extend(batch_lat(&mut check, &probes));
            }
            lat.extend(batch_lat(&mut check, &probes));
            let mut staged = Vec::new();
            for w in workers {
                staged.extend(w.join().expect("stager thread"));
            }
            (staged, p99_of(lat))
        });
        let stage_wall = t0.elapsed().as_secs_f64();
        assert_eq!(staged.len(), STORM_MODULES);

        // The serialized tail: reserve + lower + commit for all 64.
        let t1 = Instant::now();
        let before_loaded = kernel.modules().len();
        for staged_mod in staged {
            let res = kernel.reserve_module(&staged_mod).expect("reserve");
            let lowered = staged_mod.lower(&res, kernel.tracer());
            kernel
                .commit_module(staged_mod, res, lowered)
                .expect("commit");
        }
        let commit_wall = t1.elapsed().as_secs_f64();
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
        let tracer = kop_trace::Tracer::with_capacity(kop_trace::DEFAULT_CAPACITY);
        let ns = NamespaceStore::new(Arc::new(PolicyModule::two_region_paper_policy()));
        ns.register("nic0", Arc::new(PolicyModule::two_region_paper_policy()));
        let mem = kop_e1000e::GuardedMem::with_tracer(
            DirectMem::with_defaults(E1000Device::default()),
            ns.resolve("nic0"),
            Arc::clone(&tracer),
        );
        let mut drv = E1000Driver::probe(mem).expect("probe traced");
        drv.up().expect("up traced");
        tracer.set_enabled(true);
        let before = drv.counts();
        let mut gen = kop_net::FlowGen::new(14_500, flows);
        let mut ledger = kop_net::LedgerSink::new();
        kop_net::run_forward(&mut drv, &mut gen, &mut ledger, per_queue, budget)
            .expect("traced fleet forward");
        let guard_calls = drv.counts().since(&before).guard_calls;
        assert_eq!(
            tracer.total_checks(),
            guard_calls,
            "per-site profile totals reconcile exactly under a namespaced tenant"
        );
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

/// Run every generator (the `reproduce all` path).
pub fn all_figures() -> Vec<FigureData> {
    let mut figs = vec![
        fig3(),
        fig4(),
        fig5(),
        fig6(),
        fig7(),
        claims(),
        analysis(),
        ablation_ds(),
        ablation_opt(),
        opt(),
        trace(),
        exec(),
        jit(),
        smp(),
        soak(),
        forward(),
        fleet(),
    ];
    figs.extend(resilience());
    figs
}
