//! kopbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path kopbench/Cargo.toml -- \
//!     --workload <tx|fwd|fleet-churn|tx-traced> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs a guarded and an unguarded instance in this one
//! process, single-threaded and closed-loop, and alternates their timed
//! batches. `--trace 0` prints the end-to-end metrics; `--trace 1` runs
//! the same untraced measurement for half the time and a span-traced
//! run of the guarded instance for the other half, and prints the
//! per-layer metrics. The last stdout line is the JSON result; earlier
//! lines are a human-readable report and an environment stamp. See
//! `kopbench/README.md` for why each workload and metric exists.

mod cpus;
mod fwd;
mod spans;
mod stats;
mod tx;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics, printed on every `--trace 0` run.
const END_TO_END: &[(&str, &str)] = &[
    ("pkt_ns", "ns"),
    ("base_pkt_ns", "ns"),
    ("setup_s", "s"),
    ("rss_mib", "MiB"),
];

/// Per-layer metrics, printed on every `--trace 1` run (0 where a layer
/// does not run on the workload).
const PER_LAYER: &[(&str, &str)] = &[
    ("ir.parse_us", "us"),
    ("compiler.compile_us", "us"),
    ("compiler.static_guards", "count"),
    ("loader.stage_us", "us"),
    ("loader.lower_us", "us"),
    ("loader.commit_us", "us"),
    ("kernel.profile_us", "us"),
    ("kernel.promote_us", "us"),
    ("vm.promoted_ops", "count"),
    ("vm.fused_guards", "count"),
    ("interp.call_ns", "ns"),
    ("interp.insts_per_pkt", "count"),
    ("interp.guards_per_pkt", "count"),
    ("interp.inline_ratio", "ratio"),
    ("interp.deopts", "count"),
    ("policy.check_ns", "ns"),
    ("policy.checks_per_pkt", "count"),
    ("policy.publish_us", "us"),
    ("policy.publish_share", "ratio"),
    ("policy.publishes", "count"),
    ("driver.guard_calls_per_pkt", "count"),
    ("driver.ram_reads_per_pkt", "count"),
    ("driver.ram_writes_per_pkt", "count"),
    ("driver.mmio_reads_per_pkt", "count"),
    ("driver.mmio_writes_per_pkt", "count"),
    ("net.forward_ns", "ns"),
    ("net.flowgen_ns", "ns"),
    ("net.polls_per_pkt", "count"),
    ("net.wire_drops", "count"),
    ("trace.events_per_pkt", "count"),
    ("trace.dropped", "count"),
    ("trace.checks", "count"),
    ("guard.overhead_ns", "ns"),
    ("bench.timer_overhead_ns", "ns"),
    ("bench.span_ns", "ns"),
    ("bench.spans_per_pkt", "count"),
    ("traced.pkt_ns", "ns"),
    ("self.bench_ns", "ns"),
    ("self.interp_ns", "ns"),
    ("self.net_ns", "ns"),
    ("self.mem_ns", "ns"),
    ("self.policy_ns", "ns"),
    ("self.dma_ns", "ns"),
    ("self.sink_ns", "ns"),
    ("self.publish_ns", "ns"),
    ("self.residual_ns", "ns"),
    ("fail_frac", "ratio"),
];

/// The runtime span names whose self time splits a traced packet, with
/// the per-layer metric each one reports as.
const SELF_LAYERS: &[(spans::Name, &str)] = &[
    (spans::Name::Batch, "self.bench_ns"),
    (spans::Name::InterpCall, "self.interp_ns"),
    (spans::Name::Forward, "self.net_ns"),
    (spans::Name::Mem, "self.mem_ns"),
    (spans::Name::Check, "self.policy_ns"),
    (spans::Name::Dma, "self.dma_ns"),
    (spans::Name::Sink, "self.sink_ns"),
    (spans::Name::Publish, "self.publish_ns"),
];

/// Spans kept for the dump (the first batches of the traced run; self
/// times fold in every span regardless).
pub const SPAN_CAP: usize = 1 << 16;

/// Batch id the span dump gives set-up spans.
pub const SETUP_BATCH: u32 = u32::MAX;

/// The per-run statistic of batch means: a low quantile, so a host slow
/// episode covering most of a run cannot move it (see README).
pub const PKT_QUANTILE: f64 = 0.01;

/// The per-run statistic of the set-up samples, for the same reason.
pub const SETUP_QUANTILE: f64 = 0.10;

/// Set-up samples per run (see [`SETUP_QUANTILE`]); one `tx` bring-up
/// takes about 7 ms, so they cost about 0.3 s a run.
pub const SETUP_SAMPLES: usize = 41;

/// The reported set-up time of a run's samples (see [`SETUP_QUANTILE`]).
pub fn setup_s(samples: &[f64]) -> f64 {
    stats::quantile(samples, SETUP_QUANTILE)
}

/// What one run was asked to do.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured time in seconds.
    pub seconds: f64,
    /// Traced (per-layer) mode.
    pub trace: bool,
}

impl Config {
    /// How long the untraced measurement runs.
    pub fn untraced_budget(&self) -> Duration {
        let s = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(s)
    }

    /// How long the traced measurement runs (0 when not tracing).
    pub fn traced_budget(&self) -> Duration {
        if self.trace {
            Duration::from_secs_f64(self.seconds / 2.0)
        } else {
            Duration::ZERO
        }
    }
}

/// Correctness checks of one run; every failed one is kept by name.
#[derive(Default, Debug)]
pub struct Checks {
    failures: Vec<String>,
    run: usize,
}

impl Checks {
    /// Record one check.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Everything one run measured.
#[derive(Default, Debug)]
pub struct Report {
    /// Metric values by name (end-to-end and per-layer).
    pub values: BTreeMap<&'static str, f64>,
    /// Operations attempted on the guarded system.
    pub attempted: u64,
    /// Failed operations: wire drops, guard denials, driver errors and
    /// squashed accesses.
    pub failed: u64,
    /// Correctness checks.
    pub checks: Checks,
    /// Extra diagnostic lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Report {
    /// Set a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Fold the traced run's span totals into per-layer metrics: self
    /// time per packet for every runtime layer, the traced wall time per
    /// packet, the residual, and the recorder's own cost. `traced` holds
    /// the traced run's per-batch ns per packet; the recorder's cost is
    /// its [`PKT_QUANTILE`] less the untraced run's `untraced_pkt_ns`,
    /// the same statistic on both sides so a slow episode in one of
    /// them does not pass for tracing cost.
    pub fn set_self_times(&mut self, traced: &Traced, untraced_pkt_ns: f64) {
        let pkts = traced.pkts.max(1) as f64;
        let (mut sum, mut calls) = (0.0, 0);
        for &(name, metric) in SELF_LAYERS {
            let t = spans::totals(name);
            let v = t.self_ns as f64 / pkts;
            sum += v;
            calls += t.calls;
            self.set(metric, v);
        }
        let wall = traced.wall.as_nanos() as f64 / pkts;
        self.set("bench.spans_per_pkt", calls as f64 / pkts);
        self.set("traced.pkt_ns", wall);
        self.set("self.residual_ns", wall - sum);
        self.set(
            "bench.timer_overhead_ns",
            stats::quantile(&traced.batch_ns, PKT_QUANTILE) - untraced_pkt_ns,
        );
    }
}

/// The batches of a traced run.
#[derive(Default, Debug)]
pub struct Traced {
    /// Per-batch ns per packet.
    pub batch_ns: Vec<f64>,
    /// Packets run.
    pub pkts: u64,
    /// Summed batch wall time.
    pub wall: Duration,
}

/// Run traced batches until `budget` has passed (at least two), moving
/// round the CPUs like [`interleave`]. `batch` returns the packets it
/// handled.
pub fn traced_batches(
    budget: Duration,
    mut batch: impl FnMut() -> Result<u64, String>,
) -> Result<Traced, String> {
    let mut rotation = cpus::Rotation::new();
    let mut out = Traced::default();
    let start = Instant::now();
    let mut id = 0u32;
    while id < 2 || start.elapsed() < budget {
        spans::set_batch(id);
        let t0 = Instant::now();
        let n = spans::span(spans::Name::Batch, &mut batch)?;
        let dt = t0.elapsed();
        out.wall += dt;
        out.pkts += n;
        out.batch_ns.push(dt.as_nanos() as f64 / n.max(1) as f64);
        id += 1;
        rotation.tick();
    }
    Ok(out)
}

/// Per-batch ns per packet of the two sides of an interleaved run.
#[derive(Default, Debug)]
pub struct Interleaved {
    /// Guarded batches.
    pub guarded: Vec<f64>,
    /// Baseline batches.
    pub base: Vec<f64>,
    /// Packets per side.
    pub pkts: u64,
}

impl Interleaved {
    /// The guarded statistic (see [`PKT_QUANTILE`]).
    pub fn pkt_ns(&self) -> f64 {
        stats::quantile(&self.guarded, PKT_QUANTILE)
    }

    /// The baseline statistic.
    pub fn base_pkt_ns(&self) -> f64 {
        stats::quantile(&self.base, PKT_QUANTILE)
    }

    /// The human-readable timing line: batch quantiles of both sides,
    /// the guarded drift over the run, and the set-up samples.
    pub fn describe(&self, setup: &[f64]) -> String {
        let q = |v: &[f64]| {
            [0.01, 0.02, 0.05, 0.10, 0.25, 0.5]
                .map(|p| format!("{:.1}", stats::quantile(v, p)))
                .join("/")
        };
        let setup_ms: Vec<String> = setup.iter().map(|s| format!("{:.3}", s * 1e3)).collect();
        format!(
            "batches/side={} pkts/side={} guarded p1/2/5/10/25/50={} base p1/2/5/10/25/50={} guarded drift=[{}] setup_ms=[{}]",
            self.guarded.len(),
            self.pkts,
            q(&self.guarded),
            q(&self.base),
            drift(&self.guarded),
            setup_ms.join(" ")
        )
    }
}

/// Rounds per second of run that the buffers [`interleave`] touches
/// before it starts can hold: twice the fastest workload's rate (`fwd`,
/// about 520 rounds a second), so that peak RSS does not depend on how
/// many batches a run managed.
const ROUNDS_PER_SECOND: f64 = 1024.0;

/// An empty vector with room for the rounds of a run of `budget`, its
/// pages already resident.
fn prefaulted(budget: Duration) -> Vec<f64> {
    let cap = 2 + (budget.as_secs_f64() * ROUNDS_PER_SECOND) as usize;
    let mut v = Vec::with_capacity(cap);
    // `black_box` hides that the fill is zero, or the allocation and
    // fill fold into a `calloc` that leaves the pages untouched.
    v.resize(cap, std::hint::black_box(0.0));
    v.clear();
    v
}

/// Alternate guarded and baseline batches until `budget` has passed
/// (at least two pairs). Each closure runs one batch and
/// returns the packets it handled; a round's order flips every round so
/// neither side always runs second. `between` runs untimed after every
/// round with the time elapsed so far (set-up sampling hooks in there).
/// The thread moves round the allowed CPUs as it goes (see [`cpus`]).
pub fn interleave(
    budget: Duration,
    mut guarded: impl FnMut() -> Result<u64, String>,
    mut base: impl FnMut() -> Result<u64, String>,
    mut between: impl FnMut(Duration) -> Result<(), String>,
) -> Result<Interleaved, String> {
    let mut rotation = cpus::Rotation::new();
    let mut out = Interleaved {
        guarded: prefaulted(budget),
        base: prefaulted(budget),
        pkts: 0,
    };
    let start = Instant::now();
    let mut round = 0usize;
    while round < 2 || start.elapsed() < budget {
        for side in 0..2 {
            let is_guarded = (side == 0) == round.is_multiple_of(2);
            let t0 = Instant::now();
            let n = if is_guarded { guarded()? } else { base()? };
            let ns = t0.elapsed().as_nanos() as f64 / n.max(1) as f64;
            if is_guarded {
                out.guarded.push(ns);
                out.pkts += n;
            } else {
                out.base.push(ns);
            }
        }
        round += 1;
        between(start.elapsed())?;
        rotation.tick();
    }
    Ok(out)
}

/// Whether set-up sample number `taken` (of `want`) is due `elapsed`
/// into a run of `budget`: samples are spread evenly over the run, so
/// a host slow episode can only reach the few taken while it lasts.
pub fn setup_due(taken: usize, want: usize, elapsed: Duration, budget: Duration) -> bool {
    taken < want && elapsed >= budget.mul_f64(taken as f64 / want as f64)
}

/// Medians of `v` over ten consecutive slices, in time order: a drift
/// or a slow episode inside the run shows as a step.
pub fn drift(v: &[f64]) -> String {
    let n = v.len().max(1);
    (0..10)
        .map(|i| {
            let s = &v[i * n / 10..((i + 1) * n / 10).min(v.len())];
            format!("{:.0}", stats::median(s))
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => cfg.workload = val("--workload")?,
            "--seed" => cfg.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = val("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                cfg.trace = match val("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(cfg)
}

/// The source revision, read when the benchmark runs so that it is
/// never older than the tree; "unknown" outside a git work tree. Git
/// runs only where the package's parent directory holds `.git`, so a
/// source export never makes it search the directories above.
fn git_rev() -> String {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    if !std::path::Path::new(root).join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["-C", root, "rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn run(cfg: &Config) -> Result<Report, String> {
    let mut report = match cfg.workload.as_str() {
        "tx" => tx::run(cfg, false)?,
        "tx-traced" => tx::run(cfg, true)?,
        "fwd" => fwd::run(cfg, false)?,
        "fleet-churn" => fwd::run(cfg, true)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (tx, fwd, fleet-churn, tx-traced)"
            ))
        }
    };
    report.set("rss_mib", stats::peak_rss_mib());
    let frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.set("fail_frac", frac);
    if cfg.trace {
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "kopbench/target".into());
        let dir = format!("{target}/kopbench-spans");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
        let path = format!("{dir}/{}-seed{}.tsv", cfg.workload, cfg.seed);
        std::fs::write(&path, spans::dump()).map_err(|e| format!("{path}: {e}"))?;
        report.notes.push(format!("spans written to {path}"));
    }
    Ok(report)
}

fn main() {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("kopbench: {e}");
            std::process::exit(2);
        }
    };
    stats::pin_allocator();
    let steal0 = stats::steal_ticks();
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("kopbench: {} failed: {e}", cfg.workload);
            std::process::exit(1);
        }
    };
    let steal = stats::steal_ticks().saturating_sub(steal0);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "stamp workload={} seed={} seconds={} trace={} cores={} profile={} rustc=\"{}\" rev={} steal_ticks={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cores,
        profile,
        env!("KOPBENCH_RUSTC"),
        git_rev(),
        steal,
    );
    for n in &report.notes {
        println!("note {n}");
    }
    for f in &report.checks.failures {
        println!("check FAILED {f}");
    }
    println!(
        "checks run={} failed={}",
        report.checks.run,
        report.checks.failures.len()
    );

    let table = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let v = report.values.get(name).copied().unwrap_or(0.0);
        println!("metric {name} {v} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(v)
        ));
    }
    let correct = report.checks.failures.is_empty() && report.checks.run > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}
