//! `tx` and `tx-traced`: the interpreted KIR driver `xmit` on the
//! simulated kernel.
//!
//! The guarded instance is the paper build, loaded under
//! `Verification::SignatureAndStatic`, profiled for a fixed window and
//! promoted by the kernel's own sweep (`Kernel::tick`), then run on
//! `Engine::Promoted`. The baseline instance is the unguarded build on
//! `Engine::Bytecode` after the same window, so both end with identical
//! memory. `tx-traced` is the same with the kernel tracer on during the
//! timed phase, which today sends promoted code back to the general
//! bytecode.

use std::sync::Arc;
use std::time::Instant;

use kop_compiler::{compile_module, CompileOptions, CompilerKey};
use kop_core::layout::{KERNEL_HALF_BASE, USER_HALF_END};
use kop_core::{Protection, Region, Size, VAddr};
use kop_interp::{Engine, Interp};
use kop_kernel::{Kernel, KernelConfig, Verification};
use kop_policy::PolicyModule;
use kop_trace::Producer;

use crate::spans::{self, Name};
use crate::stats::{median, SplitMix};
use crate::{interleave, setup_due, setup_s, Config, Report, SETUP_SAMPLES};

/// The driver under test, owned by the benchmark.
const KIR: &str = include_str!("../inputs/mini_e1000e.kir");
const MODULE: &str = "mini-e1000e";
const RING_SLOTS: u64 = 256;
const RING_BYTES: u64 = RING_SLOTS * 16;
const FRAME_BYTES: u64 = 64;
const MMIO_BYTES: u64 = 0x4000;
const TDT_OFF: u64 = 0x3818;
const STATS_BYTES: usize = 24;
/// Packets run with the tracer on before promotion.
const PROFILE_PKTS: u64 = 2048;
/// Profiled checks a site needs before the sweep promotes it, pinned
/// here so `KOP_HOT_THRESHOLD` cannot change what is measured.
const HOT_THRESHOLD: u64 = 1024;
/// Packets per timed batch (about 1–2 ms on either side).
const BATCH_PKTS: u64 = 2048;
/// Length table entries (frame lengths repeat with this period).
const LEN_TABLE: usize = 4096;

/// The seeded per-packet inputs: the ring slot the run starts at and a
/// table of frame lengths in 64..=128 bytes.
struct Inputs {
    start: u64,
    lens: Vec<u64>,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let mut rng = SplitMix::new(seed, 0x7478);
        let start = rng.below(RING_SLOTS);
        let lens = (0..LEN_TABLE).map(|_| 64 + rng.below(65)).collect();
        Inputs { start, lens }
    }

    /// `xmit` arguments of packet `p`, given the buffers.
    fn args(&self, p: u64, bufs: &Bufs) -> [u64; 6] {
        let slot = (self.start + p) % RING_SLOTS;
        let len = self.lens[(p % LEN_TABLE as u64) as usize];
        [bufs.ring, bufs.frame, bufs.mmio, slot, len, slot]
    }
}

/// The kernel-heap buffers the driver works on, and the module stack.
#[derive(Clone, Copy)]
struct Bufs {
    ring: u64,
    frame: u64,
    mmio: u64,
    stack: VAddr,
}

/// Bring-up phase times of one instance.
#[derive(Clone, Copy, Default)]
struct Phases {
    parse_us: f64,
    compile_us: f64,
    stage_us: f64,
    lower_us: f64,
    commit_us: f64,
    profile_us: f64,
    promote_us: f64,
    static_guards: u64,
    promoted_ops: u64,
    fused_guards: u64,
    total_s: f64,
}

/// One booted instance.
struct Sys {
    kernel: Kernel,
    bufs: Bufs,
    next_p: u64,
    phases: Phases,
}

/// The benchmark's own kernel policy: the paper's two-region rule (the
/// kernel half read-write, the user half denied).
fn policy() -> Arc<PolicyModule> {
    let pm = PolicyModule::new();
    pm.add_region(
        Region::new(
            VAddr(KERNEL_HALF_BASE),
            Size(u64::MAX - KERNEL_HALF_BASE + 1),
            Protection::READ_WRITE,
        )
        .expect("kernel half"),
    )
    .expect("insert kernel half");
    pm.add_region(Region::new(VAddr(0), Size(USER_HALF_END), Protection::NONE).expect("user half"))
        .expect("insert user half");
    Arc::new(pm)
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Boot → parse → compile → stage → reserve/lower/commit → buffers →
/// profile window → promotion sweep. `guarded` picks the paper build,
/// else the baseline build.
fn bring_up(guarded: bool, key: &CompilerKey, inputs: &Inputs) -> Result<Sys, String> {
    let t_all = Instant::now();
    let mut ph = Phases::default();
    // The baseline build carries no guards, so the static proof would
    // (rightly) refuse it; it loads on its signature alone.
    let verification = if guarded {
        Verification::SignatureAndStatic
    } else {
        Verification::Signature
    };
    let mut kernel = Kernel::boot(
        policy(),
        vec![key.clone()],
        KernelConfig {
            verification,
            hot_threshold: HOT_THRESHOLD,
            ..KernelConfig::default()
        },
    );

    let t = Instant::now();
    let ir = spans::span(Name::Parse, || kop_ir::parse_module(KIR)).map_err(|e| e.to_string())?;
    ph.parse_us = us(t);

    let opts = if guarded {
        CompileOptions::carat_kop()
    } else {
        CompileOptions::baseline()
    };
    let t = Instant::now();
    let out =
        spans::span(Name::Compile, || compile_module(ir, &opts, key)).map_err(|e| e.to_string())?;
    ph.compile_us = us(t);
    ph.static_guards = out.signed.attestation.guard_count;

    let t = Instant::now();
    let staged = spans::span(Name::Stage, || kernel.stager().stage(&out.signed, None))
        .map_err(|e| e.err.to_string())?;
    ph.stage_us = us(t);

    let t = Instant::now();
    let reservation =
        spans::span(Name::Commit, || kernel.reserve_module(&staged)).map_err(|e| e.to_string())?;
    let mut commit_us = us(t);
    let t = Instant::now();
    let lowered = spans::span(Name::Lower, || staged.lower(&reservation, kernel.tracer()));
    ph.lower_us = us(t);
    let t = Instant::now();
    spans::span(Name::Commit, || {
        kernel
            .commit_module(staged, reservation, lowered)
            .map(|_| ())
    })
    .map_err(|e| e.to_string())?;
    commit_us += us(t);
    ph.commit_us = commit_us;

    let ring = kernel.kmalloc(RING_BYTES).map_err(|e| e.to_string())?;
    let frame = kernel.kmalloc(FRAME_BYTES).map_err(|e| e.to_string())?;
    let mmio = kernel.kmalloc(MMIO_BYTES).map_err(|e| e.to_string())?;
    // One module stack per kernel, reused by every interpreter after.
    let stack = Interp::new(&mut kernel)
        .map_err(|e| e.to_string())?
        .stack_base();
    let bufs = Bufs {
        ring: ring.raw(),
        frame: frame.raw(),
        mmio: mmio.raw(),
        stack,
    };

    let t = Instant::now();
    kernel.tracer().set_enabled(true);
    spans::span(Name::Profile, || -> Result<(), String> {
        let mut interp = Interp::with_stack(&mut kernel, stack);
        interp.set_engine(Engine::Bytecode);
        for p in 0..PROFILE_PKTS {
            interp
                .call(MODULE, "xmit", &inputs.args(p, &bufs))
                .map_err(|e| format!("profile xmit: {e}"))?;
        }
        Ok(())
    })?;
    kernel.tracer().set_enabled(false);
    ph.profile_us = us(t);

    let t = Instant::now();
    ph.promoted_ops = spans::span(Name::Promote, || kernel.tick()) as u64;
    ph.promote_us = us(t);
    ph.fused_guards = kernel
        .module(MODULE)
        .and_then(|m| m.compiled())
        .map_or(0, |c| c.fused_guard_count() as u64);
    ph.total_s = t_all.elapsed().as_secs_f64();
    Ok(Sys {
        kernel,
        bufs,
        next_p: PROFILE_PKTS,
        phases: ph,
    })
}

/// What the driver left in memory, compared across the two builds.
#[derive(PartialEq, Eq)]
struct Observables {
    ring: Vec<u8>,
    frame: Vec<u8>,
    stats: Vec<u8>,
    tdt: u64,
}

fn observe(sys: &Sys) -> Result<Observables, String> {
    let mem = &sys.kernel.mem;
    let mut ring = vec![0u8; RING_BYTES as usize];
    mem.read_bytes(VAddr(sys.bufs.ring), &mut ring)
        .map_err(|e| e.to_string())?;
    let mut frame = vec![0u8; FRAME_BYTES as usize];
    mem.read_bytes(VAddr(sys.bufs.frame), &mut frame)
        .map_err(|e| e.to_string())?;
    let stats_addr = *sys
        .kernel
        .module(MODULE)
        .ok_or("module gone")?
        .globals()
        .get("stats")
        .ok_or("@stats not laid out")?;
    let mut stats = vec![0u8; STATS_BYTES];
    mem.read_bytes(stats_addr, &mut stats)
        .map_err(|e| e.to_string())?;
    let tdt = mem
        .read_uint(VAddr(sys.bufs.mmio + TDT_OFF), Size(4))
        .map_err(|e| e.to_string())?;
    Ok(Observables {
        ring,
        frame,
        stats,
        tdt,
    })
}

/// Events the kernel tracer has emitted and dropped so far.
fn trace_events(k: &Kernel) -> (u64, u64) {
    let t = k.tracer();
    Producer::ALL
        .iter()
        .fold((0, 0), |(e, d), &p| (e + t.seq(p), d + t.drops(p)))
}

/// One batch of `BATCH_PKTS` xmit calls; `TRACED` wraps each call in a
/// span (a separate instantiation, so the untraced loop carries no
/// recorder code).
fn batch<const TRACED: bool>(
    interp: &mut Interp<'_>,
    inputs: &Inputs,
    bufs: &Bufs,
    next_p: &mut u64,
) -> Result<u64, String> {
    for _ in 0..BATCH_PKTS {
        let args = inputs.args(*next_p, bufs);
        let r = if TRACED {
            spans::span(Name::InterpCall, || interp.call(MODULE, "xmit", &args))
        } else {
            interp.call(MODULE, "xmit", &args)
        };
        r.map_err(|e| format!("xmit: {e}"))?;
        *next_p += 1;
    }
    Ok(BATCH_PKTS)
}

/// Run `tx` (`traced_kernel` false) or `tx-traced` (true).
pub fn run(cfg: &Config, traced_kernel: bool) -> Result<Report, String> {
    let mut r = Report::default();
    let key = CompilerKey::from_passphrase("kopbench-operator", "kopbench");
    let inputs = Inputs::new(cfg.seed);

    // The first bring-up of each build is the instance the run times;
    // the measured set-up samples are further guarded bring-ups spread
    // over the run.
    let mut g = bring_up(true, &key, &inputs)?;
    let mut b = bring_up(false, &key, &inputs)?;
    let budget = cfg.untraced_budget();
    let want = SETUP_SAMPLES;
    let mut phase_samples: Vec<Phases> = Vec::new();

    // Both workloads ask for the promoted tier; with the tracer on it
    // falls back to the general bytecode by design.
    let engine = Engine::Promoted;
    g.kernel.tracer().set_enabled(traced_kernel);
    b.kernel.tracer().set_enabled(traced_kernel);
    let checks_before = g.kernel.tracer().total_checks();
    let policy_before = g.kernel.policy().stats();
    let (ev_before, drop_before) = trace_events(&g.kernel);

    let (gbufs, bbufs) = (g.bufs, b.bufs);
    let (mut gp, mut bp) = (g.next_p, b.next_p);
    let timed;
    let (gstats, admits, deopts);
    {
        let mut gi = Interp::with_stack(&mut g.kernel, gbufs.stack);
        gi.set_engine(engine);
        gi.set_fuel(u64::MAX);
        let mut bi = Interp::with_stack(&mut b.kernel, bbufs.stack);
        bi.set_engine(Engine::Bytecode);
        bi.set_fuel(u64::MAX);
        timed = interleave(
            budget,
            || batch::<false>(&mut gi, &inputs, &gbufs, &mut gp),
            || batch::<false>(&mut bi, &inputs, &bbufs, &mut bp),
            |elapsed| {
                if setup_due(phase_samples.len(), want, elapsed, budget) {
                    phase_samples.push(bring_up(true, &key, &inputs)?.phases);
                }
                Ok(())
            },
        )?;
        gstats = gi.stats();
        admits = gi.inline_admits();
        deopts = gi.inline_deopts();
    }
    g.next_p = gp;
    b.next_p = bp;
    while phase_samples.len() < want {
        phase_samples.push(bring_up(true, &key, &inputs)?.phases);
    }
    let setup: Vec<f64> = phase_samples.iter().map(|p| p.total_s).collect();

    let pkts = timed.pkts;
    r.attempted = pkts;
    r.failed = gstats.squashed;
    r.set("pkt_ns", timed.pkt_ns());
    r.set("base_pkt_ns", timed.base_pkt_ns());
    r.set("setup_s", setup_s(&setup));
    r.set("guard.overhead_ns", timed.pkt_ns() - timed.base_pkt_ns());
    r.notes.push(timed.describe(&setup));

    // Set-up layer medians over every sample.
    let med = |f: fn(&Phases) -> f64| median(&phase_samples.iter().map(f).collect::<Vec<_>>());
    r.set("ir.parse_us", med(|p| p.parse_us));
    r.set("compiler.compile_us", med(|p| p.compile_us));
    r.set("loader.stage_us", med(|p| p.stage_us));
    r.set("loader.lower_us", med(|p| p.lower_us));
    r.set("loader.commit_us", med(|p| p.commit_us));
    r.set("kernel.profile_us", med(|p| p.profile_us));
    r.set("kernel.promote_us", med(|p| p.promote_us));
    r.set("compiler.static_guards", g.phases.static_guards as f64);
    r.set("vm.promoted_ops", g.phases.promoted_ops as f64);
    r.set("vm.fused_guards", g.phases.fused_guards as f64);

    // Interpreter and tracer counts over the timed phase.
    let per = |v: u64| v as f64 / pkts.max(1) as f64;
    r.set("interp.insts_per_pkt", per(gstats.insts));
    r.set("interp.guards_per_pkt", per(gstats.guards));
    r.set(
        "interp.inline_ratio",
        admits as f64 / gstats.guards.max(1) as f64,
    );
    r.set("interp.deopts", deopts as f64);
    let policy_after = g.kernel.policy().stats();
    r.set(
        "policy.checks_per_pkt",
        per(policy_after.checks - policy_before.checks),
    );
    let trace_checks = g.kernel.tracer().total_checks() - checks_before;
    let (ev_after, drop_after) = trace_events(&g.kernel);
    r.set("trace.events_per_pkt", per(ev_after - ev_before));
    r.set("trace.dropped", (drop_after - drop_before) as f64);
    r.set("trace.checks", trace_checks as f64);
    g.kernel.tracer().set_enabled(false);
    b.kernel.tracer().set_enabled(false);

    // Correctness: the two builds left byte-identical observables.
    let (go, bo) = (observe(&g)?, observe(&b)?);
    let c = &mut r.checks;
    c.expect(g.next_p == b.next_p, || {
        format!("packet counts differ: {} vs {}", g.next_p, b.next_p)
    });
    c.expect(go.ring == bo.ring, || {
        "TX ring bytes differ between builds".into()
    });
    c.expect(go.frame == bo.frame, || {
        "frame bytes differ between builds".into()
    });
    c.expect(go.stats == bo.stats, || {
        "@stats bytes differ between builds".into()
    });
    c.expect(go.tdt == bo.tdt, || {
        "TDT doorbell differs between builds".into()
    });
    let expect_pkts = u64::from_le_bytes(go.stats[..8].try_into().expect("8 bytes"));
    c.expect(expect_pkts == g.next_p, || {
        format!("@stats counts {expect_pkts} packets, ran {}", g.next_p)
    });
    c.expect(
        gstats.guards > 0 && gstats.guards % pkts.max(1) == 0,
        || format!("{} guards over {pkts} packets", gstats.guards),
    );
    c.expect(g.phases.promoted_ops > 0, || {
        "no guard site was promoted".into()
    });
    c.expect(gstats.squashed == 0, || {
        format!("{} squashed accesses", gstats.squashed)
    });
    let denied = policy_after.denied_no_match
        + policy_after.denied_insufficient
        + policy_after.denied_malformed;
    c.expect(denied == 0, || format!("{denied} guard denials"));
    r.failed += denied;
    if traced_kernel {
        c.expect(trace_checks == gstats.guards, || {
            format!(
                "tracer counted {trace_checks} checks, interpreter {}",
                gstats.guards
            )
        });
    } else {
        c.expect(admits == gstats.guards, || {
            format!("{admits} inline admits for {} guards", gstats.guards)
        });
        c.expect(deopts == 0, || {
            format!("{deopts} deopts on the promoted path")
        });
    }

    if cfg.trace {
        traced_phase(cfg, &mut r, &mut g, &key, &inputs, engine, timed.pkt_ns())?;
    }
    Ok(r)
}

/// The traced half of a `--trace 1` run: one recorded guarded bring-up
/// (its spans carry batch id `SETUP_BATCH`), then the guarded instance
/// alone with a span per batch and per `Interp::call`.
fn traced_phase(
    cfg: &Config,
    r: &mut Report,
    g: &mut Sys,
    key: &CompilerKey,
    inputs: &Inputs,
    engine: Engine,
    untraced_pkt_ns: f64,
) -> Result<(), String> {
    spans::start(crate::SPAN_CAP);
    spans::set_batch(crate::SETUP_BATCH);
    bring_up(true, key, inputs)?;
    r.set("bench.span_ns", spans::empty_span_ns());
    spans::reset_totals();

    let traced_kernel = cfg.workload == "tx-traced";
    g.kernel.tracer().set_enabled(traced_kernel);
    let bufs = g.bufs;
    let mut p = g.next_p;
    let mut interp = Interp::with_stack(&mut g.kernel, bufs.stack);
    interp.set_engine(engine);
    interp.set_fuel(u64::MAX);
    let traced = crate::traced_batches(cfg.traced_budget(), || {
        batch::<true>(&mut interp, inputs, &bufs, &mut p)
    })?;
    spans::stop();
    let call = spans::totals(Name::InterpCall);
    r.set(
        "interp.call_ns",
        call.incl_ns as f64 / call.calls.max(1) as f64,
    );
    r.set_self_times(&traced, untraced_pkt_ns);
    Ok(())
}
