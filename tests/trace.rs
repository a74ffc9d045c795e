//! End-to-end kop-trace: guard checks made observable.
//!
//! The tracing pipeline the paper's tooling story needs: compiler-
//! assigned guard-site identities flow through the attestation, the
//! loader registers them at insmod, the interpreter attributes every
//! `carat_guard` check to its site, and the consumers (per-site
//! profiles, the `/dev/trace` chardev, the perfetto exporter) all agree
//! with each other and with the interpreter's own counters.

use std::collections::BTreeMap;
use std::sync::Arc;

use carat_kop::compiler::{compile_module, CompileOptions, CompilerKey};
use carat_kop::core::{KernelError, Region, Size, VAddr};
use carat_kop::interp::{Engine, Interp};
use carat_kop::ir::parse_module;
use carat_kop::kernel::{Kernel, KernelConfig};
use carat_kop::policy::{PolicyModule, ViolationAction};
use carat_kop::trace::{self, Producer, SiteId, TraceEvent, Tracer, SAMPLE_EVERY};

const DRIVERISH_SRC: &str = r#"
module "drv"
global @stats : { i64, i64 } = zero
define i64 @touch(ptr %buf, i64 %n) {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %c = icmp ult i64 %i, %n
  condbr i1 %c, %body, %exit
body:
  %p = gep i64, ptr %buf, i64 %i
  store i64 %i, ptr %p
  %v = load i64, ptr %p
  %pk.p = gep { i64, i64 }, ptr @stats, i64 0, i32 0
  %pk = load i64, ptr %pk.p
  %pk2 = add i64 %pk, %v
  store i64 %pk2, ptr %pk.p
  %i.next = add i64 %i, 1
  br %head
exit:
  %r.p = gep { i64, i64 }, ptr @stats, i64 0, i32 0
  %r = load i64, ptr %r.p
  ret i64 %r
}
"#;

const CREDSCAN_SRC: &str = r#"
module "credscan"
global @found : i64 = 0
define i64 @probe(i64 %addr) {
entry:
  %p = inttoptr i64 %addr to ptr
  %word = load i64, ptr %p
  store i64 %word, ptr @found
  %r = load i64, ptr @found
  ret i64 %r
}
"#;

fn key() -> CompilerKey {
    CompilerKey::from_passphrase("operator-key", "trace-e2e")
}

/// Boot, load `DRIVERISH_SRC` with tracing enabled, run one `touch`
/// pass, and return the kernel plus the interpreter's guard count.
fn traced_touch_run(n: u64) -> (Kernel, u64) {
    let out = compile_module(
        parse_module(DRIVERISH_SRC).unwrap(),
        &CompileOptions::carat_kop(),
        &key(),
    )
    .expect("compiles");
    let policy = Arc::new(PolicyModule::new());
    policy.set_default_action(carat_kop::policy::DefaultAction::Allow);
    let mut kernel = Kernel::boot(policy, vec![key()], KernelConfig::default());
    kernel.tracer().set_enabled(true);
    kernel.insmod(&out.signed).expect("insmod");
    let buf = kernel.kmalloc(n * 8).unwrap();
    let guards = {
        let mut interp = Interp::new(&mut kernel).unwrap();
        let r = interp.call("drv", "touch", &[buf.raw(), n]).unwrap();
        assert_eq!(r, Some((0..n).sum::<u64>()));
        interp.stats().guards
    };
    (kernel, guards)
}

/// The reconciliation guarantee: per-site hit totals equal the
/// interpreter's aggregate guard count exactly — the profiler sits off
/// the ring, so wraparound can never lose a check — and each site's
/// histogram holds exactly the checks the sampling rule timed.
#[test]
fn per_site_totals_reconcile_with_interp_guard_count() {
    let (kernel, guards) = traced_touch_run(64);
    let tracer = kernel.tracer();
    assert_eq!(guards, 257, "64 iterations × 4 accesses + final load");
    assert_eq!(tracer.total_checks(), guards);
    // Per-site hits reconcile with the aggregate; the histograms hold
    // each loop site's checks 1, 17, 33 and 49 and the exit load's one.
    let snap = tracer.profile_snapshot();
    let hit_sum: u64 = snap.iter().map(|(_, p)| p.hits).sum();
    let bucket_sum: u64 = snap.iter().map(|(_, p)| p.hist.iter().sum::<u64>()).sum();
    assert_eq!(hit_sum, guards);
    assert_eq!(bucket_sum, 4 * 4 + 1);
    // Every profiled site resolves to a labelled site in @touch.
    for (meta, prof) in &snap {
        assert!(meta.label.starts_with("touch/g"), "label {}", meta.label);
        assert_eq!(meta.module, "drv");
        assert!(prof.hits > 0);
        assert_eq!(prof.timed(), prof.hits.div_ceil(SAMPLE_EVERY));
        assert!(
            prof.total_ns >= prof.timed(),
            "at least 1 ns per timed check"
        );
    }
    // The hot loop has 4 guard sites doing 64 hits each; the exit load
    // does one. Per-site attribution must reflect that shape.
    let mut hits: Vec<u64> = snap.iter().map(|(_, p)| p.hits).collect();
    hits.sort_unstable();
    assert_eq!(hits, vec![1, 64, 64, 64, 64]);
}

/// The ring holds paired GuardEnter/GuardExit events from the interp
/// producer, one pair per timed check, with gap-free sequence numbers
/// (capacity is larger than the event count here, so nothing is
/// dropped).
#[test]
fn ring_pairs_guard_events_with_gap_free_seqs() {
    let (kernel, guards) = traced_touch_run(8);
    assert_eq!(guards, 33);
    let snap = kernel.tracer().snapshot();
    assert_eq!(snap.total_drops(), 0);
    let interp_events: Vec<_> = snap
        .records
        .iter()
        .filter(|r| r.producer == Producer::Interp)
        .collect();
    let enters = interp_events
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::GuardEnter { .. }))
        .count() as u64;
    let exits = interp_events
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::GuardExit { .. }))
        .count() as u64;
    // Each of the five sites checked at most 16 times: only its first
    // check was timed.
    assert_eq!(enters, 5);
    assert_eq!(exits, 5);
    for (i, r) in interp_events.iter().enumerate() {
        assert_eq!(r.seq, i as u64, "per-producer seqs are gap-free");
    }
    // The loader's ModuleLoad event is in the ring too.
    assert!(snap.records.iter().any(|r| matches!(
        &r.event,
        TraceEvent::ModuleLoad { module, guard_sites } if module == "drv" && *guard_sites > 0
    )));
}

/// A quarantine run exports structurally valid perfetto JSON: metadata
/// track names, balanced B/E spans, monotonic timestamps per track, and
/// the Violation/ModuleQuarantine instants from the kernel producer.
#[test]
fn quarantine_run_exports_valid_perfetto_json() {
    let policy = Arc::new(PolicyModule::two_region_paper_policy());
    policy.set_violation_action(ViolationAction::Quarantine);
    let mut kernel = Kernel::boot(policy, vec![key()], KernelConfig::default());
    kernel.tracer().set_enabled(true);

    let out = compile_module(
        parse_module(CREDSCAN_SRC).unwrap(),
        &CompileOptions::carat_kop(),
        &key(),
    )
    .expect("compiles");
    kernel.insmod(&out.signed).expect("insmod");

    // Forbidden probes (user half) until the violation budget quarantines
    // the module.
    let mut quarantined = false;
    {
        let mut interp = Interp::new(&mut kernel).expect("interp");
        for _ in 0..8 {
            match interp.call("credscan", "probe", &[0x40_0000]) {
                Ok(_) => {}
                Err(KernelError::ModuleQuarantined { module, .. }) => {
                    assert_eq!(module, "credscan");
                    quarantined = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }
    assert!(quarantined, "violation budget must trip");

    let tracer = kernel.tracer();
    let snap = tracer.snapshot();
    assert!(snap.records.iter().any(|r| {
        r.producer == Producer::Kernel && matches!(r.event, TraceEvent::Violation { .. })
    }));
    assert!(snap.records.iter().any(|r| matches!(
        &r.event,
        TraceEvent::ModuleQuarantine { module, violations } if module == "credscan" && *violations > 0
    )));

    // Structural validation of the export (the same checks the unit
    // tests apply, here over a real quarantine trace).
    let events = trace::perfetto::export_events(tracer, &snap);
    trace::perfetto::validate_events(&events).expect("perfetto events valid");
    let json = trace::perfetto::to_json(&events);
    trace::perfetto::validate_json(&json).expect("perfetto JSON valid");
    assert!(json.contains("\"ph\": \"B\"") && json.contains("\"ph\": \"E\""));
    assert!(json.contains("module_quarantine"));
}

/// The `/dev/trace` chardev mirrors the tracefs UX end-to-end: enable
/// over ioctl, run guarded work, read back the top-sites report, the
/// counter registry (policy cells included), and the perfetto export.
#[test]
fn dev_trace_chardev_controls_and_reads_the_tracer() {
    let out = compile_module(
        parse_module(DRIVERISH_SRC).unwrap(),
        &CompileOptions::carat_kop(),
        &key(),
    )
    .expect("compiles");
    let policy = Arc::new(PolicyModule::new());
    policy.set_default_action(carat_kop::policy::DefaultAction::Allow);
    let mut kernel = Kernel::boot(policy, vec![key()], KernelConfig::default());

    let io = |kernel: &mut Kernel, req: &str| -> String {
        let resp = kernel
            .ioctl(carat_kop::kernel::TRACE_DEV, req.as_bytes())
            .unwrap_or_else(|e| panic!("ioctl {req:?}: {e}"));
        String::from_utf8(resp).expect("utf-8 response")
    };

    assert_eq!(io(&mut kernel, "tracing_on"), "0");
    assert_eq!(io(&mut kernel, "tracing_on 1"), "ok");
    assert_eq!(io(&mut kernel, "tracing_on"), "1");

    kernel.insmod(&out.signed).expect("insmod");
    let buf = kernel.kmalloc(16 * 8).unwrap();
    {
        let mut interp = Interp::new(&mut kernel).unwrap();
        interp.call("drv", "touch", &[buf.raw(), 16]).unwrap();
    }

    let top = io(&mut kernel, "top 3");
    assert!(top.contains("touch/g"), "top report names sites:\n{top}");
    let counters = io(&mut kernel, "counters");
    assert!(
        counters.contains("policy.checks"),
        "policy cells registered at boot:\n{counters}"
    );
    let dump = io(&mut kernel, "trace");
    assert!(
        dump.contains("guard_exit"),
        "ring dump lists events:\n{dump}"
    );
    let perfetto = io(&mut kernel, "perfetto");
    trace::perfetto::validate_json(&perfetto).expect("chardev perfetto output valid");

    // clear drains the ring but keeps the clock running.
    io(&mut kernel, "clear");
    let empty = io(&mut kernel, "trace");
    assert!(!empty.contains("guard_exit"), "{empty}");
}

/// Per-run sums over every profiled site: `(Σhits, Σinline, Σhist)`.
fn profile_sums(tracer: &Tracer) -> (u64, u64, u64) {
    tracer
        .profile_snapshot()
        .iter()
        .fold((0, 0, 0), |(h, i, t), (_, p)| {
            (h + p.hits, i + p.inline, t + p.hist.iter().sum::<u64>())
        })
}

/// `(GuardEnter, GuardExit)` records from the interpreter in the ring.
fn guard_event_pairs(tracer: &Tracer) -> (u64, u64) {
    let snap = tracer.snapshot();
    let interp = snap.by_producer(Producer::Interp);
    let count = |f: fn(&TraceEvent) -> bool| interp.iter().filter(|r| f(&r.event)).count() as u64;
    (
        count(|e| matches!(e, TraceEvent::GuardEnter { .. })),
        count(|e| matches!(e, TraceEvent::GuardExit { .. })),
    )
}

/// Tracing keeps the promoted tier on: each inline admit is counted
/// against its site (hits and envelope) with no ring event and no
/// timing. A policy publish between two calls stales the tier, so every
/// inline guard deopts to the general path, whose sampling rule times
/// each site's first general-path check (the inline admits before it
/// move no phase) as a GuardEnter/GuardExit pair plus a histogram
/// entry. Both reconciliation sums hold throughout.
#[test]
fn promoted_guards_stay_inline_under_tracing_until_a_publish() {
    let out = compile_module(
        parse_module(DRIVERISH_SRC).unwrap(),
        &CompileOptions::carat_kop(),
        &key(),
    )
    .expect("compiles");
    let policy = Arc::new(PolicyModule::two_region_paper_policy());
    let mut kernel = Kernel::boot(Arc::clone(&policy), vec![key()], KernelConfig::default());
    kernel.insmod(&out.signed).expect("insmod");
    let buf = kernel.kmalloc(16 * 8).unwrap();
    let tracer = Arc::clone(kernel.tracer());

    // Profile on the general path, then promote every site.
    tracer.set_enabled(true);
    {
        let mut interp = Interp::new(&mut kernel).unwrap();
        interp.set_engine(Engine::Bytecode);
        interp.call("drv", "touch", &[buf.raw(), 16]).unwrap();
    }
    assert!(kernel.promote_hot("drv", 1).expect("promotion") > 0);
    let compiled = kernel
        .module("drv")
        .expect("loaded")
        .image()
        .compiled
        .clone();
    let tier = compiled.promoted_tier();
    // Each profiled site's baked region, read from the tier's table.
    let baked: BTreeMap<SiteId, Region> = tracer
        .profile_snapshot()
        .into_iter()
        .filter_map(|(meta, _)| Some((meta.id, tier.grant(meta.id)?.region)))
        .collect();
    assert!(!baked.is_empty(), "the tier carries baked grants");
    let envelopes_inside_baked_bounds = |tracer: &Tracer| {
        for (meta, prof) in tracer.profile_snapshot() {
            let region = baked[&meta.id];
            let (elo, ehi) = prof.envelope().expect("every check carried its span");
            assert!(
                region.covers(VAddr(elo), Size(ehi - elo)),
                "{}: envelope [{elo:#x}, {ehi:#x}) outside baked {region:?}",
                meta.label
            );
        }
    };

    tracer.reset_profiles();
    tracer.clear();
    let mut interp = Interp::new(&mut kernel).unwrap();
    interp.set_engine(Engine::Promoted);

    // Promoted and traced: every guard inline, counted, never timed.
    interp.call("drv", "touch", &[buf.raw(), 16]).unwrap();
    let g1 = interp.stats().guards;
    assert!(g1 > 0);
    assert_eq!(interp.inline_admits(), g1, "tracing keeps the tier on");
    assert_eq!(interp.inline_deopts(), 0);
    assert_eq!(
        profile_sums(&tracer),
        (g1, g1, 0),
        "only inline counts grew"
    );
    assert_eq!(tracer.total_checks(), g1);
    assert_eq!(
        guard_event_pairs(&tracer),
        (0, 0),
        "inline admits emit no events"
    );
    envelopes_inside_baked_bounds(&tracer);

    // The publish stales the tier; its guards deopt to the general path.
    let gen = compiled.promoted_generation();
    policy.bump_epoch();
    assert_eq!(compiled.promoted_generation(), gen, "tier kept, now stale");
    interp.call("drv", "touch", &[buf.raw(), 16]).unwrap();
    let guards = interp.stats().guards;
    let g2 = guards - g1;
    assert_eq!(g2, g1, "same work either side of the publish");
    assert_eq!(
        interp.inline_admits(),
        g1,
        "no check counts as inline after it"
    );
    assert_eq!(interp.inline_deopts(), g2, "every inline guard deopted");
    let (hits, inline, timed) = profile_sums(&tracer);
    assert_eq!(hits, guards, "Σhits == guards");
    assert_eq!(
        (inline, timed),
        (g1, 5),
        "the first of each site's 16 (or 1) post-publish checks was timed"
    );
    assert_eq!(
        guard_event_pairs(&tracer),
        (5, 5),
        "one event pair per timed check"
    );
    for (_, prof) in tracer.profile_snapshot() {
        assert_eq!(prof.timed(), prof.hist.iter().sum::<u64>());
        assert_eq!(
            prof.timed(),
            (prof.hits - prof.inline).div_ceil(SAMPLE_EVERY)
        );
        assert!(
            prof.total_ns >= prof.timed(),
            "at least 1 ns per timed check"
        );
    }
    envelopes_inside_baked_bounds(&tracer);
}

/// Compile `DRIVERISH_SRC` under another module name.
fn driverish(module: &str) -> carat_kop::compiler::SignedModule {
    let src = DRIVERISH_SRC.replace("module \"drv\"", &format!("module \"{module}\""));
    compile_module(
        parse_module(&src).unwrap(),
        &CompileOptions::carat_kop(),
        &key(),
    )
    .expect("compiles")
    .signed
}

/// A kernel allowing everything, with `drv` loaded, tracing on, and a
/// 16-word buffer for `touch`.
fn traced_allow_kernel() -> (Kernel, u64) {
    let policy = Arc::new(PolicyModule::new());
    policy.set_default_action(carat_kop::policy::DefaultAction::Allow);
    let mut kernel = Kernel::boot(policy, vec![key()], KernelConfig::default());
    kernel.tracer().set_enabled(true);
    kernel.insmod(&driverish("drv")).expect("insmod");
    let buf = kernel.kmalloc(16 * 8).unwrap().raw();
    (kernel, buf)
}

/// The interpreter's profile shard across its life: it covers the sites
/// registered at its first traced guard, grows (and stays one shard)
/// when a module loaded later runs, is zeroed by `reset_profiles` while
/// it lives, and keeps its totals in the tracer once the interpreter is
/// dropped.
#[test]
fn interpreter_shard_grows_resets_and_retires_with_exact_totals() {
    let (mut kernel, buf) = traced_allow_kernel();
    let tracer = Arc::clone(kernel.tracer());
    let mut interp = Interp::new(&mut kernel).unwrap();
    assert_eq!(tracer.live_profile_shards(), 0, "nothing traced yet");
    interp.call("drv", "touch", &[buf, 16]).unwrap();
    assert_eq!(tracer.live_profile_shards(), 1);
    let first_sites = tracer.site_count();

    // A module inserted after the first traced call: its site ids lie
    // past the end of the interpreter's shard.
    interp.kernel().insmod(&driverish("late")).expect("insmod");
    assert!(tracer.site_count() > first_sites);
    interp.call("late", "touch", &[buf, 16]).unwrap();
    interp.call("drv", "touch", &[buf, 16]).unwrap();
    let guards = interp.stats().guards;
    assert_eq!(
        tracer.live_profile_shards(),
        1,
        "the grown shard replaced it"
    );
    assert_eq!(tracer.total_checks(), guards);
    // drv's four loop sites timed checks 1 and 17 of 32 and its exit
    // load the first of 2, across the grow; late's five sites their
    // first.
    assert_eq!(profile_sums(&tracer), (guards, 0, 4 * 2 + 1 + 5));
    let late: u64 = tracer
        .profile_snapshot()
        .iter()
        .filter(|(m, _)| m.module == "late")
        .map(|(_, p)| p.hits)
        .sum();
    assert_eq!(late, guards / 3, "one of three equal calls ran `late`");

    // A reset zeroes the live shard; later checks count from zero.
    tracer.reset_profiles();
    assert_eq!(tracer.total_checks(), 0);
    interp.call("drv", "touch", &[buf, 16]).unwrap();
    let since_reset = interp.stats().guards - guards;
    assert_eq!(tracer.total_checks(), since_reset);

    // Dropping the interpreter retires its shard and keeps the totals.
    let before = tracer.profile_snapshot();
    drop(interp);
    assert_eq!(tracer.live_profile_shards(), 0);
    assert_eq!(tracer.profile_snapshot(), before);
    assert_eq!(tracer.total_checks(), since_reset);
}

/// Another thread holding a clone of the tracer reads exact totals
/// between calls while the interpreter lives: the reader merges the
/// live shard, so nothing has to drain at call return.
#[test]
fn a_reader_on_another_thread_reconciles_between_calls() {
    let (mut kernel, buf) = traced_allow_kernel();
    let tracer = Arc::clone(kernel.tracer());
    let (to_reader, calls) = std::sync::mpsc::channel::<u64>();
    let (to_caller, acks) = std::sync::mpsc::channel::<(u64, u64, u64)>();
    let reader = std::thread::spawn(move || {
        for guards in calls {
            let (hits, _, timed) = profile_sums(&tracer);
            assert_eq!(hits, guards, "Σhits == guards between calls");
            to_caller
                .send((tracer.total_checks(), hits, timed))
                .unwrap();
        }
    });
    let mut interp = Interp::new(&mut kernel).unwrap();
    for k in 1..=4 {
        interp.call("drv", "touch", &[buf, 16]).unwrap();
        let guards = interp.stats().guards;
        to_reader.send(guards).unwrap();
        // Each loop site has run 16k checks and timed k; the exit load
        // timed its first.
        assert_eq!(acks.recv().unwrap(), (guards, guards, 4 * k + 1));
    }
    drop(to_reader);
    reader.join().expect("reader");
}

/// An interpreter that never runs a traced guard registers no shard.
#[test]
fn an_untraced_interpreter_registers_no_shard() {
    let (mut kernel, buf) = traced_allow_kernel();
    kernel.tracer().set_enabled(false);
    let tracer = Arc::clone(kernel.tracer());
    let mut interp = Interp::new(&mut kernel).unwrap();
    interp.call("drv", "touch", &[buf, 16]).unwrap();
    assert!(interp.stats().guards > 0);
    assert_eq!(tracer.live_profile_shards(), 0);
    assert_eq!(tracer.total_checks(), 0);
}

/// Multi-queue tracing, asserted structurally on every host: three TX
/// queues, each a traced `GuardedMem` on one shared tracer, tally into
/// their own shards with no shared profile lock, and the merged profile
/// reconciles exactly with every queue's guard calls. A reader polling
/// the tracer meanwhile never sees the total fall or pass the final
/// count.
#[test]
fn multi_queue_traced_tx_reconciles_exactly() {
    use carat_kop::e1000e::{run_mq_tx_with, DirectMem, E1000Device, GuardedMem};
    use std::sync::atomic::{AtomicBool, Ordering};

    let tracer = Tracer::new();
    tracer.set_enabled(true);
    let policy = Arc::new(PolicyModule::two_region_paper_policy());
    let done = AtomicBool::new(false);
    let (report, peak) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut last = 0;
            while !done.load(Ordering::Acquire) {
                let n = tracer.total_checks();
                assert!(n >= last, "total_checks fell from {last} to {n}");
                last = n;
                std::thread::yield_now();
            }
            last
        });
        let report = run_mq_tx_with(3, 200, 64, |_q| {
            GuardedMem::with_tracer(
                DirectMem::with_defaults(E1000Device::default()),
                Arc::clone(&policy),
                Arc::clone(&tracer),
            )
        })
        .expect("mq tx");
        done.store(true, Ordering::Release);
        (report, reader.join().expect("reader"))
    });
    let guards = report.guard_calls();
    assert_eq!(report.delivered(), 3 * 200);
    assert!(guards > 0);
    assert_eq!(tracer.live_profile_shards(), 0, "every queue retired");
    let (hits, inline, _) = profile_sums(&tracer);
    assert_eq!(hits, guards, "Σhits == guard calls");
    assert_eq!(inline, 0, "the native path has no inline admits");
    // Each queue registers its own driver sites, so every site is one
    // shard's, and timed one check in SAMPLE_EVERY.
    for (meta, prof) in tracer.profile_snapshot() {
        assert_eq!(
            prof.timed(),
            prof.hits.div_ceil(SAMPLE_EVERY),
            "{}",
            meta.label
        );
    }
    assert_eq!(tracer.total_checks(), guards);
    assert!(peak <= guards, "a reader saw {peak} > final {guards}");
}
