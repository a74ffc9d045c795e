//! Differential property testing for the promoted trace tier, plus
//! generation-bump torture for both halves of it.
//!
//! The promoted engine claims *exactly* the general engines' observable
//! semantics: for every random verified program the tree interpreter,
//! the bytecode VM, and the promoted tier (profiled, then re-lowered
//! with inlined guard bounds) must agree on the returned value,
//! [`ExecStats`], the policy's check/permit accounting, and every byte
//! of touched memory. The promoted run additionally proves it really
//! ran promoted: every guard admits inline with zero deopts.
//!
//! The torture half drives the *native* fast path (per-queue
//! [`GuardFront`]s over one shared policy) through a concurrent
//! multi-queue TX run while the main thread storms `bump_epoch`, and
//! drives the VM tier through a hand-installed stale-generation
//! promotion — in both cases a stale bound must never admit.
//!
//! The last part pins the interpreter's per-call contract on the
//! promoted mini e1000e `xmit`: a publish at a known load inside a call
//! deopts every later inline guard of that call, a call that ends in
//! `Err` still drains its inline admits, and a policy swap, promotion,
//! publish or revocation between two calls on one long-lived
//! interpreter governs the next one, although the interpreter keeps its
//! policy and promoted tier across calls.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use carat_kop::compiler::{compile_module, CompileOptions, CompilerKey};
use carat_kop::e1000e::{
    driver_site_map, DirectMem, E1000Device, E1000Driver, GuardedMem, MemSpace, VecSink,
};
use carat_kop::interp::{Engine, ExecStats, Interp};
use carat_kop::ir::{verify_module, BinOp, GlobalInit, IcmpPred, IrBuilder, Type, Value};
use carat_kop::kernel::{FaultHook, Kernel, KernelConfig};
use carat_kop::policy::{DefaultAction, GuardFront, PolicyModule, ViolationAction};
use carat_kop::trace::Producer;
use carat_kop::vm::PromotionSpec;
use kop_bench::figures::rig::{TxBufs, TxBytes, TxRig, MMIO_BYTES, XMIT_MODULE};
use kop_core::{Protection, Region, Size, VAddr};

/// One step of a random straight-line loop body over 4 registers, an
/// 8-slot scratch buffer, and a module global (same program shape as
/// `tests/engine_differential.rs`, which pins tree == bytecode; this
/// file extends the equivalence to the promoted tier).
#[derive(Clone, Debug)]
enum Step {
    Arith(u8, BinOp, u8, u8),
    Load(u8, u8),
    Store(u8, u8),
    BumpGlobal(u8),
}

fn arb_step() -> impl Strategy<Value = Step> {
    let reg = 0u8..4;
    let slot = 0u8..8;
    prop_oneof![
        (reg.clone(), arb_binop(), reg.clone(), reg.clone())
            .prop_map(|(d, o, a, b)| Step::Arith(d, o, a, b)),
        (reg.clone(), slot.clone()).prop_map(|(d, s)| Step::Load(d, s)),
        (slot, reg.clone()).prop_map(|(s, r)| Step::Store(s, r)),
        reg.prop_map(Step::BumpGlobal),
    ]
}

fn arb_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Xor),
    ]
}

/// `run(ptr buf, i64 seed)`: execute the steps `loop_n` times.
fn build_program(steps: &[Step], loop_n: u64) -> carat_kop::ir::Module {
    let mut b = IrBuilder::new("random");
    b.global("g", Type::I64, GlobalInit::Int(1));
    let mut f = b.function("run", vec![Type::Ptr, Type::I64], Type::I64);
    f.name_params(&["buf", "seed"]);
    let entry = f.block("entry");
    let head = f.block("head");
    let body = f.block("body");
    let exit = f.block("exit");

    f.switch_to(entry);
    f.br(head);

    f.switch_to(head);
    let i = f.phi(Type::I64, vec![(entry, Value::i64(0))]);
    let acc_phi = f.phi(Type::I64, vec![(entry, Value::ConstInt(Type::I64, 0x9e37))]);
    let cond = f.icmp(IcmpPred::Ult, Type::I64, i.clone(), Value::i64(loop_n));
    f.condbr(cond, body, exit);

    f.switch_to(body);
    let mut regs: Vec<Value> = (0..4).map(|_| acc_phi.clone()).collect();
    regs[0] = f.add(Type::I64, regs[0].clone(), Value::Arg(1));
    for step in steps {
        match step {
            Step::Arith(d, o, a, b2) => {
                let v = f.bin(
                    *o,
                    Type::I64,
                    regs[*a as usize].clone(),
                    regs[*b2 as usize].clone(),
                );
                regs[*d as usize] = v;
            }
            Step::Load(d, s) => {
                let p = f.gep(Type::I64, Value::Arg(0), vec![Value::i64(*s as u64)]);
                regs[*d as usize] = f.load(Type::I64, p);
            }
            Step::Store(s, r) => {
                let p = f.gep(Type::I64, Value::Arg(0), vec![Value::i64(*s as u64)]);
                f.store(Type::I64, regs[*r as usize].clone(), p);
            }
            Step::BumpGlobal(r) => {
                let g = Value::Global("g".into());
                let old = f.load(Type::I64, g.clone());
                let new = f.add(Type::I64, old, regs[*r as usize].clone());
                f.store(Type::I64, new, g);
            }
        }
    }
    let mut acc = regs[0].clone();
    for r in &regs[1..] {
        acc = f.bin(BinOp::Xor, Type::I64, acc, r.clone());
    }
    let i_next = f.add(Type::I64, i.clone(), Value::i64(1));
    f.br(head);

    let func = f.raw();
    let patch = |func: &mut carat_kop::ir::Function, phi: &Value, val: Value| {
        if let Value::Inst(id) = phi {
            if let carat_kop::ir::Inst::Phi { incomings, .. } = func.inst_mut(*id) {
                incomings.push((body, val));
            }
        }
    };
    patch(func, &i, i_next);
    patch(func, &acc_phi, acc);

    f.switch_to(exit);
    let gfin = f.load(Type::I64, Value::Global("g".into()));
    let result = f.add(Type::I64, acc_phi, gfin);
    f.ret(Some(result));
    f.finish();
    b.finish()
}

fn key() -> CompilerKey {
    CompilerKey::from_passphrase("operator-key", "jit-proptest")
}

/// Everything one measured run can observably produce. Policy counters
/// and the violation log are *deltas over the measured call* so a
/// promoted observation (whose kernel also ran a profiling pass) stays
/// comparable to the general ones.
#[derive(Debug, PartialEq)]
struct Observation {
    result: Result<Option<u64>, String>,
    stats: ExecStats,
    checks: u64,
    permitted: u64,
    denied: u64,
    violations: usize,
    mem: Vec<u8>,
    global: Vec<u8>,
    inline_admits: u64,
    inline_deopts: u64,
    /// The tracer's view of the measured call (all empty/zero unless
    /// traced): per-site `(label, hits)`, total checks, and Σ`inline`.
    site_hits: Vec<(String, u64)>,
    traced_checks: u64,
    profiled_inline: u64,
}

/// Compile, load, optionally profile-and-promote, then run `@run(buf,
/// seed)` once on `engine` — with the kernel tracer on when `traced` —
/// and collect the observable state.
fn observe(
    module: carat_kop::ir::Module,
    opts: &CompileOptions,
    seed: u64,
    engine: Engine,
    deny_all: bool,
    promote: bool,
    traced: bool,
) -> Observation {
    let out = compile_module(module, opts, &key()).expect("compiles");
    let policy = if deny_all {
        let p = Arc::new(PolicyModule::new());
        p.set_default_action(DefaultAction::Deny);
        p.set_violation_action(ViolationAction::LogAndDeny);
        p
    } else {
        // The paper's two-region policy: the whole kernel half (heap,
        // module data) is one RW grant, so every hot site has a
        // covering region to bake.
        Arc::new(PolicyModule::two_region_paper_policy())
    };
    let mut kernel = Kernel::boot(
        Arc::clone(&policy),
        vec![key()],
        KernelConfig {
            hot_threshold: 1,
            ..KernelConfig::default()
        },
    );
    kernel.insmod(&out.signed).expect("loads");
    let buf = kernel.kmalloc(8 * 8).expect("buf");
    let global = kernel
        .module("random")
        .expect("loaded")
        .image()
        .globals
        .get("g")
        .copied()
        .expect("global @g laid out");

    if promote {
        // Profile on a scratch buffer, then restore the global so the
        // measured run starts from the same state as the general runs.
        // The envelope differs from the measured buffer, but promotion
        // bakes the covering *region's* bound, which spans both.
        let buf2 = kernel.kmalloc(8 * 8).expect("profile buf");
        let mut g0 = vec![0u8; 8];
        kernel.mem.read_bytes(global, &mut g0).expect("global");
        kernel.tracer().set_enabled(true);
        {
            let mut interp = Interp::new(&mut kernel).expect("interp");
            interp.set_engine(Engine::Bytecode);
            let _ = interp.call("random", "run", &[buf2.raw(), seed]);
        }
        kernel.tracer().set_enabled(false);
        kernel.mem.write_bytes(global, &g0).expect("restore global");
        let promoted = kernel.promote_hot("random", 1).expect("promotion");
        if !deny_all {
            assert!(promoted > 0, "hot sites promoted under the allow policy");
        } else {
            // A site that ever denied is never promoted: the promoted
            // engine must degrade to the general path wholesale.
            assert_eq!(promoted, 0, "deny-all profiles promote nothing");
        }
    }

    let s0 = policy.stats();
    let v0 = policy.violation_log().len();
    kernel.tracer().reset_profiles();
    kernel.tracer().set_enabled(traced);
    let mut interp = Interp::new(&mut kernel).expect("interp");
    interp.set_engine(engine);
    let result = interp
        .call("random", "run", &[buf.raw(), seed])
        .map_err(|e| e.to_string());
    let stats = interp.stats();
    let inline_admits = interp.inline_admits();
    let inline_deopts = interp.inline_deopts();
    drop(interp);
    kernel.tracer().set_enabled(false);
    let profile = kernel.tracer().profile_snapshot();

    let s1 = policy.stats();
    let mut mem = vec![0u8; 64];
    kernel.mem.read_bytes(buf, &mut mem).expect("read back");
    let mut gbytes = vec![0u8; 8];
    kernel.mem.read_bytes(global, &mut gbytes).expect("global");
    Observation {
        result,
        stats,
        checks: s1.checks - s0.checks,
        permitted: s1.permitted - s0.permitted,
        denied: s1.denied() - s0.denied(),
        violations: policy.violation_log().len() - v0,
        mem,
        global: gbytes,
        inline_admits,
        inline_deopts,
        profiled_inline: profile.iter().map(|(_, p)| p.inline).sum(),
        site_hits: profile
            .into_iter()
            .map(|(m, p)| (m.label, p.hits))
            .collect(),
        traced_checks: kernel.tracer().total_checks(),
    }
}

/// The fields every engine must agree on (the inline counters and the
/// tracer's view are deliberately excluded — they are asserted
/// separately).
fn comparable(o: &Observation) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        &o.result,
        o.stats,
        (o.checks, o.permitted, o.denied, o.violations),
        (&o.mem, &o.global),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Allow-all (paper two-region policy): tree, bytecode, and the
    /// profiled-then-promoted engine agree on every observable, and the
    /// promoted run answers *every* guard from an inlined bound — with
    /// the tracer off and on. Traced, all three attribute the same hits
    /// to the same sites and reconcile with the guard count; the
    /// promoted run's hits are all inline.
    #[test]
    fn three_engines_agree_and_promotion_admits_inline(
        steps in proptest::collection::vec(arb_step(), 1..16),
        loop_n in 1u64..4,
        seed in any::<u64>(),
    ) {
        let module = build_program(&steps, loop_n);
        verify_module(&module).expect("generated program verifies");

        for opts in [CompileOptions::carat_kop(), CompileOptions::optimized()] {
            for traced in [false, true] {
                let run = |engine, promote| {
                    observe(module.clone(), &opts, seed, engine, false, promote, traced)
                };
                let tree = run(Engine::Tree, false);
                let vm = run(Engine::Bytecode, false);
                let jit = run(Engine::Promoted, true);
                prop_assert_eq!(comparable(&tree), comparable(&vm));
                prop_assert_eq!(comparable(&tree), comparable(&jit));
                prop_assert!(tree.result.is_ok());
                prop_assert_eq!(tree.inline_admits, 0);
                // Same program, same seed, same initial memory: the
                // profile pass visited exactly the measured run's sites,
                // so every guard admits inline and none deopts.
                prop_assert_eq!(jit.inline_admits, jit.stats.guards);
                prop_assert_eq!(jit.inline_deopts, 0);
                prop_assert_eq!(&tree.site_hits, &vm.site_hits);
                prop_assert_eq!(&tree.site_hits, &jit.site_hits);
                for o in [&tree, &vm, &jit] {
                    prop_assert_eq!(o.traced_checks, if traced { o.stats.guards } else { 0 });
                }
                prop_assert_eq!(vm.profiled_inline, 0);
                prop_assert_eq!(jit.profiled_inline, if traced { jit.inline_admits } else { 0 });
            }
        }
    }

    /// Deny-all + squash: a profile in which every site denied promotes
    /// nothing, and the promoted engine must still match the general
    /// engines bit for bit (verdicts, squashes, denial accounting).
    #[test]
    fn engines_agree_under_deny_all(
        steps in proptest::collection::vec(arb_step(), 1..16),
        loop_n in 1u64..3,
        seed in any::<u64>(),
    ) {
        let module = build_program(&steps, loop_n);

        let opts = CompileOptions::carat_kop();
        let tree = observe(module.clone(), &opts, seed, Engine::Tree, true, false, false);
        let vm = observe(module.clone(), &opts, seed, Engine::Bytecode, true, false, false);
        let jit = observe(module.clone(), &opts, seed, Engine::Promoted, true, true, false);
        prop_assert_eq!(comparable(&tree), comparable(&vm));
        prop_assert_eq!(comparable(&tree), comparable(&jit));
        prop_assert_eq!(jit.inline_admits, 0);
        prop_assert_eq!(jit.inline_deopts, 0);
    }
}

/// A promotion installed under a generation the policy store never
/// published: every promoted guard's per-op generation check must fail
/// closed — deopt to the general path, admit nothing inline. This is
/// the VM-level race shape (`promote` racing a publish) pinned
/// deterministically.
#[test]
fn stale_generation_promotion_deopts_every_guard() {
    let steps = vec![Step::Load(0, 0), Step::Store(1, 0), Step::BumpGlobal(2)];
    let module = build_program(&steps, 4);
    let out = compile_module(module, &CompileOptions::carat_kop(), &key()).expect("compiles");
    let policy = Arc::new(PolicyModule::two_region_paper_policy());
    let mut kernel = Kernel::boot(Arc::clone(&policy), vec![key()], KernelConfig::default());
    kernel.insmod(&out.signed).expect("loads");
    let buf = kernel.kmalloc(8 * 8).expect("buf");

    // Profile, then install the promotion by hand with a generation the
    // snapshot store never published (simulating a promote/publish race
    // the subscription-based invalidation lost).
    kernel.tracer().set_enabled(true);
    {
        let mut interp = Interp::new(&mut kernel).expect("interp");
        interp.set_engine(Engine::Bytecode);
        interp
            .call("random", "run", &[buf.raw(), 3])
            .expect("profile run");
    }
    kernel.tracer().set_enabled(false);

    let snap = policy.policy_snapshot();
    let mut specs = Vec::new();
    for (meta, prof) in kernel.tracer().hot_sites(1) {
        if meta.module != "random" || prof.lo_addr >= prof.hi_addr {
            continue;
        }
        let Some(r) = snap.regions().iter().find(|r| {
            r.base.raw() <= prof.lo_addr && prof.hi_addr <= r.base.raw().saturating_add(r.len.raw())
        }) else {
            continue;
        };
        specs.push(PromotionSpec {
            site: meta.id,
            lo: r.base.raw(),
            hi: r.base.raw().saturating_add(r.len.raw()),
            perm: r.prot.granted().raw(),
        });
    }
    assert!(!specs.is_empty(), "profiled sites cover the module");
    let stale_gen = snap.generation() + 7;
    let compiled = kernel
        .module("random")
        .expect("loaded")
        .image()
        .compiled
        .clone();
    let (ns, epoch) = (policy.namespace(), policy.revocation_epoch());
    assert!(compiled.promote(ns, stale_gen, epoch, &specs) > 0);
    assert_eq!(compiled.promoted_generation(), stale_gen);

    let s0 = policy.stats();
    let mut interp = Interp::new(&mut kernel).expect("interp");
    interp.set_engine(Engine::Promoted);
    interp
        .call("random", "run", &[buf.raw(), 3])
        .expect("promoted run");
    let stats = interp.stats();
    let (admits, deopts) = (interp.inline_admits(), interp.inline_deopts());
    drop(interp);

    assert!(stats.guards > 0);
    assert_eq!(admits, 0, "a stale baked bound must never admit");
    assert_eq!(deopts, stats.guards, "every guard fell to the general path");
    // The deopt path is the exact general path: accounting reconciles.
    let s1 = policy.stats();
    assert_eq!(s1.checks - s0.checks, stats.guards);
    assert_eq!(s1.permitted - s0.permitted, stats.guards);

    // Traced, a deopt keeps the full general path too: one
    // GuardEnter/GuardExit pair and one timed profile entry per check,
    // nothing counted inline.
    let tracer = Arc::clone(kernel.tracer());
    tracer.reset_profiles();
    tracer.set_enabled(true);
    let events0 = tracer.seq(Producer::Interp);
    let mut interp = Interp::new(&mut kernel).expect("interp");
    interp.set_engine(Engine::Promoted);
    interp
        .call("random", "run", &[buf.raw(), 3])
        .expect("traced promoted run");
    let guards = interp.stats().guards;
    assert_eq!(interp.inline_admits(), 0);
    assert_eq!(interp.inline_deopts(), guards);
    drop(interp);
    assert_eq!(tracer.seq(Producer::Interp) - events0, 2 * guards);
    assert_eq!(tracer.total_checks(), guards);
    for (meta, prof) in tracer.profile_snapshot() {
        assert_eq!(prof.inline, 0, "{}", meta.label);
        assert_eq!(prof.hist.iter().sum::<u64>(), prof.hits, "{}", meta.label);
    }
}

/// A guarded memory space whose guards go through a fresh per-queue
/// [`GuardFront`] over `pm`.
fn front_mem(pm: &Arc<PolicyModule>) -> GuardedMem<GuardFront> {
    let mem = DirectMem::with_defaults(E1000Device::default());
    let map = driver_site_map(mem.arena_base(), mem.mmio_base());
    GuardedMem::new(mem, GuardFront::new(Arc::clone(pm), map))
}

/// Generation-bump torture on the native datapath: several TX queues,
/// each fronted by its own [`GuardFront`] over one shared policy module,
/// while the main thread storms `bump_epoch`. Soundness and accounting
/// must both hold: no frame is lost, every guard is accounted exactly
/// once (`policy.checks` reconciles with the drivers' guard counters),
/// and once a bump lands, stale slots refill rather than admit.
#[test]
fn mq_tx_generation_bump_torture() {
    use carat_kop::e1000e::run_mq_tx_with;

    let pm = Arc::new(PolicyModule::two_region_paper_policy());
    const QUEUES: usize = 3;
    const FRAMES: u64 = 300;

    // ---- Phase A: quiescent policy — the slots answer inline. ----
    let checks0 = pm.stats().checks;
    let rep = run_mq_tx_with(QUEUES, FRAMES, 256, |_q| front_mem(&pm)).expect("quiescent MQ run");
    for q in &rep.queues {
        assert_eq!(q.delivered, FRAMES);
    }
    // Every guard accounted exactly once, slot admits included.
    assert_eq!(pm.stats().checks - checks0, rep.guard_calls());
    let refills_a = rep.guard_calls() - rep.inline_admits();
    assert!(
        rep.inline_admits() > refills_a,
        "the slots answered most TX guards inline"
    );

    // ---- Phase B: the same run under a bump_epoch storm. ----
    let stop = Arc::new(AtomicBool::new(false));
    let storm = {
        let pm = Arc::clone(&pm);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut bumps = 0u64;
            while !stop.load(Ordering::Relaxed) {
                pm.bump_epoch();
                bumps += 1;
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
            bumps
        })
    };
    let checks1 = pm.stats().checks;
    let rep = run_mq_tx_with(QUEUES, FRAMES, 256, |_q| front_mem(&pm)).expect("stormed MQ run");
    stop.store(true, Ordering::Relaxed);
    let bumps = storm.join().expect("storm thread");
    assert!(bumps > 0);

    // Behaviour is unchanged under the storm: every frame delivered.
    for q in &rep.queues {
        assert_eq!(q.delivered, FRAMES);
    }
    // Exact accounting survives the storm: every guard was either a
    // (drained) slot admit or a general check — a stale admit that
    // skipped accounting, or a double count, would break this balance.
    assert_eq!(pm.stats().checks - checks1, rep.guard_calls());
    let refills_b = rep.guard_calls() - rep.inline_admits();
    assert!(
        refills_b > refills_a,
        "the storm landed mid-run: stale slots must refill ({bumps} bumps, \
         {refills_b} general checks vs {refills_a} quiescent)"
    );

    // ---- Phase C: zero stale admits, pinned deterministically. ----
    // A least-privilege policy, so the TX ring has a grant of its own.
    let geo = E1000Driver::probe(DirectMem::with_defaults(E1000Device::default()))
        .expect("probe")
        .datapath_geometry();
    let (ring, ring_len) = geo.control[0];
    let ring_grant = Region::new(VAddr(ring), Size(ring_len), Protection::READ_WRITE).unwrap();
    let pm = Arc::new(PolicyModule::datapath_policy(&geo));
    let mut drv = E1000Driver::probe(front_mem(&pm)).expect("probe");
    drv.up().expect("up");
    let mut sink = VecSink::default();
    for _ in 0..8 {
        drv.xmit_and_flush([0xff; 6], 0x88b5, &[0u8; 64], &mut sink)
            .expect("warm xmit");
    }
    // One guarded load at the TX-ring site: answered by its filled slot.
    let ring_load = |drv: &mut E1000Driver<GuardedMem<GuardFront>>| {
        let before = drv.counts().inline_admits;
        let r = drv.mem().read(ring, 8).map(|_| ());
        (r, drv.counts().inline_admits - before)
    };
    assert_eq!(ring_load(&mut drv), (Ok(()), 1));

    // Removing the grant the slot holds: the next guard there is denied.
    pm.remove_region(VAddr(ring)).unwrap();
    let (r, inline) = ring_load(&mut drv);
    assert!(r.is_err(), "a removed grant must not admit");
    assert_eq!(inline, 0);

    // Restore it, then bump the epoch over a freshly filled slot: admits
    // resume only after a general check refills it.
    pm.add_region(ring_grant).unwrap();
    assert_eq!(
        ring_load(&mut drv),
        (Ok(()), 0),
        "refill after the re-grant"
    );
    assert_eq!(ring_load(&mut drv), (Ok(()), 1));
    pm.bump_epoch();
    assert_eq!(
        ring_load(&mut drv),
        (Ok(()), 0),
        "bump_epoch stales the slot"
    );
    assert_eq!(ring_load(&mut drv), (Ok(()), 1), "the refill admits again");
    for _ in 0..8 {
        drv.xmit_and_flush([0xff; 6], 0x88b5, &[0u8; 64], &mut sink)
            .expect("post-bump xmit");
    }
    let guard_calls = drv.counts().guard_calls;
    assert_eq!(pm.stats().checks, guard_calls);
}

// ---- The per-call contract, on the promoted mini e1000e `xmit`. ----
//
// `Interp::call` is the unit of resolution and accounting: a call
// settles its promoted tier once and pins its governing policy on first
// use, its inline admits drain where it returns, and every inline guard
// still compares the baked generation and revocation epoch with the
// live policy per op. The interpreter keeps the policy and the tier
// past the return, keyed by the namespace store's version and the
// module's tier id, so what changes between calls must reach the next
// call through those keys.

/// Packets in the traced general-path window promotion profiles.
const PROFILE_PKTS: u64 = 4;

/// The mini e1000e `xmit` under a least-privilege policy — the TX ring,
/// the frame, the MMIO window and `@stats` each hold a grant of their
/// own, everything else is denied — profiled on the general path and
/// promoted: every one of its guards runs inline.
fn boot_xmit(action: ViolationAction) -> TxRig {
    let mut x = boot_profiled(action);
    assert_eq!(x.promote(), 10, "every xmit guard site promoted");
    x
}

/// [`boot_xmit`] before the promotion: profiled, every site hot enough
/// for `tick()`.
fn boot_profiled(action: ViolationAction) -> TxRig {
    let policy = Arc::new(PolicyModule::new());
    policy.set_default_action(DefaultAction::Deny);
    policy.set_violation_action(action);
    let config = KernelConfig {
        hot_threshold: 1,
        ..KernelConfig::default()
    };
    let mut x = TxRig::boot(&CompileOptions::carat_kop(), Arc::clone(&policy), config);
    policy.replace_regions(x.bufs.grants(true)).expect("grants");
    x.profile(PROFILE_PKTS);
    x
}

/// Send packet `p`: ring slot `p mod 256`, nothing to clean.
fn xmit(interp: &mut Interp<'_>, b: &TxBufs, p: u64) -> Result<Option<u64>, String> {
    b.xmit(interp, p).map_err(|e| e.to_string())
}

/// What a [`PublishAt`] hook does to the policy.
#[derive(Clone, Copy, Debug, PartialEq)]
enum MidCall {
    BumpEpoch,
    BumpRevocation,
    /// `replace_regions` without the `@stats` grant.
    DropStatsGrant,
}

/// A fault hook that corrupts nothing. At the `k`-th integer load it
/// sees it notes the policy's `checks` count, then acts on the policy
/// once — a publish or revocation at a known point inside a call.
struct PublishAt {
    k: u64,
    seen: u64,
    act: MidCall,
    policy: Arc<PolicyModule>,
    without_stats: Vec<Region>,
    checks_at: Arc<AtomicU64>,
}

impl FaultHook for PublishAt {
    fn corrupt_read(&mut self, _addr: VAddr, _size: Size, value: u64) -> u64 {
        self.seen += 1;
        if self.seen == self.k {
            self.checks_at
                .store(self.policy.stats().checks, Ordering::SeqCst);
            match self.act {
                MidCall::BumpEpoch => {
                    self.policy.bump_epoch();
                }
                MidCall::BumpRevocation => {
                    self.policy.bump_revocation();
                }
                MidCall::DropStatsGrant => self
                    .policy
                    .replace_regions(self.without_stats.clone())
                    .expect("reload"),
            }
        }
        value
    }
}

/// One call's observables. Policy counters are deltas over the call.
#[derive(Debug, PartialEq)]
struct CallObs {
    result: Result<Option<u64>, String>,
    stats: ExecStats,
    /// `(checks, permitted, denied, violations)`.
    policy: (u64, u64, u64, usize),
    touched: TxBytes,
}

/// `(inline admits, deopts, guards)` of one call.
type Inline = (u64, u64, u64);

/// What [`mid_call_run`] saw on one engine.
struct MidCallRun {
    obs: CallObs,
    /// Policy checks counted when the hook fired, as a delta over the
    /// call.
    checks_at: u64,
    measured: Inline,
    /// The next call, before `tick()`.
    next: Inline,
    /// The call after `tick()`.
    repromoted: Inline,
    /// Guards the policy denied in the call after `tick()`.
    repromoted_denied: u64,
}

/// Boot, promote, then send one `xmit` on `engine` with a [`PublishAt`]
/// hook firing at its `k`-th integer load; then one more call, then
/// `tick()` and one more.
fn mid_call_run(act: MidCall, k: u64, engine: Engine) -> MidCallRun {
    let mut x = boot_xmit(ViolationAction::LogAndDeny);
    let (policy, b) = (Arc::clone(x.kernel.policy()), x.bufs);
    let checks_at = Arc::new(AtomicU64::new(0));
    x.kernel.mem.set_fault_hook(Box::new(PublishAt {
        k,
        seen: 0,
        act,
        policy: Arc::clone(&policy),
        without_stats: b.grants(false),
        checks_at: Arc::clone(&checks_at),
    }));
    let mut interp = x.interp(engine);
    let mut p = PROFILE_PKTS;
    let mut call = |interp: &mut Interp<'_>| {
        let (s0, v0) = (policy.stats(), policy.violation_log().len());
        let (a0, d0, g0) = (
            interp.inline_admits(),
            interp.inline_deopts(),
            interp.stats(),
        );
        let result = xmit(interp, &b, p);
        p += 1;
        let (s1, g1) = (policy.stats(), interp.stats());
        let stats = ExecStats {
            insts: g1.insts - g0.insts,
            guards: g1.guards - g0.guards,
            mem_accesses: g1.mem_accesses - g0.mem_accesses,
            squashed: g1.squashed - g0.squashed,
        };
        let obs = CallObs {
            result,
            stats,
            policy: (
                s1.checks - s0.checks,
                s1.permitted - s0.permitted,
                s1.denied() - s0.denied(),
                policy.violation_log().len() - v0,
            ),
            touched: b.read(interp.kernel()),
        };
        let inline = (
            interp.inline_admits() - a0,
            interp.inline_deopts() - d0,
            stats.guards,
        );
        (obs, inline, s0.checks)
    };
    let (obs, measured, checks0) = call(&mut interp);
    assert!(
        interp.kernel().mem.clear_fault_hook().is_some(),
        "hook installed"
    );
    let (_, next, _) = call(&mut interp);
    interp.kernel().tick();
    let (after, repromoted, _) = call(&mut interp);
    MidCallRun {
        checks_at: checks_at.load(Ordering::SeqCst) - checks0,
        obs,
        measured,
        next,
        repromoted,
        repromoted_denied: after.policy.2,
    }
}

/// A publish or revocation that lands inside a promoted call deopts
/// every inline guard after it in that same call: the call pinned its
/// tier and policy, but each inline guard compares the baked generation
/// and epoch with the live policy. Against a bytecode run under the same
/// hook, the tree and promoted engines agree on the result, stats,
/// policy-counter deltas and touched bytes; dropping the `@stats` grant
/// mid-call makes the next `@stats` guard deny on every engine. Nothing
/// drains mid-call, `policy.checks == stats.guards` after it, and the
/// next call admits nothing inline until `tick()` re-promotes.
#[test]
fn mid_call_publish_deopts_every_later_inline_guard() {
    for act in [
        MidCall::BumpEpoch,
        MidCall::BumpRevocation,
        MidCall::DropStatsGrant,
    ] {
        // xmit's two integer loads read @stats' packet and byte
        // counters in @bump_stats; three and one @stats guards follow.
        for k in [1, 2] {
            let ctx = format!("{act:?} at load {k}");
            let vm = mid_call_run(act, k, Engine::Bytecode);
            let tree = mid_call_run(act, k, Engine::Tree);
            let jit = mid_call_run(act, k, Engine::Promoted);
            assert_eq!(tree.obs, vm.obs, "{ctx}: tree vs bytecode");
            assert_eq!(jit.obs, vm.obs, "{ctx}: promoted vs bytecode");
            let guards = vm.obs.stats.guards;
            assert_eq!(guards, 10, "{ctx}");
            assert_eq!(vm.obs.policy.0, guards, "{ctx}: checks == guards");

            // On the general engines every guard is a check as it runs;
            // the promoted call's inline admits wait for its return.
            let before = vm.checks_at;
            assert!(before > 0 && before < guards, "{ctx}: {before}");
            assert_eq!(tree.checks_at, before, "{ctx}");
            assert_eq!(jit.checks_at, 0, "{ctx}: nothing drains mid-call");
            assert_eq!(
                jit.measured,
                (before, guards - before, guards),
                "{ctx}: every inline guard after the hook deopts"
            );

            let (denied, squashed) = (vm.obs.policy.2, vm.obs.stats.squashed);
            if act == MidCall::DropStatsGrant {
                assert!(denied > 0, "{ctx}: the next @stats guard denies");
                assert_eq!(squashed, denied, "{ctx}");
            } else {
                assert_eq!((denied, squashed), (0, 0), "{ctx}");
            }

            // The next call admits nothing inline: a publish dropped the
            // tier; a revocation left it installed but stale, so every
            // inline guard deopts.
            let next_deopts = if act == MidCall::BumpRevocation {
                guards
            } else {
                0
            };
            assert_eq!(jit.next, (0, next_deopts, guards), "{ctx}: next call");
            // tick() re-promotes every site a grant still covers.
            assert_eq!(
                jit.repromoted,
                (guards - jit.repromoted_denied, 0, guards),
                "{ctx}: after tick()"
            );
        }
    }
}

/// `(Σhits, Σinline)` over every profiled site.
fn profile_hits(kernel: &Kernel) -> (u64, u64) {
    kernel
        .tracer()
        .profile_snapshot()
        .iter()
        .fold((0, 0), |(h, i), (_, p)| (h + p.hits, i + p.inline))
}

/// A promoted call that ends in `Err` after inline admits still drains
/// them where it returns: fuel running out inside `xmit`, and a
/// `ViolationAction::Panic` denial of its last guard, each leave
/// `policy.checks == stats.guards` and, traced, Σhits == guards.
#[test]
fn promoted_call_ending_in_err_still_reconciles() {
    for traced in [false, true] {
        // Fuel runs out halfway through the packet.
        let mut x = boot_xmit(ViolationAction::LogAndDeny);
        let (policy, b) = (Arc::clone(x.kernel.policy()), x.bufs);
        let full = {
            let mut interp = x.interp(Engine::Promoted);
            xmit(&mut interp, &b, PROFILE_PKTS).expect("full xmit");
            interp.stats().insts
        };
        x.kernel.tracer().reset_profiles();
        x.kernel.tracer().set_enabled(traced);
        let c0 = policy.stats().checks;
        let (result, guards, admits) = {
            let mut interp = x.interp(Engine::Promoted);
            interp.set_fuel(full / 2);
            let r = xmit(&mut interp, &b, PROFILE_PKTS + 1);
            (r, interp.stats().guards, interp.inline_admits())
        };
        let err = result.expect_err("fuel runs out");
        assert!(err.contains("fuel exhausted"), "{err}");
        assert!(
            admits > 0 && admits == guards,
            "traced={traced}: {admits}/{guards}"
        );
        assert_eq!(policy.stats().checks - c0, guards, "traced={traced}");
        let want = if traced { (guards, guards) } else { (0, 0) };
        assert_eq!(profile_hits(&x.kernel), want, "traced={traced}");

        // The last guard (the TDT doorbell) hits an ungranted window
        // under `Panic`: nine inline admits, one deopt, one panic.
        let mut x = boot_xmit(ViolationAction::Panic);
        let policy = Arc::clone(x.kernel.policy());
        let rogue = TxBufs {
            mmio: x.kernel.kmalloc(MMIO_BYTES).expect("ungranted window"),
            ..x.bufs
        };
        x.kernel.tracer().reset_profiles();
        x.kernel.tracer().set_enabled(traced);
        let s0 = policy.stats();
        let (result, stats, inline) = {
            let mut interp = x.interp(Engine::Promoted);
            let r = xmit(&mut interp, &rogue, PROFILE_PKTS);
            let inline = (interp.inline_admits(), interp.inline_deopts());
            (r, interp.stats(), inline)
        };
        assert!(result.is_err(), "traced={traced}: the denial panics");
        assert!(x.kernel.panicked().is_some());
        assert_eq!(inline, (stats.guards - 1, 1), "traced={traced}");
        let s1 = policy.stats();
        assert_eq!(s1.checks - s0.checks, stats.guards, "traced={traced}");
        assert_eq!(s1.denied() - s0.denied(), 1, "traced={traced}");
        let want = if traced {
            (stats.guards, stats.guards - 1)
        } else {
            (0, 0)
        };
        assert_eq!(profile_hits(&x.kernel), want, "traced={traced}");
    }
}

/// A policy swap between two calls on one `Interp` governs the next call
/// on every engine: `set_module_policy` routes the next call's guards to
/// the module's own deny-all policy, and `clear_module_policy` routes the
/// call after back to the global policy.
#[test]
fn policy_swap_between_calls_governs_the_next_call() {
    for engine in [Engine::Tree, Engine::Bytecode, Engine::Promoted] {
        let mut x = boot_xmit(ViolationAction::LogAndDeny);
        let (global, b) = (Arc::clone(x.kernel.policy()), x.bufs);
        let own = Arc::new(PolicyModule::new());
        own.set_default_action(DefaultAction::Deny);
        own.set_violation_action(ViolationAction::LogAndDeny);
        let mut interp = x.interp(engine);
        let mut p = PROFILE_PKTS;
        // `(global checks, own checks, squashed)` over one call.
        let mut call = |interp: &mut Interp<'_>| {
            let (g0, o0, s0) = (global.stats().checks, own.stats().checks, interp.stats());
            xmit(interp, &b, p).expect("xmit");
            p += 1;
            let s1 = interp.stats();
            assert_eq!(s1.guards - s0.guards, 10);
            (
                global.stats().checks - g0,
                own.stats().checks - o0,
                s1.squashed - s0.squashed,
            )
        };
        assert_eq!(call(&mut interp), (10, 0, 0), "{engine:?}: global");
        if engine == Engine::Promoted {
            assert_eq!(interp.inline_admits(), 10);
        }
        interp
            .kernel()
            .set_module_policy(XMIT_MODULE, Arc::clone(&own));
        assert_eq!(call(&mut interp), (0, 10, 10), "{engine:?}: own policy");
        assert!(interp.kernel().clear_module_policy(XMIT_MODULE));
        assert_eq!(call(&mut interp), (10, 0, 0), "{engine:?}: global again");
    }
}

/// Runs `f` on a thread of its own and waits for it: a change made
/// between two calls by someone other than the interpreter's owner.
fn elsewhere<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f).join().expect("the other thread")
}

/// A namespace swap through the shared `NamespaceStore`, from another
/// thread, governs the next call on every engine of one long-lived
/// interpreter, and so does removing it again. The swapped-in policy
/// (default deny, no rules, bumped once) has the generation and epoch the
/// promoted tier was baked under, so only the namespace id tells it
/// from the global policy: the tier must not run under it, and runs
/// inline again once the global policy governs the module again.
#[test]
fn shared_store_swap_between_calls_governs_the_next_call() {
    for engine in [Engine::Tree, Engine::Bytecode, Engine::Promoted] {
        let mut x = boot_xmit(ViolationAction::LogAndDeny);
        let (global, b) = (Arc::clone(x.kernel.policy()), x.bufs);
        let store = Arc::clone(x.kernel.namespaces());
        let own = Arc::new(PolicyModule::new());
        own.set_default_action(DefaultAction::Deny);
        own.set_violation_action(ViolationAction::LogAndDeny);
        own.bump_epoch();
        let compiled = &x
            .kernel
            .module(XMIT_MODULE)
            .expect("loaded")
            .image()
            .compiled;
        assert_eq!(
            (own.store_generation(), own.revocation_epoch()),
            (compiled.promoted_generation(), compiled.promoted_epoch()),
            "the swapped-in policy carries the tier's tags"
        );
        let inline = if engine == Engine::Promoted { 10 } else { 0 };
        let mut interp = x.interp(engine);
        let mut p = PROFILE_PKTS;
        // `(global checks, own checks, squashed, inline admits)` over one
        // call.
        let mut call = |interp: &mut Interp<'_>| {
            let (g0, o0, s0) = (global.stats().checks, own.stats().checks, interp.stats());
            let a0 = interp.inline_admits();
            xmit(interp, &b, p).expect("xmit");
            p += 1;
            let s1 = interp.stats();
            assert_eq!(s1.guards - s0.guards, 10);
            (
                global.stats().checks - g0,
                own.stats().checks - o0,
                s1.squashed - s0.squashed,
                interp.inline_admits() - a0,
            )
        };
        assert_eq!(call(&mut interp), (10, 0, 0, inline), "{engine:?}: global");
        let (s, o) = (Arc::clone(&store), Arc::clone(&own));
        elsewhere(move || s.register(XMIT_MODULE, o));
        assert_eq!(call(&mut interp), (0, 10, 10, 0), "{engine:?}: own policy");
        let s = Arc::clone(&store);
        assert!(elsewhere(move || s.remove(XMIT_MODULE)).is_some());
        assert_eq!(
            call(&mut interp),
            (10, 0, 0, inline),
            "{engine:?}: global again"
        );
    }
}

/// What changes the promoted tier between two calls on one long-lived
/// interpreter reaches the next call: a `tick()` that promotes makes it
/// admit inline; a publish from another thread drops the tier, so the
/// next call admits nothing inline and deopts nothing, and a guard the
/// new rules deny is denied; a revocation from another thread leaves
/// the tier installed and stale, so every guard deopts.
#[test]
fn tier_changes_between_calls_govern_the_next_call() {
    let mut x = boot_profiled(ViolationAction::LogAndDeny);
    let (policy, b) = (Arc::clone(x.kernel.policy()), x.bufs);
    let mut interp = x.interp(Engine::Promoted);
    let mut p = PROFILE_PKTS;
    // `(inline admits, deopts, denied, squashed)` over one call, which
    // reconciles `policy.checks` with its guards.
    let mut call = |interp: &mut Interp<'_>| {
        let (c0, a0, d0, s0) = (
            policy.stats(),
            interp.inline_admits(),
            interp.inline_deopts(),
            interp.stats(),
        );
        xmit(interp, &b, p).expect("xmit");
        p += 1;
        let (c1, s1) = (policy.stats(), interp.stats());
        assert_eq!(s1.guards - s0.guards, 10);
        assert_eq!(c1.checks - c0.checks, 10, "checks == guards");
        (
            interp.inline_admits() - a0,
            interp.inline_deopts() - d0,
            c1.denied() - c0.denied(),
            s1.squashed - s0.squashed,
        )
    };
    assert_eq!(call(&mut interp), (0, 0, 0, 0), "nothing promoted yet");
    assert_eq!(interp.kernel().tick(), 10);
    assert_eq!(call(&mut interp), (10, 0, 0, 0), "tick() promoted");

    let pm = Arc::clone(&policy);
    elsewhere(move || pm.bump_epoch());
    assert_eq!(
        call(&mut interp),
        (0, 0, 0, 0),
        "bump_epoch dropped the tier"
    );
    assert_eq!(interp.kernel().tick(), 10);
    assert_eq!(call(&mut interp), (10, 0, 0, 0), "re-promoted");

    // A reload without the `@stats` grant: zero stale admits, so every
    // `@stats` guard denies.
    let (pm, rules) = (Arc::clone(&policy), b.grants(false));
    elsewhere(move || pm.replace_regions(rules).expect("reload"));
    let (admits, deopts, denied, squashed) = call(&mut interp);
    assert_eq!((admits, deopts), (0, 0), "the reload dropped the tier");
    assert!(denied > 0 && squashed == denied, "{denied}/{squashed}");
    assert_eq!(interp.kernel().tick(), 10 - denied as usize);

    let pm = Arc::clone(&policy);
    elsewhere(move || pm.bump_revocation());
    assert_eq!(
        call(&mut interp),
        (0, 10 - denied, denied, squashed),
        "a revocation stales the kept tier"
    );
}

/// After a swap through the shared store, `tick()` bakes the tier from
/// the policy that now governs and subscribes to that policy: its next
/// publish drops the tier, so the call after admits nothing inline and
/// deopts nothing.
#[test]
fn tick_after_a_shared_store_swap_follows_the_new_policy() {
    let mut x = boot_xmit(ViolationAction::LogAndDeny);
    let b = x.bufs;
    let store = Arc::clone(x.kernel.namespaces());
    let own = Arc::new(PolicyModule::new());
    own.set_default_action(DefaultAction::Deny);
    own.set_violation_action(ViolationAction::LogAndDeny);
    own.replace_regions(b.grants(true)).expect("grants");
    let mut interp = x.interp(Engine::Promoted);
    let mut p = PROFILE_PKTS;
    // `(inline admits, deopts, own checks)` over one call.
    let mut call = |interp: &mut Interp<'_>| {
        let (a0, d0, o0) = (
            interp.inline_admits(),
            interp.inline_deopts(),
            own.stats().checks,
        );
        xmit(interp, &b, p).expect("xmit");
        p += 1;
        (
            interp.inline_admits() - a0,
            interp.inline_deopts() - d0,
            own.stats().checks - o0,
        )
    };
    let (s, o) = (Arc::clone(&store), Arc::clone(&own));
    elsewhere(move || s.register(XMIT_MODULE, o));
    assert_eq!(call(&mut interp), (0, 0, 10), "the global tier stays off");
    assert_eq!(interp.kernel().tick(), 10);
    assert_eq!(call(&mut interp), (10, 0, 10), "baked from the new policy");
    let o = Arc::clone(&own);
    elsewhere(move || o.bump_epoch());
    assert_eq!(
        call(&mut interp),
        (0, 0, 10),
        "its publish dropped the tier"
    );
}
