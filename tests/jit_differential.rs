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

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use carat_kop::compiler::{compile_module, CompileOptions, CompilerKey};
use carat_kop::e1000e::{
    driver_site_map, DirectMem, E1000Device, E1000Driver, GuardedMem, MemSpace, VecSink,
};
use carat_kop::interp::{Engine, ExecStats, Interp};
use carat_kop::ir::{verify_module, BinOp, GlobalInit, IcmpPred, IrBuilder, Type, Value};
use carat_kop::kernel::{Kernel, KernelConfig};
use carat_kop::policy::{DefaultAction, GuardFront, PolicyModule, ViolationAction};
use carat_kop::trace::Producer;
use carat_kop::vm::PromotionSpec;
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
        .clone()
        .expect("bytecode image");
    assert!(compiled.promote(stale_gen, policy.revocation_epoch(), &specs) > 0);
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
