//! Differential property tests over random KIR programs.
//!
//! One generator writes every program as KIR text and parses it with
//! `parse_module`, the path every signed module takes at insertion. A
//! program is a counted loop over four loop-carried registers, an 8-slot
//! scratch buffer, the induction variable and a module global `@g`. Its
//! steps are arithmetic (shifts included; division excluded, so a
//! legitimate divide-by-zero never cuts a comparison short), slot and
//! induction-indexed loads and stores, `icmp` + `select` minima, `@g`
//! read-modify-writes and register swaps. A swap emits no instruction, so
//! the back-edge carries one phi into another and the bytecode must stage
//! its parallel moves. Nothing touches memory after the loop, so a program
//! whose steps touch no memory runs clean under a denying policy.
//!
//! One observer compiles, loads and runs a program under a build flavour,
//! an engine, a policy, optional profile-and-promote and optional tracing,
//! and returns everything the run shows. The properties hold that:
//!
//! * the tree walker and the bytecode agree under allow-all and under
//!   deny-all squash, for every build flavour;
//! * the guard optimizer is invisible under allow-all, except that it may
//!   only shrink the dynamic guard count, and keeps every violation
//!   verdict under deny-all + panic;
//! * programs round-trip through text, and guard injection is
//!   semantically invisible under allow-all;
//! * tree, bytecode and the profiled-then-promoted tier agree, the
//!   promoted run admits every guard inline, and a promotion installed
//!   under an unpublished generation deopts every guard.

use std::fmt::Debug;
use std::sync::Arc;

use proptest::prelude::*;

use carat_kop::compiler::{compile_module, CompileOptions, CompilerKey};
use carat_kop::core::{Size, VAddr};
use carat_kop::interp::{Engine, ExecStats, Interp};
use carat_kop::ir::{parse_module, print_module, verify_module, BinOp, Module};
use carat_kop::kernel::{Kernel, KernelConfig};
use carat_kop::policy::stats::GuardStatsSnapshot;
use carat_kop::policy::{DefaultAction, PolicyModule, ViolationAction};
use carat_kop::trace::{Producer, SAMPLE_EVERY};

/// One step of the loop body over registers 0–3, the scratch buffer, the
/// induction variable `%i` and the global `@g`.
#[derive(Clone, Debug)]
enum Step {
    /// dst = a <op> b
    Arith(u8, BinOp, u8, u8),
    /// dst = buf[slot]
    Load(u8, u8),
    /// buf[slot] = src
    Store(u8, u8),
    /// dst = buf[i], an induction-indexed walk the range planner coalesces
    WalkLoad(u8),
    /// buf[i] = src
    WalkStore(u8),
    /// dst = (a < b) ? a : b
    Min(u8, u8, u8),
    /// g = g + src: a load and a store through one pointer, which the
    /// optimizer elides and widens
    BumpGlobal(u8),
    /// Exchange registers a and b.
    Swap(u8, u8),
}

const OPS: [BinOp; 8] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::LShr,
];

fn arb_step() -> impl Strategy<Value = Step> {
    let reg = 0u8..4;
    let slot = 0u8..8;
    prop_oneof![
        (reg.clone(), 0..OPS.len(), reg.clone(), reg.clone())
            .prop_map(|(d, o, a, b)| Step::Arith(d, OPS[o], a, b)),
        (reg.clone(), slot.clone()).prop_map(|(d, s)| Step::Load(d, s)),
        (slot, reg.clone()).prop_map(|(s, r)| Step::Store(s, r)),
        reg.clone().prop_map(Step::WalkLoad),
        reg.clone().prop_map(Step::WalkStore),
        (reg.clone(), reg.clone(), reg.clone()).prop_map(|(d, a, b)| Step::Min(d, a, b)),
        reg.clone().prop_map(Step::BumpGlobal),
        (reg.clone(), reg).prop_map(|(a, b)| Step::Swap(a, b)),
    ]
}

fn steps(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(arb_step(), len)
}

/// `run(ptr %buf, i64 %seed)`: the steps in a counted loop of `loop_n`
/// iterations (the shape the range planner recognizes), returning the xor
/// of the four registers.
fn program(steps: &[Step], loop_n: u64) -> Module {
    let mut regs = ["%r0", "%r1", "%r2", "%r3"].map(String::from);
    let mut body = String::new();
    let mut n = 0;
    let mut def = |body: &mut String, inst: String| {
        n += 1;
        *body += &format!("  %v{n} = {inst}\n");
        format!("%v{n}")
    };
    regs[0] = def(&mut body, "add i64 %r0, %seed".into());
    for step in steps {
        let r = |k: &u8| regs[*k as usize].clone();
        match step {
            Step::Arith(d, op, a, b) => {
                regs[*d as usize] = def(&mut body, format!("{op} i64 {}, {}", r(a), r(b)));
            }
            Step::Load(d, s) => {
                let p = def(&mut body, format!("gep i64, ptr %buf, i64 {s}"));
                regs[*d as usize] = def(&mut body, format!("load i64, ptr {p}"));
            }
            Step::Store(s, v) => {
                let p = def(&mut body, format!("gep i64, ptr %buf, i64 {s}"));
                body += &format!("  store i64 {}, ptr {p}\n", r(v));
            }
            Step::WalkLoad(d) => {
                let p = def(&mut body, "gep i64, ptr %buf, i64 %i".into());
                regs[*d as usize] = def(&mut body, format!("load i64, ptr {p}"));
            }
            Step::WalkStore(v) => {
                let p = def(&mut body, "gep i64, ptr %buf, i64 %i".into());
                body += &format!("  store i64 {}, ptr {p}\n", r(v));
            }
            Step::Min(d, a, b) => {
                let c = def(&mut body, format!("icmp slt i64 {}, {}", r(a), r(b)));
                let min = format!("select i1 {c}, i64 {}, i64 {}", r(a), r(b));
                regs[*d as usize] = def(&mut body, min);
            }
            Step::BumpGlobal(v) => {
                let old = def(&mut body, "load i64, ptr @g".into());
                let new = def(&mut body, format!("add i64 {old}, {}", r(v)));
                body += &format!("  store i64 {new}, ptr @g\n");
            }
            Step::Swap(a, b) => regs.swap(*a as usize, *b as usize),
        }
    }
    let phis: String = regs
        .iter()
        .enumerate()
        .map(|(k, next)| {
            format!(
                "  %r{k} = phi i64 [ {}, %entry ], [ {next}, %body ]\n",
                0x9e37 + k
            )
        })
        .collect();
    parse_module(&format!(
        "module \"random\"
global @g : i64 = 1
define i64 @run(ptr %buf, i64 %seed) {{
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %inext, %body ]
{phis}  %c = icmp ult i64 %i, {loop_n}
  condbr i1 %c, %body, %exit
body:
{body}  %inext = add i64 %i, 1
  br %head
exit:
  %x1 = xor i64 %r0, %r1
  %x2 = xor i64 %x1, %r2
  %x3 = xor i64 %x2, %r3
  ret i64 %x3
}}
"
    ))
    .expect("generated program parses")
}

fn key() -> CompilerKey {
    CompilerKey::from_passphrase("operator-key", "proptest")
}

/// The policy a run executes under.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Policy {
    /// Default-allow with no regions.
    Allow,
    /// The paper's two-region policy: the kernel half (heap, module data)
    /// is one RW grant, so every hot site has a covering region to bake.
    TwoRegion,
    /// Default-deny with `LogAndDeny`: every guarded access is squashed.
    DenySquash,
    /// Default-deny with `Panic`, the paper's enforcement mode.
    DenyPanic,
}

impl Policy {
    fn module(self) -> Arc<PolicyModule> {
        let (default, action) = match self {
            Policy::TwoRegion => return Arc::new(PolicyModule::two_region_paper_policy()),
            Policy::Allow => (DefaultAction::Allow, None),
            Policy::DenySquash => (DefaultAction::Deny, Some(ViolationAction::LogAndDeny)),
            Policy::DenyPanic => (DefaultAction::Deny, Some(ViolationAction::Panic)),
        };
        let pm = PolicyModule::new();
        pm.set_default_action(default);
        if let Some(action) = action {
            pm.set_violation_action(action);
        }
        Arc::new(pm)
    }
}

/// Everything one measured run shows. Policy counters and violations are
/// deltas over the measured call, so a promoted observation (whose kernel
/// also ran a profiling pass) stays comparable with the others.
#[derive(Debug)]
struct Observation {
    result: Result<Option<u64>, String>,
    stats: ExecStats,
    guard_stats: GuardStatsSnapshot,
    violations: Vec<String>,
    mem: Vec<u8>,
    global: Vec<u8>,
    inline_admits: u64,
    inline_deopts: u64,
    /// The tracer's view of the measured call (empty or zero unless
    /// traced): per-site `(label, hits)`, total checks and Σ`inline`.
    site_hits: Vec<(String, u64)>,
    traced_checks: u64,
    profiled_inline: u64,
}

/// Compile and load `module`, optionally profile it on a scratch buffer
/// and promote its hot sites, then run `@run(buf, seed)` once on `engine`
/// (with the kernel tracer on when `traced`) and collect what it shows.
fn observe(
    module: &Module,
    opts: &CompileOptions,
    seed: u64,
    engine: Engine,
    policy: Policy,
    promote: bool,
    traced: bool,
) -> Observation {
    let out = compile_module(module.clone(), opts, &key()).expect("compiles");
    let pm = policy.module();
    let mut kernel = Kernel::boot(Arc::clone(&pm), vec![key()], KernelConfig::default());
    kernel.insmod(&out.signed).expect("loads");
    let buf = kernel.kmalloc(8 * 8).expect("buf");
    let global = kernel.module("random").expect("loaded").image().globals["g"];

    if promote {
        // Profile on a scratch buffer, then restore the global so the
        // measured run starts from the same state as the general runs.
        // The envelope differs from the measured buffer, but promotion
        // bakes the covering region's bound, which spans both.
        let scratch = kernel.kmalloc(8 * 8).expect("profile buf");
        let mut g0 = vec![0u8; 8];
        kernel.mem.read_bytes(global, &mut g0).expect("global");
        kernel.tracer().set_enabled(true);
        {
            let mut interp = Interp::new(&mut kernel).expect("interp");
            interp.set_engine(Engine::Bytecode);
            let _ = interp.call("random", "run", &[scratch.raw(), seed]);
        }
        kernel.tracer().set_enabled(false);
        kernel.mem.write_bytes(global, &g0).expect("restore global");
        let promoted = kernel.promote_hot("random", 1).expect("promotion");
        // The profile run executes every site. A site that ever denied is
        // never promoted; under the two-region policy every site is
        // granted, so promotion bakes an op iff the build has a site.
        let bakes = policy == Policy::TwoRegion && out.signed.attestation.guard_sites > 0;
        assert_eq!(
            promoted > 0,
            bakes,
            "{promoted} ops promoted under {policy:?}"
        );
    }

    let s0 = pm.stats();
    let v0 = pm.violation_log().len();
    kernel.tracer().reset_profiles();
    kernel.tracer().set_enabled(traced);
    let mut interp = Interp::new(&mut kernel).expect("interp");
    interp.set_engine(engine);
    let result = interp
        .call("random", "run", &[buf.raw(), seed])
        .map_err(|e| e.to_string());
    let stats = interp.stats();
    let (inline_admits, inline_deopts) = (interp.inline_admits(), interp.inline_deopts());
    drop(interp);
    kernel.tracer().set_enabled(false);
    let profile = kernel.tracer().profile_snapshot();

    let s1 = pm.stats();
    let mut mem = vec![0u8; 64];
    kernel.mem.read_bytes(buf, &mut mem).expect("read back");
    let mut gbytes = vec![0u8; 8];
    kernel.mem.read_bytes(global, &mut gbytes).expect("global");
    Observation {
        result,
        stats,
        guard_stats: GuardStatsSnapshot {
            checks: s1.checks - s0.checks,
            permitted: s1.permitted - s0.permitted,
            denied_no_match: s1.denied_no_match - s0.denied_no_match,
            denied_insufficient: s1.denied_insufficient - s0.denied_insufficient,
            denied_malformed: s1.denied_malformed - s0.denied_malformed,
        },
        violations: pm.violation_log()[v0..].to_vec(),
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

/// What tree and bytecode agree on: the result, `ExecStats` (fuel and
/// per-edge phi burns included), the policy's checks, permits and denial
/// classes, the violations, the buffer and `@g`.
fn engine_view(o: &Observation) -> impl PartialEq + Debug + '_ {
    (
        &o.result,
        o.stats,
        o.guard_stats,
        &o.violations,
        &o.mem,
        &o.global,
    )
}

/// What the engines agree on in the optimizer's properties.
fn opt_view(o: &Observation) -> impl PartialEq + Debug + '_ {
    (&o.result, o.stats, &o.mem, &o.global)
}

/// What all three engines agree on (the inline counters and the tracer's
/// view are asserted separately).
fn jit_view(o: &Observation) -> impl PartialEq + Debug + '_ {
    let g = &o.guard_stats;
    (
        &o.result,
        o.stats,
        (g.checks, g.permitted, g.denied(), o.violations.len()),
        (&o.mem, &o.global),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Allow-all: both engines agree on every observable, for every build
    /// flavour (baseline has no guards; carat_kop fuses guard+access pairs;
    /// optimized leaves hoisted standalone guards).
    #[test]
    fn engines_agree_under_allow_all(
        steps in steps(1..24),
        loop_n in 1u64..4,
        seed in any::<u64>(),
    ) {
        let module = program(&steps, loop_n);
        verify_module(&module).expect("generated program verifies");

        for opts in [
            CompileOptions::baseline(),
            CompileOptions::carat_kop(),
            CompileOptions::optimized(),
        ] {
            let run = |engine| observe(&module, &opts, seed, engine, Policy::Allow, false, false);
            let (tree, vm) = (run(Engine::Tree), run(Engine::Bytecode));
            prop_assert_eq!(engine_view(&tree), engine_view(&vm));
            prop_assert!(tree.result.is_ok());
        }
    }

    /// Deny-all + LogAndDeny: every guard denies and squashes the access
    /// it protects. The engines must agree on the squash count, the
    /// zero-filled loads' downstream effects, the unchanged memory, and
    /// the denial classification.
    #[test]
    fn engines_agree_under_deny_all_squash(
        steps in steps(1..24),
        loop_n in 1u64..4,
        seed in any::<u64>(),
    ) {
        let module = program(&steps, loop_n);

        for (opts, plain_carat) in [
            (CompileOptions::carat_kop(), true),
            (CompileOptions::optimized(), false),
        ] {
            let run = |engine| {
                observe(&module, &opts, seed, engine, Policy::DenySquash, false, false)
            };
            let (tree, vm) = (run(Engine::Tree), run(Engine::Bytecode));
            prop_assert_eq!(engine_view(&tree), engine_view(&vm));

            // Under the unoptimized carat build every access has its own
            // guard, every guard denies, every access is squashed.
            if plain_carat {
                prop_assert!(tree.result.is_ok());
                prop_assert_eq!(tree.stats.guards, tree.stats.mem_accesses);
                prop_assert_eq!(tree.stats.squashed, tree.stats.mem_accesses);
                prop_assert_eq!(tree.guard_stats.permitted, 0);
                // Squashed stores leave the scratch buffer untouched.
                prop_assert_eq!(&tree.mem, &vec![0u8; 64]);
            }
        }
    }

    /// Allow-all: the optimizer must be invisible in every observable
    /// except the guard count, which may only shrink.
    #[test]
    fn optimized_build_is_invisible_under_allow_all(
        steps in steps(1..20),
        loop_n in 1u64..4,
        seed in any::<u64>(),
    ) {
        let module = program(&steps, loop_n);
        verify_module(&module).expect("generated program verifies");
        let run = |opts: &CompileOptions, engine| {
            observe(&module, opts, seed, engine, Policy::Allow, false, false)
        };

        for engine in [Engine::Tree, Engine::Bytecode] {
            let unopt = run(&CompileOptions::carat_kop(), engine);
            let opt = run(&CompileOptions::optimized(), engine);

            prop_assert!(unopt.result.is_ok());
            prop_assert_eq!(&unopt.result, &opt.result);
            prop_assert_eq!(&unopt.mem, &opt.mem);
            prop_assert_eq!(&unopt.global, &opt.global);

            // The optimizer rewrites guards, never accesses.
            prop_assert_eq!(unopt.stats.mem_accesses, opt.stats.mem_accesses);
            // Unoptimized carat: one guard per access. Optimized: never
            // more than that.
            prop_assert_eq!(unopt.stats.guards, unopt.stats.mem_accesses);
            prop_assert!(
                opt.stats.guards <= unopt.stats.guards,
                "optimizer executed more guards ({} > {})",
                opt.stats.guards, unopt.stats.guards,
            );
        }

        // And the two engines agree with each other on the optimized
        // build, byte for byte.
        let tree = run(&CompileOptions::optimized(), Engine::Tree);
        let vm = run(&CompileOptions::optimized(), Engine::Bytecode);
        prop_assert_eq!(opt_view(&tree), opt_view(&vm));
    }

    /// Deny-all + Panic: elision, widening, and range hoisting may move
    /// *where* the first violation fires, but never *whether* one fires.
    #[test]
    fn optimized_build_agrees_on_violation_verdicts_under_deny_panic(
        steps in steps(1..20),
        loop_n in 1u64..4,
        seed in any::<u64>(),
    ) {
        let module = program(&steps, loop_n);

        let mut verdicts = Vec::new();
        for opts in [CompileOptions::carat_kop(), CompileOptions::optimized()] {
            let run = |engine| {
                observe(&module, &opts, seed, engine, Policy::DenyPanic, false, false)
            };
            let (tree, vm) = (run(Engine::Tree), run(Engine::Bytecode));
            // Engines agree on everything, including the panic message.
            prop_assert_eq!(opt_view(&tree), opt_view(&vm));
            // No access may slip past a denying policy: a violating run
            // panics before its first access commits.
            if tree.result.is_err() {
                prop_assert_eq!(tree.stats.mem_accesses, 0);
                prop_assert_eq!(&tree.mem, &vec![0u8; 64]);
            }
            verdicts.push(tree.result.is_ok());
        }
        prop_assert_eq!(
            verdicts[0], verdicts[1],
            "builds disagree on whether the program violates (unopt ok={}, opt ok={})",
            verdicts[0], verdicts[1],
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_programs_roundtrip_and_verify(
        steps in steps(1..24),
        loop_n in 1u64..4,
    ) {
        let module = program(&steps, loop_n);
        verify_module(&module).expect("generated program verifies");
        let text = print_module(&module);
        let reparsed = parse_module(&text).expect("reparses");
        prop_assert_eq!(print_module(&reparsed), text);
    }

    /// Guard injection must be semantically invisible when the policy
    /// permits everything (the paper's whole premise): baseline, carat and
    /// optimized builds compute the same results and memory effects, the
    /// buffer and `@g`, on the production engine.
    #[test]
    fn guard_injection_is_semantically_invisible(
        steps in steps(1..24),
        loop_n in 1u64..4,
        seed in any::<u64>(),
    ) {
        let module = program(&steps, loop_n);
        let accesses = module.memory_access_count() as u64;
        let run = |opts: &CompileOptions| {
            observe(&module, opts, seed, Engine::default(), Policy::Allow, false, false)
        };
        let base = run(&CompileOptions::baseline());
        let carat = run(&CompileOptions::carat_kop());
        let opt = run(&CompileOptions::optimized());

        // Same results, same memory effects, `@g` included.
        prop_assert!(matches!(base.result, Ok(Some(_))), "{:?}", base.result);
        prop_assert_eq!(&base.result, &carat.result);
        prop_assert_eq!(&base.result, &opt.result);
        prop_assert_eq!(&base.mem, &carat.mem);
        prop_assert_eq!(&base.mem, &opt.mem);
        prop_assert_eq!(&base.global, &carat.global);
        prop_assert_eq!(&base.global, &opt.global);

        // Baseline executes zero guards; carat executes exactly one guard
        // per dynamic memory access.
        prop_assert_eq!(base.stats.guards, 0);
        prop_assert_eq!(carat.stats.guards, carat.stats.mem_accesses);
        prop_assert_eq!(base.stats.mem_accesses, carat.stats.mem_accesses);

        // Static invariant: one injected guard per static access.
        let out = compile_module(module, &CompileOptions::carat_kop(), &key()).unwrap();
        prop_assert_eq!(out.signed.attestation.guard_count, accesses);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two-region policy: tree, bytecode, and the profiled-then-promoted
    /// engine agree on every observable, and the promoted run answers
    /// *every* guard from an inlined bound, with the tracer off and on.
    /// Traced, all three attribute the same hits to the same sites and
    /// reconcile with the guard count; the promoted run's hits are all
    /// inline.
    #[test]
    fn three_engines_agree_and_promotion_admits_inline(
        steps in steps(1..16),
        loop_n in 1u64..4,
        seed in any::<u64>(),
    ) {
        let module = program(&steps, loop_n);
        verify_module(&module).expect("generated program verifies");

        for opts in [CompileOptions::carat_kop(), CompileOptions::optimized()] {
            for traced in [false, true] {
                let run = |engine, promote| {
                    observe(&module, &opts, seed, engine, Policy::TwoRegion, promote, traced)
                };
                let tree = run(Engine::Tree, false);
                let vm = run(Engine::Bytecode, false);
                let jit = run(Engine::Promoted, true);
                prop_assert_eq!(jit_view(&tree), jit_view(&vm));
                prop_assert_eq!(jit_view(&tree), jit_view(&jit));
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
        steps in steps(1..16),
        loop_n in 1u64..3,
        seed in any::<u64>(),
    ) {
        let module = program(&steps, loop_n);

        let opts = CompileOptions::carat_kop();
        let run = |engine, promote| {
            observe(&module, &opts, seed, engine, Policy::DenySquash, promote, false)
        };
        let tree = run(Engine::Tree, false);
        let vm = run(Engine::Bytecode, false);
        let jit = run(Engine::Promoted, true);
        prop_assert_eq!(jit_view(&tree), jit_view(&vm));
        prop_assert_eq!(jit_view(&tree), jit_view(&jit));
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
    let module = program(&steps, 4);
    let out = compile_module(module, &CompileOptions::carat_kop(), &key()).expect("compiles");
    let policy = Arc::new(PolicyModule::two_region_paper_policy());
    let mut kernel = Kernel::boot(Arc::clone(&policy), vec![key()], KernelConfig::default());
    kernel.insmod(&out.signed).expect("loads");
    let buf = kernel.kmalloc(8 * 8).expect("buf");

    // Profile, then install the promotion by hand with a generation the
    // snapshot store never published (a promote racing a publish: the
    // tags are the tier's only invalidation).
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
    let mut sites = Vec::new();
    for (meta, prof) in kernel.tracer().hot_sites(1) {
        if meta.module != "random" || prof.lo_addr >= prof.hi_addr {
            continue;
        }
        let (lo, len) = (VAddr(prof.lo_addr), Size(prof.hi_addr - prof.lo_addr));
        let Some(r) = snap.regions().iter().find(|r| r.covers(lo, len)) else {
            continue;
        };
        sites.push((meta.id, *r));
    }
    assert!(!sites.is_empty(), "profiled sites cover the module");
    let stale_gen = snap.generation() + 7;
    let compiled = kernel
        .module("random")
        .expect("loaded")
        .image()
        .compiled
        .clone();
    assert!(compiled.promote(stale_gen, &sites) > 0);
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

    // Traced, a deopt takes the general path too: the sampling rule
    // times one check in SAMPLE_EVERY per site, each with one
    // GuardEnter/GuardExit pair and one histogram entry, and counts
    // nothing inline.
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
    assert_eq!(tracer.total_checks(), guards);
    let snap = tracer.profile_snapshot();
    let timed: u64 = snap.iter().map(|(_, p)| p.timed()).sum();
    assert_eq!(tracer.seq(Producer::Interp) - events0, 2 * timed);
    for (meta, prof) in snap {
        assert_eq!(prof.inline, 0, "{}", meta.label);
        assert_eq!(
            prof.hist.iter().sum::<u64>(),
            prof.hits.div_ceil(SAMPLE_EVERY),
            "{}",
            meta.label
        );
    }
}
