//! Interpreter tests: language semantics, the end-to-end guard path, and
//! violation behaviours.

use std::sync::Arc;

use kop_compiler::{compile_module, CompileOptions, CompilerKey};
use kop_core::error::ViolationKind;
use kop_core::{KernelError, Protection, Region, Size, VAddr};
use kop_kernel::{Kernel, KernelConfig};
use kop_policy::{DefaultAction, PolicyModule, ViolationAction};

use crate::{Engine, Interp};

fn key() -> CompilerKey {
    CompilerKey::from_passphrase("operator-key", "carat-kop-dev")
}

/// Run a test body once per engine: the reference tree walker and both
/// bytecode engines must give the same answers.
fn on_each_engine(body: impl Fn(Engine)) {
    for engine in [Engine::Tree, Engine::Bytecode, Engine::Promoted] {
        println!("engine {engine:?}");
        body(engine);
    }
}

/// An interpreter on `engine` with a fresh module stack.
fn interp_on(kernel: &mut Kernel, engine: Engine) -> Interp<'_> {
    let mut interp = Interp::new(kernel).unwrap();
    assert_eq!(interp.engine(), Engine::Promoted, "production default");
    interp.set_engine(engine);
    interp
}

/// Boot a kernel with a permissive policy and load `src` compiled with
/// `opts`.
fn boot_with(src: &str, opts: &CompileOptions, default: DefaultAction) -> Kernel {
    let policy = Arc::new(PolicyModule::new());
    policy.set_default_action(default);
    let mut kernel = Kernel::boot(policy, vec![key()], KernelConfig::default());
    let m = kop_ir::parse_module(src).unwrap();
    let out = compile_module(m, opts, &key()).unwrap();
    kernel.insmod(&out.signed).unwrap();
    kernel
}

#[test]
fn arithmetic_and_control_flow() {
    on_each_engine(|engine| {
        let src = r#"
module "math"
define i64 @fib(i64 %n) {
entry:
  %isbase = icmp ult i64 %n, 2
  condbr i1 %isbase, %base, %rec
base:
  ret i64 %n
rec:
  %n1 = sub i64 %n, 1
  %n2 = sub i64 %n, 2
  %f1 = call i64 @fib(i64 %n1)
  %f2 = call i64 @fib(i64 %n2)
  %s = add i64 %f1, %f2
  ret i64 %s
}
"#;
        let mut kernel = boot_with(src, &CompileOptions::baseline(), DefaultAction::Allow);
        let mut interp = interp_on(&mut kernel, engine);
        assert_eq!(interp.call("math", "fib", &[10]).unwrap(), Some(55));
        assert_eq!(interp.call("math", "fib", &[1]).unwrap(), Some(1));
    });
}

#[test]
fn loop_with_memory_and_guards() {
    on_each_engine(|engine| {
        let src = r#"
module "sum"
define i64 @fill_and_sum(ptr %buf, i64 %n) {
entry:
  br %fill
fill:
  %i = phi i64 [ 0, %entry ], [ %i.next, %fill.body ]
  %c = icmp ult i64 %i, %n
  condbr i1 %c, %fill.body, %sum.head
fill.body:
  %p = gep i64, ptr %buf, i64 %i
  store i64 %i, ptr %p
  %i.next = add i64 %i, 1
  br %fill
sum.head:
  br %sum
sum:
  %j = phi i64 [ 0, %sum.head ], [ %j.next, %sum.body ]
  %acc = phi i64 [ 0, %sum.head ], [ %acc.next, %sum.body ]
  %c2 = icmp ult i64 %j, %n
  condbr i1 %c2, %sum.body, %done
sum.body:
  %q = gep i64, ptr %buf, i64 %j
  %v = load i64, ptr %q
  %acc.next = add i64 %acc, %v
  %j.next = add i64 %j, 1
  br %sum
done:
  ret i64 %acc
}
"#;
        let mut kernel = boot_with(src, &CompileOptions::carat_kop(), DefaultAction::Allow);
        let buf = kernel.kmalloc(64 * 8).unwrap();
        let mut interp = interp_on(&mut kernel, engine);
        let r = interp
            .call("sum", "fill_and_sum", &[buf.raw(), 64])
            .unwrap();
        assert_eq!(r, Some((0..64).sum::<u64>()));
        let stats = interp.stats();
        // One guard per dynamic access: 64 stores + 64 loads.
        assert_eq!(stats.guards, 128);
        assert_eq!(stats.mem_accesses, 128);
        assert_eq!(stats.squashed, 0);
    });
}

#[test]
fn guard_panic_on_forbidden_access() {
    on_each_engine(|engine| {
        // The module pokes an arbitrary address; the paper's two-region policy
        // forbids the user half, and the kernel panics.
        let src = r#"
module "rogue"
define void @poke(ptr %p) {
entry:
  store i64 1, ptr %p
  ret void
}
"#;
        let policy = Arc::new(PolicyModule::two_region_paper_policy());
        let mut kernel = Kernel::boot(policy, vec![key()], KernelConfig::default());
        let m = kop_ir::parse_module(src).unwrap();
        let out = compile_module(m, &CompileOptions::carat_kop(), &key()).unwrap();
        kernel.insmod(&out.signed).unwrap();

        // Kernel-half poke: fine.
        {
            let mut interp = interp_on(&mut kernel, engine);
            let addr = kop_core::layout::DIRECT_MAP_BASE + 0x2000;
            interp.call("rogue", "poke", &[addr]).unwrap();
        }
        assert!(kernel.panicked().is_none());

        // User-half poke: guard fires, kernel panics.
        {
            let mut interp = interp_on(&mut kernel, engine);
            let err = interp.call("rogue", "poke", &[0x40_0000]).unwrap_err();
            match err {
                KernelError::Panic { violation, .. } => {
                    let v = violation.expect("violation recorded");
                    assert_eq!(v.addr, VAddr(0x40_0000));
                    assert_eq!(v.kind, ViolationKind::InsufficientPermissions);
                    assert!(v.flags.is_write());
                }
                other => panic!("expected panic, got {other}"),
            }
        }
        assert!(kernel.panicked().is_some());
        assert!(kernel
            .dmesg()
            .iter()
            .any(|l| l.contains("CARAT KOP violation")));
        // The machine is down: further calls fail immediately.
        let mut interp = interp_on(&mut kernel, engine);
        assert!(interp.call("rogue", "poke", &[0]).is_err());
    });
}

#[test]
fn quarantine_mode_unloads_offender_and_kernel_survives() {
    on_each_engine(|engine| {
        let src = r#"
module "rogue"
define void @poke(ptr %p) {
entry:
  store i64 1, ptr %p
  ret void
}
"#;
        let policy = Arc::new(PolicyModule::two_region_paper_policy());
        policy.set_violation_action(ViolationAction::Quarantine);
        let mut kernel = Kernel::boot(policy, vec![key()], KernelConfig::default());
        let m = kop_ir::parse_module(src).unwrap();
        let out = compile_module(m, &CompileOptions::carat_kop(), &key()).unwrap();
        kernel.insmod(&out.signed).unwrap();

        // Default budget 3: the first two forbidden pokes are squashed...
        for _ in 0..2 {
            let mut interp = interp_on(&mut kernel, engine);
            interp.call("rogue", "poke", &[0x40_0000]).unwrap();
            assert_eq!(interp.stats().squashed, 1);
        }
        assert_eq!(kernel.violation_count("rogue"), 2);
        assert!(kernel.module("rogue").is_some());

        // ...the third exhausts the budget: module quarantined mid-call.
        let mut interp = interp_on(&mut kernel, engine);
        let err = interp.call("rogue", "poke", &[0x40_0000]).unwrap_err();
        assert!(
            matches!(err, KernelError::ModuleQuarantined { ref module, .. } if module == "rogue"),
            "{err}"
        );

        // The kernel survives; the module is gone, symbols unlinked.
        assert!(kernel.panicked().is_none());
        assert!(kernel.check_alive().is_ok());
        assert!(kernel.module("rogue").is_none());
        assert!(kernel.is_quarantined("rogue"));
        assert_eq!(kernel.quarantine_records().len(), 1);
        assert!(kernel.dmesg().iter().any(|l| l.contains("Oops")));
        // The store never landed.
        assert_eq!(kernel.mem.read_uint(VAddr(0x40_0000), Size(8)).unwrap(), 0);
        // Calls to the quarantined module now fail cleanly.
        let mut interp = interp_on(&mut kernel, engine);
        assert!(matches!(
            interp.call("rogue", "poke", &[0]).unwrap_err(),
            KernelError::NoSuchModule(_)
        ));
    });
}

#[test]
fn deny_mode_squashes_access() {
    on_each_engine(|engine| {
        let src = r#"
module "squash"
define i64 @readwrite(ptr %ok, ptr %bad) {
entry:
  store i64 77, ptr %ok
  store i64 88, ptr %bad
  %v = load i64, ptr %bad
  %w = load i64, ptr %ok
  %s = add i64 %v, %w
  ret i64 %s
}
"#;
        let policy = Arc::new(PolicyModule::new());
        policy.set_violation_action(ViolationAction::LogAndDeny);
        // Allow only one page.
        let ok_base = kop_core::layout::DIRECT_MAP_BASE + 0x10_0000;
        policy
            .add_region(Region::new(VAddr(ok_base), Size(0x1000), Protection::READ_WRITE).unwrap())
            .unwrap();
        let mut kernel = Kernel::boot(policy, vec![key()], KernelConfig::default());
        let m = kop_ir::parse_module(src).unwrap();
        let out = compile_module(m, &CompileOptions::carat_kop(), &key()).unwrap();
        kernel.insmod(&out.signed).unwrap();

        let bad = kop_core::layout::DIRECT_MAP_BASE + 0x20_0000;
        let mut interp = interp_on(&mut kernel, engine);
        let r = interp.call("squash", "readwrite", &[ok_base, bad]).unwrap();
        // Squashed store dropped, squashed load reads 0: result is 0 + 77.
        assert_eq!(r, Some(77));
        let stats = interp.stats();
        assert_eq!(stats.squashed, 2);
        assert!(kernel.panicked().is_none());
        // The squashed store really did not land.
        assert_eq!(kernel.mem.read_uint(VAddr(bad), Size(8)).unwrap(), 0);
        // Violations were logged.
        assert_eq!(kernel.policy().violation_log().len(), 2);
    });
}

#[test]
fn unguarded_module_bypasses_policy() {
    on_each_engine(|engine| {
        // The control case: without CARAT KOP transformation, a module
        // tramples forbidden memory and nothing stops it — the monolithic
        // kernel problem the paper opens with.
        let src = r#"
module "unguarded"
define void @poke(ptr %p) {
entry:
  store i64 666, ptr %p
  ret void
}
"#;
        let policy = Arc::new(PolicyModule::two_region_paper_policy());
        let mut kernel = Kernel::boot(policy, vec![key()], KernelConfig::default());
        let m = kop_ir::parse_module(src).unwrap();
        let out = compile_module(m, &CompileOptions::baseline(), &key()).unwrap();
        kernel.insmod(&out.signed).unwrap();
        let mut interp = interp_on(&mut kernel, engine);
        // Forbidden address (user half), yet the store lands.
        interp.call("unguarded", "poke", &[0x40_0000]).unwrap();
        assert!(kernel.panicked().is_none());
        assert_eq!(
            kernel.mem.read_uint(VAddr(0x40_0000), Size(8)).unwrap(),
            666
        );
        assert_eq!(kernel.policy().stats().checks, 0, "no guards ran");
    });
}

#[test]
fn globals_and_struct_gep() {
    on_each_engine(|engine| {
        let src = r#"
module "structs"
global @stats : { i64, i32, i32 } = zero
define i64 @update() {
entry:
  %cnt.p = gep { i64, i32, i32 }, ptr @stats, i64 0, i32 0
  %cnt = load i64, ptr %cnt.p
  %cnt2 = add i64 %cnt, 5
  store i64 %cnt2, ptr %cnt.p
  %b.p = gep { i64, i32, i32 }, ptr @stats, i64 0, i32 2
  store i32 9, ptr %b.p
  %b = load i32, ptr %b.p
  %b64 = zext i32 %b to i64
  %r = add i64 %cnt2, %b64
  ret i64 %r
}
"#;
        let mut kernel = boot_with(src, &CompileOptions::carat_kop(), DefaultAction::Allow);
        let mut interp = interp_on(&mut kernel, engine);
        assert_eq!(interp.call("structs", "update", &[]).unwrap(), Some(14));
        assert_eq!(interp.call("structs", "update", &[]).unwrap(), Some(19));
    });
}

#[test]
fn alloca_select_switch_casts() {
    on_each_engine(|engine| {
        let src = r#"
module "misc"
define i64 @f(i64 %x) {
entry:
  %slot = alloca i64, 4
  %p1 = gep i64, ptr %slot, i64 1
  store i64 %x, ptr %p1
  %v = load i64, ptr %p1
  %small = trunc i64 %v to i8
  %back = sext i8 %small to i64
  %c = icmp sgt i64 %back, 0
  %sel = select i1 %c, i64 100, i64 200
  switch i64 %sel, %other [ 100: %hundred ]
hundred:
  ret i64 1
other:
  ret i64 2
}
"#;
        let mut kernel = boot_with(src, &CompileOptions::carat_kop(), DefaultAction::Allow);
        let mut interp = interp_on(&mut kernel, engine);
        assert_eq!(interp.call("misc", "f", &[5]).unwrap(), Some(1));
        // 0x80 truncates to i8 -128 → sext negative → select 200 → default arm.
        assert_eq!(interp.call("misc", "f", &[0x80]).unwrap(), Some(2));
    });
}

#[test]
fn division_by_zero_faults() {
    on_each_engine(|engine| {
        let src = r#"
module "div"
define i64 @f(i64 %a, i64 %b) {
entry:
  %q = udiv i64 %a, %b
  ret i64 %q
}
"#;
        let mut kernel = boot_with(src, &CompileOptions::baseline(), DefaultAction::Allow);
        let mut interp = interp_on(&mut kernel, engine);
        assert_eq!(interp.call("div", "f", &[10, 3]).unwrap(), Some(3));
        assert!(matches!(
            interp.call("div", "f", &[10, 0]).unwrap_err(),
            KernelError::Fault { .. }
        ));
    });
}

#[test]
fn fuel_limit_stops_infinite_loop() {
    on_each_engine(|engine| {
        let src = r#"
module "spin"
define void @forever() {
entry:
  br %spin
spin:
  br %spin
}
"#;
        let mut kernel = boot_with(src, &CompileOptions::baseline(), DefaultAction::Allow);
        let mut interp = interp_on(&mut kernel, engine);
        interp.set_fuel(10_000);
        let err = interp.call("spin", "forever", &[]).unwrap_err();
        assert!(matches!(err, KernelError::Fault { what, .. } if what.contains("fuel")));
    });
}

#[test]
fn kmalloc_printk_host_calls() {
    on_each_engine(|engine| {
        let src = r#"
module "host"
declare void @printk(i64)
declare ptr @kmalloc(i64)
define i64 @alloc_and_use() {
entry:
  %p = call ptr @kmalloc(i64 128)
  store i64 42, ptr %p
  %v = load i64, ptr %p
  call void @printk(i64 %v)
  ret i64 %v
}
"#;
        let mut kernel = boot_with(src, &CompileOptions::carat_kop(), DefaultAction::Allow);
        let mut interp = interp_on(&mut kernel, engine);
        assert_eq!(interp.call("host", "alloc_and_use", &[]).unwrap(), Some(42));
        assert!(kernel
            .dmesg()
            .iter()
            .any(|l| l.contains("module printk: 0x2a")));
    });
}

#[test]
fn optimized_guards_same_result_fewer_checks() {
    on_each_engine(|engine| {
        // Same workload compiled unoptimized vs optimized: identical result,
        // strictly fewer dynamic guard checks — the ablation claim.
        let src = r#"
module "work"
global @acc : i64 = 0
define i64 @run(i64 %n) {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %c = icmp ult i64 %i, %n
  condbr i1 %c, %body, %exit
body:
  %v = load i64, ptr @acc
  %v2 = add i64 %v, %i
  store i64 %v2, ptr @acc
  %i.next = add i64 %i, 1
  br %head
exit:
  %r = load i64, ptr @acc
  ret i64 %r
}
"#;
        let run = |opts: &CompileOptions| -> (u64, u64) {
            let policy = Arc::new(PolicyModule::new());
            policy.set_default_action(DefaultAction::Allow);
            let mut kernel = Kernel::boot(policy, vec![key()], KernelConfig::default());
            let m = kop_ir::parse_module(src).unwrap();
            let out = compile_module(m, opts, &key()).unwrap();
            kernel.insmod(&out.signed).unwrap();
            let mut interp = interp_on(&mut kernel, engine);
            let r = interp.call("work", "run", &[100]).unwrap().unwrap();
            (r, interp.stats().guards)
        };
        let (r_plain, g_plain) = run(&CompileOptions::carat_kop());
        let (r_opt, g_opt) = run(&CompileOptions::optimized());
        assert_eq!(r_plain, r_opt);
        assert_eq!(r_plain, (0..100).sum::<u64>());
        assert!(
            g_opt < g_plain,
            "optimized guards {g_opt} must be fewer than {g_plain}"
        );
        // Unoptimized: 2 guards per iteration + 1 for the exit load.
        assert_eq!(g_plain, 201);
    });
}

const MSR_SRC: &str = r#"
module "perfmon"
declare void @__wrmsr(i64, i64)
declare i64 @__rdmsr(i64)
define i64 @program_counters(i64 %msr, i64 %val) {
entry:
  call void @__wrmsr(i64 %msr, i64 %val)
  %back = call i64 @__rdmsr(i64 %msr)
  ret i64 %back
}
"#;

#[test]
fn wrapped_intrinsics_run_when_granted() {
    on_each_engine(|engine| {
        // §5 extension end to end: a perf-monitoring module granted MSR
        // access through the intrinsic policy table.
        let policy = Arc::new(PolicyModule::new());
        policy.set_default_action(DefaultAction::Allow);
        policy.allow_intrinsic(kop_compiler::intrinsic_id("__wrmsr").unwrap());
        policy.allow_intrinsic(kop_compiler::intrinsic_id("__rdmsr").unwrap());
        let mut kernel = Kernel::boot(policy, vec![key()], KernelConfig::default());
        let m = kop_ir::parse_module(MSR_SRC).unwrap();
        let out = compile_module(m, &CompileOptions::carat_kop_privileged(), &key()).unwrap();
        assert_eq!(out.signed.attestation.privileged_calls, 2);
        assert!(out.signed.attestation.privileged_wrapped);
        kernel.insmod(&out.signed).unwrap();
        let mut interp = interp_on(&mut kernel, engine);
        let v = interp
            .call("perfmon", "program_counters", &[0xC000_0080, 0x500])
            .unwrap();
        assert_eq!(v, Some(0x500));
        assert_eq!(kernel.rdmsr(0xC000_0080), 0x500);
        // 2 intrinsic guards ran.
        assert_eq!(kernel.policy().stats().checks, 2);
    });
}

#[test]
fn ungranted_intrinsic_panics_kernel() {
    on_each_engine(|engine| {
        let policy = Arc::new(PolicyModule::new());
        policy.set_default_action(DefaultAction::Allow);
        // No intrinsic grants at all.
        let mut kernel = Kernel::boot(policy, vec![key()], KernelConfig::default());
        let m = kop_ir::parse_module(MSR_SRC).unwrap();
        let out = compile_module(m, &CompileOptions::carat_kop_privileged(), &key()).unwrap();
        kernel.insmod(&out.signed).unwrap();
        let mut interp = interp_on(&mut kernel, engine);
        let err = interp
            .call("perfmon", "program_counters", &[0xC000_0080, 0x500])
            .unwrap_err();
        match err {
            KernelError::Panic { violation, .. } => {
                let v = violation.unwrap();
                assert_eq!(v.kind, ViolationKind::ForbiddenIntrinsic);
            }
            other => panic!("expected panic, got {other}"),
        }
        assert!(kernel.panicked().is_some());
        // The MSR was never written.
        assert_eq!(kernel.rdmsr(0xC000_0080), 0);
    });
}

#[test]
fn denied_intrinsic_squashed_in_deny_mode() {
    on_each_engine(|engine| {
        let policy = Arc::new(PolicyModule::new());
        policy.set_default_action(DefaultAction::Allow);
        policy.set_violation_action(ViolationAction::LogAndDeny);
        policy.allow_intrinsic(kop_compiler::intrinsic_id("__rdmsr").unwrap()); // rd ok, wr denied
        let mut kernel = Kernel::boot(policy, vec![key()], KernelConfig::default());
        let m = kop_ir::parse_module(MSR_SRC).unwrap();
        let out = compile_module(m, &CompileOptions::carat_kop_privileged(), &key()).unwrap();
        kernel.insmod(&out.signed).unwrap();
        let mut interp = interp_on(&mut kernel, engine);
        let v = interp
            .call("perfmon", "program_counters", &[0xC000_0080, 0x500])
            .unwrap();
        // The write was squashed, so the read-back sees the reset value.
        assert_eq!(v, Some(0));
        assert!(kernel.panicked().is_none());
        assert_eq!(kernel.policy().violation_log().len(), 1);
    });
}

#[test]
fn raw_privileged_module_rejected_at_compile_time() {
    // Without wrap_privileged, the paper's base behaviour holds: refuse.
    let m = kop_ir::parse_module(MSR_SRC).unwrap();
    let err = compile_module(m, &CompileOptions::carat_kop(), &key()).unwrap_err();
    assert!(matches!(
        err,
        kop_compiler::CompileError::Attest(kop_compiler::AttestError::PrivilegedIntrinsic { .. })
    ));
}

#[test]
fn cli_sti_toggle_interrupt_state() {
    on_each_engine(|engine| {
        let src = r#"
module "irqctl"
declare void @__cli()
declare void @__sti()
define void @critical() {
entry:
  call void @__cli()
  call void @__sti()
  ret void
}
define void @lockup() {
entry:
  call void @__cli()
  ret void
}
"#;
        let policy = Arc::new(PolicyModule::new());
        policy.set_default_action(DefaultAction::Allow);
        policy.allow_intrinsic(kop_compiler::intrinsic_id("__cli").unwrap());
        policy.allow_intrinsic(kop_compiler::intrinsic_id("__sti").unwrap());
        let mut kernel = Kernel::boot(policy, vec![key()], KernelConfig::default());
        let m = kop_ir::parse_module(src).unwrap();
        let out = compile_module(m, &CompileOptions::carat_kop_privileged(), &key()).unwrap();
        kernel.insmod(&out.signed).unwrap();
        let mut interp = interp_on(&mut kernel, engine);
        interp.call("irqctl", "critical", &[]).unwrap();
        assert!(kernel.interrupts_enabled());
        let mut interp = interp_on(&mut kernel, engine);
        interp.call("irqctl", "lockup", &[]).unwrap();
        assert!(!kernel.interrupts_enabled(), "module left interrupts off");
    });
}

#[test]
fn stats_track_instruction_counts() {
    on_each_engine(|engine| {
        let src = r#"
module "tiny"
define i64 @three() {
entry:
  %a = add i64 1, 2
  ret i64 %a
}
"#;
        let mut kernel = boot_with(src, &CompileOptions::baseline(), DefaultAction::Allow);
        let mut interp = interp_on(&mut kernel, engine);
        interp.call("tiny", "three", &[]).unwrap();
        assert_eq!(interp.stats().insts, 2); // add + ret
    });
}

/// Stack for [`unbounded_recursion_is_contained`]'s body. Every engine
/// recurses on the host stack once per module call, and `MAX_CALL_DEPTH`
/// nested calls in an unoptimized build take about 2 MiB, nearly all of
/// a default test thread's stack; this leaves room to grow.
const RECURSION_TEST_STACK: usize = 16 << 20;

#[test]
fn unbounded_recursion_is_contained() {
    let body = std::thread::Builder::new()
        .name("unbounded_recursion_is_contained".into())
        .stack_size(RECURSION_TEST_STACK)
        .spawn(unbounded_recursion_body)
        .expect("spawn the test body");
    if let Err(panic) = body.join() {
        std::panic::resume_unwind(panic);
    }
}

fn unbounded_recursion_body() {
    on_each_engine(|engine| {
        let src = r#"
module "recurse"
define i64 @f(i64 %n) {
entry:
  %n2 = add i64 %n, 1
  %r = call i64 @f(i64 %n2)
  ret i64 %r
}
"#;
        let mut kernel = boot_with(src, &CompileOptions::baseline(), DefaultAction::Allow);
        let mut interp = interp_on(&mut kernel, engine);
        let err = interp.call("recurse", "f", &[0]).unwrap_err();
        assert!(
            matches!(err, KernelError::NoMemory(ref m) if m.contains("stack overflow")),
            "{err}"
        );
        // The interpreter (and kernel) survive; bounded recursion still works.
        let src2 = r#"
module "fib"
define i64 @fib(i64 %n) {
entry:
  %base = icmp ult i64 %n, 2
  condbr i1 %base, %ret_n, %rec
ret_n:
  ret i64 %n
rec:
  %a = sub i64 %n, 1
  %b = sub i64 %n, 2
  %fa = call i64 @fib(i64 %a)
  %fb = call i64 @fib(i64 %b)
  %s = add i64 %fa, %fb
  ret i64 %s
}
"#;
        let m = kop_ir::parse_module(src2).unwrap();
        let out = compile_module(m, &CompileOptions::baseline(), &key()).unwrap();
        interp.kernel().insmod(&out.signed).unwrap();
        assert_eq!(interp.call("fib", "fib", &[12]).unwrap(), Some(144));
    });
}
