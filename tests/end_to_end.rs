//! Cross-crate integration tests: the full CARAT KOP pipeline
//! (author → compile → sign → boot → ioctl policy → insmod → execute →
//! enforce), exercising every crate through the public umbrella API.

use std::sync::Arc;

use carat_kop::compiler::{compile_module, CompileOptions, CompilerKey};
use carat_kop::core::error::ViolationKind;
use carat_kop::core::{AccessFlags, KernelError, Protection, Region, Size, VAddr};
use carat_kop::interp::Interp;
use carat_kop::ir::{parse_module, print_module};
use carat_kop::kernel::{Kernel, KernelConfig};
use carat_kop::policy::{
    DefaultAction, PolicyCmd, PolicyModule, PolicyResponse, StoreKind, ViolationAction,
};

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

fn key() -> CompilerKey {
    CompilerKey::from_passphrase("operator-key", "integration")
}

fn heap_region() -> Region {
    Region::new(
        VAddr(carat_kop::core::layout::DIRECT_MAP_BASE),
        Size(4 << 30),
        Protection::READ_WRITE,
    )
    .unwrap()
}

/// The full happy path, with the policy configured through the ioctl wire
/// protocol exactly as the paper's Figure 1 shows.
#[test]
fn full_pipeline_happy_path() {
    let module = parse_module(DRIVERISH_SRC).expect("parses");
    let accesses = module.memory_access_count();
    let out = compile_module(module, &CompileOptions::carat_kop(), &key()).expect("compiles");
    assert_eq!(out.stats.get("guards_injected") as usize, accesses);

    let policy = Arc::new(PolicyModule::new());
    let mut kernel = Kernel::boot(policy, vec![key()], KernelConfig::default());

    // Configure policy over the wire.
    let resp = kernel
        .ioctl("/dev/carat", &PolicyCmd::AddRegion(heap_region()).encode())
        .unwrap();
    assert_eq!(PolicyResponse::decode(&resp).unwrap(), PolicyResponse::Ok);

    // Insert and allow the module's data section.
    let loaded = kernel.insmod(&out.signed).expect("insmod");
    let data_rule = Region::new(
        loaded.layout.data_base,
        Size(loaded.layout.data_size.max(1)),
        Protection::READ_WRITE,
    )
    .unwrap();
    kernel
        .ioctl("/dev/carat", &PolicyCmd::AddRegion(data_rule).encode())
        .unwrap();

    let buf = kernel.kmalloc(64 * 8).unwrap();
    let mut interp = Interp::new(&mut kernel).unwrap();
    let r = interp.call("drv", "touch", &[buf.raw(), 64]).unwrap();
    assert_eq!(r, Some((0..64).sum::<u64>()));
    // 64 iterations × 4 accesses + final load = 257 guards.
    assert_eq!(interp.stats().guards, 257);
    let stats = kernel.policy().stats();
    assert_eq!(stats.checks, 257);
    assert_eq!(stats.denied(), 0);
}

/// §3.2: "This allows one guard function to be swapped for another without
/// having to recompile the guarded module" — the same signed container
/// runs under every policy structure.
#[test]
fn policy_structure_swap_without_recompile() {
    let module = parse_module(DRIVERISH_SRC).unwrap();
    let out = compile_module(module, &CompileOptions::carat_kop(), &key()).unwrap();
    for kind in StoreKind::ALL {
        let policy = Arc::new(PolicyModule::with_kind(kind));
        let mut kernel = Kernel::boot(policy, vec![key()], KernelConfig::default());
        kernel
            .ioctl("/dev/carat", &PolicyCmd::AddRegion(heap_region()).encode())
            .unwrap();
        let loaded = kernel.insmod(&out.signed).expect("insmod");
        let data_rule = Region::new(
            loaded.layout.data_base,
            Size(loaded.layout.data_size.max(1)),
            Protection::READ_WRITE,
        )
        .unwrap();
        kernel
            .ioctl("/dev/carat", &PolicyCmd::AddRegion(data_rule).encode())
            .unwrap();
        let buf = kernel.kmalloc(8 * 8).unwrap();
        let mut interp = Interp::new(&mut kernel).unwrap();
        let r = interp.call("drv", "touch", &[buf.raw(), 8]).unwrap();
        assert_eq!(r, Some(28), "store kind {kind}");
        assert!(kernel.panicked().is_none(), "store kind {kind}");
    }
}

/// The violation path end to end: the module is stopped, the kernel
/// panics, the violation is logged with the right diagnosis.
#[test]
fn violation_panics_kernel_with_diagnosis() {
    let module = parse_module(DRIVERISH_SRC).unwrap();
    let out = compile_module(module, &CompileOptions::carat_kop(), &key()).unwrap();
    let policy = Arc::new(PolicyModule::two_region_paper_policy());
    let mut kernel = Kernel::boot(policy, vec![key()], KernelConfig::default());
    kernel.insmod(&out.signed).unwrap();
    let mut interp = Interp::new(&mut kernel).unwrap();
    // User-half buffer: covered by the explicit NONE rule.
    let err = interp.call("drv", "touch", &[0x40_0000, 4]).unwrap_err();
    match err {
        KernelError::Panic { violation, .. } => {
            let v = violation.unwrap();
            assert_eq!(v.kind, ViolationKind::InsufficientPermissions);
            assert!(v.flags.contains(AccessFlags::WRITE));
        }
        other => panic!("expected panic, got {other}"),
    }
    assert!(kernel.panicked().is_some());
    // Post-panic, the whole kernel API is down.
    assert!(kernel
        .ioctl("/dev/carat", &PolicyCmd::List.encode())
        .is_err());
    assert!(kernel.rmmod("drv").is_err());
}

/// Deny-mode (squash) keeps the kernel alive and the forbidden data
/// untouched.
#[test]
fn deny_mode_squashes_and_survives() {
    let module = parse_module(DRIVERISH_SRC).unwrap();
    let out = compile_module(module, &CompileOptions::carat_kop(), &key()).unwrap();
    let policy = Arc::new(PolicyModule::two_region_paper_policy());
    policy.set_violation_action(ViolationAction::LogAndDeny);
    let mut kernel = Kernel::boot(policy, vec![key()], KernelConfig::default());
    kernel.insmod(&out.signed).unwrap();
    let mut interp = Interp::new(&mut kernel).unwrap();
    let r = interp.call("drv", "touch", &[0x40_0000, 4]).unwrap();
    let squashed = interp.stats().squashed;
    // All loads squashed to 0 → stats accumulate 0.
    assert_eq!(r, Some(0));
    assert!(kernel.panicked().is_none());
    assert!(squashed > 0);
    // Forbidden memory never written.
    assert_eq!(kernel.mem.read_uint(VAddr(0x40_0000), Size(8)).unwrap(), 0);
}

/// Unloading and reloading a module works and reuses the policy.
#[test]
fn rmmod_and_reload() {
    let module = parse_module(DRIVERISH_SRC).unwrap();
    let out = compile_module(module, &CompileOptions::carat_kop(), &key()).unwrap();
    let policy = Arc::new(PolicyModule::new());
    policy.set_default_action(DefaultAction::Allow);
    let mut kernel = Kernel::boot(policy, vec![key()], KernelConfig::default());
    kernel.insmod(&out.signed).unwrap();
    kernel.rmmod("drv").unwrap();
    assert!(kernel.module("drv").is_none());
    kernel.insmod(&out.signed).expect("reload after rmmod");
    let buf = kernel.kmalloc(64).unwrap();
    let mut interp = Interp::new(&mut kernel).unwrap();
    assert_eq!(
        interp.call("drv", "touch", &[buf.raw(), 2]).unwrap(),
        Some(1)
    );
}

/// The signed container round-trips through its printed IR: what the
/// kernel verifies is exactly what the compiler signed.
#[test]
fn signed_container_text_is_canonical() {
    let module = parse_module(DRIVERISH_SRC).unwrap();
    let out = compile_module(module, &CompileOptions::carat_kop(), &key()).unwrap();
    let reparsed = parse_module(&out.signed.ir_text).unwrap();
    assert_eq!(print_module(&reparsed), out.signed.ir_text);
    let verified = out.signed.verify(&[key()]).unwrap();
    assert_eq!(print_module(&verified), out.signed.ir_text);
}

/// Baseline (unguarded) builds of the same module run with zero guard
/// checks — and are not protected.
#[test]
fn baseline_build_runs_without_checks() {
    let module = parse_module(DRIVERISH_SRC).unwrap();
    let out = compile_module(module, &CompileOptions::baseline(), &key()).unwrap();
    let policy = Arc::new(PolicyModule::two_region_paper_policy());
    let mut kernel = Kernel::boot(policy, vec![key()], KernelConfig::default());
    let loaded = kernel.insmod(&out.signed).unwrap();
    assert!(!loaded.layout.is_protected);
    let buf = kernel.kmalloc(64).unwrap();
    let mut interp = Interp::new(&mut kernel).unwrap();
    interp.call("drv", "touch", &[buf.raw(), 4]).unwrap();
    assert_eq!(kernel.policy().stats().checks, 0);
}
