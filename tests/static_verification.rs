//! End-to-end: the static guard-coverage verifier closes the loop at both
//! ends of the pipeline. A hand-stripped guard is refused by the compiler
//! driver (it will not sign what it cannot prove) AND by a loader running
//! in `Verification::Static` mode — in both cases with a KA001 diagnostic
//! naming the offending instruction. Meanwhile everything the guard
//! passes actually produce, optimized or not, verifies cleanly and loads.

use std::sync::Arc;

use carat_kop::analysis::{verify_guard_coverage, LintCode};
use carat_kop::compiler::{
    compile_module, Attestation, CompileError, CompileOptions, CompilerKey, SignedModule,
};
use carat_kop::core::KernelError;
use carat_kop::ir::parse_module;
use carat_kop::kernel::{Kernel, KernelConfig, Verification};
use carat_kop::policy::PolicyModule;

/// A module whose author guarded the load of `%p` but "forgot" (stripped)
/// the guard for the store through `%out`.
const STRIPPED_SRC: &str = r#"
module "stripped"
declare void @carat_guard(ptr, i64, i32)
define i64 @bump(ptr %p, ptr %out) {
entry:
  call void @carat_guard(ptr %p, i64 8, i32 1)
  %v = load i64, ptr %p
  %v2 = add i64 %v, 1
  store i64 %v2, ptr %out
  ret i64 %v2
}
"#;

const HONEST_SRC: &str = r#"
module "honest"
global @counter : i64 = 0
define i64 @bump(ptr %p, i64 %n) {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %c = icmp ult i64 %i, %n
  condbr i1 %c, %body, %exit
body:
  %v = load i64, ptr %p
  %v2 = add i64 %v, 1
  store i64 %v2, ptr %p
  %i2 = add i64 %i, 1
  br %head
exit:
  %f = load i64, ptr @counter
  ret i64 %f
}
"#;

fn static_kernel() -> Kernel {
    Kernel::boot(
        Arc::new(PolicyModule::new()),
        vec![CompilerKey::from_passphrase(
            "operator-key",
            "carat-kop-dev",
        )],
        KernelConfig {
            verification: Verification::Static,
            ..KernelConfig::default()
        },
    )
}

#[test]
fn stripped_guard_rejected_by_compiler_driver() {
    let key = CompilerKey::from_passphrase("operator-key", "carat-kop-dev");
    let m = parse_module(STRIPPED_SRC).unwrap();
    // Baseline mode injects nothing, so the driver must notice the module
    // already carries (incomplete) guards and refuse to sign it.
    let err = compile_module(m, &CompileOptions::baseline(), &key).unwrap_err();
    let CompileError::GuardCoverage(report) = err else {
        panic!("expected GuardCoverage, got {err}");
    };
    let unguarded: Vec<_> = report.with_code(LintCode::UnguardedAccess).collect();
    assert_eq!(unguarded.len(), 1);
    let diag = unguarded[0];
    assert_eq!(diag.function, "bump");
    assert_eq!(diag.block, "entry");
    assert!(diag.inst.contains("store"), "{}", diag.inst);
    // Rendered form pinpoints the instruction: "KA001 [error] @bump/entry#3".
    assert!(diag.to_string().contains("@bump/entry#3"), "{diag}");
}

#[test]
fn stripped_guard_rejected_by_static_loader() {
    // The driver refuses to produce this container, so an attacker must
    // hand-assemble it. The Static-mode loader re-proves coverage at
    // insmod and catches it regardless of what the container claims.
    let rogue = CompilerKey::from_passphrase("rogue", "rogue");
    let m = parse_module(STRIPPED_SRC).unwrap();
    let signed = SignedModule::sign(&m, Attestation::check(&m).unwrap(), &rogue);
    let mut kernel = static_kernel();
    let err = kernel.insmod(&signed).unwrap_err();
    let KernelError::StaticVerification(msg) = err else {
        panic!("expected StaticVerification, got {err:?}");
    };
    assert!(msg.contains("KA001"), "{msg}");
    assert!(msg.contains("store"), "{msg}");
    assert!(kernel.module("stripped").is_none());
}

#[test]
fn injected_modules_prove_and_load_in_static_mode() {
    // Whatever the guard passes produce — the paper-default pipeline or
    // the optimized (dedup + hoist) one — proves covered and loads in
    // Static mode even without a trusted signature.
    let rogue = CompilerKey::from_passphrase("rogue", "rogue");
    for opts in [CompileOptions::carat_kop(), CompileOptions::optimized()] {
        let m = parse_module(HONEST_SRC).unwrap();
        let out = compile_module(m, &opts, &rogue).unwrap();
        let ir = out.signed.verify(std::slice::from_ref(&rogue)).unwrap();
        assert!(verify_guard_coverage(&ir).is_clean());
        assert!(out.signed.attestation.guards_covered);
        let mut kernel = static_kernel();
        let loaded = kernel.insmod(&out.signed).unwrap();
        assert!(loaded.layout.is_protected);
        kernel.rmmod("honest").unwrap();
    }
}
