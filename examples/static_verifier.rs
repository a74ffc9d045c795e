//! Proving — not trusting — that a module is guarded.
//!
//! Signature checking (the paper's deployment) answers "did *our*
//! compiler build this?". The `kop-analysis` verifier answers the
//! stronger question "is every memory access in this module provably
//! guarded?", which holds even for modules built elsewhere. Scenarios:
//!
//! 1. **Analyze**: run the verifier on a guarded module and print the
//!    coverage report (facts proven, guards seen, precision).
//! 2. **Static-mode insmod**: a kernel with `Verification::Static`
//!    accepts a provably-guarded module signed by a key it has never
//!    seen — no trust relationship needed.
//! 3. **Stripped guard caught**: hand-remove one guard; both the
//!    compiler driver and the Static-mode loader refuse, each naming
//!    the offending instruction with a KA001 diagnostic.
//! 4. **Provenance lints**: the rootkit-style `inttoptr` scan from the
//!    malicious-module example trips the KA003 laundering lint.
//!
//! Run with: `cargo run --example static_verifier`

use std::sync::Arc;

use carat_kop::analysis::{analyze_module, verify_guard_coverage, LintCode};
use carat_kop::compiler::{
    compile_module, Attestation, CompileError, CompileOptions, CompilerKey, SignedModule,
};
use carat_kop::ir::parse_module;
use carat_kop::kernel::{Kernel, KernelConfig, Verification};
use carat_kop::policy::PolicyModule;

const DRIVER_SRC: &str = r#"
module "nic"
global @stats : i64 = 0
define void @tx(ptr %desc, i64 %n) {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %c = icmp ult i64 %i, %n
  condbr i1 %c, %body, %exit
body:
  %v = load i64, ptr %desc
  store i64 %v, ptr @stats
  %i2 = add i64 %i, 1
  br %head
exit:
  ret void
}
"#;

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

const LAUNDER_SRC: &str = r#"
module "launder"
define i64 @peek(i64 %addr) {
entry:
  %p = inttoptr i64 %addr to ptr
  %v = load i64, ptr %p
  ret i64 %v
}
"#;

fn static_kernel() -> Kernel {
    Kernel::boot(
        Arc::new(PolicyModule::new()),
        vec![CompilerKey::from_passphrase("operator-key", "demo")],
        KernelConfig {
            verification: Verification::Static,
            ..KernelConfig::default()
        },
    )
}

fn scenario_analyze() {
    println!("--- scenario 1: prove coverage of a guarded build ---");
    let key = CompilerKey::from_passphrase("anyone", "anywhere");
    let module = parse_module(DRIVER_SRC).unwrap();
    let out = compile_module(module, &CompileOptions::optimized(), &key).unwrap();
    let ir = out.signed.verify(&[key]).unwrap();
    let report = verify_guard_coverage(&ir);
    assert!(report.is_clean());
    println!("{}", report.summary());
    for (key, value) in &report.stats {
        println!("  {key}: {value}");
    }
    println!();
}

fn scenario_static_insmod() {
    println!("--- scenario 2: Static-mode kernel trusts proof, not keys ---");
    let rogue = CompilerKey::from_passphrase("some-vendor", "never-enrolled");
    let module = parse_module(DRIVER_SRC).unwrap();
    let out = compile_module(module, &CompileOptions::carat_kop(), &rogue).unwrap();
    let mut kernel = static_kernel();
    let loaded = kernel.insmod(&out.signed).unwrap();
    println!(
        "loaded '{}' without a trusted signature; protected: {}\n",
        loaded.name, loaded.layout.is_protected
    );
}

fn scenario_stripped_caught() {
    println!("--- scenario 3: a stripped guard is caught at both gates ---");
    let key = CompilerKey::from_passphrase("operator-key", "demo");
    let module = parse_module(STRIPPED_SRC).unwrap();
    // Gate 1: the driver refuses to sign what it cannot prove.
    match compile_module(module.clone(), &CompileOptions::baseline(), &key) {
        Err(CompileError::GuardCoverage(report)) => {
            let diag = report.with_code(LintCode::UnguardedAccess).next().unwrap();
            println!("compiler refused to sign: {diag}");
        }
        other => panic!("expected coverage refusal, got {other:?}"),
    }
    // Gate 2: hand-assemble the container anyway; the Static-mode
    // loader re-proves coverage at insmod and refuses too.
    let attestation = Attestation::check(&module).unwrap();
    let signed = SignedModule::sign(&module, attestation, &key);
    match static_kernel().insmod(&signed) {
        Err(e) => println!("kernel refused the module: {e}\n"),
        Ok(_) => panic!("stripped module must not load"),
    }
}

fn scenario_provenance_lints() {
    println!("--- scenario 4: pointer-provenance lints ---");
    let module = parse_module(LAUNDER_SRC).unwrap();
    let report = analyze_module(&module);
    let ka003 = report.with_code(LintCode::LaunderedPointer).next().unwrap();
    println!("laundering surfaced before the module ever runs:");
    println!("{ka003}");
}

fn main() {
    scenario_analyze();
    scenario_static_insmod();
    scenario_stripped_caught();
    scenario_provenance_lints();
}
