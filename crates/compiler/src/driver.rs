//! The compiler driver — CARAT KOP's "wrapper script around clang".
//!
//! From the paper (§3.3): the pass "is separately compiled from the core
//! compiler, and invoked by a script that wraps the underlying clang
//! compiler". [`compile_module`] is that script: it verifies the input,
//! runs guard injection (and, optionally, the ablation optimizations),
//! attests, re-verifies, and signs — producing a [`SignedModule`] ready
//! for `insmod`.
//!
//! Optimized builds carry an extra artifact: the obligation ledger. The
//! optimizer records a machine-checkable justification for every guard
//! it removes or coalesces; the driver finalizes the ledger once the
//! passes have run, hands it to the *independent* translation validator
//! ([`kop_analysis::validate_module`]) — which re-derives every claim
//! from the module text alone — and refuses to sign when any claim
//! fails. The ledger then travels inside the attestation so the kernel
//! loader can run the exact same audit at `insmod`.

use kop_ir::{verify_module, Module, VerifyError};

use crate::attest::{AttestError, Attestation};
use crate::guard::GuardInjectionPass;
use crate::intrinsics::IntrinsicWrapPass;
use crate::obligations::ObligationRecorder;
use crate::opt::{RangeCoalescing, RedundantGuardElim};
use crate::pass::PassStats;
use crate::signing::{CompilerKey, SignedModule};

/// Options for a compilation.
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Inject guards (turn off to build the *baseline* module the paper
    /// compares against — same compiler, same flags, no transformation).
    pub inject_guards: bool,
    /// Run the CARAT CAKE-style guard optimizers, counted-loop range
    /// coalescing then redundant-guard elimination (off in the paper).
    pub optimize: bool,
    /// Wrap privileged-intrinsic calls with intrinsic guards instead of
    /// refusing them (the §5 extension). Off by default — the paper's
    /// base system refuses such modules at attestation time.
    pub wrap_privileged: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        // The paper's configuration: guards on, optimizations off.
        CompileOptions {
            inject_guards: true,
            optimize: false,
            wrap_privileged: false,
        }
    }
}

impl CompileOptions {
    /// The paper's CARAT KOP configuration (unoptimized guards).
    pub fn carat_kop() -> Self {
        Self::default()
    }

    /// The baseline: no transformation at all, just verify + sign.
    pub fn baseline() -> Self {
        CompileOptions {
            inject_guards: false,
            ..Self::default()
        }
    }

    /// CARAT CAKE-style optimized guards (for the ablation).
    pub fn optimized() -> Self {
        CompileOptions {
            optimize: true,
            ..Self::default()
        }
    }

    /// The §5 extension: memory guards plus wrapped privileged intrinsics.
    pub fn carat_kop_privileged() -> Self {
        CompileOptions {
            wrap_privileged: true,
            ..Self::default()
        }
    }
}

/// What a compilation failed on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The input module did not verify.
    InputVerify(VerifyError),
    /// The transformed module did not verify (compiler bug guard).
    OutputVerify(VerifyError),
    /// Attestation refused the module.
    Attest(AttestError),
    /// The guard-coverage verifier (plus the translation validator, for
    /// optimized builds) could not prove every memory access guarded and
    /// every optimizer obligation founded; the report carries the `KA…`
    /// diagnostics. The driver refuses to sign such a module — signing
    /// it would attest to a property that does not hold.
    GuardCoverage(Box<kop_analysis::AnalysisReport>),
}

impl core::fmt::Display for CompileError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CompileError::InputVerify(e) => write!(f, "input module invalid: {e}"),
            CompileError::OutputVerify(e) => write!(f, "transformed module invalid: {e}"),
            CompileError::Attest(e) => write!(f, "attestation refused: {e}"),
            CompileError::GuardCoverage(report) => {
                write!(f, "guard coverage not provable:\n{}", report.summary())
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Result of a successful compilation.
#[derive(Clone, Debug)]
pub struct CompileOutput {
    /// The signed, loadable container.
    pub signed: SignedModule,
    /// Aggregate pass statistics (guards injected/removed/coalesced).
    pub stats: PassStats,
}

/// Compile (transform + attest + sign) a module.
///
/// Note the input is **unmodified source IR** — per the paper, "No code was
/// modified in the driver": applying CARAT KOP is a recompilation, nothing
/// more.
pub fn compile_module(
    mut module: Module,
    options: &CompileOptions,
    key: &CompilerKey,
) -> Result<CompileOutput, CompileError> {
    verify_module(&module).map_err(CompileError::InputVerify)?;

    // Attest *before* transformation too: inline asm must be rejected even
    // in baseline builds (it is an assertion about the input code). When
    // privileged wrapping is enabled, raw privileged calls in the input
    // are tolerated here — the wrap pass instruments them, and the final
    // attestation proves it did.
    Attestation::precheck(&module, options.wrap_privileged).map_err(CompileError::Attest)?;

    let mut recorder = ObligationRecorder::new();
    let mut stats = PassStats::new();
    if options.inject_guards {
        stats.merge(&GuardInjectionPass.run(&mut module));
    }
    if options.wrap_privileged {
        stats.merge(&IntrinsicWrapPass.run(&mut module));
    }
    // Range coalescing runs before elimination: a coalesced range guard
    // is never a constant fact, so elim cannot remove a guard that a
    // recorded range obligation depends on.
    if options.optimize {
        stats.merge(&RangeCoalescing.run_with(&mut module, &mut recorder));
        stats.merge(&RedundantGuardElim.run_with(&mut module, &mut recorder));
    }
    verify_module(&module).map_err(CompileError::OutputVerify)?;

    // Obligations are recorded against arena ids while passes run; now
    // that layout is final, pin them to stable `block#index` positions.
    let ledger = recorder.finalize(&module);

    let (attestation, report) =
        Attestation::check_with_ledger(&module, options.wrap_privileged, &ledger)
            .map_err(CompileError::Attest)?;

    // Independent proof obligation: whenever this build claims guards
    // (it injected them, or the input already carried guard calls, or
    // the optimizer claims elisions), the translation validator — run
    // once, inside the attestation — must have re-derived coverage plus
    // every optimizer claim from the module text alone. Baseline builds
    // of guard-free sources are exempt — they claim nothing.
    let claims_guards = options.inject_guards
        || module.call_count(crate::guard::GUARD_SYMBOL) > 0
        || !ledger.is_empty();
    if claims_guards && !report.is_clean() {
        return Err(CompileError::GuardCoverage(Box::new(report)));
    }
    let signed = SignedModule::sign(&module, attestation, key);
    Ok(CompileOutput { signed, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kop_ir::parse_module;

    const SRC: &str = r#"
module "drv"
global @reg : i64 = 0
define void @poke(ptr %mmio, i64 %v) {
entry:
  store i64 %v, ptr %mmio
  %old = load i64, ptr @reg
  %new = add i64 %old, 1
  store i64 %new, ptr @reg
  ret void
}
"#;

    fn key() -> CompilerKey {
        CompilerKey::from_passphrase("k", "s")
    }

    #[test]
    fn carat_kop_build_guards_everything() {
        let m = parse_module(SRC).unwrap();
        let out = compile_module(m, &CompileOptions::carat_kop(), &key()).unwrap();
        assert_eq!(out.stats.get("guards_injected"), 3);
        assert!(out.signed.attestation.guards_strict);
        assert_eq!(out.signed.attestation.guard_count, 3);
        assert!(out.signed.attestation.obligations.is_empty());
        let verified = out.signed.verify(&[key()]).unwrap();
        assert_eq!(verified.call_count("carat_guard"), 3);
    }

    #[test]
    fn baseline_build_injects_nothing() {
        let m = parse_module(SRC).unwrap();
        let out = compile_module(m, &CompileOptions::baseline(), &key()).unwrap();
        assert_eq!(out.stats.get("guards_injected"), 0);
        assert_eq!(out.signed.attestation.guard_count, 0);
        // Baseline is still signed and verifiable.
        out.signed.verify(&[key()]).unwrap();
    }

    #[test]
    fn optimized_build_is_not_strict() {
        // Element walk so range coalescing has something to do, plus a
        // repeated global access so elimination does too.
        let src = r#"
module "opt"
global @g : i64 = 0
define void @f(ptr %buf, i64 %n) {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %c = icmp ult i64 %i, %n
  condbr i1 %c, %body, %exit
body:
  %p = gep i64, ptr %buf, i64 %i
  %v = load i64, ptr %p
  %g0 = load i64, ptr @g
  %v2 = add i64 %v, %g0
  store i64 %v2, ptr @g
  %i.next = add i64 %i, 1
  br %head
exit:
  ret void
}
"#;
        let m = parse_module(src).unwrap();
        let out = compile_module(m, &CompileOptions::optimized(), &key()).unwrap();
        assert!(out.stats.get("guards_range_coalesced") > 0);
        assert!(out.stats.get("guards_removed") > 0);
        assert!(!out.signed.attestation.guards_strict);
        // The ledger made it into the attestation and survives signing.
        assert!(!out.signed.attestation.obligations.is_empty());
        out.signed.verify(&[key()]).unwrap();
    }

    #[test]
    fn asm_refused_even_in_baseline() {
        let src = r#"
module "evil"
define void @f() {
entry:
  asm "cli"
  ret void
}
"#;
        let m = parse_module(src).unwrap();
        let err = compile_module(m, &CompileOptions::baseline(), &key()).unwrap_err();
        assert!(matches!(err, CompileError::Attest(_)));
    }

    #[test]
    fn guard_stripped_input_refused() {
        // A module that *claims* to be guarded (it calls carat_guard)
        // but leaves one access uncovered: the coverage verifier must
        // refuse to let it be signed, even in baseline mode where no
        // guards are injected.
        let src = r#"
module "stripped"
declare void @carat_guard(ptr, i64, i32)
define void @f(ptr %p, ptr %q) {
entry:
  call void @carat_guard(ptr %p, i64 8, i32 2)
  store i64 1, ptr %p
  store i64 2, ptr %q
  ret void
}
"#;
        let m = parse_module(src).unwrap();
        let err = compile_module(m, &CompileOptions::baseline(), &key()).unwrap_err();
        let CompileError::GuardCoverage(report) = err else {
            panic!("expected GuardCoverage, got {err}");
        };
        assert!(!report.is_clean());
        assert_eq!(
            report
                .with_code(kop_analysis::LintCode::UnguardedAccess)
                .count(),
            1
        );
    }

    #[test]
    fn optimized_build_attests_covered() {
        let m = parse_module(SRC).unwrap();
        let out = compile_module(m, &CompileOptions::optimized(), &key()).unwrap();
        assert!(out.signed.attestation.guards_covered);
    }

    #[test]
    fn invalid_input_refused() {
        let src = r#"
module "bad"
define i64 @f() {
entry:
  ret void
}
"#;
        let m = parse_module(src).unwrap();
        let err = compile_module(m, &CompileOptions::carat_kop(), &key()).unwrap_err();
        assert!(matches!(err, CompileError::InputVerify(_)));
    }
}
