//! Compile-time attestation.
//!
//! From the paper (§2): *"The signature also is in effect an assertion, by
//! the compilation process, that the code it compiled does not include any
//! problematic elements such as inline or separate assembly."* And §5 notes
//! that privileged intrinsics/builtins are a known hole that instrumentation
//! could close.
//!
//! [`Attestation::check`] scans a module and either produces an attestation
//! record (which the signer binds into the signature) or refuses with
//! [`AttestError`], in which case the module cannot be signed at all.

use std::fmt;

use kop_analysis::{AnalysisReport, ObligationLedger};
use kop_ir::{Inst, Module};

use crate::guard::{strict_guard_layout, GUARD_SYMBOL};

/// Privileged intrinsics a kernel module must not call directly. Mirrors
/// the x86 privileged-instruction surface a real attestor would reject
/// (paper §5 lists this as future work; we implement the check).
pub const PRIVILEGED_INTRINSICS: &[&str] = &[
    "__wrmsr",
    "__rdmsr",
    "__cli",
    "__sti",
    "__hlt",
    "__invlpg",
    "__lgdt",
    "__lidt",
    "__ltr",
    "__mov_cr0",
    "__mov_cr3",
    "__mov_cr4",
    "__outb",
    "__outw",
    "__outl",
    "__vmcall",
];

/// Why attestation refused a module.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttestError {
    /// The module contains an inline-assembly instruction.
    InlineAsm {
        /// Function containing the asm.
        function: String,
        /// The assembly text found.
        text: String,
    },
    /// The module calls a privileged intrinsic.
    PrivilegedIntrinsic {
        /// Function containing the call.
        function: String,
        /// The intrinsic called.
        intrinsic: String,
    },
    /// Wrapped-intrinsic mode was requested but some privileged call is
    /// not immediately preceded by its matching intrinsic guard.
    UnwrappedIntrinsic,
}

impl fmt::Display for AttestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttestError::InlineAsm { function, text } => {
                write!(f, "inline assembly in @{function}: \"{text}\"")
            }
            AttestError::PrivilegedIntrinsic {
                function,
                intrinsic,
            } => write!(
                f,
                "privileged intrinsic @{intrinsic} called from @{function}"
            ),
            AttestError::UnwrappedIntrinsic => {
                f.write_str("privileged intrinsic call lacks its intrinsic guard")
            }
        }
    }
}

impl std::error::Error for AttestError {}

/// The attestation record bound into a module's signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Attestation {
    /// Module name the record was computed for.
    pub module_name: String,
    /// Asserted: no inline assembly anywhere in the module.
    pub no_inline_asm: bool,
    /// Asserted: no calls to privileged intrinsics.
    pub no_privileged_calls: bool,
    /// Whether every load/store is immediately preceded by a matching
    /// guard (true for unoptimized CARAT KOP output; false once the
    /// optional optimization passes have moved or removed guards).
    pub guards_strict: bool,
    /// Whether the dataflow verifier proved every load/store dominated by
    /// a covering guard on all paths. Unlike [`guards_strict`] this holds
    /// for optimized (hoisted/deduplicated) builds too — it is the
    /// compiler's record of the proof the loader can independently
    /// recompute in static-verification mode.
    ///
    /// [`guards_strict`]: Attestation::guards_strict
    pub guards_covered: bool,
    /// Static count of guard call sites.
    pub guard_count: u64,
    /// Number of stable guard-site IDs assigned by the deterministic
    /// site walk ([`kop_trace::assign_guard_sites`]) — memory *and*
    /// intrinsic guards, so ≥ [`guard_count`].
    ///
    /// [`guard_count`]: Attestation::guard_count
    pub guard_sites: u64,
    /// SHA-256 (hex) of the canonical site text
    /// ([`kop_trace::canonical_site_text`]). The loader recomputes this
    /// at insmod and refuses modules whose site map diverges from what
    /// the compiler signed, so per-site profiles can't be misattributed.
    pub site_digest: String,
    /// Static count of loads + stores.
    pub mem_access_count: u64,
    /// Static count of privileged-intrinsic call sites (0 unless the
    /// module was built with `wrap_privileged` — unwrapped privileged
    /// calls are refused outright).
    pub privileged_calls: u64,
    /// Whether every privileged call carries its intrinsic guard (§5
    /// extension). Always true when `privileged_calls > 0`.
    pub privileged_wrapped: bool,
    /// Identifier of the compiler that produced the module.
    pub compiler_id: String,
    /// The obligation ledger, in [`ObligationLedger`] text form
    /// (`obligations-v1`): one machine-checkable claim per guard the
    /// optimizer removed or coalesced. Empty for unoptimized builds. The
    /// ledger carries compiler obligations only, is *bound into the
    /// signature*, and is re-audited by the independent translation
    /// validator at `insmod` — a module whose elisions the loader cannot
    /// re-derive does not load.
    pub obligations: String,
}

impl Attestation {
    /// The compiler identifier embedded in every attestation. The paper
    /// pins clang 14.0.0; we pin this crate.
    pub const COMPILER_ID: &'static str = concat!("carat-kop-kir-", env!("CARGO_PKG_VERSION"));

    /// Scan `module` and produce an attestation, or refuse. Privileged
    /// intrinsic calls are refused outright (the paper's base behaviour).
    pub fn check(module: &Module) -> Result<Attestation, AttestError> {
        Self::check_with(module, false)
    }

    /// Input-side scan only: refuse inline assembly always, and privileged
    /// calls unless `allow_privileged`. Used by the driver *before* the
    /// wrap pass has run, so wrap validation is not yet applicable.
    pub fn precheck(module: &Module, allow_privileged: bool) -> Result<(), AttestError> {
        scan(module, allow_privileged)
    }

    /// Like [`Attestation::check`], but when `allow_wrapped` is set,
    /// privileged-intrinsic calls are accepted *iff* each one is
    /// immediately preceded by its matching `carat_intrinsic_guard` call
    /// (the §5 extension).
    pub fn check_with(module: &Module, allow_wrapped: bool) -> Result<Attestation, AttestError> {
        Self::check_with_ledger(module, allow_wrapped, &ObligationLedger::empty()).map(|(a, _)| a)
    }

    /// Like [`Attestation::check_with`], but binds `ledger` — the
    /// optimizer's obligation record — into the attestation.
    /// `guards_covered` is computed by the independent translation
    /// validator against that ledger, so it asserts both full coverage
    /// *and* that every optimizer claim was independently re-derived.
    /// The validator's report comes back beside the attestation, so a
    /// caller that refuses or explains a coverage verdict runs the
    /// validator no second time.
    pub fn check_with_ledger(
        module: &Module,
        allow_wrapped: bool,
        ledger: &ObligationLedger,
    ) -> Result<(Attestation, AnalysisReport), AttestError> {
        scan(module, allow_wrapped)?;
        let privileged_calls = crate::intrinsics::privileged_call_count(module);
        if privileged_calls > 0 && !crate::intrinsics::validate_intrinsic_wraps(module) {
            return Err(AttestError::UnwrappedIntrinsic);
        }
        let sites = kop_trace::assign_guard_sites(module);
        let site_text = kop_trace::canonical_site_text(&module.name, &sites);
        let report = kop_analysis::validate_module(module, ledger);
        let attestation = Attestation {
            module_name: module.name.clone(),
            no_inline_asm: true,
            no_privileged_calls: privileged_calls == 0,
            guards_strict: strict_guard_layout(module),
            guards_covered: report.is_clean(),
            guard_count: module.call_count(GUARD_SYMBOL) as u64,
            guard_sites: sites.len() as u64,
            site_digest: crate::sha256::hex(&crate::sha256::sha256(site_text.as_bytes())),
            mem_access_count: module.memory_access_count() as u64,
            privileged_calls,
            privileged_wrapped: privileged_calls > 0,
            compiler_id: Self::COMPILER_ID.to_string(),
            obligations: ledger.to_text(),
        };
        Ok((attestation, report))
    }

    /// Every field but the ledger as `(key, label, value)`, in record
    /// order: the one layout [`Attestation::to_bytes`] writes, and the
    /// words in which [`SignedModule::verify`] names a mismatch.
    ///
    /// [`SignedModule::verify`]: crate::SignedModule::verify
    pub(crate) fn fields(&self) -> [(&'static str, &'static str, String); 12] {
        let b = |v: bool| v.to_string();
        [
            ("module", "module name", self.module_name.clone()),
            ("no_asm", "no inline asm", b(self.no_inline_asm)),
            (
                "no_priv",
                "no privileged calls",
                b(self.no_privileged_calls),
            ),
            ("strict", "strict guard layout", b(self.guards_strict)),
            ("covered", "guard coverage", b(self.guards_covered)),
            ("guards", "guard count", self.guard_count.to_string()),
            ("sites", "guard site count", self.guard_sites.to_string()),
            ("site_digest", "guard site digest", self.site_digest.clone()),
            (
                "accesses",
                "memory access count",
                self.mem_access_count.to_string(),
            ),
            (
                "priv_calls",
                "privileged call count",
                self.privileged_calls.to_string(),
            ),
            (
                "priv_wrapped",
                "privileged calls wrapped",
                b(self.privileged_wrapped),
            ),
            ("compiler", "compiler id", self.compiler_id.clone()),
        ]
    }

    /// Canonical byte encoding, bound into the module signature. The
    /// obligation ledger rides at the end, prefixed by its byte length so
    /// the encoding stays unambiguous (ledger text is multi-line). The
    /// bound ledger carries compiler obligations only.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::from("attestation-v7\n");
        for (key, _, value) in self.fields() {
            out += &format!("{key}={value}\n");
        }
        out += &format!("obligations_len={}\n", self.obligations.len());
        out += &self.obligations;
        out.into_bytes()
    }
}

/// Shared scan: refuse inline asm always; refuse privileged calls unless
/// `allow_privileged`.
fn scan(module: &Module, allow_privileged: bool) -> Result<(), AttestError> {
    for f in &module.functions {
        for (_, iid) in f.placed_insts() {
            match f.inst(iid) {
                Inst::Asm { text } => {
                    return Err(AttestError::InlineAsm {
                        function: f.name.clone(),
                        text: text.clone(),
                    })
                }
                Inst::Call { callee, .. }
                    if PRIVILEGED_INTRINSICS.contains(&callee.as_str()) && !allow_privileged =>
                {
                    return Err(AttestError::PrivilegedIntrinsic {
                        function: f.name.clone(),
                        intrinsic: callee.clone(),
                    });
                }
                _ => {}
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::GuardInjectionPass;
    use kop_ir::parse_module;

    #[test]
    fn clean_module_attests() {
        let src = r#"
module "clean"
define i64 @f(ptr %p) {
entry:
  %v = load i64, ptr %p
  ret i64 %v
}
"#;
        let mut m = parse_module(src).unwrap();
        GuardInjectionPass.run(&mut m);
        let a = Attestation::check(&m).expect("attests");
        assert!(a.no_inline_asm);
        assert!(a.guards_strict);
        assert!(a.guards_covered);
        assert_eq!(a.guard_count, 1);
        assert_eq!(a.mem_access_count, 1);
        assert_eq!(a.compiler_id, Attestation::COMPILER_ID);
    }

    #[test]
    fn attestation_records_guard_sites_and_digest() {
        // The site walk and the guard pass must agree on the symbol.
        assert_eq!(kop_trace::sites::GUARD_SYMBOL, crate::guard::GUARD_SYMBOL);
        assert_eq!(
            kop_trace::sites::INTRINSIC_GUARD_SYMBOL,
            crate::intrinsics::INTRINSIC_GUARD_SYMBOL
        );
        let src = r#"
module "sited"
define i64 @f(ptr %p) {
entry:
  %v = load i64, ptr %p
  store i64 %v, ptr %p
  ret i64 %v
}
"#;
        let mut m = parse_module(src).unwrap();
        GuardInjectionPass.run(&mut m);
        let a = Attestation::check(&m).expect("attests");
        assert_eq!(a.guard_sites, a.guard_count, "no intrinsic guards here");
        assert_eq!(a.site_digest.len(), 64, "hex sha256");
        // The digest is position-sensitive: a module with the same guard
        // count in a differently-named function digests differently.
        let src2 = src.replace("@f", "@g");
        let mut m2 = parse_module(&src2).unwrap();
        GuardInjectionPass.run(&mut m2);
        let a2 = Attestation::check(&m2).expect("attests");
        assert_eq!(a2.guard_sites, a.guard_sites);
        assert_ne!(a2.site_digest, a.site_digest);
    }

    #[test]
    fn inline_asm_rejected() {
        let src = r#"
module "sneaky"
define void @f() {
entry:
  asm "mov %cr3, %rax"
  ret void
}
"#;
        let m = parse_module(src).unwrap();
        let err = Attestation::check(&m).unwrap_err();
        match err {
            AttestError::InlineAsm { function, .. } => assert_eq!(function, "f"),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn privileged_intrinsic_rejected() {
        let src = r#"
module "priv"
declare void @__wrmsr(i64, i64)
define void @f() {
entry:
  call void @__wrmsr(i64 0xC0000080, i64 0)
  ret void
}
"#;
        let m = parse_module(src).unwrap();
        let err = Attestation::check(&m).unwrap_err();
        match err {
            AttestError::PrivilegedIntrinsic { intrinsic, .. } => {
                assert_eq!(intrinsic, "__wrmsr")
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn unguarded_module_attests_non_strict() {
        let src = r#"
module "raw"
define i64 @f(ptr %p) {
entry:
  %v = load i64, ptr %p
  ret i64 %v
}
"#;
        let m = parse_module(src).unwrap();
        let a = Attestation::check(&m).expect("attests");
        assert!(!a.guards_strict);
        assert!(!a.guards_covered);
        assert_eq!(a.guard_count, 0);
        assert_eq!(a.mem_access_count, 1);
    }

    #[test]
    fn coalesced_guards_are_covered_by_ledger_but_not_strict() {
        use crate::obligations::ObligationRecorder;
        use crate::opt::RangeCoalescing;
        let src = r#"
module "coalesce"
define void @f(ptr %buf, i64 %n) {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %c = icmp ult i64 %i, %n
  condbr i1 %c, %body, %exit
body:
  %p = gep i64, ptr %buf, i64 %i
  %v = load i64, ptr %p
  %i2 = add i64 %i, 1
  br %head
exit:
  ret void
}
"#;
        let mut m = parse_module(src).unwrap();
        GuardInjectionPass.run(&mut m);
        let mut rec = ObligationRecorder::new();
        let s = RangeCoalescing.run_with(&mut m, &mut rec);
        assert!(s.get("guards_range_coalesced") > 0);
        let ledger = rec.finalize(&m);
        let (a, report) = Attestation::check_with_ledger(&m, false, &ledger).expect("attests");
        assert!(!a.guards_strict, "coalesced layout is not strict");
        assert!(a.guards_covered, "the range obligation proves the body");
        assert!(report.is_clean(), "the report the coverage bit came from");
        assert_eq!(a.obligations, ledger.to_text());
        // Without the ledger the same module cannot attest coverage: the
        // loop body access has no per-iteration guard any more.
        let bare = Attestation::check(&m).expect("attests");
        assert!(!bare.guards_covered);
    }

    #[test]
    fn byte_encoding_is_stable_and_distinct() {
        let src = r#"
module "x"
define void @f() {
entry:
  ret void
}
"#;
        let m = parse_module(src).unwrap();
        let a = Attestation::check(&m).unwrap();
        let b1 = a.to_bytes();
        let b2 = a.to_bytes();
        assert_eq!(b1, b2);
        assert!(b1.starts_with(b"attestation-v7\n"));
        let mut a2 = a.clone();
        a2.guard_count = 99;
        assert_ne!(b1, a2.to_bytes());

        // The signed layout, field by field.
        let full = Attestation {
            module_name: "m".into(),
            no_inline_asm: true,
            no_privileged_calls: false,
            guards_strict: false,
            guards_covered: true,
            guard_count: 3,
            guard_sites: 4,
            site_digest: "ab".into(),
            mem_access_count: 5,
            privileged_calls: 1,
            privileged_wrapped: true,
            compiler_id: "c".into(),
            obligations: "L\n".into(),
        };
        assert_eq!(
            String::from_utf8(full.to_bytes()).unwrap(),
            "attestation-v7\nmodule=m\nno_asm=true\nno_priv=false\nstrict=false\n\
             covered=true\nguards=3\nsites=4\nsite_digest=ab\naccesses=5\n\
             priv_calls=1\npriv_wrapped=true\ncompiler=c\nobligations_len=2\nL\n"
        );
    }
}
