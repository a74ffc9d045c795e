//! Mutation tests for the translation validator: hand-corrupt the
//! obligation ledger of an honestly optimized module and assert that
//! *both* enforcement points — the compile-time validator
//! ([`validate_module`] / [`SignedModule::verify`]) and the insmod-time
//! replay in `Verification::Static` mode — reject the module with the
//! distinct diagnostic for each corruption:
//!
//! - a dropped guard whose elide obligation survives  → `KA006`
//! - a forged range wider than the loop actually walks → `KA007`
//! - an elide citing a guard that does not dominate    → `KA008`
//! - ledger text that does not parse at all            → hard error
//!
//! The corrupt containers are re-signed with the kernel-trusted key, so
//! every rejection here is attributable to the validator re-deriving the
//! optimizer's claims — not to MAC or key checks.

use std::sync::Arc;

use carat_kop::analysis::{validate_module, LintCode, ObligationLedger};
use carat_kop::compiler::{
    compile_module, CompileOptions, CompilerKey, SignedModule, SigningError,
};
use carat_kop::core::KernelError;
use carat_kop::ir::{parse_module, Inst, Module};
use carat_kop::kernel::{Kernel, KernelConfig, Verification};
use carat_kop::policy::PolicyModule;

/// A canonical element walk plus scalar `@g` traffic. The optimized build
/// carries one range obligation (the `%p` walk) and one elide obligation
/// (the `store` guard widened into the `load @g` guard). The extra `@g`
/// load in `exit` keeps a guard the loop body does *not* dominate, which
/// the dominance-forgery test points an elide at.
const SRC: &str = r#"
module "mut"

global @g : i64 = 7

define void @walk(ptr %buf, i64 %n) {
entry:
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i2, %body ]
  %c = icmp ult i64 %i, %n
  condbr i1 %c, %body, %exit
body:
  %p = gep i64, ptr %buf, i64 %i
  %v = load i64, ptr %p
  %g0 = load i64, ptr @g
  store i64 %v, ptr @g
  %i2 = add i64 %i, 1
  br %head
exit:
  %gz = load i64, ptr @g
  ret void
}
"#;

fn trusted_key() -> CompilerKey {
    CompilerKey::from_passphrase("operator-key", "carat-kop-dev")
}

fn static_kernel() -> Kernel {
    Kernel::boot(
        Arc::new(PolicyModule::new()),
        vec![trusted_key()],
        KernelConfig {
            verification: Verification::Static,
            ..KernelConfig::default()
        },
    )
}

/// Compile `SRC` optimized and return the signed container (whose
/// attestation embeds the honest ledger) plus the optimized IR.
fn optimized_build() -> (SignedModule, Module) {
    let m = parse_module(SRC).unwrap();
    let out = compile_module(m, &CompileOptions::optimized(), &trusted_key()).unwrap();
    let ir = parse_module(&out.signed.ir_text).unwrap();
    (out.signed, ir)
}

/// Re-sign `signed` with `obligations` swapped in. Models a compromised
/// or buggy optimizer that holds the real signing key: the MAC verifies,
/// so only the validator stands between the forged ledger and the kernel.
fn resign_with_ledger(signed: &SignedModule, ir: &Module, obligations: String) -> SignedModule {
    let mut attestation = signed.attestation.clone();
    attestation.obligations = obligations;
    SignedModule::sign(ir, attestation, &trusted_key())
}

/// Assert the corrupt container is rejected at both enforcement points
/// with a message carrying `code`'s name (e.g. `"KA006"`).
fn assert_rejected_everywhere(signed: &SignedModule, ir: &Module, code: LintCode) {
    let code_str = format!("{code:?}");
    let code_tag = match code {
        LintCode::ObligationUnfounded => "KA006",
        LintCode::RangeUnproven => "KA007",
        LintCode::ObligationDominance => "KA008",
        other => panic!("unexpected code under test: {other:?}"),
    };

    // Compile-time: the standalone validator re-derives the claims.
    let ledger = ObligationLedger::parse(&signed.attestation.obligations).unwrap();
    let report = validate_module(ir, &ledger);
    assert!(
        !report.is_clean(),
        "validator accepted corrupt ledger ({code_str})"
    );
    assert!(
        report.with_code(code).next().is_some(),
        "expected {code_tag} in:\n{}",
        report.summary()
    );

    // Signing boundary: container verification replays the same ledger.
    let err = signed.verify(&[trusted_key()]).unwrap_err();
    let SigningError::AttestationMismatch(msg) = err else {
        panic!("expected AttestationMismatch, got {err:?}");
    };
    assert!(msg.contains(code_tag), "{code_tag} missing from: {msg}");

    // Insmod: static verification replays the ledger once more and must
    // refuse to link the module.
    let mut kernel = static_kernel();
    let err = kernel.insmod(signed).unwrap_err();
    let KernelError::StaticVerification(msg) = err else {
        panic!("expected StaticVerification, got {err:?}");
    };
    assert!(msg.contains(code_tag), "{code_tag} missing from: {msg}");
}

/// Pull the single line starting with `kind ` out of the ledger text.
fn ledger_line(signed: &SignedModule, kind: &str) -> String {
    signed
        .attestation
        .obligations
        .lines()
        .find(|l| l.starts_with(kind))
        .unwrap_or_else(|| panic!("no {kind:?} obligation in honest ledger"))
        .to_string()
}

#[test]
fn honest_optimized_build_passes_every_checkpoint() {
    // Baseline sanity: before any mutation, the exact same container is
    // accepted everywhere, so the rejections below isolate the corruption.
    let (signed, ir) = optimized_build();
    assert!(signed.attestation.guards_covered);
    assert!(!signed.attestation.guards_strict);
    let ledger = ObligationLedger::parse(&signed.attestation.obligations).unwrap();
    assert!(
        ledger.obligations.len() >= 2,
        "expected a range and an elide obligation, got: {}",
        signed.attestation.obligations
    );
    assert!(validate_module(&ir, &ledger).is_clean());
    signed.verify(&[trusted_key()]).unwrap();
    static_kernel().insmod(&signed).unwrap();
}

#[test]
fn dropped_guard_with_surviving_obligation_is_rejected_ka006() {
    // Corruption 1: the optimizer "dropped" the surviving guard the elide
    // cites — the obligation now points at an instruction slot that holds
    // no guard. Redirect the elide's guard reference past the end of its
    // block, exactly what a deleted guard line does to every later index.
    let (signed, ir) = optimized_build();
    let elide = ledger_line(&signed, "elide ");
    let guard_tok = elide
        .split_whitespace()
        .find(|t| t.starts_with("guard="))
        .unwrap()
        .to_string();
    let forged = signed
        .attestation
        .obligations
        .replace(&guard_tok, "guard=body#99");
    assert_ne!(forged, signed.attestation.obligations);
    let corrupt = resign_with_ledger(&signed, &ir, forged);
    assert_rejected_everywhere(&corrupt, &ir, LintCode::ObligationUnfounded);
}

#[test]
fn forged_wider_range_is_rejected_ka007() {
    // Corruption 2: the range obligation claims a 16-byte stride over an
    // 8-byte walk — twice the memory the loop actually touches. The
    // validator recomputes `trip_count · stride` from the IR and refuses.
    let (signed, ir) = optimized_build();
    let range = ledger_line(&signed, "range ");
    assert!(
        range.contains("stride=8"),
        "fixture stride changed: {range}"
    );
    let forged = signed
        .attestation
        .obligations
        .replace("stride=8", "stride=16");
    let corrupt = resign_with_ledger(&signed, &ir, forged);
    assert_rejected_everywhere(&corrupt, &ir, LintCode::RangeUnproven);
}

#[test]
fn non_dominating_guard_citation_is_rejected_ka008() {
    // Corruption 3: an elide citing the widened `@g` guard in `body` as
    // the dominator of the `@g` load in `exit`. The guard structurally
    // covers that access (same pointer, size 8, READ ⊆ RW), so only the
    // independent dominance recomputation can catch it: `body` does not
    // dominate `exit` (the loop may run zero times).
    let (signed, ir) = optimized_build();
    let elide = ledger_line(&signed, "elide ");
    let guard_tok = elide
        .split_whitespace()
        .find(|t| t.starts_with("guard="))
        .unwrap()
        .to_string();

    // Locate the guarded load in `exit` without hardcoding its slot.
    let f = ir.function("walk").unwrap();
    let exit = f.block_by_name("exit").unwrap();
    let load_idx = f
        .block(exit)
        .insts
        .iter()
        .position(|&iid| matches!(f.inst(iid), Inst::Load { .. }))
        .unwrap();

    let forged = format!(
        "{}\nelide fn=walk {} access=exit#{} size=8 flags=1",
        signed.attestation.obligations.trim_end(),
        guard_tok,
        load_idx,
    );
    let corrupt = resign_with_ledger(&signed, &ir, forged);
    assert_rejected_everywhere(&corrupt, &ir, LintCode::ObligationDominance);
}

#[test]
fn unparseable_ledger_is_rejected_at_both_checkpoints() {
    // Garbage ledger text: the parser itself refuses, before any replay.
    let (signed, ir) = optimized_build();
    let corrupt = resign_with_ledger(&signed, &ir, "obligations-v1\nwarp fn=walk".to_string());

    let err = corrupt.verify(&[trusted_key()]).unwrap_err();
    let SigningError::AttestationMismatch(msg) = err else {
        panic!("expected AttestationMismatch, got {err:?}");
    };
    assert!(msg.contains("obligation ledger invalid"), "got: {msg}");

    let err = static_kernel().insmod(&corrupt).unwrap_err();
    let KernelError::StaticVerification(msg) = err else {
        panic!("expected StaticVerification, got {err:?}");
    };
    assert!(msg.contains("obligation ledger invalid"), "got: {msg}");
}

#[test]
fn obligation_for_still_missing_guard_is_rejected_ka001() {
    // A ledger whose obligations all validate cannot launder an access
    // that simply lost its guard with *no* covering claim: strip the
    // range obligation and the per-iteration walk becomes unguarded.
    let (signed, ir) = optimized_build();
    let kept: Vec<&str> = signed
        .attestation
        .obligations
        .lines()
        .filter(|l| !l.starts_with("range "))
        .collect();
    let corrupt = resign_with_ledger(&signed, &ir, kept.join("\n"));

    let ledger = ObligationLedger::parse(&corrupt.attestation.obligations).unwrap();
    let report = validate_module(&ir, &ledger);
    assert!(report.with_code(LintCode::UnguardedAccess).next().is_some());

    let err = static_kernel().insmod(&corrupt).unwrap_err();
    let KernelError::StaticVerification(msg) = err else {
        panic!("expected StaticVerification, got {err:?}");
    };
    assert!(msg.contains("KA001"), "got: {msg}");
}

// ---------------------------------------------------------------------
// Inline-bounds (promoted container) mutations: the profile-directed
// tier bakes a grant's `[lo, hi)` into the ledger as an `inline`
// obligation citing the snapshot generation it was lifted from. The
// validator treats the immediates as a *claim* and recomputes them from
// the grant oracle (the policy's retained snapshot history), so a
// forged bound (KA009), a stale citation (KA010), and a bound lifted
// from another site's grant (KA011) are each refused — at the signing
// boundary (`verify_with_grants`) and again at insmod.
// ---------------------------------------------------------------------

use carat_kop::core::{Protection, Region, Size, VAddr};

/// Region A: where the hot site's profiled envelope actually lives.
const GRANT_A: (u64, u64) = (0x1000, 0x2000);
/// Region B: a different, real grant of the same generation — the
/// wrong-site forgery bakes this bound.
const GRANT_B: (u64, u64) = (0x8000, 0x9000);

/// Boot a static-verification kernel over a policy holding grants A and
/// B, and return the kernel plus the shared policy and its generation.
fn promoted_kernel() -> (Kernel, Arc<PolicyModule>, u64) {
    let pm = Arc::new(PolicyModule::new());
    let kernel = Kernel::boot(
        Arc::clone(&pm),
        vec![trusted_key()],
        KernelConfig {
            verification: Verification::Static,
            ..KernelConfig::default()
        },
    );
    for (lo, hi) in [GRANT_A, GRANT_B] {
        pm.add_region(Region::new(VAddr(lo), Size(hi - lo), Protection::READ_WRITE).unwrap())
            .unwrap();
    }
    let gen = pm.store_generation();
    (kernel, pm, gen)
}

/// The `block#index` citation of the first guard call in `@walk`.
fn first_guard_ref(ir: &Module) -> String {
    let f = ir.function("walk").unwrap();
    f.blocks
        .iter()
        .find_map(|b| {
            b.insts
                .iter()
                .position(|&iid| {
                    matches!(f.inst(iid), Inst::Call { callee, args, .. }
                        if callee == "carat_guard" && args.len() == 3)
                })
                .map(|i| format!("{}#{i}", b.name))
        })
        .expect("optimized build keeps at least one guard")
}

/// Re-sign the honest optimized container with one `inline` obligation
/// appended (upgrading the ledger header to v2) — the container shape
/// `Kernel::promote_hot` attests, built by hand so each field can be
/// forged independently.
fn resign_with_inline(
    signed: &SignedModule,
    ir: &Module,
    guard: &str,
    lo: u64,
    hi: u64,
    gen: u64,
    env: (u64, u64),
) -> SignedModule {
    let base = signed
        .attestation
        .obligations
        .replace(ObligationLedger::HEADER, ObligationLedger::HEADER_V2);
    let forged = format!(
        "{}inline fn=walk guard={guard} lo={lo} hi={hi} flags=3 gen={gen} elo={} ehi={}\n",
        base, env.0, env.1,
    );
    let mut attestation = signed.attestation.clone();
    attestation.obligations = forged;
    attestation.inline_obligations = 1;
    SignedModule::sign(ir, attestation, &trusted_key())
}

/// Assert the promoted container is rejected by the grant-aware signing
/// check and by insmod, both naming `code_tag`.
fn assert_inline_rejected(signed: &SignedModule, pm: &Arc<PolicyModule>, code_tag: &str) {
    let grants = |g: u64| pm.regions_at(g);
    let err = signed
        .verify_with_grants(&[trusted_key()], Some(&grants))
        .unwrap_err();
    let SigningError::AttestationMismatch(msg) = err else {
        panic!("expected AttestationMismatch, got {err:?}");
    };
    assert!(msg.contains(code_tag), "{code_tag} missing from: {msg}");

    let (mut kernel, _, _) = promoted_kernel_with(pm);
    let err = kernel.insmod(signed).unwrap_err();
    let KernelError::StaticVerification(msg) = err else {
        panic!("expected StaticVerification, got {err:?}");
    };
    assert!(msg.contains(code_tag), "{code_tag} missing from: {msg}");
}

/// Boot a fresh static kernel over an *existing* policy (so the forged
/// container faces the same grant history the oracle answered from).
fn promoted_kernel_with(pm: &Arc<PolicyModule>) -> (Kernel, Arc<PolicyModule>, u64) {
    let kernel = Kernel::boot(
        Arc::clone(pm),
        vec![trusted_key()],
        KernelConfig {
            verification: Verification::Static,
            ..KernelConfig::default()
        },
    );
    let gen = pm.store_generation();
    (kernel, Arc::clone(pm), gen)
}

#[test]
fn honest_promoted_container_passes_with_a_grant_oracle() {
    let (mut kernel, pm, gen) = promoted_kernel();
    let (signed, ir) = optimized_build();
    let guard = first_guard_ref(&ir);
    let honest = resign_with_inline(
        &signed,
        &ir,
        &guard,
        GRANT_A.0,
        GRANT_A.1,
        gen,
        (0x1200, 0x1260),
    );

    // Without the oracle the citation is unverifiable — the signing
    // boundary refuses rather than trusting the immediates (KA010).
    let err = honest.verify(&[trusted_key()]).unwrap_err();
    let SigningError::AttestationMismatch(msg) = err else {
        panic!("expected AttestationMismatch, got {err:?}");
    };
    assert!(msg.contains("KA010"), "got: {msg}");

    // With it, the bound is re-derived and the container is accepted at
    // both enforcement points.
    let grants = |g: u64| pm.regions_at(g);
    honest
        .verify_with_grants(&[trusted_key()], Some(&grants))
        .unwrap();
    kernel.insmod(&honest).unwrap();
}

#[test]
fn forged_inline_bound_is_rejected_ka009() {
    // The baked interval is widened past the real grant: it equals no
    // region generation `gen` ever held, so the recomputation refuses.
    let (_, pm, gen) = promoted_kernel();
    let (signed, ir) = optimized_build();
    let guard = first_guard_ref(&ir);
    let corrupt = resign_with_inline(
        &signed,
        &ir,
        &guard,
        GRANT_A.0,
        GRANT_A.1 + 0x100,
        gen,
        (0x1200, 0x1260),
    );
    assert_inline_rejected(&corrupt, &pm, "KA009");
}

#[test]
fn stale_generation_citation_is_rejected_ka010() {
    // The citation names a generation the snapshot history never
    // retained — a bound the validator cannot recompute is a bound the
    // kernel does not trust, even though the immediates happen to match
    // a real current grant.
    let (_, pm, gen) = promoted_kernel();
    let (signed, ir) = optimized_build();
    let guard = first_guard_ref(&ir);
    let corrupt = resign_with_inline(
        &signed,
        &ir,
        &guard,
        GRANT_A.0,
        GRANT_A.1,
        gen + 1_000,
        (0x1200, 0x1260),
    );
    assert_inline_rejected(&corrupt, &pm, "KA010");
}

#[test]
fn wrong_site_bound_is_rejected_ka011() {
    // The immediates are lifted from grant B — a real region of the
    // cited generation — while the site's profiled envelope lives in
    // grant A. The bound does not cover the envelope, so admitting with
    // it would answer for the wrong site.
    let (_, pm, gen) = promoted_kernel();
    let (signed, ir) = optimized_build();
    let guard = first_guard_ref(&ir);
    let corrupt = resign_with_inline(
        &signed,
        &ir,
        &guard,
        GRANT_B.0,
        GRANT_B.1,
        gen,
        (0x1200, 0x1260),
    );
    assert_inline_rejected(&corrupt, &pm, "KA011");
}

#[test]
fn inline_count_mismatch_is_rejected_at_signing() {
    // The v6 attestation binds the inline-obligation count; a ledger
    // that grew an inline claim the count does not admit is refused
    // before any validation replay.
    let (_, pm, gen) = promoted_kernel();
    let (signed, ir) = optimized_build();
    let guard = first_guard_ref(&ir);
    let mut forged = resign_with_inline(
        &signed,
        &ir,
        &guard,
        GRANT_A.0,
        GRANT_A.1,
        gen,
        (0x1200, 0x1260),
    );
    forged.attestation.inline_obligations = 0;
    let forged = SignedModule::sign(&ir, forged.attestation, &trusted_key());
    let grants = |g: u64| pm.regions_at(g);
    let err = forged
        .verify_with_grants(&[trusted_key()], Some(&grants))
        .unwrap_err();
    let SigningError::AttestationMismatch(msg) = err else {
        panic!("expected AttestationMismatch, got {err:?}");
    };
    assert!(msg.contains("inline obligation count"), "got: {msg}");
}
