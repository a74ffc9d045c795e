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
//!
//! The second half audits the other translation the kernel trusts: the
//! bounds `Kernel::promote_hot` bakes. A forged, stale or wrong-site
//! bound is refused (KA009–KA011), an `inline` claim is refused at the
//! container boundary, the optimized module promotes and runs inline,
//! the bake picks the region that grants the site, and promotion leaves
//! no hook behind across restarts and policy swaps.

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
// Promotion. `Kernel::promote_hot` bakes the region that grants each hot
// guard site into its guard op and, before it installs the tier, audits
// what it baked against the snapshot it pinned (`audit_baked_bounds`):
// a forged bound (KA009), a stale citation (KA010) and a bound lifted
// from another region (KA011) are each refused. A baked bound is a
// kernel-internal record: a signed container that claims one is
// malformed, fails verification and does not load.
// ---------------------------------------------------------------------

use carat_kop::analysis::{audit_baked_bounds, BakedBound, InstRef};
use carat_kop::core::{Grant, Protection, Region, Size, VAddr};
use carat_kop::interp::{Engine, ExecStats, Interp};

/// Region A: where the hot site's profiled envelope actually lives.
const GRANT_A: (u64, u64) = (0x1000, 0x2000);
/// Region B: a different, real region of the same snapshot — the
/// wrong-site forgery bakes this bound.
const GRANT_B: (u64, u64) = (0x8000, 0x9000);
/// Generation of the pinned snapshot the bounds below are audited
/// against.
const GEN: u64 = 5;

/// The honest bound for the first guard of the optimized `@walk`, whose
/// envelope lies in region A.
fn honest_bound(ir: &Module) -> BakedBound {
    let f = ir.function("walk").unwrap();
    let guard = f
        .blocks
        .iter()
        .find_map(|b| {
            let index = b.insts.iter().position(|&iid| {
                matches!(f.inst(iid), Inst::Call { callee, args, .. }
                    if callee == "carat_guard" && args.len() == 3)
            })?;
            Some(InstRef {
                block: b.name.clone(),
                index,
            })
        })
        .expect("optimized build keeps at least one guard");
    BakedBound {
        function: "walk".into(),
        guard,
        grant: grant(GRANT_A, GEN),
        env_lo: 0x1200,
        env_hi: 0x1260,
    }
}

/// The read-write grant of `[lo, hi)` at `gen`.
fn grant((lo, hi): (u64, u64), gen: u64) -> Grant {
    let region = Region::new(VAddr(lo), Size(hi - lo), Protection::READ_WRITE).unwrap();
    Grant { region, gen }
}

/// The finding codes of auditing `bound` against the snapshot {A, B} at
/// [`GEN`].
fn audit(ir: &Module, bound: BakedBound) -> Vec<String> {
    let regions = [GRANT_A, GRANT_B].map(|span| grant(span, GEN).region);
    let report = audit_baked_bounds(ir, &[bound], GEN, &regions);
    report.errors().map(|d| d.code.code().to_string()).collect()
}

#[test]
fn honest_baked_bounds_pass_the_pinned_snapshot_audit() {
    let (_, ir) = optimized_build();
    assert_eq!(audit(&ir, honest_bound(&ir)), Vec::<String>::new());
}

#[test]
fn forged_inline_bound_is_rejected_ka009() {
    // The baked interval is widened past the real region: it equals no
    // region of the pinned snapshot.
    let (_, ir) = optimized_build();
    let forged = BakedBound {
        grant: grant((GRANT_A.0, GRANT_A.1 + 0x100), GEN),
        ..honest_bound(&ir)
    };
    assert_eq!(audit(&ir, forged), ["KA009"]);
}

#[test]
fn stale_generation_citation_is_rejected_ka010() {
    // The immediates match the granting region, but the bound cites a
    // generation other than the snapshot's: it cannot be checked against
    // what it claims, so it is not trusted.
    let (_, ir) = optimized_build();
    let stale = BakedBound {
        grant: grant(GRANT_A, GEN + 1_000),
        ..honest_bound(&ir)
    };
    assert_eq!(audit(&ir, stale), ["KA010"]);
}

#[test]
fn wrong_site_bound_is_rejected_ka011() {
    // The immediates are region B's — a real region of the snapshot —
    // while the site's profiled envelope lives in region A.
    let (_, ir) = optimized_build();
    let wrong = BakedBound {
        grant: grant(GRANT_B, GEN),
        env_lo: GRANT_B.0 + 0x200,
        env_hi: GRANT_B.0 + 0x260,
        ..honest_bound(&ir)
    };
    assert_eq!(audit(&ir, wrong.clone()), Vec::<String>::new());
    let wrong = BakedBound {
        env_lo: 0x1200,
        env_hi: 0x1260,
        ..wrong
    };
    assert_eq!(audit(&ir, wrong), ["KA011"]);
}

#[test]
fn inline_claims_are_refused_at_the_container_boundary() {
    let (honest, ir) = optimized_build();
    assert!(honest.attestation.guards_covered);
    let guard = honest_bound(&ir).guard;
    let inline = format!("inline fn=walk guard={guard} lo=4096 hi=8192 flags=3 gen=1 elo=0 ehi=8");
    let claims = [
        honest
            .attestation
            .obligations
            .replacen(ObligationLedger::HEADER, "obligations-v2", 1),
        format!("{}{inline}\n", honest.attestation.obligations),
    ];
    for obligations in claims {
        let forged = resign_with_ledger(&honest, &ir, obligations.clone());
        let err = SignedModule::from_bytes(&forged.to_bytes()).unwrap_err();
        assert!(
            matches!(err, SigningError::Malformed(_)),
            "{obligations}: {err:?}"
        );
        let err = forged.verify(&[trusted_key()]).unwrap_err();
        let SigningError::AttestationMismatch(msg) = err else {
            panic!("expected AttestationMismatch, got {err:?}");
        };
        assert!(
            msg.contains("obligation ledger invalid: ledger line"),
            "{msg}"
        );
        for verification in [Verification::Static, Verification::SignatureAndStatic] {
            let mut kernel = Kernel::boot(
                Arc::new(PolicyModule::new()),
                vec![trusted_key()],
                KernelConfig {
                    verification,
                    ..KernelConfig::default()
                },
            );
            assert!(kernel.insmod(&forged).is_err(), "{verification:?}");
            assert!(kernel.modules().is_empty(), "{verification:?}");
            assert_eq!(kernel.tracer().site_count(), 0, "no site track");
            // No reservation either: the name loads again.
            kernel.insmod(&honest).expect("the honest container loads");
        }
    }
}

/// One `@walk` call's result, stats and final `@g`.
type Observed = (Result<Option<u64>, String>, ExecStats, u64);

/// Elements `@walk` reads.
const N: u64 = 16;

/// A kernel over a table policy with `rules` (each laid over the walk
/// buffer and over `@g`, in order), `@walk` built with `options` and
/// loaded under `verification`, and its buffer filled.
struct Walk {
    kernel: Kernel,
    signed: SignedModule,
    buf: VAddr,
    g: VAddr,
}

impl Walk {
    fn boot(options: &CompileOptions, verification: Verification, rules: &[Protection]) -> Walk {
        let signed = compile_module(parse_module(SRC).unwrap(), options, &trusted_key())
            .unwrap()
            .signed;
        let policy = Arc::new(PolicyModule::new());
        let config = KernelConfig {
            verification,
            hot_threshold: 1,
        };
        let mut kernel = Kernel::boot(Arc::clone(&policy), vec![trusted_key()], config);
        kernel.insmod(&signed).expect("loads");
        let g = kernel.module("mut").unwrap().globals()["g"];
        let buf = kernel.kmalloc(N * 8).unwrap();
        for i in 0..N {
            kernel
                .mem
                .write_uint(VAddr(buf.raw() + 8 * i), Size(8), 100 + i)
                .unwrap();
        }
        for (k, &prot) in rules.iter().enumerate() {
            // Earlier rules reach further down, so no two share a base.
            let pad = 0x40 * (rules.len() - 1 - k) as u64;
            for (base, len) in [(buf, N * 8), (g, 8)] {
                let region = Region::new(VAddr(base.raw() - pad), Size(len + pad), prot).unwrap();
                policy.add_region(region).unwrap();
            }
        }
        Walk {
            kernel,
            signed,
            buf,
            g,
        }
    }

    /// One `@walk` call on `engine` from `@g = 7`: its observables, and
    /// its `(inline admits, deopts)`.
    fn call(&mut self, engine: Engine) -> (Observed, (u64, u64)) {
        self.kernel.mem.write_uint(self.g, Size(8), 7).unwrap();
        let (buf, g) = (self.buf.raw(), self.g);
        let mut interp = Interp::new(&mut self.kernel).unwrap();
        interp.set_engine(engine);
        let result = interp
            .call("mut", "walk", &[buf, N])
            .map_err(|e| e.to_string());
        let inline = (interp.inline_admits(), interp.inline_deopts());
        let stats = interp.stats();
        drop(interp);
        let after = self.kernel.mem.read_uint(g, Size(8)).unwrap();
        ((result, stats, after), inline)
    }

    /// Profile one call on the general path, then promote every site.
    fn promote(&mut self) -> Result<usize, KernelError> {
        self.kernel.tracer().set_enabled(true);
        let ((profiled, _, _), _) = self.call(Engine::Bytecode);
        self.kernel.tracer().set_enabled(false);
        assert!(profiled.is_ok(), "{profiled:?}");
        self.kernel.promote_hot("mut", 1)
    }

    fn compiled(&self) -> carat_kop::vm::CompiledModule {
        self.kernel.module("mut").unwrap().image().compiled.clone()
    }
}

/// Promotes `walk` and runs it promoted: every guard inline, nothing
/// deopts, and the call is observably the bytecode call.
fn promotes_and_runs_inline(mut walk: Walk, ctx: &str) {
    let n = walk.promote().unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert!(n > 0, "{ctx}");
    let (general, _) = walk.call(Engine::Bytecode);
    let (promoted, (admits, deopts)) = walk.call(Engine::Promoted);
    assert_eq!(promoted, general, "{ctx}: promoted vs bytecode");
    assert!(general.0.is_ok(), "{ctx}: {:?}", general.0);
    assert_eq!((admits, deopts), (general.1.guards, 0), "{ctx}");
}

#[test]
fn optimized_walk_promotes_and_runs_inline() {
    // The tier's audit checks only the bounds it baked: the range guard
    // and the elisions insmod proved do not make it replay coverage.
    for verification in [Verification::Signature, Verification::SignatureAndStatic] {
        let walk = Walk::boot(
            &CompileOptions::optimized(),
            verification,
            &[Protection::READ_WRITE],
        );
        promotes_and_runs_inline(walk, &format!("{verification:?}"));
    }
}

#[test]
fn promotion_bakes_the_region_that_grants_the_site() {
    // Overlapping table rules: a rule ahead of the read-write one that
    // grants nothing, or only reads. The policy admits every access on
    // the read-write rule, and so must every baked bound.
    for first in [Protection::NONE, Protection::READ_ONLY] {
        let walk = Walk::boot(
            &CompileOptions::carat_kop(),
            Verification::Signature,
            &[first, Protection::READ_WRITE],
        );
        promotes_and_runs_inline(walk, &format!("{first:?} ahead of READ_WRITE"));
    }
}

#[test]
fn promotion_cycles_leave_no_hook_behind() {
    let mut walk = Walk::boot(
        &CompileOptions::carat_kop(),
        Verification::Signature,
        &[Protection::READ_WRITE],
    );
    assert!(walk.promote().unwrap() > 0);
    let global = Arc::clone(walk.kernel.policy());
    for _ in 0..5 {
        let (image, layout) = {
            let m = walk.kernel.module("mut").unwrap();
            (Arc::clone(m.image()), m.layout.clone())
        };
        walk.kernel.rmmod("mut").unwrap();
        let signed = walk.signed.clone();
        walk.kernel
            .restart_module(&signed, &image, &layout)
            .unwrap();
        assert!(walk.kernel.promote_hot("mut", 1).unwrap() > 0);
    }
    for _ in 0..5 {
        let own = Arc::new(PolicyModule::new());
        own.replace_regions(global.regions()).unwrap();
        walk.kernel.set_module_policy("mut", own);
        assert!(walk.kernel.promote_hot("mut", 1).unwrap() > 0);
        assert!(walk.kernel.clear_module_policy("mut"));
        assert!(walk.kernel.promote_hot("mut", 1).unwrap() > 0);
    }
    let ((_, stats, _), (admits, _)) = walk.call(Engine::Promoted);
    assert_eq!(admits, stats.guards, "the tier answers every guard");

    // A publish calls nobody back: the tier stays installed and stale.
    let compiled = walk.compiled();
    let (id, gen) = (compiled.tier_id(), compiled.promoted_generation());
    global.bump_epoch();
    assert_eq!(compiled.tier_id(), id, "the publish moved no tier");
    let ((_, stats, _), inline) = walk.call(Engine::Promoted);
    assert_eq!(inline, (0, stats.guards), "every bound guard deopts");
    assert!(walk.kernel.tick() > 0);
    assert_eq!(compiled.promoted_generation(), global.store_generation());
    assert!(compiled.promoted_generation() > gen);
    let ((_, stats, _), inline) = walk.call(Engine::Promoted);
    assert_eq!(inline, (stats.guards, 0), "re-baked at the new generation");
}
