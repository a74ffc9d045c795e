//! The signed container is untrusted input all the way to a committed
//! module. Starting from two valid containers — the plain and the
//! optimized `walk` builds — this suite mutates them with knowledge of
//! the container layout: it truncates them, rewrites one length field,
//! splices the two, and flips one byte of the IR, the ledger or the
//! attestation. Each mutant that still decodes is also re-MACed with the
//! kernel's trusted key, so the MAC no longer stands between it and the
//! loader. Every mutant then goes through `SignedModule::from_bytes`,
//! `ModuleStager::stage`, `Kernel::reserve_module` and
//! `Kernel::commit_module`, under `Signature` and `SignatureAndStatic`.
//!
//! A mutant may load only if it passes every check its mode requires,
//! re-derived here from the signature check and the translation
//! validator. Otherwise it is refused with a typed error and leaves
//! nothing behind: no module, no reservation (its name loads again), no
//! site track and no namespace.

use std::collections::BTreeSet;
use std::sync::Arc;

use carat_kop::analysis::{validate_module, ObligationLedger};
use carat_kop::compiler::sha256::hmac_sha256;
use carat_kop::compiler::{compile_module, CompileOptions, CompilerKey, SignedModule};
use carat_kop::core::KernelError;
use carat_kop::ir::parse_module;
use carat_kop::kernel::{Kernel, KernelConfig, Verification};
use carat_kop::policy::PolicyModule;

/// An element walk plus scalar `@g` traffic: the optimized build carries
/// a range and an elide obligation, the plain build an empty ledger.
const SRC: &str = r#"
module "walk"

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
  ret void
}
"#;

/// The trusted signing key's secret: known here so a mutant can be
/// re-MACed whatever its IR text is.
const SECRET: [u8; 32] = [0x5a; 32];

fn key() -> CompilerKey {
    CompilerKey::new("loader-boundary", SECRET)
}

/// `signed` with its MAC recomputed under the trusted secret (its key id
/// is left as it is).
fn remac(mut signed: SignedModule) -> SignedModule {
    let mut message = signed.ir_text.as_bytes().to_vec();
    message.extend_from_slice(&signed.attestation.to_bytes());
    signed.signature = hmac_sha256(&SECRET, &message);
    signed
}

/// Where the fields of a valid container sit: `(start, end)` of each
/// field, length prefix included, in container order — key id,
/// signature, module name, flags and the four counts, site digest,
/// compiler id, ledger, IR text.
struct Layout {
    fields: Vec<(usize, usize)>,
}

/// Bytes of the container magic ("KOPMOD" plus the format version).
const MAGIC_LEN: usize = 8;
/// Bytes of the MAC.
const SIG_LEN: usize = 32;
/// The flags byte and four `u64` counts.
const FLAGS_AND_COUNTS: usize = 1 + 4 * 8;

impl Layout {
    const KEY_ID: usize = 0;
    const NAME: usize = 2;
    const COUNTS: usize = 3;
    const LEDGER: usize = 6;
    const IR: usize = 7;

    fn of(bytes: &[u8]) -> Layout {
        let str_end =
            |at: usize| at + 4 + u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let mut fields = Vec::new();
        let mut at = MAGIC_LEN;
        for field in 0..8 {
            let end = match field {
                1 => at + SIG_LEN,
                3 => at + FLAGS_AND_COUNTS,
                _ => str_end(at),
            };
            fields.push((at, end));
            at = end;
        }
        assert_eq!(at, bytes.len(), "the layout covers the container");
        Layout { fields }
    }

    /// The payload bytes of string field `field` (its length prefix
    /// excluded).
    fn payload(&self, field: usize) -> std::ops::Range<usize> {
        let (start, end) = self.fields[field];
        start + 4..end
    }

    /// The offsets of the six `u32` length prefixes.
    fn length_fields(&self) -> impl Iterator<Item = usize> + '_ {
        self.fields
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 1 && i != Self::COUNTS)
            .map(|(_, &(start, _))| start)
    }
}

/// Every mutant of the two honest containers, de-duplicated.
fn mutants(honest: &[Vec<u8>; 2]) -> BTreeSet<Vec<u8>> {
    let mut out = BTreeSet::new();
    for (which, c) in honest.iter().enumerate() {
        let layout = Layout::of(c);
        // Truncate the container at every length.
        for n in 0..c.len() {
            out.insert(c[..n].to_vec());
        }
        // Truncate one string field's payload, its length prefix kept
        // consistent.
        for field in [0, 2, 4, 5, Layout::LEDGER, Layout::IR] {
            let payload = layout.payload(field);
            for keep in [0, payload.len() / 2, payload.len().saturating_sub(1)] {
                let mut m = c[..payload.start - 4].to_vec();
                m.extend_from_slice(&(keep as u32).to_le_bytes());
                m.extend_from_slice(&c[payload.start..payload.start + keep]);
                m.extend_from_slice(&c[payload.end..]);
                out.insert(m);
            }
        }
        // Rewrite one length field.
        for at in layout.length_fields() {
            let len = u32::from_le_bytes(c[at..at + 4].try_into().unwrap());
            for v in [0, 1, len.wrapping_sub(1), len + 1, c.len() as u32, u32::MAX] {
                let mut m = c.clone();
                m[at..at + 4].copy_from_slice(&v.to_le_bytes());
                out.insert(m);
            }
        }
        // Splice this container's head onto the other's tail: at every
        // field boundary, and at every fifth byte.
        let other = &honest[1 - which];
        let other_layout = Layout::of(other);
        for (f, &(start, _)) in layout.fields.iter().enumerate() {
            let mut m = c[..start].to_vec();
            m.extend_from_slice(&other[other_layout.fields[f].0..]);
            out.insert(m);
        }
        for at in (0..c.len().min(other.len())).step_by(5) {
            let mut m = c[..at].to_vec();
            m.extend_from_slice(&other[at..]);
            out.insert(m);
        }
        // Flip one byte of the IR, the ledger or the attestation (the
        // module name, flags, counts, site digest and compiler id).
        let attestation = layout.fields[Layout::NAME].0..layout.fields[Layout::LEDGER].0;
        let regions = [
            layout.payload(Layout::IR),
            layout.payload(Layout::LEDGER),
            attestation,
        ];
        for region in regions {
            for at in region {
                // Neighbouring characters, a case flip, invalid UTF-8.
                for flip in [0x01, [0x20, 0x04, 0x80][at % 3]] {
                    let mut m = c.clone();
                    m[at] ^= flip;
                    out.insert(m);
                }
            }
        }
        // The key id and the MAC themselves.
        let (key_start, sig_end) = (layout.fields[Layout::KEY_ID].0 + 4, layout.fields[1].1);
        for at in key_start..sig_end {
            let mut m = c.clone();
            m[at] ^= 0x01;
            out.insert(m);
        }
    }
    for c in honest {
        out.remove(c);
    }
    out
}

/// How one drive ended.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Clone, Copy)]
enum Fate {
    /// `from_bytes` refused the bytes.
    Undecodable,
    /// The stager refused the container.
    Staged,
    /// The reservation refused the staged module.
    Reserved,
    /// The commit refused the lowered module.
    Committed,
    /// The module loaded.
    Loaded,
}

/// One kernel under one verification mode, reused for every mutant.
struct Boundary {
    kernel: Kernel,
    verification: Verification,
    honest: SignedModule,
}

impl Boundary {
    fn boot(verification: Verification, honest: SignedModule) -> Boundary {
        let kernel = Kernel::boot(
            Arc::new(PolicyModule::new()),
            vec![key()],
            KernelConfig {
                verification,
                ..KernelConfig::default()
            },
        );
        Boundary {
            kernel,
            verification,
            honest,
        }
    }

    /// Whether `signed` passes every check `self.verification` asks for,
    /// re-derived outside the loader.
    fn admissible(&self, signed: &SignedModule) -> bool {
        let Ok(ir) = signed.verify(&[key()]) else {
            return false;
        };
        if self.verification != Verification::SignatureAndStatic {
            return true;
        }
        ObligationLedger::parse(&signed.attestation.obligations)
            .is_ok_and(|ledger| validate_module(&ir, &ledger).is_clean())
    }

    /// Drive `signed` through stage, reserve, lower and commit.
    fn load(&mut self, signed: &SignedModule) -> (Fate, Option<String>, Option<KernelError>) {
        let staged = match self.kernel.stager().stage(signed, None) {
            Ok(staged) => staged,
            Err(e) => return (Fate::Staged, None, Some(e.err)),
        };
        let name = staged.name().to_string();
        let reservation = match self.kernel.reserve_module(&staged) {
            Ok(r) => r,
            Err(e) => return (Fate::Reserved, Some(name), Some(e)),
        };
        let lowered = staged.lower(&reservation, self.kernel.tracer());
        match self.kernel.commit_module(staged, reservation, lowered) {
            Ok(_) => (Fate::Loaded, Some(name), None),
            Err(e) => (Fate::Committed, Some(name), Some(e)),
        }
    }

    /// One mutant, start to end; every refusal is checked for leftovers.
    fn drive(&mut self, bytes: &[u8]) -> Fate {
        let ctx = format!("{:?}, {} bytes", self.verification, bytes.len());
        let Ok(signed) = SignedModule::from_bytes(bytes) else {
            // `from_bytes` refuses with `SigningError::Malformed` only
            // (container_props holds it to that).
            return Fate::Undecodable;
        };
        let sites = self.kernel.tracer().site_count();
        let (fate, name, err) = self.load(&signed);
        assert!(self.kernel.panicked().is_none(), "{ctx}: kernel panicked");
        assert!(self.kernel.namespaces().is_empty(), "{ctx}: namespace");
        if fate == Fate::Loaded {
            let name = name.expect("a loaded module has a name");
            assert!(self.admissible(&signed), "{ctx}: loaded without passing");
            self.kernel.rmmod(&name).expect("rmmod");
            return fate;
        }
        let err = err.expect("a refusal carries an error");
        assert!(
            matches!(
                err,
                KernelError::BadSignature(_)
                    | KernelError::StaticVerification(_)
                    | KernelError::AttestationRejected(_)
                    | KernelError::UnresolvedSymbol(_)
            ),
            "{ctx}: untyped refusal {err:?}"
        );
        assert!(self.kernel.modules().is_empty(), "{ctx}: module left");
        assert_eq!(
            self.kernel.tracer().site_count(),
            sites,
            "{ctx}: site track left by {fate:?} ({err})"
        );
        if let Some(name) = name {
            // No reservation: the name reserves again.
            let staged = self
                .kernel
                .stager()
                .stage(&self.honest, Some(&name))
                .expect("the honest container stages");
            let reservation = self
                .kernel
                .reserve_module(&staged)
                .unwrap_or_else(|e| panic!("{ctx}: '{name}' still reserved: {e}"));
            self.kernel.abort_reservation(reservation);
        }
        fate
    }
}

#[test]
fn mutated_containers_load_only_when_they_pass_and_leave_nothing_when_refused() {
    let builds = [CompileOptions::carat_kop(), CompileOptions::optimized()].map(|options| {
        let module = parse_module(SRC).expect("source parses");
        compile_module(module, &options, &key())
            .expect("compiles")
            .signed
    });
    let honest = builds.clone().map(|s| s.to_bytes());
    let mutants = mutants(&honest);
    for verification in [Verification::Signature, Verification::SignatureAndStatic] {
        let mut boundary = Boundary::boot(verification, builds[0].clone());
        for signed in &builds {
            assert_eq!(boundary.drive(&signed.to_bytes()), Fate::Loaded);
        }
        // Fates of the mutants as they are, and re-MACed.
        let mut fates = std::collections::BTreeMap::<(bool, Fate), usize>::new();
        for bytes in &mutants {
            *fates.entry((false, boundary.drive(bytes))).or_default() += 1;
            if let Ok(signed) = SignedModule::from_bytes(bytes) {
                let remaced = remac(signed).to_bytes();
                *fates.entry((true, boundary.drive(&remaced))).or_default() += 1;
            }
        }
        eprintln!(
            "{verification:?}: {} mutants, fates {fates:?}",
            mutants.len()
        );
        let count = |remaced, fate| fates.get(&(remaced, fate)).copied().unwrap_or(0);
        // Without a fresh MAC nothing changed gets past the stager ...
        assert_eq!(count(false, Fate::Loaded), 0, "{verification:?}");
        // ... and with one, the checks behind the MAC are what refuse,
        // while a mutant that passes them all loads.
        assert!(count(true, Fate::Staged) > 0, "{verification:?}");
        assert!(count(true, Fate::Loaded) > 0, "{verification:?}");
        assert!(count(false, Fate::Undecodable) > 0, "{verification:?}");
    }
}

/// Attestations the shipped IR contradicts, signed with the trusted key:
/// one denies the inline assembly its IR holds, one under-reports the
/// wrapped privileged calls its IR makes. `SignedModule::verify` derives
/// the attestation again from the IR and ledger, so each is refused there
/// and at insmod under both signature modes, and leaves nothing behind.
#[test]
fn attestations_the_ir_contradicts_are_refused() {
    let src = r#"
module "lie"
declare void @__cli()
define i64 @f(ptr %p) {
entry:
  call void @__cli()
  %v = load i64, ptr %p
  ret i64 %v
}
"#;
    let compile = |src: &str, options| {
        let module = parse_module(src).expect("source parses");
        compile_module(module, &options, &key())
            .expect("compiles")
            .signed
    };
    let plain = compile(
        &src.replace("  call void @__cli()\n", ""),
        CompileOptions::carat_kop(),
    );
    let asm = parse_module(&plain.ir_text.replace("  ret", "  asm \"cli\"\n  ret")).unwrap();
    let hides_asm = SignedModule::sign(&asm, plain.attestation.clone(), &key());

    let wrapped = compile(src, CompileOptions::carat_kop_privileged());
    assert_eq!(wrapped.attestation.privileged_calls, 1);
    let mut attestation = wrapped.attestation.clone();
    attestation.privileged_calls = 0;
    attestation.no_privileged_calls = true;
    attestation.privileged_wrapped = false;
    let ir = parse_module(&wrapped.ir_text).unwrap();
    let hides_call = SignedModule::sign(&ir, attestation, &key());

    for (honest, lie, why) in [
        (plain, hides_asm, "inline assembly in @f"),
        (wrapped, hides_call, "privileged intrinsic @__cli"),
    ] {
        let err = lie.verify(&[key()]).expect_err(why);
        assert!(err.to_string().contains(why), "{why}: {err}");
        for verification in [Verification::Signature, Verification::SignatureAndStatic] {
            let mut boundary = Boundary::boot(verification, honest.clone());
            assert_eq!(boundary.drive(&honest.to_bytes()), Fate::Loaded, "{why}");
            assert_eq!(boundary.drive(&lie.to_bytes()), Fate::Staged, "{why}");
            let err = boundary.kernel.insmod(&lie).expect_err(why);
            assert!(
                matches!(&err, KernelError::BadSignature(m) if m.contains(why)),
                "{verification:?}: {err}"
            );
        }
    }
}
