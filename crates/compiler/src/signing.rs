//! Cryptographic code signing of transformed modules.
//!
//! From the paper (§2): *"the compilation process also performs
//! cryptographic code signing. This is then used at load time to prove to
//! the kernel that the proper processing has been performed (e.g., that
//! guards have been injected) and by which compiler."*
//!
//! The scheme here is HMAC-SHA256 under a compiler key that the kernel
//! also holds (a symmetric trust anchor — operationally, the operator
//! provisions the same key into the kernel's trusted-key list and the
//! build machine). The MAC covers the canonical printed module text plus
//! the canonical attestation bytes, so tampering with either invalidates
//! the signature.

use core::fmt;

use kop_analysis::{AnalysisReport, LedgerError, ObligationLedger};
use kop_ir::{parse_module, print_module, Module, ParseError};

use crate::attest::Attestation;
use crate::sha256::{digest_eq, hex, hmac_sha256, sha256, DIGEST_LEN};

/// A compiler signing key (symmetric trust anchor).
#[derive(Clone)]
pub struct CompilerKey {
    /// Short identifier the kernel uses to pick the verification key.
    pub key_id: String,
    secret: [u8; 32],
}

impl CompilerKey {
    /// Create a key from raw secret bytes.
    pub fn new(key_id: impl Into<String>, secret: [u8; 32]) -> CompilerKey {
        CompilerKey {
            key_id: key_id.into(),
            secret,
        }
    }

    /// Derive a deterministic key from a passphrase (test/demo helper; a
    /// deployment would provision random keys).
    pub fn from_passphrase(key_id: impl Into<String>, passphrase: &str) -> CompilerKey {
        CompilerKey {
            key_id: key_id.into(),
            secret: sha256(passphrase.as_bytes()),
        }
    }

    fn mac(&self, message: &[u8]) -> [u8; DIGEST_LEN] {
        hmac_sha256(&self.secret, message)
    }
}

impl fmt::Debug for CompilerKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the secret.
        write!(f, "CompilerKey({})", self.key_id)
    }
}

/// Signature verification / container errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SigningError {
    /// MAC did not verify.
    BadSignature,
    /// The key id on the container is not a trusted key.
    UnknownKey(String),
    /// The embedded IR text no longer parses (container corrupted).
    CorruptIr(ParseError),
    /// The attestation embedded in the container does not match the IR.
    AttestationMismatch(String),
    /// The on-disk container bytes are malformed.
    Malformed(ContainerError),
}

/// What was wrong with a container's bytes (see [`ContainerError`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContainerCode {
    /// The bytes do not start with the container magic.
    BadMagic,
    /// The named field runs past the end of the bytes.
    Truncated(&'static str),
    /// The named string field is not UTF-8.
    InvalidUtf8(&'static str),
    /// The flags byte sets these bits, which the signer never writes.
    UnknownFlagBits(u8),
    /// Bytes follow the IR text, the container's last field.
    TrailingBytes,
    /// The obligation ledger does not parse.
    Ledger(LedgerError),
}

impl fmt::Display for ContainerCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerCode::BadMagic => f.write_str("bad magic"),
            ContainerCode::Truncated(field) => write!(f, "truncated {field}"),
            ContainerCode::InvalidUtf8(field) => write!(f, "invalid utf-8 in {field}"),
            ContainerCode::UnknownFlagBits(bits) => write!(f, "unknown flag bits {bits:#04x}"),
            ContainerCode::TrailingBytes => f.write_str("trailing bytes"),
            ContainerCode::Ledger(e) => write!(f, "obligation {e}"),
        }
    }
}

/// A container that did not decode: the code of what was wrong and the
/// byte offset where decoding stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContainerError {
    /// Offset into the container bytes: the magic (0), the start of what
    /// a truncated field could not read (its length or its bytes), a
    /// string's first invalid byte, the flags byte, the first trailing
    /// byte, or the start of the refused ledger line.
    pub offset: usize,
    /// What was wrong there.
    pub code: ContainerCode,
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.code, self.offset)
    }
}

fn malformed(offset: usize, code: ContainerCode) -> SigningError {
    SigningError::Malformed(ContainerError { offset, code })
}

impl fmt::Display for SigningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SigningError::BadSignature => f.write_str("module signature verification failed"),
            SigningError::UnknownKey(id) => write!(f, "unknown signing key '{id}'"),
            SigningError::CorruptIr(e) => write!(f, "corrupt module IR: {e}"),
            SigningError::AttestationMismatch(s) => write!(f, "attestation mismatch: {s}"),
            SigningError::Malformed(e) => write!(f, "malformed module container: {e}"),
        }
    }
}

impl std::error::Error for SigningError {}

/// A signed, loadable module container: canonical IR text + attestation +
/// MAC. This is CARAT KOP's analogue of a signed `.ko` file.
#[derive(Clone, Debug)]
pub struct SignedModule {
    /// Canonical printed IR of the transformed module.
    pub ir_text: String,
    /// The compile-time attestation.
    pub attestation: Attestation,
    /// Key identifier used to sign.
    pub key_id: String,
    /// HMAC-SHA256 over `ir_text || attestation bytes`.
    pub signature: [u8; DIGEST_LEN],
}

fn signed_message(ir_text: &str, attestation: &Attestation) -> Vec<u8> {
    let mut msg = Vec::with_capacity(ir_text.len() + 128);
    msg.extend_from_slice(ir_text.as_bytes());
    msg.extend_from_slice(&attestation.to_bytes());
    msg
}

impl SignedModule {
    /// Sign a transformed module with its attestation.
    pub fn sign(module: &Module, attestation: Attestation, key: &CompilerKey) -> SignedModule {
        let ir_text = print_module(module);
        let signature = key.mac(&signed_message(&ir_text, &attestation));
        SignedModule {
            ir_text,
            attestation,
            key_id: key.key_id.clone(),
            signature,
        }
    }

    /// Verify the container against a set of trusted keys and re-derive the
    /// parsed module. This is the load-time check the kernel performs: MAC
    /// valid, IR parses, and the attestation is the one the attestor
    /// derives from the shipped IR and ledger, field for field. A
    /// correctly signed container can still be internally inconsistent
    /// if a buggy compiler signed it; the kernel refuses those too.
    pub fn verify(&self, trusted_keys: &[CompilerKey]) -> Result<Module, SigningError> {
        let key = trusted_keys
            .iter()
            .find(|k| k.key_id == self.key_id)
            .ok_or_else(|| SigningError::UnknownKey(self.key_id.clone()))?;
        let expect = key.mac(&signed_message(&self.ir_text, &self.attestation));
        if !digest_eq(&expect, &self.signature) {
            return Err(SigningError::BadSignature);
        }
        let module = parse_module(&self.ir_text).map_err(SigningError::CorruptIr)?;
        let ledger = ObligationLedger::parse(&self.attestation.obligations).map_err(|e| {
            SigningError::AttestationMismatch(format!("obligation ledger invalid: {e}"))
        })?;
        let (derived, report) =
            Attestation::check_with_ledger(&module, self.attestation.privileged_calls > 0, &ledger)
                .map_err(|e| SigningError::AttestationMismatch(e.to_string()))?;
        if derived != self.attestation {
            return Err(SigningError::AttestationMismatch(first_difference(
                &report,
                &derived,
                &self.attestation,
            )));
        }
        Ok(module)
    }

    /// The content hash (SHA-256 of the signed message) — a stable module
    /// identity for logs.
    pub fn content_hash(&self) -> String {
        hex(&sha256(&signed_message(&self.ir_text, &self.attestation)))
    }

    /// Serialize the container to its on-disk format (the analogue of a
    /// signed `.ko` file an operator would copy onto the machine).
    pub fn to_bytes(&self) -> Vec<u8> {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        let mut out = Vec::with_capacity(self.ir_text.len() + 256);
        out.extend_from_slice(MAGIC);
        put_str(&mut out, &self.key_id);
        out.extend_from_slice(&self.signature);
        let a = &self.attestation;
        put_str(&mut out, &a.module_name);
        let flags = (a.no_inline_asm as u8)
            | (a.no_privileged_calls as u8) << 1
            | (a.guards_strict as u8) << 2
            | (a.privileged_wrapped as u8) << 3
            | (a.guards_covered as u8) << 4;
        out.push(flags);
        out.extend_from_slice(&a.guard_count.to_le_bytes());
        out.extend_from_slice(&a.mem_access_count.to_le_bytes());
        out.extend_from_slice(&a.privileged_calls.to_le_bytes());
        out.extend_from_slice(&a.guard_sites.to_le_bytes());
        put_str(&mut out, &a.site_digest);
        put_str(&mut out, &a.compiler_id);
        put_str(&mut out, &a.obligations);
        put_str(&mut out, &self.ir_text);
        out
    }

    /// Parse a container from its on-disk format. Parsing does **not**
    /// imply trust — callers must still [`SignedModule::verify`].
    pub fn from_bytes(data: &[u8]) -> Result<SignedModule, SigningError> {
        /// The `n` bytes of `field` at `*off`, stepping past them.
        fn take<'a>(
            data: &'a [u8],
            off: &mut usize,
            n: usize,
            field: &'static str,
        ) -> Result<&'a [u8], SigningError> {
            let bytes = data[*off..]
                .get(..n)
                .ok_or_else(|| malformed(*off, ContainerCode::Truncated(field)))?;
            *off += n;
            Ok(bytes)
        }
        fn get_str<'a>(
            data: &'a [u8],
            off: &mut usize,
            field: &'static str,
        ) -> Result<&'a str, SigningError> {
            let len = take(data, off, 4, field)?;
            let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
            let at = *off;
            std::str::from_utf8(take(data, off, len, field)?)
                .map_err(|e| malformed(at + e.valid_up_to(), ContainerCode::InvalidUtf8(field)))
        }
        fn get_u64(data: &[u8], off: &mut usize, field: &'static str) -> Result<u64, SigningError> {
            let bytes = take(data, off, 8, field)?;
            Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
        }
        if data.get(..MAGIC.len()) != Some(&MAGIC[..]) {
            return Err(malformed(0, ContainerCode::BadMagic));
        }
        let mut off = MAGIC.len();
        let key_id = get_str(data, &mut off, "key id")?.to_string();
        let signature = take(data, &mut off, DIGEST_LEN, "signature")?
            .try_into()
            .expect("DIGEST_LEN bytes");
        let module_name = get_str(data, &mut off, "module name")?.to_string();
        let flags = take(data, &mut off, 1, "flags")?[0];
        if flags & !FLAG_BITS != 0 {
            return Err(malformed(
                off - 1,
                ContainerCode::UnknownFlagBits(flags & !FLAG_BITS),
            ));
        }
        let guard_count = get_u64(data, &mut off, "guard count")?;
        let mem_access_count = get_u64(data, &mut off, "memory access count")?;
        let privileged_calls = get_u64(data, &mut off, "privileged call count")?;
        let guard_sites = get_u64(data, &mut off, "guard site count")?;
        let site_digest = get_str(data, &mut off, "guard site digest")?.to_string();
        let compiler_id = get_str(data, &mut off, "compiler id")?.to_string();
        let ledger_at = off + 4;
        let obligations = get_str(data, &mut off, "obligation ledger")?.to_string();
        let ir_text = get_str(data, &mut off, "IR text")?.to_string();
        if off != data.len() {
            return Err(malformed(off, ContainerCode::TrailingBytes));
        }
        // A ledger is compiler obligations in `obligations-v1` text, or
        // nothing: an unknown header or kind (an `inline` claim, say) is
        // no container this decoder accepts. The error points at the
        // start of the refused line.
        ObligationLedger::parse(&obligations).map_err(|e| {
            let line_at: usize = obligations
                .split_inclusive('\n')
                .take(e.line - 1)
                .map(str::len)
                .sum();
            malformed(ledger_at + line_at, ContainerCode::Ledger(e))
        })?;
        Ok(SignedModule {
            ir_text,
            attestation: Attestation {
                module_name,
                no_inline_asm: flags & 1 != 0,
                no_privileged_calls: flags & 2 != 0,
                guards_strict: flags & 4 != 0,
                guards_covered: flags & 16 != 0,
                guard_count,
                guard_sites,
                site_digest,
                mem_access_count,
                privileged_calls,
                privileged_wrapped: flags & 8 != 0,
                compiler_id,
                obligations,
            },
            key_id,
            signature,
        })
    }
}

/// The first field, in record order, in which the shipped attestation `s`
/// differs from `d`, the one the attestor derives from the shipped IR and
/// ledger. A coverage claim the validator disproves reports the
/// validator's findings (`report`, from that derivation), with their
/// lint codes.
fn first_difference(report: &AnalysisReport, d: &Attestation, s: &Attestation) -> String {
    let mut fields = d.fields().into_iter().zip(s.fields());
    let Some(((key, label, derived), (_, _, attested))) = fields.find(|(d, s)| d.2 != s.2) else {
        return format!(
            "obligation ledger {} vs attested {}",
            d.obligations.escape_debug(),
            s.obligations.escape_debug()
        );
    };
    if key == "covered" && s.guards_covered {
        return format!(
            "attested guard coverage but the validator disproves it:\n{}",
            report.summary()
        );
    }
    format!("{label} {derived} vs attested {attested}")
}

/// The attestation flag bits [`SignedModule::to_bytes`] writes; any other
/// bit set makes a container malformed, so one signed module has one
/// encoding.
const FLAG_BITS: u8 = 0b1_1111;

/// On-disk container magic: "KOPMOD" + format version.
const MAGIC: &[u8; 8] = b"KOPMOD\x02\0";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::GuardInjectionPass;
    use kop_analysis::LedgerCode;

    fn demo_module() -> Module {
        let src = r#"
module "demo"
define i64 @f(ptr %p) {
entry:
  %v = load i64, ptr %p
  ret i64 %v
}
"#;
        let mut m = parse_module(src).unwrap();
        GuardInjectionPass.run(&mut m);
        m
    }

    fn key() -> CompilerKey {
        CompilerKey::from_passphrase("build-key-1", "correct horse battery staple")
    }

    #[test]
    fn sign_verify_roundtrip() {
        let m = demo_module();
        let att = Attestation::check(&m).unwrap();
        let signed = SignedModule::sign(&m, att, &key());
        let out = signed.verify(&[key()]).expect("verifies");
        assert_eq!(print_module(&out), signed.ir_text);
    }

    #[test]
    fn tampered_ir_rejected() {
        let m = demo_module();
        let att = Attestation::check(&m).unwrap();
        let mut signed = SignedModule::sign(&m, att, &key());
        signed.ir_text = signed.ir_text.replace("i64 8", "i64 1");
        assert_eq!(
            signed.verify(&[key()]).unwrap_err(),
            SigningError::BadSignature
        );
    }

    #[test]
    fn tampered_attestation_rejected() {
        let m = demo_module();
        let att = Attestation::check(&m).unwrap();
        let mut signed = SignedModule::sign(&m, att, &key());
        signed.attestation.guard_count = 0;
        assert_eq!(
            signed.verify(&[key()]).unwrap_err(),
            SigningError::BadSignature
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let m = demo_module();
        let att = Attestation::check(&m).unwrap();
        let signed = SignedModule::sign(&m, att, &key());
        let other = CompilerKey::from_passphrase("build-key-1", "different secret");
        assert_eq!(
            signed.verify(&[other]).unwrap_err(),
            SigningError::BadSignature
        );
    }

    #[test]
    fn unknown_key_id_rejected() {
        let m = demo_module();
        let att = Attestation::check(&m).unwrap();
        let signed = SignedModule::sign(&m, att, &key());
        let unrelated = CompilerKey::from_passphrase("other-key", "zzz");
        assert_eq!(
            signed.verify(&[unrelated]).unwrap_err(),
            SigningError::UnknownKey("build-key-1".into())
        );
    }

    #[test]
    fn buggy_compiler_attestation_mismatch_rejected() {
        // Sign with an attestation whose counts don't match the module:
        // MAC verifies (same key, consistent container) but the kernel's
        // cross-check refuses it.
        let m = demo_module();
        let mut att = Attestation::check(&m).unwrap();
        att.guard_count += 7;
        let signed = SignedModule::sign(&m, att, &key());
        match signed.verify(&[key()]).unwrap_err() {
            SigningError::AttestationMismatch(msg) => {
                assert!(msg.contains("guard count"), "{msg}")
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn container_bytes_roundtrip() {
        let m = demo_module();
        let att = Attestation::check(&m).unwrap();
        let signed = SignedModule::sign(&m, att, &key());
        let bytes = signed.to_bytes();
        let back = SignedModule::from_bytes(&bytes).expect("parses");
        assert_eq!(back.ir_text, signed.ir_text);
        assert_eq!(back.attestation, signed.attestation);
        assert_eq!(back.key_id, signed.key_id);
        assert_eq!(back.signature, signed.signature);
        // And the re-parsed container still verifies.
        back.verify(&[key()]).expect("verifies after roundtrip");
    }

    #[test]
    fn container_rejects_garbage_and_truncation() {
        assert!(SignedModule::from_bytes(b"").is_err());
        assert!(SignedModule::from_bytes(b"ELF....").is_err());
        let m = demo_module();
        let att = Attestation::check(&m).unwrap();
        let bytes = SignedModule::sign(&m, att, &key()).to_bytes();
        for cut in [8usize, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                SignedModule::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(SignedModule::from_bytes(&trailing).is_err());
    }

    #[test]
    fn container_rejects_unknown_flag_bits() {
        let m = demo_module();
        let signed = SignedModule::sign(&m, Attestation::check(&m).unwrap(), &key());
        let bytes = signed.to_bytes();
        // Magic, key id, MAC, module name, then the flags byte.
        let name = signed.attestation.module_name.as_bytes();
        let at = MAGIC.len() + 4 + signed.key_id.len() + DIGEST_LEN + 4 + name.len();
        assert!(bytes[..at].ends_with(name));
        assert_eq!(bytes[at] & !FLAG_BITS, 0, "the signer sets only known bits");
        for bit in 5..8 {
            let mut forged = bytes.clone();
            forged[at] |= 1 << bit;
            assert_eq!(
                SignedModule::from_bytes(&forged).unwrap_err(),
                malformed(at, ContainerCode::UnknownFlagBits(1 << bit)),
                "flag bit {bit} must be refused at the flags byte"
            );
        }
    }

    #[test]
    fn container_rejects_an_unparseable_ledger() {
        let m = demo_module();
        let mut att = Attestation::check(&m).unwrap();
        assert_eq!(att.obligations, "", "the empty ledger decodes");
        SignedModule::from_bytes(&SignedModule::sign(&m, att.clone(), &key()).to_bytes())
            .expect("empty ledger");
        for (ledger, line, code, refused) in [
            (
                "obligations-v1\nwarp fn=f",
                2,
                LedgerCode::UnknownKind,
                "warp",
            ),
            ("obligations-v2\n", 1, LedgerCode::Header, "obligations-v2"),
            (
                "obligations-v1\ninline fn=f guard=entry#0 lo=0 hi=8 flags=1 gen=1",
                2,
                LedgerCode::UnknownKind,
                "inline",
            ),
        ] {
            att.obligations = ledger.into();
            let bytes = SignedModule::sign(&m, att.clone(), &key()).to_bytes();
            let err = SignedModule::from_bytes(&bytes).unwrap_err();
            let SigningError::Malformed(ContainerError {
                offset,
                code: ContainerCode::Ledger(e),
            }) = err
            else {
                panic!("{ledger:?}: {err:?}");
            };
            assert_eq!(e, LedgerError { line, code }, "{ledger:?}");
            assert!(
                bytes[offset..].starts_with(refused.as_bytes()),
                "{ledger:?}: offset {offset} is not the refused line"
            );
        }
    }

    #[test]
    fn container_bitflip_fails_verification() {
        let m = demo_module();
        let att = Attestation::check(&m).unwrap();
        let mut bytes = SignedModule::sign(&m, att, &key()).to_bytes();
        // Flip a bit in the IR text region (near the end).
        let n = bytes.len();
        bytes[n - 10] ^= 0x40;
        // Structurally invalid is fine too; a parseable container must
        // still fail verification.
        if let Ok(parsed) = SignedModule::from_bytes(&bytes) {
            assert!(parsed.verify(&[key()]).is_err());
        }
    }

    #[test]
    fn content_hash_stable() {
        let m = demo_module();
        let att = Attestation::check(&m).unwrap();
        let s1 = SignedModule::sign(&m, att.clone(), &key());
        let s2 = SignedModule::sign(&m, att, &key());
        assert_eq!(s1.content_hash(), s2.content_hash());
        assert_eq!(s1.content_hash().len(), 64);
    }

    #[test]
    fn debug_never_leaks_secret() {
        let k = key();
        let s = format!("{k:?}");
        assert!(s.contains("build-key-1"));
        assert!(!s.contains("horse"));
        assert_eq!(s, "CompilerKey(build-key-1)");
    }
}
