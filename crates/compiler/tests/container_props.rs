//! The signed container is the loader's trust boundary: `from_bytes`
//! decodes bytes an operator copied onto the machine, before any MAC
//! check. Every input must decode or fail with a typed error, never
//! panic, and every container it accepts must re-encode to the same
//! bytes, so one signed module has exactly one encoding.
//!
//! Container inputs: arbitrary bytes (bare and behind the magic), every
//! strict prefix of a valid container, and valid containers with one
//! byte flipped or one length field rewritten. The obligation ledger the
//! decoder parses gets arbitrary text and token soup from its keywords,
//! the `inline` kind and `obligations-v2` header it refuses among them;
//! every refusal names a line of the text it refused. Every refused
//! container reports an offset within its bytes, and a container cut
//! inside a field names that field.

use std::ops::Range;
use std::sync::OnceLock;

use proptest::prelude::*;

use kop_analysis::ObligationLedger;
use kop_compiler::{
    compile_module, CompileOptions, CompilerKey, ContainerCode, SignedModule, SigningError,
};
use kop_ir::parse_module;

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

/// Bytes of the container magic ("KOPMOD" plus the format version).
const MAGIC_LEN: usize = 8;
/// Bytes of the MAC.
const SIG_LEN: usize = 32;

fn key() -> CompilerKey {
    CompilerKey::from_passphrase("build-key", "container props")
}

/// Two valid containers: the paper's build (empty ledger) and the
/// optimized build (non-empty ledger).
fn containers() -> &'static [Vec<u8>; 2] {
    static BYTES: OnceLock<[Vec<u8>; 2]> = OnceLock::new();
    BYTES.get_or_init(|| {
        [CompileOptions::carat_kop(), CompileOptions::optimized()].map(|options| {
            let module = parse_module(SRC).expect("source parses");
            let out = compile_module(module, &options, &key()).expect("compiles");
            out.signed.to_bytes()
        })
    })
}

/// Decodes `bytes`: a refusal must be `Malformed` at an offset within
/// `bytes`, and an accepted container must re-encode to exactly `bytes`.
fn decode(bytes: &[u8]) -> Result<Option<SignedModule>, TestCaseError> {
    match SignedModule::from_bytes(bytes) {
        Ok(module) => {
            prop_assert!(module.to_bytes() == bytes, "accepted bytes re-encode");
            Ok(Some(module))
        }
        Err(SigningError::Malformed(e)) => {
            prop_assert!(e.offset <= bytes.len(), "{e} beyond {} bytes", bytes.len());
            Ok(None)
        }
        Err(other) => Err(TestCaseError::Fail(format!("untyped refusal {other:?}"))),
    }
}

/// The fields after the magic, in order, named as the decoder names
/// them: `Some(n)` is a fixed size, `None` a string behind a `u32` length.
const LAYOUT: [(&str, Option<usize>); 12] = [
    ("key id", None),
    ("signature", Some(SIG_LEN)),
    ("module name", None),
    ("flags", Some(1)),
    ("guard count", Some(8)),
    ("memory access count", Some(8)),
    ("privileged call count", Some(8)),
    ("guard site count", Some(8)),
    ("guard site digest", None),
    ("compiler id", None),
    ("obligation ledger", None),
    ("IR text", None),
];

/// Each field of a valid container with the bytes it spans (a string's
/// span starts at its length).
fn field_spans(bytes: &[u8]) -> Vec<(&'static str, Range<usize>)> {
    let mut at = MAGIC_LEN;
    LAYOUT
        .iter()
        .map(|&(name, fixed)| {
            let n = fixed.unwrap_or_else(|| {
                4 + u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize
            });
            at += n;
            (name, at - n..at)
        })
        .collect()
}

/// Offsets of a valid container's six `u32` length fields, in order:
/// key id, module name, site digest, compiler id, ledger, IR text.
fn length_fields(bytes: &[u8]) -> Vec<usize> {
    LAYOUT
        .iter()
        .zip(field_spans(bytes))
        .filter(|((_, fixed), _)| fixed.is_none())
        .map(|(_, (_, span))| span.start)
        .collect()
}

/// A length value: small, at the container's size, or huge.
fn arb_len() -> impl Strategy<Value = u32> {
    prop_oneof![
        0u32..64,
        1_000u32..4_000,
        Just(u32::MAX),
        Just(u32::MAX - 3),
        any::<u32>(),
    ]
}

/// Words of the ledger grammar, well-formed and not: the `inline` kind
/// and the `obligations-v2` header are refused.
const LEDGER_WORDS: &str = "elide inline range fn=walk fn= guard=body#0 access=body#3 \
    accesses=body#1,,#2,body# header=head size=8 stride=18446744073709551616 flags=-1 \
    lo=0 hi=4096 gen=1 elo=0 ehi=8 = # obligations-v2";

/// A ledger word, the header, or a line break (ASCII or Unicode).
fn arb_ledger_token() -> impl Strategy<Value = &'static str> {
    let words: Vec<&str> = LEDGER_WORDS
        .split_whitespace()
        .chain([ObligationLedger::HEADER, "\n", "\u{2028}"])
        .collect();
    any::<prop::sample::Index>().prop_map(move |i| words[i.index(words.len())])
}

/// Parses `text` as a ledger: a refusal names a line of `text`.
fn parse_ledger(text: &str) -> Result<(), TestCaseError> {
    if let Err(e) = ObligationLedger::parse(text) {
        let lines = text.lines().count();
        prop_assert!(
            (1..=lines).contains(&e.line),
            "{e} outside the {lines} line(s) of {text:?}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, bare or behind the container magic.
    #[test]
    fn arbitrary_bytes_decode_or_are_refused(
        magic in any::<bool>(),
        tail in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut bytes = if magic { containers()[0][..MAGIC_LEN].to_vec() } else { Vec::new() };
        bytes.extend_from_slice(&tail);
        decode(&bytes)?;
    }

    /// A flipped byte is refused, or decodes to a module the trusted key
    /// does not vouch for.
    #[test]
    fn one_flipped_byte_is_refused_or_fails_verification(
        which in 0usize..2,
        at in any::<prop::sample::Index>(),
        mask in 1u16..256,
    ) {
        let mut bytes = containers()[which].clone();
        let at = at.index(bytes.len());
        bytes[at] ^= mask as u8;
        if let Some(module) = decode(&bytes)? {
            prop_assert!(module.verify(&[key()]).is_err(), "flip at {at} verifies");
        }
    }

    #[test]
    fn one_rewritten_length_field_decodes_or_is_refused(
        which in 0usize..2,
        field in any::<prop::sample::Index>(),
        len in arb_len(),
    ) {
        let mut bytes = containers()[which].clone();
        let fields = length_fields(&bytes);
        let at = fields[field.index(fields.len())];
        bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
        decode(&bytes)?;
    }

    #[test]
    fn arbitrary_ledger_text_parses_or_errs(text in "\\PC*") {
        parse_ledger(&text)?;
    }

    #[test]
    fn ledger_token_soup_parses_or_errs(
        tokens in prop::collection::vec(arb_ledger_token(), 0..40),
    ) {
        parse_ledger(&tokens.join(" "))?;
    }
}

#[test]
fn the_fixtures_are_valid_and_cover_both_ledger_kinds() {
    for (bytes, ledger_empty) in containers().iter().zip([true, false]) {
        let module = decode(bytes).expect("decodes").expect("accepted");
        module.verify(&[key()]).expect("verifies");
        assert_eq!(module.attestation.obligations.is_empty(), ledger_empty);
        let fields = length_fields(bytes);
        assert_eq!(&bytes[fields[1] + 4..fields[1] + 8], b"walk", "module name");
        let ir = u32::from_le_bytes(bytes[fields[5]..fields[5] + 4].try_into().unwrap());
        assert_eq!(
            fields[5] + 4 + ir as usize,
            bytes.len(),
            "IR text ends the container"
        );
    }
}

/// A prefix cut inside the magic is a bad magic; one cut inside a field
/// names that field, at an offset inside it.
#[test]
fn every_strict_prefix_is_refused() {
    for bytes in containers() {
        let spans = field_spans(bytes);
        assert_eq!(spans.last().expect("fields").1.end, bytes.len());
        for cut in 0..bytes.len() {
            let (want, from) = match spans.iter().find(|(_, span)| span.contains(&cut)) {
                Some((field, span)) => (ContainerCode::Truncated(field), span.start),
                None => (ContainerCode::BadMagic, 0),
            };
            match SignedModule::from_bytes(&bytes[..cut]) {
                Err(SigningError::Malformed(e)) => {
                    assert_eq!(e.code, want, "prefix of {cut} bytes");
                    assert!((from..=cut).contains(&e.offset), "prefix of {cut}: {e}");
                }
                other => panic!("prefix of {cut} bytes: {other:?}"),
            }
        }
    }
}

/// Every single-bit flip of the flags byte and the four counts: each is
/// refused, or decodes to a distinct encoding the key does not vouch for.
#[test]
fn every_bit_flip_of_the_fixed_fields_is_refused_or_fails_verification() {
    for bytes in containers() {
        let (_, span) = field_spans(bytes)
            .into_iter()
            .find(|(name, _)| *name == "flags")
            .expect("a flags byte");
        let flags = span.start;
        for at in flags..flags + 1 + 4 * 8 {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                let decoded =
                    decode(&flipped).unwrap_or_else(|e| panic!("bit {bit} at {at}: {e:?}"));
                if let Some(module) = decoded {
                    assert!(module.verify(&[key()]).is_err(), "bit {bit} at {at}");
                }
            }
        }
    }
}
