//! The `/dev/carat` ioctl decoders take bytes from user space: every
//! input must decode or fail with a typed error — never panic, and never
//! size an allocation from a forged count.
//!
//! Three families of input: arbitrary bytes behind every opcode, every
//! strict prefix of a valid encoding (always an error), and valid
//! encodings with one byte flipped (decoded or rejected, no panic). The
//! forged counts that used to panic are pinned as fixed cases.

use proptest::prelude::*;

use kop_core::{Protection, Region, Size, VAddr};
use kop_policy::stats::GuardStatsSnapshot;
use kop_policy::{DefaultAction, PolicyCmd, PolicyResponse, ViolationAction};

const CMD_OPS: [u8; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];
const RESP_OPS: [u8; 5] = [0x80, 0x81, 0x82, 0x83, 0xff];

fn arb_region() -> impl Strategy<Value = Region> {
    (0u64..1 << 48, 0u64..1 << 20, 0u32..4).prop_map(|(base, len, p)| {
        let prot = [
            Protection::NONE,
            Protection::READ_ONLY,
            Protection::READ_WRITE,
            Protection::ALL,
        ][p as usize];
        Region::new(VAddr(base), Size(len), prot).expect("fits")
    })
}

fn arb_cmd() -> impl Strategy<Value = PolicyCmd> {
    prop_oneof![
        arb_region().prop_map(PolicyCmd::AddRegion),
        any::<u64>().prop_map(|b| PolicyCmd::RemoveRegion(VAddr(b))),
        Just(PolicyCmd::List),
        Just(PolicyCmd::SetDefault(DefaultAction::Allow)),
        Just(PolicyCmd::SetDefault(DefaultAction::Deny)),
        Just(PolicyCmd::SetViolation(ViolationAction::Panic)),
        Just(PolicyCmd::SetViolation(ViolationAction::LogAndDeny)),
        Just(PolicyCmd::SetViolation(ViolationAction::LogAndAllow)),
        Just(PolicyCmd::SetViolation(ViolationAction::Quarantine)),
        Just(PolicyCmd::Stats),
        Just(PolicyCmd::Reset),
        any::<u32>().prop_map(PolicyCmd::AllowIntrinsic),
        any::<u32>().prop_map(PolicyCmd::RevokeIntrinsic),
        Just(PolicyCmd::ListIntrinsics),
    ]
}

fn arb_response() -> impl Strategy<Value = PolicyResponse> {
    prop_oneof![
        Just(PolicyResponse::Ok),
        proptest::collection::vec(arb_region(), 0..6).prop_map(PolicyResponse::Regions),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(
                |(checks, permitted, denied_no_match, denied_insufficient, denied_malformed)| {
                    PolicyResponse::Stats(GuardStatsSnapshot {
                        checks,
                        permitted,
                        denied_no_match,
                        denied_insufficient,
                        denied_malformed,
                    })
                }
            ),
        proptest::collection::vec(any::<u32>(), 0..6).prop_map(PolicyResponse::Intrinsics),
        proptest::collection::vec(0x20u8..0x7f, 0..40)
            .prop_map(|b| PolicyResponse::Err(String::from_utf8(b).expect("ascii"))),
    ]
}

/// A count or length field: small, huge, or at the limits.
fn arb_count() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..8,
        any::<u64>(),
        Just(u64::MAX),
        Just(1u64 << 60),
        Just(1u64 << 62),
        Just(1u64 << 40),
    ]
}

/// `[tag | count | bytes]`: the shape every variable-length response has.
fn framed(tag: u8, count: u64, rest: &[u8]) -> Vec<u8> {
    let mut bytes = vec![tag];
    bytes.extend_from_slice(&count.to_le_bytes());
    bytes.extend_from_slice(rest);
    bytes
}

#[test]
fn forged_counts_are_errors() {
    for bytes in [
        framed(0x81, 1 << 60, &[]),  // regions: capacity overflow
        framed(0x83, 1 << 62, &[]),  // intrinsics: capacity overflow
        framed(0xff, u64::MAX, &[]), // error string: offset overflow
        framed(0x81, 1 << 40, &[0; 24]),
        framed(0x83, 1 << 40, &[0; 8]),
        framed(0xff, 1 << 40, b"short"),
    ] {
        assert!(
            PolicyResponse::decode(&bytes).is_err(),
            "{bytes:02x?} must be rejected"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes behind every opcode, framed and unframed.
    #[test]
    fn arbitrary_bytes_never_panic(
        op in 0usize..CMD_OPS.len() + RESP_OPS.len(),
        count in arb_count(),
        rest in proptest::collection::vec(any::<u8>(), 0..80),
        raw in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let tag = *CMD_OPS.iter().chain(&RESP_OPS).nth(op).expect("in range");
        for bytes in [framed(tag, count, &rest), raw] {
            let _ = PolicyCmd::decode(&bytes);
            let _ = PolicyResponse::decode(&bytes);
        }
    }

    /// Valid commands round-trip; every strict prefix is an error; a
    /// flipped byte decodes or fails cleanly.
    #[test]
    fn mangled_commands_fail_cleanly(cmd in arb_cmd(), at in any::<u64>(), mask in 1u16..256) {
        let bytes = cmd.encode();
        prop_assert_eq!(PolicyCmd::decode(&bytes), Ok(cmd));
        for end in 0..bytes.len() {
            prop_assert!(PolicyCmd::decode(&bytes[..end]).is_err(), "prefix of {} bytes", end);
        }
        let mut flipped = bytes.clone();
        flipped[(at % bytes.len() as u64) as usize] ^= mask as u8;
        let _ = PolicyCmd::decode(&flipped);
    }

    /// The same for responses.
    #[test]
    fn mangled_responses_fail_cleanly(resp in arb_response(), at in any::<u64>(), mask in 1u16..256) {
        let bytes = resp.encode();
        prop_assert_eq!(PolicyResponse::decode(&bytes), Ok(resp));
        for end in 0..bytes.len() {
            prop_assert!(PolicyResponse::decode(&bytes[..end]).is_err(), "prefix of {} bytes", end);
        }
        let mut flipped = bytes.clone();
        flipped[(at % bytes.len() as u64) as usize] ^= mask as u8;
        let _ = PolicyResponse::decode(&flipped);
    }
}
