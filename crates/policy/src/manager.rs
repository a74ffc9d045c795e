//! The `policy-manager` ioctl protocol.
//!
//! §3.1 / Figure 1: *"a root user can communicate with the policy module
//! through an ioctl system call to add or remove regions from the table
//! using a simple application, policy-manager."*
//!
//! Commands and responses have a compact binary encoding — this is the
//! byte payload that crosses the simulated user/kernel boundary through
//! `/dev/carat` (see `kop-kernel::chardev`).

use kop_core::{Protection, Region, Size, VAddr};

use crate::module::{DefaultAction, PolicyModule, ViolationAction};
use crate::stats::GuardStatsSnapshot;
use crate::store::PolicyError;

/// A policy-manager command.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PolicyCmd {
    /// Add a firewall rule.
    AddRegion(Region),
    /// Remove the rule with this base address.
    RemoveRegion(VAddr),
    /// List all rules.
    List,
    /// Set the default action for unmatched accesses.
    SetDefault(DefaultAction),
    /// Set the violation action.
    SetViolation(ViolationAction),
    /// Read guard statistics.
    Stats,
    /// Clear all rules and statistics.
    Reset,
    /// Grant a privileged intrinsic id (§5 extension).
    AllowIntrinsic(u32),
    /// Revoke a privileged intrinsic id.
    RevokeIntrinsic(u32),
    /// List granted intrinsic ids.
    ListIntrinsics,
}

/// A policy-manager response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PolicyResponse {
    /// Command succeeded with no payload.
    Ok,
    /// Rule listing.
    Regions(Vec<Region>),
    /// Statistics snapshot.
    Stats(GuardStatsSnapshot),
    /// Granted intrinsic ids.
    Intrinsics(Vec<u32>),
    /// Command failed.
    Err(String),
}

/// Encode/decode failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolicyCmdError(pub String);

impl core::fmt::Display for PolicyCmdError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "policy protocol error: {}", self.0)
    }
}

impl std::error::Error for PolicyCmdError {}

const OP_ADD: u8 = 1;
const OP_REMOVE: u8 = 2;
const OP_LIST: u8 = 3;
const OP_SET_DEFAULT: u8 = 4;
const OP_SET_VIOLATION: u8 = 5;
const OP_STATS: u8 = 6;
const OP_RESET: u8 = 7;
const OP_ALLOW_INTRINSIC: u8 = 8;
const OP_REVOKE_INTRINSIC: u8 = 9;
const OP_LIST_INTRINSICS: u8 = 10;

const RESP_OK: u8 = 0x80;
const RESP_REGIONS: u8 = 0x81;
const RESP_STATS: u8 = 0x82;
const RESP_INTRINSICS: u8 = 0x83;
const RESP_ERR: u8 = 0xff;

/// Encoded size of one region: base, length, protection bits.
const REGION_LEN: usize = 24;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(data: &[u8], off: &mut usize) -> Result<u64, PolicyCmdError> {
    let end = *off + 8;
    if end > data.len() {
        return Err(PolicyCmdError("truncated u64".into()));
    }
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&data[*off..end]);
    *off = end;
    Ok(u64::from_le_bytes(bytes))
}

/// Capacity for a list of `count` items of `item_len` encoded bytes each:
/// never more than the bytes left in `data` could hold, so a forged count
/// cannot drive the allocation.
fn list_capacity(count: u64, item_len: usize, data: &[u8], off: usize) -> usize {
    let fits = data.len().saturating_sub(off) / item_len;
    usize::try_from(count).map_or(fits, |n| n.min(fits))
}

fn put_region(out: &mut Vec<u8>, r: &Region) {
    put_u64(out, r.base.raw());
    put_u64(out, r.len.raw());
    put_u64(out, r.prot.granted().raw() as u64);
}

fn get_region(data: &[u8], off: &mut usize) -> Result<Region, PolicyCmdError> {
    let base = get_u64(data, off)?;
    let len = get_u64(data, off)?;
    let prot = get_u64(data, off)?;
    let prot = u32::try_from(prot).map_err(|_| PolicyCmdError("bad protection bits".into()))?;
    Region::new(
        VAddr(base),
        Size(len),
        Protection::new(kop_core::AccessFlags::from_raw(prot)),
    )
    .ok_or_else(|| PolicyCmdError("region overflows address space".into()))
}

impl PolicyCmd {
    /// Encode to the ioctl byte payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            PolicyCmd::AddRegion(r) => {
                out.push(OP_ADD);
                put_region(&mut out, r);
            }
            PolicyCmd::RemoveRegion(base) => {
                out.push(OP_REMOVE);
                put_u64(&mut out, base.raw());
            }
            PolicyCmd::List => out.push(OP_LIST),
            PolicyCmd::SetDefault(a) => {
                out.push(OP_SET_DEFAULT);
                out.push(a.to_u8());
            }
            PolicyCmd::SetViolation(a) => {
                out.push(OP_SET_VIOLATION);
                out.push(a.to_u8());
            }
            PolicyCmd::Stats => out.push(OP_STATS),
            PolicyCmd::Reset => out.push(OP_RESET),
            PolicyCmd::AllowIntrinsic(id) => {
                out.push(OP_ALLOW_INTRINSIC);
                put_u64(&mut out, *id as u64);
            }
            PolicyCmd::RevokeIntrinsic(id) => {
                out.push(OP_REVOKE_INTRINSIC);
                put_u64(&mut out, *id as u64);
            }
            PolicyCmd::ListIntrinsics => out.push(OP_LIST_INTRINSICS),
        }
        out
    }

    /// Decode from the ioctl byte payload.
    pub fn decode(data: &[u8]) -> Result<PolicyCmd, PolicyCmdError> {
        let op = *data
            .first()
            .ok_or_else(|| PolicyCmdError("empty command".into()))?;
        let mut off = 1usize;
        let cmd = match op {
            OP_ADD => PolicyCmd::AddRegion(get_region(data, &mut off)?),
            OP_REMOVE => PolicyCmd::RemoveRegion(VAddr(get_u64(data, &mut off)?)),
            OP_LIST => PolicyCmd::List,
            OP_SET_DEFAULT => {
                let b = *data
                    .get(1)
                    .ok_or_else(|| PolicyCmdError("truncated".into()))?;
                off = 2;
                PolicyCmd::SetDefault(
                    DefaultAction::from_u8(b)
                        .ok_or_else(|| PolicyCmdError(format!("bad default action {b}")))?,
                )
            }
            OP_SET_VIOLATION => {
                let b = *data
                    .get(1)
                    .ok_or_else(|| PolicyCmdError("truncated".into()))?;
                off = 2;
                PolicyCmd::SetViolation(
                    ViolationAction::from_u8(b)
                        .ok_or_else(|| PolicyCmdError(format!("bad violation action {b}")))?,
                )
            }
            OP_STATS => PolicyCmd::Stats,
            OP_RESET => PolicyCmd::Reset,
            OP_ALLOW_INTRINSIC => {
                let id = get_u64(data, &mut off)?;
                PolicyCmd::AllowIntrinsic(
                    u32::try_from(id)
                        .map_err(|_| PolicyCmdError("intrinsic id too large".into()))?,
                )
            }
            OP_REVOKE_INTRINSIC => {
                let id = get_u64(data, &mut off)?;
                PolicyCmd::RevokeIntrinsic(
                    u32::try_from(id)
                        .map_err(|_| PolicyCmdError("intrinsic id too large".into()))?,
                )
            }
            OP_LIST_INTRINSICS => PolicyCmd::ListIntrinsics,
            other => return Err(PolicyCmdError(format!("unknown opcode {other:#x}"))),
        };
        if off != data.len() {
            return Err(PolicyCmdError(format!(
                "trailing garbage: {} bytes",
                data.len() - off
            )));
        }
        Ok(cmd)
    }

    /// Apply the command to a policy module — the kernel side of the ioctl.
    pub fn apply(&self, pm: &PolicyModule) -> PolicyResponse {
        let policy_err = |e: PolicyError| PolicyResponse::Err(e.to_string());
        match self {
            PolicyCmd::AddRegion(r) => match pm.add_region(*r) {
                Ok(()) => PolicyResponse::Ok,
                Err(e) => policy_err(e),
            },
            PolicyCmd::RemoveRegion(base) => match pm.remove_region(*base) {
                Ok(_) => PolicyResponse::Ok,
                Err(e) => policy_err(e),
            },
            PolicyCmd::List => PolicyResponse::Regions(pm.regions()),
            PolicyCmd::SetDefault(a) => {
                pm.set_default_action(*a);
                PolicyResponse::Ok
            }
            PolicyCmd::SetViolation(a) => {
                pm.set_violation_action(*a);
                PolicyResponse::Ok
            }
            PolicyCmd::Stats => PolicyResponse::Stats(pm.stats()),
            PolicyCmd::Reset => {
                pm.clear_regions();
                pm.reset_stats();
                PolicyResponse::Ok
            }
            PolicyCmd::AllowIntrinsic(id) => {
                pm.allow_intrinsic(*id);
                PolicyResponse::Ok
            }
            PolicyCmd::RevokeIntrinsic(id) => {
                if pm.revoke_intrinsic(*id) {
                    PolicyResponse::Ok
                } else {
                    PolicyResponse::Err(format!("intrinsic {id} was not granted"))
                }
            }
            PolicyCmd::ListIntrinsics => PolicyResponse::Intrinsics(pm.granted_intrinsics()),
        }
    }
}

impl PolicyResponse {
    /// Encode to the ioctl reply payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            PolicyResponse::Ok => out.push(RESP_OK),
            PolicyResponse::Regions(regions) => {
                out.push(RESP_REGIONS);
                put_u64(&mut out, regions.len() as u64);
                for r in regions {
                    put_region(&mut out, r);
                }
            }
            PolicyResponse::Stats(s) => {
                out.push(RESP_STATS);
                put_u64(&mut out, s.checks);
                put_u64(&mut out, s.permitted);
                put_u64(&mut out, s.denied_no_match);
                put_u64(&mut out, s.denied_insufficient);
                put_u64(&mut out, s.denied_malformed);
            }
            PolicyResponse::Intrinsics(ids) => {
                out.push(RESP_INTRINSICS);
                put_u64(&mut out, ids.len() as u64);
                for id in ids {
                    put_u64(&mut out, *id as u64);
                }
            }
            PolicyResponse::Err(msg) => {
                out.push(RESP_ERR);
                put_u64(&mut out, msg.len() as u64);
                out.extend_from_slice(msg.as_bytes());
            }
        }
        out
    }

    /// Decode from the ioctl reply payload.
    pub fn decode(data: &[u8]) -> Result<PolicyResponse, PolicyCmdError> {
        let op = *data
            .first()
            .ok_or_else(|| PolicyCmdError("empty response".into()))?;
        let mut off = 1usize;
        match op {
            RESP_OK => Ok(PolicyResponse::Ok),
            RESP_REGIONS => {
                let n = get_u64(data, &mut off)?;
                let mut regions = Vec::with_capacity(list_capacity(n, REGION_LEN, data, off));
                for _ in 0..n {
                    regions.push(get_region(data, &mut off)?);
                }
                Ok(PolicyResponse::Regions(regions))
            }
            RESP_STATS => {
                let checks = get_u64(data, &mut off)?;
                let permitted = get_u64(data, &mut off)?;
                let denied_no_match = get_u64(data, &mut off)?;
                let denied_insufficient = get_u64(data, &mut off)?;
                let denied_malformed = get_u64(data, &mut off)?;
                Ok(PolicyResponse::Stats(GuardStatsSnapshot {
                    checks,
                    permitted,
                    denied_no_match,
                    denied_insufficient,
                    denied_malformed,
                }))
            }
            RESP_INTRINSICS => {
                let n = get_u64(data, &mut off)?;
                let mut ids = Vec::with_capacity(list_capacity(n, 8, data, off));
                for _ in 0..n {
                    let id = get_u64(data, &mut off)?;
                    ids.push(
                        u32::try_from(id)
                            .map_err(|_| PolicyCmdError("intrinsic id too large".into()))?,
                    );
                }
                Ok(PolicyResponse::Intrinsics(ids))
            }
            RESP_ERR => {
                let len = get_u64(data, &mut off)?;
                let end = usize::try_from(len)
                    .ok()
                    .and_then(|len| off.checked_add(len))
                    .filter(|&end| end <= data.len())
                    .ok_or_else(|| PolicyCmdError("truncated error string".into()))?;
                let msg = String::from_utf8_lossy(&data[off..end]).into_owned();
                Ok(PolicyResponse::Err(msg))
            }
            other => Err(PolicyCmdError(format!("unknown response {other:#x}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kop_core::AccessFlags;

    fn region(base: u64, len: u64) -> Region {
        Region::new(VAddr(base), Size(len), Protection::READ_WRITE).unwrap()
    }

    #[test]
    fn command_roundtrip() {
        let cmds = [
            PolicyCmd::AddRegion(region(0x1000, 0x2000)),
            PolicyCmd::RemoveRegion(VAddr(0x1000)),
            PolicyCmd::List,
            PolicyCmd::SetDefault(DefaultAction::Allow),
            PolicyCmd::SetDefault(DefaultAction::Deny),
            PolicyCmd::SetViolation(ViolationAction::Panic),
            PolicyCmd::SetViolation(ViolationAction::LogAndDeny),
            PolicyCmd::SetViolation(ViolationAction::LogAndAllow),
            PolicyCmd::SetViolation(ViolationAction::Quarantine),
            PolicyCmd::Stats,
            PolicyCmd::Reset,
            PolicyCmd::AllowIntrinsic(3),
            PolicyCmd::RevokeIntrinsic(7),
            PolicyCmd::ListIntrinsics,
        ];
        for cmd in cmds {
            let bytes = cmd.encode();
            let back = PolicyCmd::decode(&bytes).expect("decodes");
            assert_eq!(back, cmd);
        }
    }

    #[test]
    fn response_roundtrip() {
        let responses = [
            PolicyResponse::Ok,
            PolicyResponse::Regions(vec![region(0x1000, 0x100), region(0x4000, 0x10)]),
            PolicyResponse::Stats(GuardStatsSnapshot {
                checks: 10,
                permitted: 7,
                denied_no_match: 1,
                denied_insufficient: 1,
                denied_malformed: 1,
            }),
            PolicyResponse::Intrinsics(vec![0, 1, 15]),
            PolicyResponse::Err("policy table full (64 regions)".into()),
        ];
        for resp in responses {
            let bytes = resp.encode();
            let back = PolicyResponse::decode(&bytes).expect("decodes");
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(PolicyCmd::decode(&[]).is_err());
        assert!(PolicyCmd::decode(&[0x42]).is_err());
        assert!(PolicyCmd::decode(&[OP_ADD, 1, 2]).is_err()); // truncated region
        let mut ok = PolicyCmd::List.encode();
        ok.push(0); // trailing garbage
        assert!(PolicyCmd::decode(&ok).is_err());
        assert!(PolicyResponse::decode(&[0x07]).is_err());
    }

    #[test]
    fn apply_add_list_remove() {
        let pm = PolicyModule::new();
        let r = region(0x10_0000, 0x1000);
        assert_eq!(PolicyCmd::AddRegion(r).apply(&pm), PolicyResponse::Ok);
        match PolicyCmd::List.apply(&pm) {
            PolicyResponse::Regions(regions) => assert_eq!(regions, vec![r]),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            PolicyCmd::RemoveRegion(VAddr(0x10_0000)).apply(&pm),
            PolicyResponse::Ok
        );
        assert_eq!(pm.region_count(), 0);
        // Removing again fails.
        match PolicyCmd::RemoveRegion(VAddr(0x10_0000)).apply(&pm) {
            PolicyResponse::Err(msg) => assert!(msg.contains("no region")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn apply_stats_and_reset() {
        let pm = PolicyModule::new();
        pm.set_default_action(DefaultAction::Allow);
        assert!(pm.check(VAddr(0x1000), Size(8), AccessFlags::READ).is_ok());
        match PolicyCmd::Stats.apply(&pm) {
            PolicyResponse::Stats(s) => {
                assert_eq!(s.checks, 1);
                assert_eq!(s.permitted, 1);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(PolicyCmd::Reset.apply(&pm), PolicyResponse::Ok);
        assert_eq!(pm.stats().checks, 0);
        assert_eq!(pm.region_count(), 0);
    }

    #[test]
    fn full_ioctl_roundtrip_through_bytes() {
        // User space encodes, kernel decodes+applies, encodes response,
        // user space decodes — the full Figure 1 loop.
        let pm = PolicyModule::new();
        let wire_cmd = PolicyCmd::AddRegion(region(0x7000, 0x100)).encode();
        let cmd = PolicyCmd::decode(&wire_cmd).unwrap();
        let wire_resp = cmd.apply(&pm).encode();
        let resp = PolicyResponse::decode(&wire_resp).unwrap();
        assert_eq!(resp, PolicyResponse::Ok);
        assert_eq!(pm.region_count(), 1);
    }
}
