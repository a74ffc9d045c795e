//! # kop-policy — the CARAT KOP policy module
//!
//! The paper's policy module (§3.1) exports a single symbol,
//! `carat_guard(void* addr, size_t size, int access_flags)`, backed by a
//! 64-entry table of memory regions that a root user configures through
//! `ioctl /dev/carat` — "what amount to firewall rules".
//!
//! This crate implements:
//!
//! * [`module::PolicyModule`] — the loadable policy module itself: one
//!   rule list + default action + violation action + statistics,
//!   exposing the `carat_guard` entry point,
//! * [`store::StoreKind`] — the list's admission contract: the paper's
//!   64-entry table (insertion order, overlapping rules allowed) or the
//!   sorted table it sketches for scaling (§4.2: base order, no cap,
//!   overlaps rejected),
//! * [`frozen::FrozenStore`] — the immutable index every check is
//!   answered from: disjoint rules form one layer, overlapping ones a
//!   layered decomposition, and each layer is searched with a static
//!   9-ary tree of 64-byte nodes (a few node probes at any size), all
//!   bit-exact with the paper's linear scan,
//! * [`manager::PolicyCmd`] — the binary ioctl protocol spoken by the
//!   `policy-manager` user-space tool,
//! * the SMP guard path (DESIGN §3.13): [`snapshot::SnapshotStore`]
//!   (RCU-style published tables — a check path that is lock-free on a
//!   hit; a publish installs the snapshot under the cell's short lock,
//!   then stores the generation, then the count, and a reader locks the
//!   cell only on a miss),
//!   [`front::GuardFront`] (a per-queue front with one self-filling slot
//!   per guard site, staled by the store generation), and
//!   [`vlog::ViolationLog`] (bounded violation ring with a dropped
//!   counter, formatting deferred to read time).

#![warn(missing_docs)]

pub mod front;
pub mod frozen;
pub mod manager;
pub mod module;
pub mod namespace;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod vlog;

pub use front::{GuardFront, SiteMap};
pub use frozen::{FrozenKind, FrozenStore};
pub use manager::{PolicyCmd, PolicyCmdError, PolicyResponse};
pub use module::{
    ClassifiedCheck, DatapathGeometry, DefaultAction, GuardOutcome, PolicyModule, ViolationAction,
};
pub use namespace::NamespaceStore;
pub use snapshot::{PolicySnapshot, SnapshotStore};
pub use stats::GuardStats;
pub use store::{Lookup, PolicyError, StoreKind, MAX_REGIONS};
pub use vlog::ViolationLog;

use kop_core::{AccessFlags, Size, VAddr, Violation};

/// The guard check interface — what a protected module calls before every
/// memory access. Implemented by [`module::PolicyModule`], by the
/// per-queue [`front::GuardFront`], and by the zero-cost [`NoopPolicy`]
/// used for baseline measurements.
pub trait PolicyCheck {
    /// Check an access; `Ok(())` means permitted.
    fn carat_guard(&self, addr: VAddr, size: Size, flags: AccessFlags) -> Result<(), Violation>;

    /// Account the guards this front admitted without a policy lookup in
    /// the policy's stats, and return how many it has admitted that way
    /// over its life. A front that sends every guard to the policy module
    /// has nothing to account: the default does nothing and returns 0.
    /// Guarded drivers call this once per frame and from every accessor,
    /// so `policy.checks == guard calls` holds for any observer.
    fn flush_admits(&self) -> u64 {
        0
    }
}

/// A policy that allows everything — the baseline configuration in which
/// the guard call itself is compiled away (monomorphized to nothing).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopPolicy;

impl PolicyCheck for NoopPolicy {
    #[inline(always)]
    fn carat_guard(&self, _: VAddr, _: Size, _: AccessFlags) -> Result<(), Violation> {
        Ok(())
    }
}
