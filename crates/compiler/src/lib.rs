//! # kop-compiler — the CARAT KOP compiler
//!
//! The paper's "compiler" is a ~200-line LLVM pass plus a wrapper script
//! around clang 14 (§3.3). This crate reproduces that pipeline over KIR:
//!
//! * [`guard`] — the guard-injection pass: a call to `@carat_guard` is
//!   inserted before **every** `load` and `store`, unconditionally and
//!   unoptimized, exactly as the paper describes.
//! * [`opt`] — the optimizations the paper deliberately *omits* (they
//!   belong to CARAT CAKE's NOELLE-based pipeline): cross-block
//!   redundant-guard elimination and counted-loop range coalescing.
//!   These exist for the ablation benchmarks.
//! * [`obligations`] — the optimizer's obligation recorder: every guard
//!   reduction is justified by a machine-checkable claim that travels in
//!   the attestation and is re-derived by the independent validator
//!   (`kop_analysis::validate_module`) at signing and again at load. The
//!   ledger (`obligations-v1`: elide and range) carries compiler
//!   obligations only; a container whose ledger claims anything else is
//!   malformed.
//! * [`attest`] — compile-time attestation (v7) that the module contains
//!   no inline assembly and no calls to privileged intrinsics (§2, §5).
//! * [`sha256`] — a from-scratch SHA-256/HMAC-SHA256 (FIPS 180-4 / RFC
//!   2104) so code signing needs no external crypto dependency.
//! * [`signing`] — cryptographic code signing of the canonical module text
//!   plus its attestation; the kernel loader verifies this before linking
//!   (§2: "prove to the kernel that the proper processing has been
//!   performed ... and by which compiler").
//! * [`driver`] — the "wrapper script": transform → attest → sign in one
//!   call, yielding a [`signing::SignedModule`] ready for insertion.

#![warn(missing_docs)]

pub mod attest;
pub mod driver;
pub mod guard;
pub mod intrinsics;
pub mod obligations;
pub mod opt;
pub mod pass;
pub mod sha256;
pub mod signing;

pub use attest::{AttestError, Attestation};
pub use driver::{compile_module, CompileError, CompileOptions, CompileOutput};
pub use guard::{GuardInjectionPass, GUARD_SYMBOL};
pub use intrinsics::{
    intrinsic_id, validate_intrinsic_wraps, IntrinsicWrapPass, INTRINSIC_GUARD_SYMBOL,
};
pub use obligations::ObligationRecorder;
pub use opt::{RangeCoalescing, RedundantGuardElim};
pub use pass::PassStats;
pub use signing::{CompilerKey, ContainerCode, ContainerError, SignedModule, SigningError};
