//! `kop-analysis`: static analysis over KIR.
//!
//! This crate gives the CARAT KOP stack an *independent proof* that a
//! module is guarded, instead of trusting the compiler that signed it:
//!
//! * [`dataflow`] — a reusable forward-dataflow framework (join
//!   semilattice + worklist engine over the CFG).
//! * [`coverage`] — the GuardCoverage analysis: proves every load and
//!   store is covered on all paths by a dominating `carat_guard` call.
//! * [`available`] — AvailableGuards: like coverage, but tracks *which*
//!   guard instruction establishes each fact, so the optimizer can name
//!   (and the validator can audit) the dominating guard behind an
//!   elision.
//! * [`range`] — SCEV-lite value-range analysis over counted loops:
//!   plans the replacement of per-iteration element guards with one
//!   hoisted `[base, base + stride·n)` range guard.
//! * [`validator`] — the independent translation validator: re-derives
//!   every optimizer obligation (elisions, range coalescings) from the
//!   module text alone and re-proves coverage, sharing no code with the
//!   optimizer; and audits the bounds the kernel's promotion bakes
//!   against the snapshot it pinned ([`audit_baked_bounds`]).
//! * [`provenance`] — flags accesses through `inttoptr`-laundered
//!   pointers (KA003).
//! * [`diagnostics`] — stable lint codes (`KA001`…) with precise
//!   function/block/instruction locations.
//!
//! The top-level entry points are [`analyze_module`] (full report),
//! [`verify_guard_coverage`] (coverage only), [`validate_module`]
//! (coverage plus obligation-ledger audit — what the signer and the
//! loader both run), and [`audit_baked_bounds`] (bounds only — what
//! `Kernel::promote_hot` runs before it installs a tier).

pub mod available;
pub mod coverage;
pub mod dataflow;
pub mod diagnostics;
pub mod provenance;
pub mod range;
pub mod validator;

pub use available::{available_guards, transfer_avail, AvailMap, AvailableGuards};
pub use coverage::{verify_guard_coverage, GuardCoverage};
pub use diagnostics::{AnalysisReport, Diagnostic, LintCode, Severity};
pub use range::{plan_ranges, RangePlan};
pub use validator::{
    audit_baked_bounds, validate_module, BakedBound, InstRef, LedgerCode, LedgerError, Obligation,
    ObligationLedger,
};

use kop_ir::Module;

/// Run every analysis on `module` and collect the merged report.
pub fn analyze_module(module: &Module) -> AnalysisReport {
    let mut report = coverage::verify_guard_coverage(module);
    report.merge(provenance::analyze_provenance(module));
    report
}
