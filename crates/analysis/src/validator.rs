//! The independent translation validator.
//!
//! The optimizer (in `kop-compiler`) may elide or coalesce guards, and
//! for every transform it records a machine-checkable [`Obligation`] in
//! a ledger that travels inside the attestation. This module is the
//! *other side* of that bargain: it re-derives each claim from nothing
//! but the module text and the ledger, using only the shared IR
//! infrastructure (`kop_ir::dom`, `kop_ir::loops`) — none of the
//! optimizer's analysis or transform code. A bug in the optimizer
//! therefore cannot vouch for itself: the validator refuses to sign (at
//! compile time) or load (at insmod, `Verification::Static`) a module
//! whose elisions it cannot independently justify.
//!
//! Checks, per obligation kind:
//!
//! * **elide** — the claimed dominating guard must exist, be a guard
//!   call whose fact covers the claimed `(size, flags)` on the access's
//!   pointer (KA006 otherwise), and must dominate the access per a
//!   freshly computed dominator tree (KA008 otherwise).
//! * **range** — the hoisted guard must sit in the preheader of a loop
//!   this module's own counted-loop recognizer accepts, its byte count
//!   must be literally `mul i64 trip_count, stride`, its base must be
//!   loop-invariant, and every access it claims to cover must be a
//!   `gep base, iv` element access of at most `stride` bytes inside the
//!   bounded region (KA007 on any deviation).
//!
//! After the per-obligation audit, the full guard-coverage replay of
//! [`crate::coverage`] runs with exactly the *validated* range accesses
//! exempted. With an empty ledger this degenerates to plain
//! [`crate::verify_guard_coverage`].
//!
//! The ledger is the compiler's and only the compiler's: its text form
//! is `obligations-v1` (elide, range), and a parse failure is a typed
//! [`LedgerError`] naming the 1-based line. The grants the kernel's
//! promotion bakes into guard ops are a separate, kernel-internal record
//! ([`BakedBound`]) that never travels in a signed container;
//! [`audit_baked_bounds`] checks them against the snapshot the promotion
//! pinned (KA009–KA011) and re-proves no coverage.

use core::fmt;
use std::collections::{HashMap, HashSet};

use kop_core::{AccessFlags, Grant, Protection, Region, Size, VAddr};
use kop_ir::dom::DomTree;
use kop_ir::loops::find_counted_loops;
use kop_ir::{BinOp, BlockId, Function, Inst, InstId, Module, Type, Value};

use crate::coverage::{
    access_key, diag, guard_fact, verify_function_with_exemptions, GUARD_SYMBOL,
};
use crate::diagnostics::{AnalysisReport, Diagnostic, LintCode};

/// A position-stable instruction reference: block label plus index into
/// that block's instruction list. Rendered as `block#index`.
///
/// Obligations address instructions this way (not by SSA name) so the
/// ledger survives printing and re-parsing the module, and so unnamed
/// instructions (stores, guard calls) are addressable.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct InstRef {
    /// Block label (without `%`).
    pub block: String,
    /// Index into the block's instruction list.
    pub index: usize,
}

impl InstRef {
    /// Parse `block#index`.
    pub fn parse(s: &str) -> Option<InstRef> {
        let (block, idx) = s.rsplit_once('#')?;
        if block.is_empty() {
            return None;
        }
        Some(InstRef {
            block: block.to_string(),
            index: idx.parse().ok()?,
        })
    }
}

impl fmt::Display for InstRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.block, self.index)
    }
}

/// One machine-checkable claim the optimizer made.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Obligation {
    /// "I removed a guard of `(size, flags)` before `access` because
    /// `guard` establishes a covering fact on every path to it."
    Elide {
        /// Enclosing function name.
        function: String,
        /// The surviving (dominating) guard call.
        guard: InstRef,
        /// The access the removed guard protected.
        access: InstRef,
        /// Byte count the removed guard granted.
        size: u64,
        /// Access-flag bits the removed guard granted.
        flags: u64,
    },
    /// "I replaced per-iteration element guards in the counted loop
    /// headed at `header` with `guard`, a single range guard of
    /// `trip_count · stride` bytes; it covers exactly `accesses`."
    Range {
        /// Enclosing function name.
        function: String,
        /// The inserted range guard call (in the loop preheader).
        guard: InstRef,
        /// Header block label of the counted loop.
        header: String,
        /// Bytes per iteration step.
        stride: u64,
        /// Access-flag bits the range guard grants.
        flags: u64,
        /// The per-iteration accesses the range covers.
        accesses: Vec<InstRef>,
    },
}

impl fmt::Display for Obligation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Obligation::Elide {
                function,
                guard,
                access,
                size,
                flags,
            } => write!(
                f,
                "elide fn={function} guard={guard} access={access} size={size} flags={flags}"
            ),
            Obligation::Range {
                function,
                guard,
                header,
                stride,
                flags,
                accesses,
            } => {
                let refs = accesses
                    .iter()
                    .map(InstRef::to_string)
                    .collect::<Vec<_>>()
                    .join(",");
                write!(
                    f,
                    "range fn={function} guard={guard} header={header} stride={stride} \
                     flags={flags} accesses={refs}"
                )
            }
        }
    }
}

/// The ordered list of obligations for one module, with a canonical
/// line-based text form (`obligations-v1`) that the attestation embeds.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ObligationLedger {
    /// The obligations, in the order the optimizer emitted them.
    pub obligations: Vec<Obligation>,
}

impl ObligationLedger {
    /// First line of every non-empty ledger.
    pub const HEADER: &'static str = "obligations-v1";

    /// A ledger with no obligations.
    pub fn empty() -> ObligationLedger {
        ObligationLedger::default()
    }

    /// Whether the ledger carries no obligations.
    pub fn is_empty(&self) -> bool {
        self.obligations.is_empty()
    }

    /// Number of obligations.
    pub fn len(&self) -> usize {
        self.obligations.len()
    }

    /// Canonical text form. The empty ledger renders as the empty
    /// string (attestations without optimizations stay byte-lean);
    /// anything else renders under [`Self::HEADER`].
    pub fn to_text(&self) -> String {
        if self.obligations.is_empty() {
            return String::new();
        }
        let mut out = String::from(Self::HEADER);
        out.push('\n');
        for ob in &self.obligations {
            out.push_str(&ob.to_string());
            out.push('\n');
        }
        out
    }

    /// Parse the canonical text form. The empty (or all-blank) text
    /// parses to the empty ledger; anything else must start with
    /// [`Self::HEADER`], and every later non-blank line must be an
    /// `elide` or `range` obligation.
    pub fn parse(text: &str) -> Result<ObligationLedger, LedgerError> {
        let mut lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l))
            .filter(|(_, l)| !l.trim().is_empty());
        let Some((line, header)) = lines.next() else {
            return Ok(ObligationLedger::empty());
        };
        if header.trim() != Self::HEADER {
            return Err(LedgerError {
                line,
                code: LedgerCode::Header,
            });
        }
        let obligations = lines
            .map(|(line, l)| parse_line(l).map_err(|code| LedgerError { line, code }))
            .collect::<Result<_, _>>()?;
        Ok(ObligationLedger { obligations })
    }
}

/// What was wrong with one ledger line (see [`LedgerError`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LedgerCode {
    /// The first non-blank line is not [`ObligationLedger::HEADER`].
    Header,
    /// An obligation kind other than `elide` or `range`.
    UnknownKind,
    /// A token that is not `key=value`.
    Token,
    /// A field named twice on one line.
    DuplicateField,
    /// A field the obligation kind requires is absent.
    MissingField(&'static str),
    /// A numeric field that is not a `u64`.
    NotANumber(&'static str),
    /// A reference field that is not `block#index`.
    NotARef(&'static str),
}

impl fmt::Display for LedgerCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerCode::Header => {
                write!(f, "header is not {:?}", ObligationLedger::HEADER)
            }
            LedgerCode::UnknownKind => f.write_str("obligation kind is not elide or range"),
            LedgerCode::Token => f.write_str("token is not key=value"),
            LedgerCode::DuplicateField => f.write_str("a field is named twice"),
            LedgerCode::MissingField(k) => write!(f, "field {k:?} is missing"),
            LedgerCode::NotANumber(k) => write!(f, "field {k:?} is not a number"),
            LedgerCode::NotARef(k) => write!(f, "field {k:?} is not a block#index reference"),
        }
    }
}

/// A ledger that did not parse: the code of what was wrong and the
/// 1-based line of the ledger text it was wrong on (blank lines count).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LedgerError {
    /// 1-based line of the ledger text.
    pub line: usize,
    /// What was wrong there.
    pub code: LedgerCode,
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ledger line {}: {}", self.line, self.code)
    }
}

impl std::error::Error for LedgerError {}

fn parse_line(line: &str) -> Result<Obligation, LedgerCode> {
    let mut toks = line.split_whitespace();
    let kind = toks.next().expect("non-empty line");
    if kind != "elide" && kind != "range" {
        return Err(LedgerCode::UnknownKind);
    }
    let mut kv: HashMap<&str, &str> = HashMap::new();
    for tok in toks {
        let (k, v) = tok.split_once('=').ok_or(LedgerCode::Token)?;
        if kv.insert(k, v).is_some() {
            return Err(LedgerCode::DuplicateField);
        }
    }
    let req = |key: &'static str| kv.get(key).copied().ok_or(LedgerCode::MissingField(key));
    let num = |key: &'static str| -> Result<u64, LedgerCode> {
        req(key)?.parse().map_err(|_| LedgerCode::NotANumber(key))
    };
    let iref = |key: &'static str| InstRef::parse(req(key)?).ok_or(LedgerCode::NotARef(key));
    if kind == "elide" {
        return Ok(Obligation::Elide {
            function: req("fn")?.to_string(),
            guard: iref("guard")?,
            access: iref("access")?,
            size: num("size")?,
            flags: num("flags")?,
        });
    }
    let accesses = req("accesses")?
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| InstRef::parse(s).ok_or(LedgerCode::NotARef("accesses")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Obligation::Range {
        function: req("fn")?.to_string(),
        guard: iref("guard")?,
        header: req("header")?.to_string(),
        stride: num("stride")?,
        flags: num("flags")?,
        accesses,
    })
}

/// Resolve an [`InstRef`] inside `f`.
fn resolve(f: &Function, r: &InstRef) -> Option<(BlockId, usize, InstId)> {
    let bid = f.block_by_name(&r.block)?;
    let iid = *f.block(bid).insts.get(r.index)?;
    Some((bid, r.index, iid))
}

/// A diagnostic for a claim whose reference does not even resolve —
/// anchored to the claimed location, since no instruction exists there.
fn unresolved(code: LintCode, function: &str, at: &InstRef, message: String) -> Diagnostic {
    Diagnostic {
        code,
        function: function.to_string(),
        block: at.block.clone(),
        inst_index: at.index,
        inst: "<obligation>".to_string(),
        message,
    }
}

/// Validate `ledger` against `module` and re-prove guard coverage.
///
/// Every error-severity finding (KA001/KA002 from the coverage replay,
/// KA006/KA007/KA008 from the obligation audit) makes the module
/// unsignable and unloadable in static-verification mode. With an empty
/// ledger this is equivalent to [`crate::verify_guard_coverage`].
pub fn validate_module(module: &Module, ledger: &ObligationLedger) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    // Accesses proven by a *validated* range obligation, per function.
    let mut exempt: HashMap<String, HashSet<InstId>> = HashMap::new();

    for ob in &ledger.obligations {
        report.bump("obligations_checked", 1);
        match ob {
            Obligation::Elide {
                function,
                guard,
                access,
                size,
                flags,
            } => {
                if check_elide(module, function, guard, access, *size, *flags, &mut report) {
                    report.bump("obligations_elide_ok", 1);
                }
            }
            Obligation::Range {
                function,
                guard,
                header,
                stride,
                flags,
                accesses,
            } => {
                if let Some(proven) = check_range(
                    module,
                    function,
                    guard,
                    header,
                    *stride,
                    *flags,
                    accesses,
                    &mut report,
                ) {
                    report.bump("obligations_range_ok", 1);
                    exempt.entry(function.clone()).or_default().extend(proven);
                }
            }
        }
    }

    for f in &module.functions {
        let ex = exempt.remove(&f.name).unwrap_or_default();
        verify_function_with_exemptions(f, &mut report, &ex);
    }
    report.bump("functions_analyzed", module.functions.len() as u64);
    report
}

/// Audit one elide obligation. Pushes KA006/KA008 and returns false on
/// any failure.
#[allow(clippy::too_many_arguments)]
fn check_elide(
    module: &Module,
    function: &str,
    guard: &InstRef,
    access: &InstRef,
    size: u64,
    flags: u64,
    report: &mut AnalysisReport,
) -> bool {
    let code = LintCode::ObligationUnfounded;
    let Some(f) = module.function(function) else {
        report.push(unresolved(
            code,
            function,
            guard,
            format!("elide obligation names unknown function @{function}"),
        ));
        return false;
    };
    let Some((gb, gidx, giid)) = resolve(f, guard) else {
        report.push(unresolved(
            code,
            function,
            guard,
            format!("claimed dominating guard {guard} does not exist"),
        ));
        return false;
    };
    let Some(gfact) = guard_fact(f, giid) else {
        report.push(diag(
            f,
            gb,
            gidx,
            giid,
            code,
            format!("claimed dominating guard {guard} is not a constant guard call"),
        ));
        return false;
    };
    let Some((ab, aidx, aiid)) = resolve(f, access) else {
        report.push(unresolved(
            code,
            function,
            access,
            format!("elide obligation names missing access {access}"),
        ));
        return false;
    };
    let Some((aptr, asz, afl)) = access_key(f, aiid) else {
        report.push(diag(
            f,
            ab,
            aidx,
            aiid,
            code,
            format!("elide obligation target {access} is not a load or store"),
        ));
        return false;
    };
    // The removed guard's claim must cover the access it protected…
    if size < asz || (flags & afl) != afl {
        report.push(diag(
            f,
            ab,
            aidx,
            aiid,
            code,
            format!(
                "elided guard claim (size {size} flags {flags}) does not cover the \
                 access (size {asz} flags {afl})"
            ),
        ));
        return false;
    }
    // …and the surviving guard must cover the full claim on that pointer.
    if !gfact.covers(&aptr, size, flags) {
        report.push(diag(
            f,
            gb,
            gidx,
            giid,
            code,
            format!(
                "surviving guard (size {} flags {}) does not cover the elided claim \
                 (size {size} flags {flags}) on this pointer",
                gfact.size, gfact.flags
            ),
        ));
        return false;
    }
    // Independent dominance check — the optimizer's source-agreement
    // argument is not trusted; recompute from the CFG.
    let dom = DomTree::compute(f);
    let dominates = if gb == ab {
        gidx < aidx
    } else {
        dom.is_reachable(gb) && dom.is_reachable(ab) && dom.dominates(gb, ab)
    };
    if !dominates {
        report.push(diag(
            f,
            gb,
            gidx,
            giid,
            LintCode::ObligationDominance,
            format!("claimed dominating guard {guard} does not dominate access {access}"),
        ));
        return false;
    }
    true
}

/// One grant a promotion baked into a guard op, with what it was baked
/// from. Kernel-internal: the kernel builds these when it promotes and
/// audits them with [`audit_baked_bounds`] before it installs the tier;
/// they are no [`Obligation`] and no signed container carries them.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BakedBound {
    /// Enclosing function name.
    pub function: String,
    /// The guard call the grant was baked into.
    pub guard: InstRef,
    /// The baked grant: its region and the generation it cites.
    pub grant: Grant,
    /// Lowest address the site was profiled touching.
    pub env_lo: u64,
    /// One past the highest profiled byte.
    pub env_hi: u64,
}

/// Audit `bounds` against the snapshot the promotion pinned: its
/// generation `gen` and its `regions` in store order. Each bound is a
/// claim, never a fact. The audit reads the guard call's constant flags
/// from the IR, scans `regions` for the first that covers the site's
/// profiled envelope and grants those flags — the rule the bake follows,
/// found here by a scan of its own — and requires the baked region to
/// equal it. Reports KA006 (no guard call with constant flags there),
/// KA009 (a vacuous or forged region), KA010 (a grant citing another
/// generation) or KA011 (a real region, but not the one that grants this
/// site). Guard coverage is not re-proved: insmod did that.
pub fn audit_baked_bounds(
    module: &Module,
    bounds: &[BakedBound],
    gen: u64,
    regions: &[Region],
) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    for b in bounds {
        report.bump("bounds_checked", 1);
        if let Err((code, message)) = check_bound(module, b, gen, regions) {
            report.push(unresolved(code, &b.function, &b.guard, message));
        } else {
            report.bump("bounds_ok", 1);
        }
    }
    report
}

fn check_bound(
    module: &Module,
    b: &BakedBound,
    gen: u64,
    regions: &[Region],
) -> Result<(), (LintCode, String)> {
    let (function, guard) = (&b.function, &b.guard);
    let (baked, env_lo, env_hi) = (b.grant.region, b.env_lo, b.env_hi);
    let flags = module.function(function).and_then(|f| {
        let (_, _, giid) = resolve(f, guard)?;
        match f.inst(giid) {
            Inst::Call { callee, args, .. } if callee == GUARD_SYMBOL && args.len() == 3 => {
                match args[2] {
                    Value::ConstInt(_, fl) => Some(AccessFlags::from_raw(fl as u32)),
                    _ => None,
                }
            }
            _ => None,
        }
    });
    let Some(flags) = flags else {
        return Err((
            LintCode::ObligationUnfounded,
            format!("baked guard {guard} in @{function} is not a guard call with constant flags"),
        ));
    };
    if baked.is_empty() || baked.prot == Protection::NONE {
        return Err((
            LintCode::InlineBoundForged,
            format!("baked region {baked:?} is vacuous"),
        ));
    }
    if env_lo >= env_hi || !baked.covers(VAddr(env_lo), Size(env_hi - env_lo)) {
        return Err((
            LintCode::InlineBoundSiteMismatch,
            format!(
                "baked region {baked:?} does not cover the site's profiled \
                 envelope [{env_lo:#x}, {env_hi:#x})"
            ),
        ));
    }
    if b.grant.gen != gen {
        return Err((
            LintCode::InlineBoundStale,
            format!(
                "baked grant cites generation {}, the pinned snapshot is generation {gen}",
                b.grant.gen
            ),
        ));
    }
    let same_span = |r: &Region| (r.base, r.len) == (baked.base, baked.len);
    let granting = regions
        .iter()
        .find(|r| r.permits(VAddr(env_lo), Size(env_hi - env_lo), flags));
    match granting {
        Some(r) if *r == baked => Ok(()),
        Some(r) if same_span(r) => Err((
            LintCode::InlineBoundForged,
            format!(
                "baked protection {} is not the {} the granting region holds",
                baked.prot, r.prot
            ),
        )),
        // A region of the snapshot with exactly this span means the
        // grant was lifted from a region that does not grant this site;
        // otherwise it matches nothing the snapshot holds.
        _ if regions.iter().any(same_span) => Err((
            LintCode::InlineBoundSiteMismatch,
            format!(
                "baked region {baked:?} is a generation-{gen} region that does not grant \
                 this site's flags {} over its envelope",
                flags.raw()
            ),
        )),
        _ => Err((
            LintCode::InlineBoundForged,
            format!("baked region {baked:?} equals no region of generation {gen}"),
        )),
    }
}

/// Audit one range obligation. Pushes KA007 and returns `None` on any
/// failure; on success returns the access instructions the validated
/// range covers.
#[allow(clippy::too_many_arguments)]
fn check_range(
    module: &Module,
    function: &str,
    guard: &InstRef,
    header: &str,
    stride: u64,
    flags: u64,
    accesses: &[InstRef],
    report: &mut AnalysisReport,
) -> Option<Vec<InstId>> {
    let code = LintCode::RangeUnproven;
    let fail = |report: &mut AnalysisReport, msg: String| {
        report.push(unresolved(code, function, guard, msg));
    };
    let Some(f) = module.function(function) else {
        fail(
            report,
            format!("range obligation names unknown function @{function}"),
        );
        return None;
    };
    if stride == 0 {
        fail(report, "range obligation claims a zero stride".to_string());
        return None;
    }
    let Some((gb, gidx, giid)) = resolve(f, guard) else {
        fail(
            report,
            format!("claimed range guard {guard} does not exist"),
        );
        return None;
    };
    let Inst::Call { callee, args, .. } = f.inst(giid) else {
        fail(report, format!("claimed range guard {guard} is not a call"));
        return None;
    };
    if callee != GUARD_SYMBOL || args.len() != 3 {
        fail(
            report,
            format!("claimed range guard {guard} is not a guard call"),
        );
        return None;
    }
    let base = args[0].clone();
    let size_v = args[1].clone();
    let Value::ConstInt(_, gflags) = args[2] else {
        fail(report, "range guard flags are not a constant".to_string());
        return None;
    };
    if (gflags & flags) != flags {
        fail(
            report,
            format!("range guard grants flags {gflags}, obligation claims {flags}"),
        );
        return None;
    }

    // Re-derive the loop from scratch with the shared recognizer.
    let Some(hbid) = f.block_by_name(header) else {
        fail(
            report,
            format!("range obligation names unknown header block %{header}"),
        );
        return None;
    };
    let dom = DomTree::compute(f);
    let loops = find_counted_loops(f, &dom);
    let Some(l) = loops.into_iter().find(|l| l.header == hbid) else {
        fail(
            report,
            format!("block %{header} does not head a recognizable counted loop"),
        );
        return None;
    };
    if gb != l.preheader {
        fail(
            report,
            format!("range guard {guard} is not in the loop preheader"),
        );
        return None;
    }
    // The guarded byte count must be literally `trip_count · stride`,
    // computed in the preheader before the guard.
    let Value::Inst(len) = size_v else {
        fail(
            report,
            "range guard byte count is not a computed value".to_string(),
        );
        return None;
    };
    let len_ok = match f.inst(len) {
        Inst::Bin {
            op: BinOp::Mul,
            ty: Type::I64,
            lhs,
            rhs,
        } => {
            (*lhs == l.bound && *rhs == Value::ConstInt(Type::I64, stride))
                || (*rhs == l.bound && *lhs == Value::ConstInt(Type::I64, stride))
        }
        _ => false,
    } && f.block(gb).insts[..gidx].contains(&len);
    if !len_ok {
        fail(
            report,
            format!(
                "range guard byte count is not `mul i64 trip_count, {stride}` \
                 computed in the preheader"
            ),
        );
        return None;
    }
    if l.varies(f, &base) {
        fail(
            report,
            "range guard base pointer varies within the loop".to_string(),
        );
        return None;
    }

    // Every claimed access must be a bounded per-iteration element access.
    let mut proven = Vec::with_capacity(accesses.len());
    for aref in accesses {
        let Some((ab, aidx, aiid)) = resolve(f, aref) else {
            fail(
                report,
                format!("range obligation names missing access {aref}"),
            );
            return None;
        };
        let Some((aptr, asz, afl)) = access_key(f, aiid) else {
            report.push(diag(
                f,
                ab,
                aidx,
                aiid,
                code,
                format!("range obligation target {aref} is not a load or store"),
            ));
            return None;
        };
        if !l.iv_bounded_in(ab) {
            report.push(diag(
                f,
                ab,
                aidx,
                aiid,
                code,
                format!("access {aref} is outside the bound-checked loop body"),
            ));
            return None;
        }
        let elem_ok = match &aptr {
            Value::Inst(g) => match f.inst(*g) {
                Inst::Gep {
                    base_ty,
                    ptr: gbase,
                    indices,
                } => {
                    *gbase == base
                        && indices.len() == 1
                        && indices[0] == Value::Inst(l.iv)
                        && base_ty.size_of() == stride
                }
                _ => false,
            },
            _ => false,
        };
        if !elem_ok {
            report.push(diag(
                f,
                ab,
                aidx,
                aiid,
                code,
                format!(
                    "access {aref} is not a stride-{stride} element access off the \
                     range base"
                ),
            ));
            return None;
        }
        if asz > stride || (flags & afl) != afl {
            report.push(diag(
                f,
                ab,
                aidx,
                aiid,
                code,
                format!(
                    "access (size {asz} flags {afl}) exceeds one range step \
                     (stride {stride} flags {flags})"
                ),
            ));
            return None;
        }
        proven.push(aiid);
    }
    Some(proven)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kop_ir::parse_module;

    /// The shape `RangeCoalescing` emits: per-iteration guards replaced
    /// by one `[buf, buf + n·8)` range guard in the preheader.
    const COALESCED: &str = r#"
module "opt"
declare void @carat_guard(ptr, i64, i32)
define i64 @sum(ptr %buf, i64 %n) {
entry:
  %rg.len = mul i64 %n, 8
  call void @carat_guard(ptr %buf, i64 %rg.len, i32 1)
  br %head
head:
  %i = phi i64 [ 0, %entry ], [ %i.next, %body ]
  %c = icmp ult i64 %i, %n
  condbr i1 %c, %body, %exit
body:
  %p = gep i64, ptr %buf, i64 %i
  %v = load i64, ptr %p
  %i.next = add i64 %i, 1
  br %head
exit:
  ret i64 0
}
"#;

    fn range_ledger(stride: u64) -> ObligationLedger {
        ObligationLedger {
            obligations: vec![Obligation::Range {
                function: "sum".into(),
                guard: InstRef::parse("entry#1").unwrap(),
                header: "head".into(),
                stride,
                flags: 1,
                accesses: vec![InstRef::parse("body#1").unwrap()],
            }],
        }
    }

    #[test]
    fn ledger_text_round_trips() {
        let ledger = ObligationLedger {
            obligations: vec![
                Obligation::Elide {
                    function: "tx".into(),
                    guard: InstRef::parse("entry#0").unwrap(),
                    access: InstRef::parse("entry#4").unwrap(),
                    size: 8,
                    flags: 2,
                },
                range_ledger(8).obligations[0].clone(),
            ],
        };
        let text = ledger.to_text();
        assert!(text.starts_with(ObligationLedger::HEADER));
        let back = ObligationLedger::parse(&text).unwrap();
        assert_eq!(back, ledger);
    }

    #[test]
    fn empty_ledger_round_trips_as_empty_string() {
        let ledger = ObligationLedger::empty();
        assert_eq!(ledger.to_text(), "");
        assert_eq!(ObligationLedger::parse("").unwrap(), ledger);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ObligationLedger::parse("obligations-v9\n").is_err());
        assert!(ObligationLedger::parse("obligations-v2\n").is_err());
        assert!(ObligationLedger::parse("obligations-v1\nfrob a=1\n").is_err());
        assert!(ObligationLedger::parse("obligations-v1\nelide fn=f\n").is_err());
        assert!(
            ObligationLedger::parse("obligations-v1\nelide fn=f guard=x access=y size=8 flags=1\n")
                .is_err(),
            "refs must be block#index"
        );
    }

    #[test]
    fn validated_range_obligation_proves_the_loop_body() {
        let m = parse_module(COALESCED).unwrap();
        // Without the ledger the loop load is unguarded…
        let bare = validate_module(&m, &ObligationLedger::empty());
        assert_eq!(bare.with_code(LintCode::UnguardedAccess).count(), 1);
        // …with it, the validator independently re-derives coverage.
        let r = validate_module(&m, &range_ledger(8));
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.stat("obligations_range_ok"), 1);
        assert_eq!(r.stat("accesses_proven_by_range"), 1);
    }

    #[test]
    fn forged_stride_is_rejected_with_ka007() {
        let m = parse_module(COALESCED).unwrap();
        let r = validate_module(&m, &range_ledger(16));
        assert!(!r.is_clean());
        assert!(r.with_code(LintCode::RangeUnproven).count() >= 1, "{r}");
    }

    #[test]
    fn range_guard_outside_preheader_is_rejected() {
        // Move the claimed guard ref to the loop body: KA007.
        let m = parse_module(COALESCED).unwrap();
        let mut ledger = range_ledger(8);
        let Obligation::Range { guard, .. } = &mut ledger.obligations[0] else {
            unreachable!()
        };
        *guard = InstRef::parse("body#0").unwrap();
        let r = validate_module(&m, &ledger);
        assert!(r.with_code(LintCode::RangeUnproven).count() >= 1, "{r}");
    }

    #[test]
    fn dangling_elide_guard_is_rejected_with_ka006() {
        let m = parse_module(COALESCED).unwrap();
        let ledger = ObligationLedger {
            obligations: vec![Obligation::Elide {
                function: "sum".into(),
                guard: InstRef::parse("entry#9").unwrap(),
                access: InstRef::parse("body#1").unwrap(),
                size: 8,
                flags: 1,
            }],
        };
        let r = validate_module(&m, &ledger);
        assert!(
            r.with_code(LintCode::ObligationUnfounded).count() >= 1,
            "{r}"
        );
    }

    #[test]
    fn valid_elide_obligation_is_accepted() {
        let src = r#"
module "el"
declare void @carat_guard(ptr, i64, i32)
define i64 @f(ptr %p) {
entry:
  call void @carat_guard(ptr %p, i64 8, i32 3)
  %v = load i64, ptr %p
  store i64 %v, ptr %p
  ret i64 %v
}
"#;
        let m = parse_module(src).unwrap();
        let ledger = ObligationLedger {
            obligations: vec![Obligation::Elide {
                function: "f".into(),
                guard: InstRef::parse("entry#0").unwrap(),
                access: InstRef::parse("entry#2").unwrap(),
                size: 8,
                flags: 2,
            }],
        };
        let r = validate_module(&m, &ledger);
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.stat("obligations_elide_ok"), 1);
    }

    #[test]
    fn non_dominating_elide_guard_is_rejected_with_ka008() {
        // The guard lives on one branch only; the access is at the join.
        // Its fact covers the claim, but dominance fails — and the
        // coverage replay independently reports the unguarded access.
        let src = r#"
module "dom"
declare void @carat_guard(ptr, i64, i32)
define i64 @f(ptr %p, i1 %c) {
entry:
  condbr i1 %c, %a, %join
a:
  call void @carat_guard(ptr %p, i64 8, i32 1)
  br %join
join:
  %v = load i64, ptr %p
  ret i64 %v
}
"#;
        let m = parse_module(src).unwrap();
        let ledger = ObligationLedger {
            obligations: vec![Obligation::Elide {
                function: "f".into(),
                guard: InstRef::parse("a#0").unwrap(),
                access: InstRef::parse("join#0").unwrap(),
                size: 8,
                flags: 1,
            }],
        };
        let r = validate_module(&m, &ledger);
        assert_eq!(r.with_code(LintCode::ObligationDominance).count(), 1, "{r}");
    }

    #[test]
    fn same_block_order_counts_as_dominance() {
        let src = r#"
module "sb"
declare void @carat_guard(ptr, i64, i32)
define i64 @f(ptr %p) {
entry:
  %v0 = load i64, ptr %p
  call void @carat_guard(ptr %p, i64 8, i32 1)
  ret i64 0
}
"#;
        // Guard placed *after* the access: same-block index order fails.
        let m = parse_module(src).unwrap();
        let ledger = ObligationLedger {
            obligations: vec![Obligation::Elide {
                function: "f".into(),
                guard: InstRef::parse("entry#1").unwrap(),
                access: InstRef::parse("entry#0").unwrap(),
                size: 8,
                flags: 1,
            }],
        };
        let r = validate_module(&m, &ledger);
        assert_eq!(r.with_code(LintCode::ObligationDominance).count(), 1, "{r}");
    }

    /// A fully-guarded function: a read-write guard at `entry#0` and a
    /// guard with computed flags at `entry#2`.
    const GUARDED: &str = r#"
module "inl"
declare void @carat_guard(ptr, i64, i32)
define i64 @f(ptr %p, i32 %fl) {
entry:
  call void @carat_guard(ptr %p, i64 8, i32 3)
  %v = load i64, ptr %p
  call void @carat_guard(ptr %p, i64 8, i32 %fl)
  ret i64 %v
}
"#;

    /// The grant of `[lo, hi)` with permission bits `perm` at `gen`.
    fn grant(lo: u64, hi: u64, perm: u32, gen: u64) -> Grant {
        let prot = Protection::new(AccessFlags::from_raw(perm));
        let region = Region::new(VAddr(lo), Size(hi - lo), prot).unwrap();
        Grant { region, gen }
    }

    /// The honest bound for `entry#0` under [`snapshot`] at generation 5.
    fn baked() -> BakedBound {
        BakedBound {
            function: "f".into(),
            guard: InstRef::parse("entry#0").unwrap(),
            grant: grant(0x1000, 0x2000, 3, 5),
            env_lo: 0x1100,
            env_hi: 0x1200,
        }
    }

    /// A snapshot whose first rule over `[0x1000, 0x2000)` grants only
    /// READ, behind the read-write rule the bake must pick, plus an
    /// unrelated read-write region at `[0x8000, 0x8100)`.
    fn snapshot() -> Vec<Region> {
        [
            (0x1000, 0x1000, Protection::READ_ONLY),
            (0x1000, 0x1000, Protection::READ_WRITE),
            (0x8000, 0x100, Protection::READ_WRITE),
        ]
        .map(|(base, len, prot)| Region::new(VAddr(base), Size(len), prot).unwrap())
        .to_vec()
    }

    /// The one finding of auditing `b` against [`snapshot`] at gen 5.
    fn audit_one(b: BakedBound) -> Option<LintCode> {
        let m = parse_module(GUARDED).unwrap();
        let r = audit_baked_bounds(&m, &[b], 5, &snapshot());
        let codes: Vec<LintCode> = r.errors().map(|d| d.code).collect();
        assert!(codes.len() <= 1, "{r}");
        codes.first().copied()
    }

    #[test]
    fn honest_baked_bound_passes_the_audit() {
        let m = parse_module(GUARDED).unwrap();
        let r = audit_baked_bounds(&m, &[baked()], 5, &snapshot());
        assert!(r.is_clean(), "{r}");
        assert_eq!((r.stat("bounds_checked"), r.stat("bounds_ok")), (1, 1));
    }

    #[test]
    fn forged_baked_bounds_are_ka009() {
        for (lo, hi, perm) in [
            (0x1000, 0x2008, 3),
            (0x0ff8, 0x2000, 3),
            (0x1000, 0x2000, 7),
        ] {
            let b = BakedBound {
                grant: grant(lo, hi, perm, 5),
                ..baked()
            };
            assert_eq!(
                audit_one(b),
                Some(LintCode::InlineBoundForged),
                "{lo:#x} {perm}"
            );
        }
        let vacuous = BakedBound {
            grant: grant(0x1000, 0x2000, 0, 5),
            ..baked()
        };
        assert_eq!(audit_one(vacuous), Some(LintCode::InlineBoundForged));
    }

    #[test]
    fn a_bound_citing_another_generation_is_ka010() {
        let b = BakedBound {
            grant: grant(0x1000, 0x2000, 3, 4),
            ..baked()
        };
        assert_eq!(audit_one(b), Some(LintCode::InlineBoundStale));
    }

    #[test]
    fn a_region_that_does_not_grant_the_site_is_ka011() {
        // The unrelated region's bound pasted onto this site.
        let b = BakedBound {
            grant: grant(0x8000, 0x8100, 3, 5),
            ..baked()
        };
        assert_eq!(audit_one(b), Some(LintCode::InlineBoundSiteMismatch));
        // The first covering rule, which grants READ to a read-write guard.
        let b = BakedBound {
            grant: grant(0x1000, 0x2000, 1, 5),
            ..baked()
        };
        assert_eq!(audit_one(b), Some(LintCode::InlineBoundForged));
    }

    #[test]
    fn a_bound_needs_a_guard_call_with_constant_flags() {
        for at in ["entry#1", "entry#2", "entry#9"] {
            let b = BakedBound {
                guard: InstRef::parse(at).unwrap(),
                ..baked()
            };
            assert_eq!(audit_one(b), Some(LintCode::ObligationUnfounded), "{at}");
        }
    }

    #[test]
    fn ledger_errors_name_their_line() {
        let err = |text: &str| ObligationLedger::parse(text).unwrap_err();
        assert_eq!(
            err("\nobligations-v2\n"),
            LedgerError {
                line: 2,
                code: LedgerCode::Header
            }
        );
        let inline = "obligations-v1\n\ninline fn=f guard=entry#0 lo=0 hi=8 flags=3 gen=1";
        assert_eq!(
            err(inline),
            LedgerError {
                line: 3,
                code: LedgerCode::UnknownKind
            }
        );
        let e = err("obligations-v1\nelide fn=f guard=x access=entry#1 size=8 flags=1");
        assert_eq!(
            e,
            LedgerError {
                line: 2,
                code: LedgerCode::NotARef("guard")
            }
        );
        assert_eq!(
            e.to_string(),
            "ledger line 2: field \"guard\" is not a block#index reference"
        );
        let e = err("obligations-v1\nrange fn=f guard=a#0 header=h stride=x flags=1 accesses=");
        assert_eq!(e.code, LedgerCode::NotANumber("stride"));
        assert_eq!(err("obligations-v1\nelide fn").code, LedgerCode::Token);
        assert_eq!(
            err("obligations-v1\nelide fn=f fn=g").code,
            LedgerCode::DuplicateField
        );
        assert_eq!(
            err("obligations-v1\nelide fn=f").code,
            LedgerCode::MissingField("guard")
        );
    }

    #[test]
    fn oversized_range_access_is_rejected() {
        let m = parse_module(COALESCED).unwrap();
        let mut ledger = range_ledger(8);
        let Obligation::Range { flags, .. } = &mut ledger.obligations[0] else {
            unreachable!()
        };
        // Claim write coverage the guard (flags=1) does not grant.
        *flags = 3;
        let r = validate_module(&m, &ledger);
        assert!(r.with_code(LintCode::RangeUnproven).count() >= 1, "{r}");
    }
}
