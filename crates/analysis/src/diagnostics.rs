//! Structured diagnostics with stable lint codes.
//!
//! Every analysis in this crate reports findings as [`Diagnostic`]s
//! carrying a stable [`LintCode`] plus a precise location
//! (function, block, instruction). The loader and the compiler driver
//! decide what to do from the [`Severity`], never from message text.

use core::fmt;

/// Stable lint codes. The numeric part never changes meaning across
/// releases; tools may match on it. A retired code is never reused:
/// KA005 (a constant-address access outside a supplied policy snapshot)
/// had no caller that supplied one and is retired.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LintCode {
    /// KA001: a load/store not covered by a dominating guard on all paths.
    UnguardedAccess,
    /// KA002: a guard exists for the pointer but its size or access flags
    /// do not cover the access.
    GuardMismatch,
    /// KA003: a memory access through an `inttoptr`-laundered pointer.
    LaunderedPointer,
    /// KA004: a guard that provably covers no reachable access.
    DeadGuard,
    /// KA006: an optimizer obligation references a guard or access that
    /// does not exist in the module (or no longer has the claimed shape).
    ObligationUnfounded,
    /// KA007: a range obligation whose hoisted guard cannot be re-derived
    /// from the loop's induction structure (wrong stride, trip count,
    /// base, or access shape).
    RangeUnproven,
    /// KA008: an obligation claims a dominating guard that does not in
    /// fact dominate the access it is said to cover.
    ObligationDominance,
    /// KA009: a baked guard bound is vacuous, or its `[lo, hi)` and
    /// permission bits are not those of the region that grants the site
    /// in the pinned snapshot — a forged immediate.
    InlineBoundForged,
    /// KA010: a baked guard bound cites a generation other than that of
    /// the snapshot the promotion pinned.
    InlineBoundStale,
    /// KA011: a baked guard bound does not cover the site's profiled
    /// envelope, or is a real region's bound but not the region that
    /// grants the site (bound for the wrong site).
    InlineBoundSiteMismatch,
}

impl LintCode {
    /// The stable textual code, e.g. `"KA001"`.
    pub fn code(self) -> &'static str {
        match self {
            LintCode::UnguardedAccess => "KA001",
            LintCode::GuardMismatch => "KA002",
            LintCode::LaunderedPointer => "KA003",
            LintCode::DeadGuard => "KA004",
            LintCode::ObligationUnfounded => "KA006",
            LintCode::RangeUnproven => "KA007",
            LintCode::ObligationDominance => "KA008",
            LintCode::InlineBoundForged => "KA009",
            LintCode::InlineBoundStale => "KA010",
            LintCode::InlineBoundSiteMismatch => "KA011",
        }
    }

    /// Default severity of this lint.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::UnguardedAccess
            | LintCode::GuardMismatch
            | LintCode::ObligationUnfounded
            | LintCode::RangeUnproven
            | LintCode::ObligationDominance
            | LintCode::InlineBoundForged
            | LintCode::InlineBoundStale
            | LintCode::InlineBoundSiteMismatch => Severity::Error,
            LintCode::LaunderedPointer | LintCode::DeadGuard => Severity::Warning,
        }
    }

    /// One-line description of the lint class.
    pub fn title(self) -> &'static str {
        match self {
            LintCode::UnguardedAccess => "unguarded memory access",
            LintCode::GuardMismatch => "guard does not cover access",
            LintCode::LaunderedPointer => "inttoptr-laundered pointer access",
            LintCode::DeadGuard => "guard covers no access",
            LintCode::ObligationUnfounded => "obligation references missing guard or access",
            LintCode::RangeUnproven => "range obligation not derivable from loop structure",
            LintCode::ObligationDominance => "claimed dominating guard does not dominate",
            LintCode::InlineBoundForged => "baked guard bound is not the granting region's",
            LintCode::InlineBoundStale => "baked guard bound cites another generation",
            LintCode::InlineBoundSiteMismatch => "inlined guard bound belongs to another site",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// How bad a finding is. Errors make a module unsignable/unloadable in
/// static-verification mode; warnings are advisory.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Advisory; does not fail verification.
    Warning,
    /// Fails verification.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// A single analysis finding, anchored to an instruction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// The lint that fired.
    pub code: LintCode,
    /// Enclosing function name (without `@`).
    pub function: String,
    /// Enclosing block label.
    pub block: String,
    /// Index of the instruction within the block's instruction list.
    pub inst_index: usize,
    /// SSA result name of the instruction (`%name`), or a rendered stub
    /// for unnamed instructions (e.g. `store #3`).
    pub inst: String,
    /// Human-readable detail.
    pub message: String,
}

impl Diagnostic {
    /// Severity, derived from the lint code.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// `@function/block#index` location string.
    pub fn location(&self) -> String {
        format!("@{}/{}#{}", self.function, self.block, self.inst_index)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} ({}): {}",
            self.code,
            self.severity(),
            self.location(),
            self.inst,
            self.message
        )
    }
}

/// The merged result of running analyses over a module.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AnalysisReport {
    /// All findings, in analysis order.
    pub diagnostics: Vec<Diagnostic>,
    /// Counters the analyses expose (accesses checked, facts proven, …).
    pub stats: std::collections::BTreeMap<&'static str, u64>,
}

impl AnalysisReport {
    /// An empty report.
    pub fn new() -> AnalysisReport {
        AnalysisReport::default()
    }

    /// Record a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Add `n` to a named counter.
    pub fn bump(&mut self, key: &'static str, n: u64) {
        *self.stats.entry(key).or_insert(0) += n;
    }

    /// Read a counter (0 when absent).
    pub fn stat(&self, key: &str) -> u64 {
        self.stats.get(key).copied().unwrap_or(0)
    }

    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    /// Warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
    }

    /// True when no error-severity finding exists. Warnings (dead guards,
    /// laundered pointers) do not make a module unverifiable.
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Findings with a given code.
    pub fn with_code(&self, code: LintCode) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Fold another report into this one (diagnostics append, counters add).
    pub fn merge(&mut self, other: AnalysisReport) {
        self.diagnostics.extend(other.diagnostics);
        for (k, v) in other.stats {
            *self.stats.entry(k).or_insert(0) += v;
        }
    }

    /// A compact multi-line rendering: one line per finding plus a verdict.
    pub fn summary(&self) -> String {
        use core::fmt::Write;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        let _ = write!(
            out,
            "verdict: {} ({errors} errors, {warnings} warnings)",
            if self.is_clean() { "clean" } else { "rejected" }
        );
        out
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(code: LintCode) -> Diagnostic {
        Diagnostic {
            code,
            function: "tx".into(),
            block: "entry".into(),
            inst_index: 3,
            inst: "%count".into(),
            message: "test".into(),
        }
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(LintCode::UnguardedAccess.code(), "KA001");
        assert_eq!(LintCode::GuardMismatch.code(), "KA002");
        assert_eq!(LintCode::LaunderedPointer.code(), "KA003");
        assert_eq!(LintCode::DeadGuard.code(), "KA004");
        assert_eq!(LintCode::ObligationUnfounded.code(), "KA006");
        assert_eq!(LintCode::RangeUnproven.code(), "KA007");
        assert_eq!(LintCode::ObligationDominance.code(), "KA008");
        assert_eq!(LintCode::InlineBoundForged.code(), "KA009");
        assert_eq!(LintCode::InlineBoundStale.code(), "KA010");
        assert_eq!(LintCode::InlineBoundSiteMismatch.code(), "KA011");
    }

    #[test]
    fn severity_split() {
        assert_eq!(LintCode::UnguardedAccess.severity(), Severity::Error);
        assert_eq!(LintCode::GuardMismatch.severity(), Severity::Error);
        assert_eq!(LintCode::ObligationUnfounded.severity(), Severity::Error);
        assert_eq!(LintCode::RangeUnproven.severity(), Severity::Error);
        assert_eq!(LintCode::ObligationDominance.severity(), Severity::Error);
        assert_eq!(LintCode::InlineBoundForged.severity(), Severity::Error);
        assert_eq!(LintCode::InlineBoundStale.severity(), Severity::Error);
        assert_eq!(
            LintCode::InlineBoundSiteMismatch.severity(),
            Severity::Error
        );
        assert_eq!(LintCode::LaunderedPointer.severity(), Severity::Warning);
        assert_eq!(LintCode::DeadGuard.severity(), Severity::Warning);
    }

    #[test]
    fn display_names_the_instruction() {
        let d = sample(LintCode::UnguardedAccess);
        let s = d.to_string();
        assert!(s.contains("KA001"), "{s}");
        assert!(s.contains("@tx/entry#3"), "{s}");
        assert!(s.contains("%count"), "{s}");
    }

    #[test]
    fn report_cleanliness_ignores_warnings() {
        let mut r = AnalysisReport::new();
        r.push(sample(LintCode::DeadGuard));
        assert!(r.is_clean());
        r.push(sample(LintCode::UnguardedAccess));
        assert!(!r.is_clean());
        assert_eq!(r.errors().count(), 1);
        assert_eq!(r.warnings().count(), 1);
        assert!(r.summary().contains("rejected"));
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = AnalysisReport::new();
        a.bump("accesses_checked", 3);
        let mut b = AnalysisReport::new();
        b.bump("accesses_checked", 2);
        b.push(sample(LintCode::GuardMismatch));
        a.merge(b);
        assert_eq!(a.stat("accesses_checked"), 5);
        assert_eq!(a.diagnostics.len(), 1);
    }
}
