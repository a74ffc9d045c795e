//! Pass infrastructure: the [`Pass`] trait and a simple [`PassManager`].
//!
//! Mirrors the structure of an LLVM middle-end pipeline at the scale CARAT
//! KOP needs: passes run module-at-a-time and report statistics (the paper
//! reports, e.g., how many guards were injected into the e1000e driver).

use std::collections::BTreeMap;
use std::fmt;

use kop_ir::Module;

use crate::obligations::ObligationRecorder;

/// Statistics reported by a pass run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PassStats {
    counters: BTreeMap<String, u64>,
}

impl PassStats {
    /// Create empty statistics.
    pub fn new() -> PassStats {
        PassStats::default()
    }

    /// Add `n` to a named counter.
    pub fn bump(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Read a counter (0 if never bumped).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: &PassStats) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Iterate over `(name, value)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }
}

impl fmt::Display for PassStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        Ok(())
    }
}

/// A module transformation (or analysis) pass.
pub trait Pass {
    /// Human-readable pass name.
    fn name(&self) -> &'static str;

    /// Run over the module, mutating it in place, and report statistics.
    fn run(&self, module: &mut Module) -> PassStats;

    /// Like [`Pass::run`], but with an [`ObligationRecorder`] the pass
    /// may use to record machine-checkable justifications for any guard
    /// it removes or coalesces. The default ignores the recorder —
    /// passes that never reduce guards have nothing to justify.
    fn run_with(&self, module: &mut Module, _obligations: &mut ObligationRecorder) -> PassStats {
        self.run(module)
    }
}

/// Runs a sequence of passes, collecting per-pass and aggregate statistics.
#[derive(Default)]
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// An empty pipeline.
    pub fn new() -> PassManager {
        PassManager::default()
    }

    /// Append a pass.
    pub fn add(&mut self, pass: impl Pass + 'static) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Number of registered passes.
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Whether the pipeline is empty.
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// Run the pipeline. Returns `(pass name, stats)` per pass in order.
    pub fn run(&self, module: &mut Module) -> Vec<(&'static str, PassStats)> {
        let mut unused = ObligationRecorder::new();
        self.run_with(module, &mut unused)
    }

    /// Run the pipeline, collecting guard-reduction obligations into
    /// `obligations` (the driver finalizes them into the attestation's
    /// ledger once the pipeline has finished).
    pub fn run_with(
        &self,
        module: &mut Module,
        obligations: &mut ObligationRecorder,
    ) -> Vec<(&'static str, PassStats)> {
        self.passes
            .iter()
            .map(|p| (p.name(), p.run_with(module, obligations)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountLoads;
    impl Pass for CountLoads {
        fn name(&self) -> &'static str {
            "count-loads"
        }
        fn run(&self, module: &mut Module) -> PassStats {
            let mut s = PassStats::new();
            s.bump("mem_accesses", module.memory_access_count() as u64);
            s
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut s = PassStats::new();
        s.bump("x", 2);
        s.bump("x", 3);
        s.bump("y", 1);
        assert_eq!(s.get("x"), 5);
        assert_eq!(s.get("y"), 1);
        assert_eq!(s.get("z"), 0);
        let mut t = PassStats::new();
        t.bump("x", 10);
        s.merge(&t);
        assert_eq!(s.get("x"), 15);
        assert_eq!(s.to_string(), "x=15, y=1");
    }

    #[test]
    fn manager_runs_in_order() {
        let mut pm = PassManager::new();
        pm.add(CountLoads).add(CountLoads);
        assert_eq!(pm.len(), 2);
        let mut m = Module::new("empty");
        let results = pm.run(&mut m);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].0, "count-loads");
        assert_eq!(results[0].1.get("mem_accesses"), 0);
    }
}
