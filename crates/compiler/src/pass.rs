//! Pass statistics.
//!
//! Every pass runs module-at-a-time and reports named counters (the
//! paper reports, e.g., how many guards were injected into the e1000e
//! driver); [`crate::compile_module`] calls the passes in a fixed order
//! and merges what they report.

use std::collections::BTreeMap;
use std::fmt;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
