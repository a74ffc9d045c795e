//! Guard statistics — what the policy module reports through the
//! `Stats` ioctl.
//!
//! The cells behind these counters are [`kop_trace::Counter`]s: an add
//! is a relaxed load and store into the calling thread's own stripe (no
//! locked instruction), and the policy can
//! [`GuardStats::register_into`] a tracer's [`kop_trace::CounterRegistry`]
//! so figures and the `/dev/trace` chardev read the *same cells* as the
//! `Stats` ioctl — one registry instead of three bespoke structs.

use core::fmt;

use kop_trace::{Counter, CounterRegistry};

/// Counters maintained by the policy module across guard invocations.
///
/// Counters are striped per thread so the guard path can update them
/// from concurrent driver contexts without the policy lock and without
/// a locked read-modify-write.
#[derive(Debug)]
pub struct GuardStats {
    checks: Counter,
    permitted: Counter,
    denied_no_match: Counter,
    denied_insufficient: Counter,
    denied_malformed: Counter,
}

impl Default for GuardStats {
    fn default() -> GuardStats {
        GuardStats {
            checks: Counter::new("policy.checks"),
            permitted: Counter::new("policy.permitted"),
            denied_no_match: Counter::new("policy.denied_no_match"),
            denied_insufficient: Counter::new("policy.denied_insufficient"),
            denied_malformed: Counter::new("policy.denied_malformed"),
        }
    }
}

/// A plain snapshot of [`GuardStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GuardStatsSnapshot {
    /// Total guard invocations.
    pub checks: u64,
    /// Accesses permitted.
    pub permitted: u64,
    /// Denied: no region covered the access.
    pub denied_no_match: u64,
    /// Denied: covered but intent not granted.
    pub denied_insufficient: u64,
    /// Denied: malformed guard call (zero size / empty intent).
    pub denied_malformed: u64,
}

impl GuardStats {
    /// Fresh zeroed counters.
    pub fn new() -> GuardStats {
        GuardStats::default()
    }

    /// Share these counter cells with `registry` (idempotent per name;
    /// first registration wins, which keeps live counts intact).
    pub fn register_into(&self, registry: &CounterRegistry) {
        for c in [
            &self.checks,
            &self.permitted,
            &self.denied_no_match,
            &self.denied_insufficient,
            &self.denied_malformed,
        ] {
            registry.register(c);
        }
    }

    /// Record a permitted access.
    #[inline]
    pub fn record_permitted(&self) {
        self.checks.inc();
        self.permitted.inc();
    }

    /// Record `n` permitted accesses in one pair of counter updates — the
    /// flush half of a batching fast path that defers its accounting.
    #[inline]
    pub fn record_permitted_n(&self, n: u64) {
        self.checks.add(n);
        self.permitted.add(n);
    }

    /// Record a denial with no covering region.
    #[inline]
    pub fn record_no_match(&self) {
        self.checks.inc();
        self.denied_no_match.inc();
    }

    /// Record a denial with a covering region lacking the intent.
    #[inline]
    pub fn record_insufficient(&self) {
        self.checks.inc();
        self.denied_insufficient.inc();
    }

    /// Record a malformed guard call.
    #[inline]
    pub fn record_malformed(&self) {
        self.checks.inc();
        self.denied_malformed.inc();
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> GuardStatsSnapshot {
        GuardStatsSnapshot {
            checks: self.checks.get(),
            permitted: self.permitted.get(),
            denied_no_match: self.denied_no_match.get(),
            denied_insufficient: self.denied_insufficient.get(),
            denied_malformed: self.denied_malformed.get(),
        }
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.checks.reset();
        self.permitted.reset();
        self.denied_no_match.reset();
        self.denied_insufficient.reset();
        self.denied_malformed.reset();
    }
}

impl GuardStatsSnapshot {
    /// Total denials.
    pub fn denied(&self) -> u64 {
        self.denied_no_match + self.denied_insufficient + self.denied_malformed
    }
}

impl fmt::Display for GuardStatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "checks={} permitted={} denied={} (no_match={}, insufficient={}, malformed={})",
            self.checks,
            self.permitted,
            self.denied(),
            self.denied_no_match,
            self.denied_insufficient,
            self.denied_malformed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let s = GuardStats::new();
        s.record_permitted();
        s.record_permitted();
        s.record_no_match();
        s.record_insufficient();
        s.record_malformed();
        let snap = s.snapshot();
        assert_eq!(snap.checks, 5);
        assert_eq!(snap.permitted, 2);
        assert_eq!(snap.denied(), 3);
        assert_eq!(snap.denied_no_match, 1);
        assert_eq!(snap.denied_insufficient, 1);
        assert_eq!(snap.denied_malformed, 1);
    }

    #[test]
    fn reset_zeroes() {
        let s = GuardStats::new();
        s.record_permitted();
        s.reset();
        assert_eq!(s.snapshot(), GuardStatsSnapshot::default());
    }

    #[test]
    fn concurrent_updates_dont_lose_counts() {
        use std::sync::Arc;
        let s = Arc::new(GuardStats::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    s.record_permitted();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().permitted, 80_000);
        assert_eq!(s.snapshot().checks, 80_000);
    }

    #[test]
    fn registered_registry_reads_the_live_cells() {
        let reg = CounterRegistry::new();
        let s = GuardStats::new();
        s.register_into(&reg);
        s.record_permitted();
        s.record_no_match();
        assert_eq!(reg.get("policy.checks").unwrap().get(), 2);
        assert_eq!(reg.get("policy.permitted").unwrap().get(), 1);
        assert_eq!(reg.get("policy.denied_no_match").unwrap().get(), 1);
        // The ioctl-side snapshot and the registry agree — same cells.
        assert_eq!(s.snapshot().checks, reg.get("policy.checks").unwrap().get());
    }
}
