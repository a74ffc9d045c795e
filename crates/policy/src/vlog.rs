//! Bounded violation log — a fixed ring of raw [`Violation`] records.
//!
//! The old log was a `Vec<String>`: every denial paid for formatting and
//! an unbounded (later trimmed) allocation while holding the lock. Under
//! a violation storm that is exactly the wrong cost model. This ring
//! follows the trace-ring overwrite discipline instead: a fixed capacity,
//! oldest entries overwritten first, and a counter of how many entries
//! were dropped. Denials store the raw 4-word `Violation` (it is `Copy`);
//! formatting happens only when someone *reads* the log.

use std::collections::VecDeque;
use std::sync::Mutex as StdMutex;

use kop_core::Violation;
use kop_trace::Counter;

/// A bounded ring of violations with a dropped-entries counter.
pub struct ViolationLog {
    // Std mutex: the ring is touched only on the (cold) denial path and
    // by readers; poisoning is irrelevant for plain data.
    ring: StdMutex<VecDeque<Violation>>,
    cap: usize,
    dropped: Counter,
}

impl ViolationLog {
    /// A ring retaining at most `cap` entries.
    pub fn new(cap: usize) -> ViolationLog {
        ViolationLog {
            ring: StdMutex::new(VecDeque::with_capacity(cap)),
            cap,
            dropped: Counter::new("policy.log_dropped"),
        }
    }

    /// Append a violation, overwriting the oldest entry when full.
    pub fn push(&self, v: Violation) {
        let mut ring = self.ring.lock().expect("violation log lock");
        if ring.len() == self.cap {
            ring.pop_front();
            self.dropped.inc();
        }
        ring.push_back(v);
    }

    /// The retained violations, oldest first.
    pub fn entries(&self) -> Vec<Violation> {
        self.ring
            .lock()
            .expect("violation log lock")
            .iter()
            .copied()
            .collect()
    }

    /// The retained violations rendered to strings (the only place the
    /// log pays for formatting).
    pub fn rendered(&self) -> Vec<String> {
        self.entries().iter().map(|v| v.to_string()).collect()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("violation log lock").len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The live dropped-entries counter cell: how many entries have been
    /// overwritten so far (and what a counter registry registers).
    pub fn dropped_counter(&self) -> &Counter {
        &self.dropped
    }

    /// Clear the ring (does not reset the dropped counter).
    pub fn clear(&self) {
        self.ring.lock().expect("violation log lock").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kop_core::error::ViolationKind;
    use kop_core::{AccessFlags, Size, VAddr};

    fn v(addr: u64) -> Violation {
        Violation::new(
            VAddr(addr),
            Size(8),
            AccessFlags::READ,
            ViolationKind::NoMatchingRegion,
        )
    }

    #[test]
    fn retains_newest_and_counts_drops() {
        let log = ViolationLog::new(4);
        for i in 0..10u64 {
            log.push(v(i));
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.dropped_counter().get(), 6);
        let kept: Vec<u64> = log.entries().iter().map(|v| v.addr.raw()).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn rendering_is_lazy_and_matches_entries() {
        let log = ViolationLog::new(8);
        log.push(v(0x1000));
        let rendered = log.rendered();
        assert_eq!(rendered.len(), 1);
        assert!(rendered[0].contains("no matching policy region"));
    }
}
