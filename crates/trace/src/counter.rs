//! Named atomic counters and the registry that unifies them.
//!
//! Before kop-trace, every layer kept its own ad-hoc counter struct
//! (`DriverStats`, the policy's `GuardStats`, per-figure locals). A
//! [`Counter`] is a cheaply-cloneable named counter cell; subsystems keep
//! holding their counters directly (same cost as before) and *also*
//! register them into the tracer's [`CounterRegistry`], so figures and
//! examples read one sorted snapshot instead of three structs.
//!
//! ## Striping
//!
//! A counter is not one `AtomicU64` but a small array of cache-line
//! padded stripes; each thread adds to its own stripe and [`Counter::get`]
//! sums them. A single shared cell turns into a cross-core ping-pong line
//! the moment two guard paths hammer it (the multi-queue forwarding
//! figure measured *negative* scaling from one queue to two purely from
//! `policy.checks`/`policy.permitted` contention), while striped adds
//! stay core-local. Totals remain exact: every add lands in exactly one
//! stripe and the sum loses nothing.

use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Stripes per counter. Concurrent threads get consecutive stripe
/// indices, so any ≤16 threads born together never share a line.
const STRIPES: usize = 16;

/// One cache-line padded stripe, so adds from different threads never
/// false-share.
#[repr(align(64))]
struct Stripe(AtomicU64);

/// The stripe this thread adds to.
fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    STRIPE.with(|s| *s)
}

struct CounterInner {
    name: String,
    stripes: [Stripe; STRIPES],
}

/// A named monotonic (resettable) counter. Clones share the same cell.
#[derive(Clone)]
pub struct Counter {
    inner: Arc<CounterInner>,
}

impl Counter {
    /// New counter starting at zero.
    pub fn new(name: impl Into<String>) -> Counter {
        Counter {
            inner: Arc::new(CounterInner {
                name: name.into(),
                stripes: std::array::from_fn(|_| Stripe(AtomicU64::new(0))),
            }),
        }
    }

    /// The counter's registry name (e.g. `"policy.checks"`).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Add `n` (to this thread's stripe).
    #[inline]
    pub fn add(&self, n: u64) {
        self.inner.stripes[stripe()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (sum across stripes).
    #[inline]
    pub fn get(&self) -> u64 {
        self.inner
            .stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Overwrite the value (used by reset paths; not atomic with respect
    /// to concurrent adds — reset only quiesced counters).
    pub fn set(&self, v: u64) {
        self.inner.stripes[0].0.store(v, Ordering::Relaxed);
        for s in &self.inner.stripes[1..] {
            s.0.store(0, Ordering::Relaxed);
        }
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.set(0);
    }

    /// True if `other` is a clone of this counter (same cell).
    pub fn same_cell(&self, other: &Counter) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counter({}={})", self.name(), self.get())
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.name(), self.get())
    }
}

/// The one place figures read counters from. Registration is idempotent
/// per name: re-registering a name keeps the first cell (so two layers
/// can race to register without clobbering live counts).
#[derive(Default)]
pub struct CounterRegistry {
    counters: Mutex<Vec<Counter>>,
}

impl CounterRegistry {
    /// Empty registry.
    pub fn new() -> CounterRegistry {
        CounterRegistry::default()
    }

    /// Get the counter named `name`, creating it at zero if absent.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.counters.lock();
        if let Some(c) = counters.iter().find(|c| c.name() == name) {
            return c.clone();
        }
        let c = Counter::new(name);
        counters.push(c.clone());
        c
    }

    /// Register an externally-created counter. Returns `false` (and keeps
    /// the existing cell) if the name is already taken by a different cell.
    pub fn register(&self, counter: &Counter) -> bool {
        let mut counters = self.counters.lock();
        if let Some(existing) = counters.iter().find(|c| c.name() == counter.name()) {
            return existing.same_cell(counter);
        }
        counters.push(counter.clone());
        true
    }

    /// Look up a counter by name without creating it.
    pub fn get(&self, name: &str) -> Option<Counter> {
        self.counters
            .lock()
            .iter()
            .find(|c| c.name() == name)
            .cloned()
    }

    /// All `(name, value)` pairs, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .counters
            .lock()
            .iter()
            .map(|c| (c.name().to_string(), c.get()))
            .collect();
        out.sort();
        out
    }

    /// Number of registered counters.
    pub fn len(&self) -> usize {
        self.counters.lock().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Debug for CounterRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.snapshot()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn striped_adds_sum_exactly_across_threads() {
        let c = Counter::new("striped");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..50_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 400_000);
        c.reset();
        assert_eq!(c.get(), 0);
        c.set(7);
        assert_eq!(c.get(), 7);
    }
}
