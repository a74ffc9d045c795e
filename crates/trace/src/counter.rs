//! Named counters and the registry that unifies them.
//!
//! Before kop-trace, every layer kept its own ad-hoc counter struct
//! (`DriverStats`, the policy's `GuardStats`, per-figure locals). A
//! [`Counter`] is a cheaply-cloneable named counter cell; subsystems keep
//! holding their counters directly (same cost as before) and *also*
//! register them into the tracer's [`CounterRegistry`], so figures and
//! examples read one sorted snapshot instead of three structs.
//!
//! ## Owned stripes
//!
//! A counter is not one `AtomicU64` but an array of cache-line padded
//! stripes, and [`Counter::get`] sums them. A single shared cell turns
//! into a cross-core ping-pong line the moment two guard paths hammer it
//! (the multi-queue forwarding figure measured *negative* scaling from
//! one queue to two purely from `policy.checks`/`policy.permitted`
//! contention), and even an uncontended `fetch_add` is a locked
//! read-modify-write that costs several times the frozen lookup it
//! counts.
//!
//! So each thread claims one of 16 owned stripe indices for its life
//! from a process-wide free list, on its first add to any counter, and a
//! thread-local destructor hands the index back when the thread exits.
//! Stripe `i` of every counter has exactly one writer, the thread that
//! holds index `i`, so that thread adds with a relaxed load and store: no
//! locked instruction, the way per-CPU maps keep in-kernel accounting off
//! shared atomics. Threads beyond the owned stripes, and adds made during
//! thread teardown after the claim was handed back, `fetch_add` into one
//! shared stripe.
//!
//! Totals stay exact. Every add lands in exactly one stripe, and a
//! released index reaches its next owner through the free list's mutex,
//! so the next owner's first load sees the last owner's final store. Once
//! the writers are joined, `get` sees every add. A concurrent `get`
//! sees a value between the counts before and after the adds in flight.
//! [`Counter::set`] overwrites stripes another thread may own, so it is
//! for quiesced counters only.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Stripes a thread can own, one per live thread. Beyond this many live
/// adding threads, the rest share [`SHARED`].
const OWNED: usize = 16;

/// The shared stripe's index: the `fetch_add` fallback.
const SHARED: usize = OWNED;

/// Marks a thread that has not claimed a stripe yet.
const UNCLAIMED: usize = usize::MAX;

/// One cache-line padded stripe, so adds from different threads never
/// false-share.
#[repr(align(64))]
struct Stripe(AtomicU64);

/// The process-wide pool of owned stripe indices.
struct Pool {
    /// Indices below this were handed out at least once.
    next: usize,
    /// Indices released by exited threads, reused before `next`.
    free: Vec<usize>,
}

static POOL: std::sync::Mutex<Pool> = std::sync::Mutex::new(Pool {
    next: 0,
    free: Vec::new(),
});

/// A thread's claim on an owned stripe index; dropping it (at thread
/// exit) returns the index to [`POOL`].
struct Claim(usize);

impl Claim {
    fn acquire() -> Claim {
        let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
        let idx = match pool.free.pop() {
            Some(i) => i,
            None if pool.next < OWNED => {
                pool.next += 1;
                pool.next - 1
            }
            None => SHARED,
        };
        STRIPE.with(|s| s.set(idx));
        Claim(idx)
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        // Later adds on this thread (other thread-locals' destructors)
        // take the shared stripe; only then may another thread own it.
        STRIPE.with(|s| s.set(SHARED));
        if self.0 < OWNED {
            let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
            pool.free.push(self.0);
        }
    }
}

thread_local! {
    /// This thread's stripe: an owned index, [`SHARED`], or
    /// [`UNCLAIMED`] before the first add. No destructor, so it stays
    /// readable while other thread-locals are torn down.
    static STRIPE: Cell<usize> = const { Cell::new(UNCLAIMED) };
    /// The claim whose destructor releases this thread's index.
    static CLAIM: Claim = Claim::acquire();
}

/// The stripe this thread adds to, claiming one on first use.
#[inline]
fn stripe() -> usize {
    let idx = STRIPE.with(Cell::get);
    if idx != UNCLAIMED {
        return idx;
    }
    // First add on this thread: initialise the claim. During teardown,
    // after `CLAIM` was destroyed, `STRIPE` already reads `SHARED`; a
    // thread whose claim was never made gets `SHARED` here too.
    CLAIM.try_with(|c| c.0).unwrap_or(SHARED)
}

struct CounterInner {
    name: String,
    stripes: [Stripe; OWNED + 1],
}

/// A named monotonic (resettable) counter. Clones share the same stripes.
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

    /// Add `n`: a relaxed load and store into this thread's owned
    /// stripe, or a `fetch_add` into the shared one.
    #[inline]
    pub fn add(&self, n: u64) {
        let idx = stripe();
        let cell = &self.inner.stripes[idx].0;
        if idx < OWNED {
            cell.store(
                cell.load(Ordering::Relaxed).wrapping_add(n),
                Ordering::Relaxed,
            );
        } else {
            cell.fetch_add(n, Ordering::Relaxed);
        }
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

    /// Overwrite the value (used by reset paths). An owner's add is a
    /// load and a store, so a concurrent add can undo the overwrite:
    /// reset only quiesced counters.
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
    use std::cell::RefCell;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    /// Serialises the tests that spawn threads, so one test's live
    /// claims do not exhaust the owned stripes another test counts on.
    static SPAWNING: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn spawning() -> std::sync::MutexGuard<'static, ()> {
        SPAWNING.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// This thread's stripe after one add to a throwaway counter.
    fn claimed_stripe() -> usize {
        Counter::new("probe").inc();
        STRIPE.with(Cell::get)
    }

    #[test]
    fn striped_adds_sum_exactly_across_threads() {
        let _g = spawning();
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

    #[test]
    fn more_live_threads_than_owned_stripes_count_exactly() {
        let _g = spawning();
        const THREADS: usize = 24;
        let c = Counter::new("crowded");
        let start = Barrier::new(THREADS);
        let stripes: Vec<usize> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        // Everyone claims before anyone adds or exits.
                        let idx = claimed_stripe();
                        start.wait();
                        for _ in 0..20_000 {
                            c.inc();
                        }
                        idx
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(c.get(), THREADS as u64 * 20_000);
        let shared = stripes.iter().filter(|&&i| i == SHARED).count();
        assert!(shared >= THREADS - OWNED, "{stripes:?}");
        let mut owned: Vec<usize> = stripes.into_iter().filter(|&i| i < OWNED).collect();
        let n = owned.len();
        owned.sort_unstable();
        owned.dedup();
        assert_eq!(owned.len(), n, "no owned stripe has two live owners");
    }

    #[test]
    fn sequential_threads_count_exactly_and_recycle_stripes() {
        let _g = spawning();
        const THREADS: u64 = 200;
        let c = Counter::new("sequential");
        let mut owned = Vec::new();
        for t in 0..THREADS {
            let c = c.clone();
            // `join` returns after the thread's destructors ran, so its
            // index is back in the pool before the next thread starts.
            let idx = std::thread::spawn(move || {
                c.add(t + 1);
                STRIPE.with(Cell::get)
            })
            .join()
            .unwrap();
            if idx < OWNED {
                owned.push(idx);
            }
        }
        assert_eq!(c.get(), THREADS * (THREADS + 1) / 2);
        let n = owned.len();
        owned.sort_unstable();
        owned.dedup();
        assert!(
            n as u64 > THREADS / 2 && owned.len() < n,
            "{n} threads owned a stripe, over {} distinct indices",
            owned.len()
        );
    }

    /// Adds to its counter when the thread tears it down, noting whether
    /// this thread still held its claim.
    struct AddOnExit {
        counter: Counter,
        released: Arc<AtomicBool>,
    }

    impl Drop for AddOnExit {
        fn drop(&mut self) {
            let stripe = STRIPE.with(Cell::get);
            self.released.store(stripe == SHARED, Ordering::SeqCst);
            self.counter.add(1_000);
        }
    }

    thread_local! {
        static ON_EXIT: RefCell<Option<AddOnExit>> = const { RefCell::new(None) };
    }

    #[test]
    fn add_from_a_destructor_after_the_claim_is_released_counts_once() {
        let _g = spawning();
        let c = Counter::new("teardown");
        let mut released = Vec::new();
        // Thread-local destructors run in an order the platform picks, so
        // register the adding one both before and after the claim: one of
        // the two threads adds after its claim was handed back.
        for install_first in [true, false] {
            let flag = Arc::new(AtomicBool::new(false));
            let (counter, seen) = (c.clone(), Arc::clone(&flag));
            std::thread::spawn(move || {
                let install = || {
                    ON_EXIT.with(|slot| {
                        *slot.borrow_mut() = Some(AddOnExit {
                            counter: counter.clone(),
                            released: seen,
                        })
                    })
                };
                if install_first {
                    install();
                    counter.inc();
                } else {
                    counter.inc();
                    install();
                }
            })
            .join()
            .unwrap();
            released.push(flag.load(Ordering::SeqCst));
        }
        assert_eq!(c.get(), 2 * 1_001);
        assert!(released.contains(&true), "{released:?}");
        // The late add went to the shared stripe, exactly once.
        assert!(c.inner.stripes[SHARED].0.load(Ordering::Relaxed) >= 1_000);
    }
}
