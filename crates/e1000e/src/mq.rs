//! Multi-queue transmit: N worker threads driving N queues concurrently
//! against one shared policy module.
//!
//! Modern e1000e-class hardware exposes multiple TX queues so each CPU
//! can transmit without cross-CPU serialization. This module models that
//! shape at the granularity the guard path cares about: each queue is a
//! full driver instance over its **own** descriptor ring and buffer arena
//! (identical layout, so guard sites classify the same on every queue),
//! and the **only** shared object between workers is the policy — which
//! is exactly the contention point the `reproduce smp` figure measures.
//! With a lock around the check (the figure's mutex baseline) every guard
//! on every queue serializes; with the lock-free snapshot path (plus a
//! per-queue [`kop_policy::GuardFront`]) queues scale independently.

use std::cell::Cell;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use kop_policy::PolicyCheck;

use crate::device::{CountSink, E1000Device};
use crate::driver::{DriverError, E1000Driver};
use crate::memspace::{DirectMem, GuardedMem, MemSpace};

/// What one queue worker did.
#[derive(Clone, Debug)]
pub struct QueueReport {
    /// Queue index.
    pub queue: usize,
    /// Frames the device delivered on this queue.
    pub delivered: u64,
    /// Guard invocations this queue's driver performed over its whole
    /// lifetime (probe, bring-up, and the measured transmit loop).
    pub guard_calls: u64,
    /// How many of those guards the queue's policy front admitted without
    /// a policy lookup ([`crate::AccessCounts::inline_admits`]).
    pub inline_admits: u64,
}

/// Result of a multi-queue TX run.
#[derive(Clone, Debug)]
pub struct MqReport {
    /// Per-queue breakdown.
    pub queues: Vec<QueueReport>,
    /// Wall-clock for the whole parallel phase (all queues).
    pub elapsed: Duration,
}

impl MqReport {
    /// Total frames delivered across all queues.
    pub fn delivered(&self) -> u64 {
        self.queues.iter().map(|q| q.delivered).sum()
    }

    /// Total guard calls across all queues.
    pub fn guard_calls(&self) -> u64 {
        self.queues.iter().map(|q| q.guard_calls).sum()
    }

    /// Total inline admits across all queues.
    pub fn inline_admits(&self) -> u64 {
        self.queues.iter().map(|q| q.inline_admits).sum()
    }

    /// Aggregate throughput in frames per second.
    pub fn frames_per_sec(&self) -> f64 {
        self.delivered() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Run `queues` TX workers concurrently, each transmitting
/// `frames_per_queue` frames of `payload_len` payload bytes through its
/// own driver + ring, guarded by `make_policy(queue)`.
///
/// Pass a closure cloning one shared `Arc<PolicyModule>`, or wrapping it
/// in a per-queue [`kop_policy::GuardFront`], so every guard on every
/// queue consults the same policy. See [`run_mq_tx_with`].
pub fn run_mq_tx<P, F>(
    queues: usize,
    frames_per_queue: u64,
    payload_len: usize,
    make_policy: F,
) -> Result<MqReport, DriverError>
where
    P: PolicyCheck + Send,
    F: Fn(usize) -> P + Sync,
{
    run_mq_tx_with(queues, frames_per_queue, payload_len, |q| {
        GuardedMem::new(
            DirectMem::with_defaults(E1000Device::default()),
            make_policy(q),
        )
    })
}

/// Run `queues` TX workers concurrently, each driving its own driver over
/// the memory space `make_mem(queue)` builds (called on the worker's
/// thread). Workers start together at one line so `elapsed` measures
/// genuinely concurrent transmit.
pub fn run_mq_tx_with<M, F>(
    queues: usize,
    frames_per_queue: u64,
    payload_len: usize,
    make_mem: F,
) -> Result<MqReport, DriverError>
where
    M: MemSpace + Send,
    F: Fn(usize) -> M + Sync,
{
    let dst = [0xffu8; 6];
    let payload = vec![0u8; payload_len];
    let (queues, elapsed) = run_queues(queues, |queue, line| {
        let mut drv = E1000Driver::probe(make_mem(queue))?;
        drv.up()?;
        let mut sink = CountSink::default();
        let (delivered, elapsed) = line.timed(|| {
            let mut delivered = 0u64;
            for _ in 0..frames_per_queue {
                delivered += drv.xmit_and_flush(dst, 0x88b5, &payload, &mut sink)?;
            }
            Ok(delivered)
        })?;
        // Whole-lifetime counts (probe + up + the measured loop), read
        // through the accessor that drains the front's admits, so they
        // reconcile exactly with the shared policy's check counter.
        let counts = drv.counts();
        let report = QueueReport {
            queue,
            delivered,
            guard_calls: counts.guard_calls,
            inline_admits: counts.inline_admits,
        };
        Ok((report, elapsed))
    })?;
    Ok(MqReport { queues, elapsed })
}

/// Where every queue of a [`run_queues`] run starts its measured phase.
/// Each queue holds its own place at the line; a queue that is done
/// without reaching it — its set-up returned an error or panicked —
/// gives its place up when its place drops, so the queues at the line
/// never wait for it.
pub struct StartLine<'a> {
    gate: &'a Gate,
    passed: Cell<bool>,
}

/// The line every queue of a run waits at: how many queues have neither
/// reached it nor given their place up.
struct Gate {
    pending: Mutex<usize>,
    open: Condvar,
}

impl Gate {
    /// Count one queue off the line; with `wait`, return only once every
    /// queue is off it.
    fn leave(&self, wait: bool) {
        // Nothing panics while the lock is held, so a poisoned lock
        // still holds a good count.
        let mut pending = self.pending.lock().unwrap_or_else(PoisonError::into_inner);
        *pending -= 1;
        if *pending == 0 {
            self.open.notify_all();
        }
        while wait && *pending > 0 {
            pending = self
                .open
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl StartLine<'_> {
    /// Wait until every other queue reaches the line or gives its place
    /// up, then run `phase` and time it.
    pub fn timed<T>(
        &self,
        phase: impl FnOnce() -> Result<T, DriverError>,
    ) -> Result<(T, Duration), DriverError> {
        if !self.passed.replace(true) {
            self.gate.leave(true);
        }
        let start = Instant::now();
        let out = phase()?;
        Ok((out, start.elapsed()))
    }
}

impl Drop for StartLine<'_> {
    fn drop(&mut self) {
        if !self.passed.get() {
            self.gate.leave(false);
        }
    }
}

/// The multi-queue scaffold: run `worker(queue, line)` for each of
/// `queues` queues on a scoped thread of its own. A worker sets its queue
/// up, runs its measured phase through [`StartLine::timed`] — so every
/// queue's phase starts together — and returns its report with that
/// phase's time. Returns the reports in queue order and the slowest
/// queue's time, or the first error in queue order. A worker that fails
/// or panics before the line gives its place up, so the others still
/// start; a panic reaches the caller once every worker is done.
pub fn run_queues<R, W>(queues: usize, worker: W) -> Result<(Vec<R>, Duration), DriverError>
where
    R: Send,
    W: Fn(usize, &StartLine<'_>) -> Result<(R, Duration), DriverError> + Sync,
{
    assert!(queues >= 1, "need at least one queue");
    let gate = Gate {
        pending: Mutex::new(queues),
        open: Condvar::new(),
    };
    let (worker, gate) = (&worker, &gate);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..queues)
            .map(|q| {
                s.spawn(move || {
                    let line = StartLine {
                        gate,
                        passed: Cell::new(false),
                    };
                    worker(q, &line)
                })
            })
            .collect();
        let mut reports = Vec::with_capacity(queues);
        let mut elapsed = Duration::ZERO;
        for h in handles {
            let (report, queue_elapsed) = h.join().expect("queue worker panicked")?;
            elapsed = elapsed.max(queue_elapsed);
            reports.push(report);
        }
        Ok((reports, elapsed))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kop_policy::{GuardFront, PolicyModule};
    use std::sync::Arc;

    /// Run `f` on a thread of its own and return what it returns; fail
    /// the test instead of hanging if it has not returned in a minute.
    fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let run = std::thread::spawn(move || tx.send(f()).expect("the test waits"));
        let out = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("run_queues hung: a worker never left the start line");
        run.join().expect("sent its result");
        out
    }

    fn permissive_policy() -> Arc<PolicyModule> {
        // Kernel half allowed, user half denied — covers the arena and
        // the MMIO window alike.
        Arc::new(PolicyModule::two_region_paper_policy())
    }

    #[test]
    fn queues_share_one_policy_and_all_deliver() {
        let pm = permissive_policy();
        let frames = 50u64;
        let queues = 3usize;
        let before = pm.stats().checks;
        let report = run_mq_tx(queues, frames, 64, |_q| Arc::clone(&pm)).unwrap();
        assert_eq!(report.queues.len(), queues);
        for q in &report.queues {
            assert_eq!(q.delivered, frames, "queue {} dropped frames", q.queue);
            assert!(q.guard_calls > 0);
        }
        // Every guard call on every queue reached the shared policy.
        assert_eq!(pm.stats().checks - before, report.guard_calls());
        assert_eq!(report.inline_admits(), 0, "no front, no inline admits");
    }

    #[test]
    fn per_queue_fronts_answer_inline_and_reconcile_exactly() {
        let pm = permissive_policy();
        let frames = 50u64;
        let queues = 2usize;
        let before = pm.stats().checks;
        let report = run_mq_tx_with(queues, frames, 64, |_q| {
            let mem = DirectMem::with_defaults(E1000Device::default());
            let map = crate::driver_site_map(mem.arena_base(), mem.mmio_base());
            GuardedMem::new(mem, GuardFront::new(Arc::clone(&pm), map))
        })
        .unwrap();
        assert_eq!(report.delivered(), frames * queues as u64);
        // Every guard on every queue reached the shared policy's books,
        // admitted from a slot or checked in full.
        assert_eq!(pm.stats().checks - before, report.guard_calls());
        // With warm per-site slots, most guards never took a lookup.
        let admits = report.inline_admits();
        assert!(
            admits > report.guard_calls() - admits,
            "slots must answer most guards ({admits} of {})",
            report.guard_calls()
        );
    }

    #[test]
    fn a_queue_failing_before_the_line_returns_its_error() {
        // Queue 1's default-deny policy refuses its probe's first
        // register write, so it never reaches the line; queue 0 must
        // still start and the run must return queue 1's error.
        let pm = permissive_policy();
        let result = within_a_minute(move || {
            run_mq_tx(2, 10, 64, |q| {
                if q == 1 {
                    Arc::new(PolicyModule::new())
                } else {
                    Arc::clone(&pm)
                }
            })
            .map(|report| report.delivered())
        });
        assert!(result.is_err(), "queue 1's denial must fail the run");
    }

    #[test]
    fn a_queue_panicking_before_the_line_panics_the_run() {
        let panicked = within_a_minute(|| {
            std::panic::catch_unwind(|| {
                run_queues(3, |q, line| {
                    assert_ne!(q, 2, "queue 2's set-up fails");
                    line.timed(|| Ok(()))
                })
            })
            .is_err()
        });
        assert!(panicked, "a worker's panic reaches the caller");
    }
}
