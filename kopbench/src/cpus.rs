//! Moving the benchmark thread round the CPUs it may run on.
//!
//! On a shared virtual machine a vCPU can run slow for seconds at a time
//! (1.2–2.1×, steal time flat) while the other vCPU runs at its normal
//! speed: the episodes of two runs pinned one to each CPU do not line up.
//! A single-threaded run that stays on one CPU reads slow whenever that
//! CPU does. Moving the thread to the next CPU every [`PERIOD`] spreads
//! each run's batches over all of them, so the low quantile the run
//! reports comes from whichever CPU was running normally.

use std::time::{Duration, Instant};

/// Time spent on one CPU before moving to the next. Long against a
/// migration's cold caches (a few batches), short against an episode.
pub const PERIOD: Duration = Duration::from_millis(25);

/// The CPUs this process may use and the one it is pinned to now.
pub struct Rotation {
    cpus: Vec<usize>,
    at: usize,
    since: Instant,
}

impl Rotation {
    /// A rotation over the CPUs in this thread's affinity mask, starting
    /// on the first. With one CPU (or no affinity support) it never moves.
    pub fn new() -> Rotation {
        let cpus = sys::allowed();
        if let Some(&first) = cpus.first() {
            sys::pin(first);
        }
        Rotation {
            cpus,
            at: 0,
            since: Instant::now(),
        }
    }

    /// Move to the next CPU once the current one has had its period.
    pub fn tick(&mut self) {
        if self.cpus.len() > 1 && self.since.elapsed() >= PERIOD {
            self.at = (self.at + 1) % self.cpus.len();
            sys::pin(self.cpus[self.at]);
            self.since = Instant::now();
        }
    }
}

impl Drop for Rotation {
    /// Give the thread back every CPU it started with.
    fn drop(&mut self) {
        if self.cpus.len() > 1 {
            sys::pin_all(&self.cpus);
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t` as glibc lays it out: 1,024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    fn set(mask: &CpuSet) {
        // SAFETY: pid 0 names the calling thread; the mask is a live,
        // correctly sized `cpu_set_t` the call only reads. A refused
        // mask leaves the affinity as it was, which is harmless here.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask);
        }
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: as in `set`; the call writes at most `size` bytes
        // into the mask it is given.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        if rc != 0 {
            return Vec::new();
        }
        (0..mask.len() * 64)
            .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    pub fn pin(cpu: usize) {
        pin_all(&[cpu]);
    }

    pub fn pin_all(cpus: &[usize]) {
        let mut mask: CpuSet = [0; 16];
        for &c in cpus {
            mask[c / 64] |= 1 << (c % 64);
        }
        set(&mask);
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_cpu: usize) {}

    pub fn pin_all(_cpus: &[usize]) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotates_after_a_period_and_restores_the_mask() {
        let before = sys::allowed();
        let on = |slot: usize| before.get(slot).map(|&c| vec![c]).unwrap_or_default();
        {
            let mut r = Rotation::new();
            assert_eq!(sys::allowed(), on(0));
            r.tick();
            assert_eq!(sys::allowed(), on(0), "moved before its period");
            std::thread::sleep(PERIOD);
            r.tick();
            assert_eq!(sys::allowed(), on(usize::from(before.len() > 1)));
        }
        assert_eq!(sys::allowed(), before);
    }
}
