//! Small statistics, the seeded input generator, and the host readings
//! (peak RSS, steal time) the result stamp carries.

/// The `q`-quantile (0 ≤ q ≤ 1) of `v` by linear interpolation between
/// order statistics. `v` need not be sorted; empty input reads 0.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// pins every generated input.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` mixed with a per-use `stream` tag, so the
    /// inputs of different workloads never share a sequence.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Pin glibc's mmap threshold at its documented default (128 KiB).
///
/// Left dynamic, glibc raises the threshold the first time a large
/// mmapped block is freed, so later 16 MiB driver arenas come from the
/// heap and are zeroed by `memset` instead of arriving as fresh zero
/// pages. Which path a bring-up takes would then depend on what the
/// process freed before, and set-up time would jump between two modes
/// within one run. Pinning the threshold keeps every arena on the mmap
/// path.
pub fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` is glibc's documented allocator-tuning
        // entry point; it takes two plain integers, touches no memory
        // of ours, and is called before any other thread exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide steal time so far in clock ticks (the 8th field of the
/// aggregate `cpu` line of `/proc/stat`), or 0 where unavailable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = SplitMix::new(7, 1);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        let mut v: Vec<u32> = (0..32).collect();
        SplitMix::new(3, 0).shuffle(&mut v);
        v.sort_unstable();
        assert_eq!(v, (0..32).collect::<Vec<_>>());
    }
}
