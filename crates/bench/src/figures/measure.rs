//! The one measurement harness of the host-timed figures.
//!
//! A figure times *runs*: one configuration's workload on fresh state,
//! timing only its measured loop. [`best_of`] decides which runs count.
//! It runs every configuration once untimed (the warm-up), then `k`
//! rounds that each run every configuration once, in order, and keeps
//! each configuration's fastest run whole — its result, not only its
//! time. Interleaving spreads host drift over all configurations alike,
//! and the minimum sheds scheduler preemption, which only ever adds
//! time. Latency distributions are per-batch minima of the same kind
//! ([`p99_ns`]); every percentile goes through [`kop_sim::percentile`].
//!
//! At full scale a figure's run count per configuration includes the
//! warm-up; `--quick` runs, whose timing gates fire, add it to their
//! timed rounds.

use std::time::Instant;

/// Items per latency batch in [`batch_ns`] and [`p99_ns`].
const BATCH: usize = 64;

/// Runs each of `configs` once untimed, then `k` interleaved rounds,
/// and returns each configuration's run with the least `time`, whole.
pub fn best_of<C: Copy, R, const N: usize>(
    configs: [C; N],
    k: usize,
    run: impl FnMut(C) -> R,
    time: impl Fn(&R) -> f64,
) -> [R; N] {
    best_of_each(&configs, k, run, time)
        .try_into()
        .unwrap_or_else(|_| unreachable!("one kept run per configuration"))
}

/// [`best_of`] over a slice of configurations.
pub fn best_of_each<C: Copy, R>(
    configs: &[C],
    k: usize,
    mut run: impl FnMut(C) -> R,
    time: impl Fn(&R) -> f64,
) -> Vec<R> {
    assert!(k > 0, "at least one timed round");
    for &c in configs {
        run(c);
    }
    let mut kept: Vec<Option<R>> = configs.iter().map(|_| None).collect();
    for _ in 0..k {
        for (best, &c) in kept.iter_mut().zip(configs) {
            let r = run(c);
            if best.as_ref().is_none_or(|b| time(&r) < time(b)) {
                *best = Some(r);
            }
        }
    }
    kept.into_iter().map(|r| r.expect("k > 0")).collect()
}

/// Runs `f`; returns its value and the wall-clock ns it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as f64)
}

/// Per-item ns of one batch.
fn batch_cost<P>(batch: &[P], run: &mut impl FnMut(&P)) -> f64 {
    timed(|| batch.iter().for_each(&mut *run)).1 / batch.len() as f64
}

/// Per-item latency (ns) of each [`BATCH`]-item batch of `items`, in
/// order.
pub fn batch_ns<P>(items: &[P], mut run: impl FnMut(&P)) -> Vec<f64> {
    items
        .chunks(BATCH)
        .map(|batch| batch_cost(batch, &mut run))
        .collect()
}

/// p99 of per-item latency across the [`BATCH`]-item batches of
/// `items`. Each batch is a configuration of [`best_of_each`]: it keeps
/// its fastest of `k` rounds, so the p99 reflects the costliest batches'
/// own mix rather than host noise.
pub fn p99_ns<P>(items: &[P], k: usize, mut run: impl FnMut(&P)) -> f64 {
    let batches: Vec<&[P]> = items.chunks(BATCH).collect();
    let lat = best_of_each(&batches, k, |batch| batch_cost(batch, &mut run), |&ns| ns);
    p99(&lat)
}

/// The interpolated 99th percentile of per-batch latencies.
pub fn p99(lat: &[f64]) -> f64 {
    kop_sim::percentile(lat, 99.0)
}

/// Cores this process may run on. The scaling gates of `smp`,
/// `forward` and `fleet` fire only with four or more.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn warm_up_once_then_round_robin_keeping_the_fastest_run_whole() {
        // Scripted times by call: the warm-up round (calls 0-2) is the
        // fastest of all and must never be kept.
        let times = [0.1, 0.2, 0.3, 5.0, 8.0, 7.0, 4.0, 9.5, 8.0, 6.0, 8.5, 3.0];
        let calls = RefCell::new(Vec::new());
        let kept = best_of(
            ['a', 'b', 'c'],
            3,
            |c| {
                let mut calls = calls.borrow_mut();
                let n = calls.len();
                calls.push(c);
                (c, n, times[n])
            },
            |r| r.2,
        );
        assert_eq!(
            calls.into_inner(),
            ['a', 'b', 'c', 'a', 'b', 'c', 'a', 'b', 'c', 'a', 'b', 'c'],
            "one warm-up round, then three round-robin rounds"
        );
        assert_eq!(kept, [('a', 6, 4.0), ('b', 4, 8.0), ('c', 11, 3.0)]);
    }

    #[test]
    fn p99_interpolates_over_batch_minima() {
        let items: Vec<u32> = (0..BATCH as u32 * 4).collect();
        let mut seen = 0usize;
        let p99 = p99_ns(&items, 2, |_| seen += 1);
        assert_eq!(seen, items.len() * 3, "warm-up plus two rounds");
        assert!(p99.is_finite() && p99 >= 0.0);
        assert_eq!(batch_ns(&items, |_| ()).len(), 4);
    }
}
