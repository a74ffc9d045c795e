//! FLEET-DS: snapshot-side lookup latency — the paper's flat linear scan
//! (`kop_bench::baseline::linear_scan`) versus the frozen sorted /
//! layered indexes every check uses (DESIGN §3.19), at region counts from
//! a single driver to a fleet-scale consolidated node. This is the
//! microbench behind the `reproduce fleet` sub-linear p99 claim.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use kop_bench::baseline::linear_scan;
use kop_core::{AccessFlags, Protection, Region, Size, VAddr};
use kop_policy::{FrozenKind, FrozenStore};

const STRIDE: u64 = 0x10_000;

/// Disjoint rule set: freezes to the one-probe sorted index.
fn disjoint_regions(n: usize) -> Vec<Region> {
    (0..n as u64)
        .map(|i| {
            Region::new(
                VAddr(0x10_0000 + i * STRIDE),
                Size(0x1000),
                Protection::READ_WRITE,
            )
            .expect("region")
        })
        .collect()
}

/// The same set plus one wide overlapping grant: forces the layered
/// interval index (the shape a consolidated fleet's shared windows take).
fn overlapping_regions(n: usize) -> Vec<Region> {
    let mut v = disjoint_regions(n.saturating_sub(1).max(1));
    v.push(
        Region::new(
            VAddr(0x10_0000),
            Size((n as u64) * STRIDE),
            Protection::READ_ONLY,
        )
        .expect("region"),
    );
    v
}

fn bench_store_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_lookup");
    group.sample_size(30);

    for n in [10usize, 100, 1_000, 10_000] {
        // Worst-case hit: the rule at the end of the scan order.
        let hot = VAddr(0x10_0000 + (n as u64 - 1) * STRIDE + 8);

        let flat = disjoint_regions(n);
        group.bench_with_input(BenchmarkId::new("flat_scan_hit", n), &n, |b, _| {
            b.iter(|| black_box(linear_scan(&flat, black_box(hot), Size(8), AccessFlags::RW)))
        });

        let sorted = FrozenStore::build(disjoint_regions(n));
        assert_eq!(sorted.kind(), FrozenKind::Sorted);
        group.bench_with_input(BenchmarkId::new("frozen_sorted_hit", n), &n, |b, _| {
            b.iter(|| black_box(sorted.lookup_frozen(black_box(hot), Size(8), AccessFlags::RW)))
        });

        let interval = FrozenStore::build(overlapping_regions(n));
        assert_eq!(interval.kind(), FrozenKind::Interval);
        group.bench_with_input(BenchmarkId::new("frozen_interval_hit", n), &n, |b, _| {
            b.iter(|| black_box(interval.lookup_frozen(black_box(hot), Size(8), AccessFlags::RW)))
        });

        // Default-deny miss: below every rule.
        let miss = VAddr(0xdead);
        group.bench_with_input(BenchmarkId::new("flat_scan_miss", n), &n, |b, _| {
            b.iter(|| {
                black_box(linear_scan(
                    &flat,
                    black_box(miss),
                    Size(8),
                    AccessFlags::RW,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("frozen_sorted_miss", n), &n, |b, _| {
            b.iter(|| black_box(sorted.lookup_frozen(black_box(miss), Size(8), AccessFlags::RW)))
        });
        group.bench_with_input(BenchmarkId::new("frozen_interval_miss", n), &n, |b, _| {
            b.iter(|| black_box(interval.lookup_frozen(black_box(miss), Size(8), AccessFlags::RW)))
        });
    }

    group.finish();
}

criterion_group!(benches, bench_store_lookup);
criterion_main!(benches);
