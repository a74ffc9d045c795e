//! Microbenchmark of the guard check itself: `carat_guard` against the
//! paper's 64-entry table under the two-region policy — the single
//! operation CARAT KOP adds in front of every load/store — and of the
//! simulated load and store it is priced against.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use kop_core::{AccessFlags, Size, VAddr};
use kop_kernel::SimMemory;
use kop_policy::{PolicyCheck, PolicyModule};

fn bench_guard(c: &mut Criterion) {
    let mut group = c.benchmark_group("guard_check");
    group.sample_size(50);

    let pm = PolicyModule::two_region_paper_policy();
    let kernel_addr = VAddr(kop_core::layout::DIRECT_MAP_BASE + 0x1000);

    group.bench_function("two_region_hit", |b| {
        b.iter(|| {
            black_box(pm.carat_guard(
                black_box(kernel_addr),
                black_box(Size(8)),
                black_box(AccessFlags::RW),
            ))
        })
    });

    // Deny path (user half, explicit NONE rule) — the cost of a violation
    // classification, excluding the logging arm: use check directly and
    // discard.
    let user_addr = VAddr(0x40_0000);
    group.bench_function("two_region_deny", |b| {
        b.iter_batched(
            || (),
            |()| black_box(pm.carat_guard(user_addr, Size(8), AccessFlags::RW)).is_err(),
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

/// One warm 8-byte `SimMemory` load and store on a resident page: what
/// every interpreted access costs in the guarded and the unguarded build.
fn bench_sim_memory(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_memory");
    group.sample_size(50);

    let mut mem = SimMemory::new();
    let addr = VAddr(kop_core::layout::DIRECT_MAP_BASE + 0x1008);
    mem.write_uint(addr, Size(8), 42).unwrap();

    group.bench_function("read_uint_8", |b| {
        b.iter(|| black_box(mem.read_uint(black_box(addr), Size(8)).unwrap()))
    });
    group.bench_function("write_uint_8", |b| {
        b.iter(|| {
            mem.write_uint(black_box(addr), Size(8), black_box(7))
                .unwrap()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_guard, bench_sim_memory);
criterion_main!(benches);
