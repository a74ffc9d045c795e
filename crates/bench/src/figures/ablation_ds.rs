use std::hint::black_box;

use kop_core::{layout, AccessFlags, Protection, Region, Size, VAddr};
use kop_kernel::SimMemory;
use kop_policy::Lookup;

use crate::baseline;

use super::measure::{best_of, timed};
use super::{FigureData, Series};

/// ABL-DS: guard-check latency of the paper's linear table walk against
/// the two frozen indexes every production check uses (§3.1/§4.2's
/// sketched alternatives, as built): the one-layer index over disjoint
/// rules and the two-layer index the same rules freeze to under one
/// overlapping shared window, each layer a static 9-ary search tree. Each structure is timed on hits and on
/// default-deny misses. The headlines add one warm 8-byte `SimMemory`
/// load and store, the access every guard sits in front of. Wall-clock
/// measured on the host (relative ordering is the result).
pub fn ablation_ds() -> FigureData {
    use kop_policy::{FrozenKind, FrozenStore};

    let counts = [2usize, 8, 16, 64, 256, 1024];
    let lookups = 200_000u64;
    // Skewed access pattern: 90% hit the last-inserted (worst-case for
    // the scan) region, 10% sweep the others.
    let ns_per_lookup = |n: usize, lookup: &dyn Fn(VAddr) -> Lookup| {
        let hot = 0x10_0000 + (n as u64 - 1) * 0x10_000;
        let (hits, ns) = timed(|| {
            (0..lookups)
                .filter(|i| {
                    let addr = if i % 10 != 0 {
                        hot + (i % 0x800)
                    } else {
                        0x10_0000 + (i % n as u64) * 0x10_000 + (i % 0x800)
                    };
                    matches!(lookup(VAddr(addr)), Lookup::Permitted(_))
                })
                .count() as u64
        });
        assert_eq!(hits, lookups, "every lookup hits a granting rule");
        ns / lookups as f64
    };
    // Default-deny misses, alternately below every rule and past the
    // last one (and past the shared window). Half as many probes as
    // hits: a miss walks the whole scan, and 100 k resolve it.
    let misses = lookups / 2;
    let ns_per_miss = |n: usize, lookup: &dyn Fn(VAddr) -> Lookup| {
        let past = 0x10_0000 + n as u64 * 0x10_000;
        let (refused, ns) = timed(|| {
            (0..misses)
                .filter(|i| {
                    let addr = if i % 2 == 0 { 0 } else { past } + (i % 0x800);
                    matches!(lookup(VAddr(addr)), Lookup::NoMatch)
                })
                .count() as u64
        });
        assert_eq!(refused, misses, "every miss matches no rule");
        ns / misses as f64
    };
    let labels = [
        "flat-scan",
        FrozenKind::Sorted.name(),
        FrozenKind::Interval.name(),
    ];
    let mut series: Vec<Series> = labels
        .iter()
        .map(|label| label.to_string())
        .chain(labels.iter().map(|label| format!("{label}-miss")))
        .map(|label| Series {
            label,
            points: Vec::new(),
        })
        .collect();
    for &n in &counts {
        let regions: Vec<Region> = (0..n as u64)
            .map(|i| {
                Region::new(
                    VAddr(0x10_0000 + i * 0x10_000),
                    Size(0x1000),
                    Protection::READ_WRITE,
                )
                .expect("region")
            })
            .collect();
        let disjoint = FrozenStore::build(regions.clone());
        assert_eq!(disjoint.kind(), FrozenKind::Sorted);
        let mut windowed = regions.clone();
        windowed.push(
            Region::new(
                VAddr(0x10_0000),
                Size(n as u64 * 0x10_000),
                Protection::READ_ONLY,
            )
            .expect("shared window"),
        );
        let overlapping = FrozenStore::build(windowed);
        assert_eq!(overlapping.kind(), FrozenKind::Interval);
        let structures: [&dyn Fn(VAddr) -> Lookup; 3] = [
            &|a| baseline::linear_scan(&regions, a, Size(8), AccessFlags::RW),
            &|a| disjoint.lookup_frozen(a, Size(8), AccessFlags::RW),
            &|a| overlapping.lookup_frozen(a, Size(8), AccessFlags::RW),
        ];
        // Best of three interleaved rounds over the three structures,
        // hits first, then misses.
        let hit_ns = best_of(structures, 3, |lookup| ns_per_lookup(n, lookup), |&ns| ns);
        let miss_ns = best_of(structures, 3, |lookup| ns_per_miss(n, lookup), |&ns| ns);
        for (s, ns) in series.iter_mut().zip(hit_ns.into_iter().chain(miss_ns)) {
            s.points.push((n as f64, ns));
        }
    }
    let mut headlines: Vec<(String, f64)> = series
        .iter()
        .map(|s| {
            let at_64 = s.points.iter().find(|(n, _)| *n == 64.0).expect("n=64");
            (format!("{}_ns_at_64", s.label), at_64.1)
        })
        .collect();
    let [write_ns, read_ns] = sim_access_ns(lookups);
    headlines.push(("sim_read_ns".into(), read_ns));
    headlines.push(("sim_write_ns".into(), write_ns));
    FigureData {
        id: "ablation-ds",
        title: "policy-structure ablation: ns/guard-check vs region count (host wall-clock)".into(),
        axes: ("regions", "ns per lookup"),
        series,
        headlines,
        notes: vec![
            "paper §4.2: linear scan is fine to ~64 regions; beyond that a logarithmic structure should win".into(),
            "flat-scan: the paper's table walk; frozen-sorted: one search-tree descent over disjoint rules (1-4 node probes up to 1,024 rules); frozen-interval: the same rules under one overlapping window, one descent per layer (two layers)".into(),
            "expected ordering at large n: frozen-sorted < frozen-interval (two layers) < flat-scan (linear)".into(),
            "*-miss: default-deny misses below every rule and past the last; the scan walks every rule, each index one search".into(),
            "sim_read_ns / sim_write_ns: one warm 8-byte SimMemory load / store on a resident page".into(),
        ],
    }
}

/// ns of one warm 8-byte [`SimMemory`] store and of one load on a
/// resident page, best of three interleaved rounds of `accesses` each.
/// Every store must land and every load read the last value stored.
fn sim_access_ns(accesses: u64) -> [f64; 2] {
    let addr = VAddr(layout::DIRECT_MAP_BASE + 0x1008);
    let last = accesses - 1;
    let mut mem = SimMemory::new();
    best_of(
        [true, false],
        3,
        |store| {
            let (done, ns) = if store {
                timed(|| {
                    (0..accesses)
                        .filter(|&v| mem.write_uint(black_box(addr), Size(8), v).is_ok())
                        .count() as u64
                })
            } else {
                timed(|| {
                    (0..accesses)
                        .filter(|_| mem.read_uint(black_box(addr), Size(8)) == Ok(last))
                        .count() as u64
                })
            };
            assert_eq!(done, accesses, "a store failed or a load misread");
            ns / accesses as f64
        },
        |&ns| ns,
    )
}
