use kop_core::{AccessFlags, Protection, Region, Size, VAddr};
use kop_policy::Lookup;

use crate::baseline;

use super::measure::{best_of, timed};
use super::{FigureData, Series};

/// ABL-DS: guard-check latency of the paper's linear table walk against
/// the two frozen indexes every production check uses (§3.1/§4.2's
/// sketched alternatives, as built): the one-probe sorted index over
/// disjoint rules and the layered index the same rules freeze to under
/// one overlapping shared window. Wall-clock measured on the host
/// (relative ordering is the result).
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
    let mut series: Vec<Series> = [
        "flat-scan",
        FrozenKind::Sorted.name(),
        FrozenKind::Interval.name(),
    ]
    .into_iter()
    .map(|label| Series {
        label: label.into(),
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
        // Best of three interleaved rounds over the three structures.
        let ns = best_of(structures, 3, |lookup| ns_per_lookup(n, lookup), |&ns| ns);
        for (s, ns) in series.iter_mut().zip(ns) {
            s.points.push((n as f64, ns));
        }
    }
    let headlines = series
        .iter()
        .map(|s| {
            let at_64 = s.points.iter().find(|(n, _)| *n == 64.0).expect("n=64");
            (format!("{}_ns_at_64", s.label), at_64.1)
        })
        .collect();
    FigureData {
        id: "ablation-ds",
        title: "policy-structure ablation: ns/guard-check vs region count (host wall-clock)".into(),
        axes: ("regions", "ns per lookup"),
        series,
        headlines,
        notes: vec![
            "paper §4.2: linear scan is fine to ~64 regions; beyond that a logarithmic structure should win".into(),
            "flat-scan: the paper's table walk; frozen-sorted: one binary search over disjoint rules; frozen-interval: the same rules under one overlapping window, one binary search per layer".into(),
            "expected ordering at large n: frozen-sorted < frozen-interval (two layers) < flat-scan (linear)".into(),
        ],
    }
}
