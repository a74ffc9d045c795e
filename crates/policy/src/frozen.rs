//! [`FrozenStore`] — the immutable snapshot-side region structure.
//!
//! Every guard check is answered here. The SMP check path (DESIGN §3.13)
//! reads a snapshot concurrently from every core, so lookup takes `&self`;
//! the index is built once at publish time from the policy's rule list
//! and serves O(log n) lookups with **bit-exact** flat-scan semantics:
//!
//! * Permitted(r) where `r` is the *first region in store order* that
//!   covers the whole access and grants the intent,
//! * else Forbidden(c) where `c` is the first covering region in store
//!   order,
//! * else NoMatch.
//!
//! Store order is the rule list's order (insertion order for the table,
//! base order for the sorted kind) — the frozen index remembers each
//! region's position so the tiebreak is preserved even when the search
//! visits regions out of order.

use kop_core::{AccessFlags, Region, Size, VAddr};

use crate::store::Lookup;

/// How a [`FrozenStore`] indexes its regions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrozenKind {
    /// Disjoint regions sorted by base: one `partition_point` probe.
    Sorted,
    /// Overlapping regions: layered decomposition — base-sorted regions
    /// greedily partitioned into pairwise-disjoint layers, one binary
    /// search per layer. O(L · log n) with L = max overlap depth, and
    /// every probe walks a contiguous array (no pointer chasing), so a
    /// fleet-shaped set (thousands of disjoint rules under a few shared
    /// windows) pays L = 2 cache-friendly searches.
    Interval,
}

impl FrozenKind {
    /// Name for reports.
    pub fn name(self) -> &'static str {
        match self {
            FrozenKind::Sorted => "frozen-sorted",
            FrozenKind::Interval => "frozen-interval",
        }
    }
}

/// One entry of a layer: a region plus its position in the original
/// store order (the tiebreak among overlapping candidates).
#[derive(Clone, Copy, Debug)]
struct Entry {
    region: Region,
    order: usize,
}

#[derive(Clone, Debug)]
enum Index {
    /// Base-sorted, pairwise-disjoint regions (store-order positions are
    /// irrelevant for disjoint sets: at most one region covers an access).
    Sorted(Vec<Region>),
    /// Layered decomposition: each layer is base-sorted and pairwise
    /// disjoint, so within a layer at most one region can cover an
    /// access — found with one `partition_point` probe. Every region
    /// lives in exactly one layer, so probing all layers visits every
    /// possible covering candidate.
    Interval(Vec<Vec<Entry>>),
}

/// Immutable region set with `&self` lookup, built at snapshot-publish
/// time. See the module docs for the exact semantics contract.
#[derive(Clone, Debug)]
pub struct FrozenStore {
    /// Regions in original store order (what `regions()` exposes).
    regions: Vec<Region>,
    index: Index,
}

impl FrozenStore {
    /// Build the best index for this region set: a one-probe sorted array
    /// when the set is pairwise disjoint, the layered index otherwise.
    /// `regions` is the rule list in store order.
    pub fn build(regions: Vec<Region>) -> FrozenStore {
        let mut sorted: Vec<(usize, Region)> = regions.iter().copied().enumerate().collect();
        sorted.sort_by_key(|(_, r)| r.base);
        let disjoint = sorted.windows(2).all(|w| !w[0].1.overlaps(&w[1].1));
        let index = if disjoint {
            Index::Sorted(sorted.into_iter().map(|(_, r)| r).collect())
        } else {
            // Greedy interval partitioning in base order: each region
            // goes into the first layer whose most recent region it
            // does not overlap. Layers stay base-sorted and disjoint.
            let mut layers: Vec<Vec<Entry>> = Vec::new();
            'place: for (order, region) in sorted {
                let entry = Entry { region, order };
                for layer in &mut layers {
                    if !layer.last().is_some_and(|e| e.region.overlaps(&region)) {
                        layer.push(entry);
                        continue 'place;
                    }
                }
                layers.push(vec![entry]);
            }
            Index::Interval(layers)
        };
        FrozenStore { regions, index }
    }

    /// Which index this store built.
    pub fn kind(&self) -> FrozenKind {
        match self.index {
            Index::Sorted(_) => FrozenKind::Sorted,
            Index::Interval(_) => FrozenKind::Interval,
        }
    }

    /// The regions in original store order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the store holds no regions.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Classify an access — immutable, safe to call concurrently from
    /// every core. Semantics are bit-exact with a forward linear scan of
    /// `regions()` (any-grant-wins, first in store order).
    #[inline]
    pub fn lookup_frozen(&self, addr: VAddr, size: Size, flags: AccessFlags) -> Lookup {
        match &self.index {
            Index::Sorted(sorted) => {
                // Disjoint: the only candidate is the last region with
                // base <= addr.
                let n = sorted.partition_point(|r| r.base <= addr);
                let Some(r) = n.checked_sub(1).map(|i| sorted[i]) else {
                    return Lookup::NoMatch;
                };
                if !r.covers(addr, size) {
                    return Lookup::NoMatch;
                }
                if r.prot.allows(flags) {
                    Lookup::Permitted(r)
                } else {
                    Lookup::Forbidden(r)
                }
            }
            Index::Interval(layers) => {
                // One probe per layer: within a layer the only possible
                // coverer of `addr` is the last region with base <=
                // addr. Track the granting and covering candidates with
                // the smallest store-order index — no early exit, the
                // first-in-store-order grant may sit in any layer.
                let mut grant: Option<(usize, Region)> = None;
                let mut cover: Option<(usize, Region)> = None;
                for layer in layers {
                    let n = layer.partition_point(|e| e.region.base <= addr);
                    let Some(e) = n.checked_sub(1).map(|i| layer[i]) else {
                        continue;
                    };
                    if !e.region.covers(addr, size) {
                        continue;
                    }
                    if e.region.prot.allows(flags) {
                        if grant.is_none_or(|(o, _)| e.order < o) {
                            grant = Some((e.order, e.region));
                        }
                    } else if cover.is_none_or(|(o, _)| e.order < o) {
                        cover = Some((e.order, e.region));
                    }
                }
                if let Some((_, r)) = grant {
                    Lookup::Permitted(r)
                } else if let Some((_, r)) = cover {
                    Lookup::Forbidden(r)
                } else {
                    Lookup::NoMatch
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kop_core::Protection;

    fn r(base: u64, len: u64, prot: Protection) -> Region {
        Region::new(VAddr(base), Size(len), prot).unwrap()
    }

    fn scan(regions: &[Region], addr: VAddr, size: Size, flags: AccessFlags) -> Lookup {
        let mut covering: Option<Region> = None;
        for reg in regions {
            if reg.covers(addr, size) {
                if reg.prot.allows(flags) {
                    return Lookup::Permitted(*reg);
                }
                covering.get_or_insert(*reg);
            }
        }
        match covering {
            Some(reg) => Lookup::Forbidden(reg),
            None => Lookup::NoMatch,
        }
    }

    #[test]
    fn disjoint_set_builds_sorted_index() {
        let regions = vec![
            r(0x3000, 0x100, Protection::ALL),
            r(0x1000, 0x100, Protection::READ_ONLY),
        ];
        let f = FrozenStore::build(regions.clone());
        assert_eq!(f.kind(), FrozenKind::Sorted);
        for addr in [0x1000u64, 0x1080, 0x1100, 0x3000, 0x30f8, 0x5000] {
            for flags in [AccessFlags::READ, AccessFlags::WRITE, AccessFlags::RW] {
                assert_eq!(
                    f.lookup_frozen(VAddr(addr), Size(8), flags),
                    scan(&regions, VAddr(addr), Size(8), flags),
                    "addr {addr:#x} flags {flags:?}"
                );
            }
        }
    }

    #[test]
    fn overlapping_set_builds_interval_index() {
        // Blanket NONE first, inner ALL second: flat scan grants via the
        // second region; forbidden fallback reports the *first* covering.
        let regions = vec![
            r(0x1000, 0x10000, Protection::READ_ONLY),
            r(0x4000, 0x1000, Protection::READ_WRITE),
        ];
        let f = FrozenStore::build(regions.clone());
        assert_eq!(f.kind(), FrozenKind::Interval);
        for addr in (0x0800..0x12000u64).step_by(0x200) {
            for flags in [AccessFlags::READ, AccessFlags::WRITE, AccessFlags::RW] {
                assert_eq!(
                    f.lookup_frozen(VAddr(addr), Size(8), flags),
                    scan(&regions, VAddr(addr), Size(8), flags),
                    "addr {addr:#x} flags {flags:?}"
                );
            }
        }
    }

    #[test]
    fn store_order_tiebreak_preserved() {
        // Two overlapping regions both grant: flat scan returns the FIRST
        // in store order even though it sorts second by base.
        let regions = vec![
            r(0x2000, 0x2000, Protection::ALL),
            r(0x1000, 0x4000, Protection::ALL),
        ];
        let f = FrozenStore::build(regions.clone());
        let got = f.lookup_frozen(VAddr(0x2800), Size(8), AccessFlags::READ);
        assert_eq!(got, Lookup::Permitted(regions[0]));
        // Both cover but neither grants a write: Forbidden reports the
        // first covering in store order.
        let regions = vec![
            r(0x2000, 0x2000, Protection::READ_ONLY),
            r(0x1000, 0x4000, Protection::READ_ONLY),
        ];
        let f = FrozenStore::build(regions.clone());
        let got = f.lookup_frozen(VAddr(0x2800), Size(8), AccessFlags::WRITE);
        assert_eq!(got, Lookup::Forbidden(regions[0]));
    }

    #[test]
    fn access_straddling_adjacent_rules_is_not_covered() {
        // Adjacent rules do not merge: one rule must cover the whole
        // access, in both index shapes.
        let adjacent = vec![
            r(0x1000, 0x100, Protection::ALL),
            r(0x1100, 0x100, Protection::ALL),
        ];
        let mut windowed = adjacent.clone();
        windowed.push(r(0x800, 0x100, Protection::ALL));
        windowed.push(r(0x0, 0x4000, Protection::NONE));
        for regions in [adjacent, windowed] {
            let f = FrozenStore::build(regions.clone());
            for (addr, size) in [(0x10f8u64, 8u64), (0x10fc, 8), (0x10f9, 8)] {
                assert_eq!(
                    f.lookup_frozen(VAddr(addr), Size(size), AccessFlags::READ),
                    scan(&regions, VAddr(addr), Size(size), AccessFlags::READ),
                    "{:?} at {addr:#x}",
                    f.kind()
                );
            }
            assert!(!matches!(
                f.lookup_frozen(VAddr(0x10fc), Size(8), AccessFlags::READ),
                Lookup::Permitted(_)
            ));
        }
    }

    #[test]
    fn empty_store_is_no_match() {
        let f = FrozenStore::build(Vec::new());
        assert!(f.is_empty());
        assert_eq!(
            f.lookup_frozen(VAddr(0x1000), Size(8), AccessFlags::READ),
            Lookup::NoMatch
        );
    }

    #[test]
    fn large_disjoint_set_probes_correctly() {
        let regions: Vec<Region> = (0..4096u64)
            .map(|i| r(i * 0x1000, 0x800, Protection::ALL))
            .collect();
        let f = FrozenStore::build(regions.clone());
        assert_eq!(f.kind(), FrozenKind::Sorted);
        assert!(matches!(
            f.lookup_frozen(VAddr(2048 * 0x1000 + 4), Size(8), AccessFlags::RW),
            Lookup::Permitted(_)
        ));
        assert_eq!(
            f.lookup_frozen(VAddr(2048 * 0x1000 + 0x800), Size(8), AccessFlags::RW),
            Lookup::NoMatch
        );
    }

    #[test]
    fn region_ending_at_address_space_top() {
        // last() is inclusive u64::MAX; end() would be None. The interval
        // augmentation must survive this.
        let regions = vec![
            r(0, u64::MAX, Protection::READ_ONLY),
            r(0x1000, 0x1000, Protection::ALL),
        ];
        let f = FrozenStore::build(regions.clone());
        assert_eq!(f.kind(), FrozenKind::Interval);
        for addr in [0u64, 0x1000, 0x1800, 0x2000, u64::MAX - 8] {
            for flags in [AccessFlags::READ, AccessFlags::WRITE] {
                assert_eq!(
                    f.lookup_frozen(VAddr(addr), Size(8), flags),
                    scan(&regions, VAddr(addr), Size(8), flags),
                    "addr {addr:#x}"
                );
            }
        }
    }
}
