//! [`FrozenStore`] — the immutable snapshot-side region structure.
//!
//! Every guard check is answered here. The SMP check path (DESIGN §3.13)
//! reads a snapshot concurrently from every core, so lookup takes `&self`;
//! the index is built once at publish time from the policy's rule list
//! and serves lookups in a few cache-line probes with **bit-exact**
//! flat-scan semantics:
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
//!
//! The index is a list of **layers**: pairwise-disjoint regions in base
//! order, so within a layer at most one region — the last whose base is
//! at most the address — can cover an access. Each layer finds that
//! region with a static 9-ary search tree over its bases (`Tree`):
//! eight `u64` keys per 64-byte node, counted without branches, one node
//! per level, then one load of the candidate region. A lookup makes
//! `layers × depth` node probes: 1 for the datapath's 6 rules, 2 for the
//! paper's 64, 4 for a 4,102-rule fleet.

use kop_core::{AccessFlags, Region, Size, VAddr};

use crate::store::Lookup;

/// How a [`FrozenStore`] indexes its regions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrozenKind {
    /// Disjoint regions: one layer, one tree descent.
    Sorted,
    /// Overlapping regions: layered decomposition — base-sorted regions
    /// greedily partitioned into pairwise-disjoint layers, one tree
    /// descent per layer, `L × depth` node probes with L = max overlap
    /// depth. Every probe reads a contiguous array (no pointer chasing),
    /// so a fleet-shaped set (thousands of disjoint rules under a few
    /// shared windows) pays L = 2 descents.
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

/// Keys per tree node: eight `u64` bases fill one 64-byte line.
const KEYS: usize = 8;
/// Children per inner node.
const FANOUT: usize = KEYS + 1;

/// One tree node: [`KEYS`] keys in one cache line.
#[derive(Clone, Copy, Debug)]
#[repr(align(64))]
struct Node([u64; KEYS]);

/// How many of `node`'s keys are at most `x`, for `x < u64::MAX`: all
/// of them less those above `x`, which are exactly the keys `k` for
/// which `x - k` borrows. Taking each borrow off a running count
/// compiles to a chain of scalar compare-and-borrow pairs. A sum of
/// `(k <= x) as usize`, or of the borrows, can instead be vectorized on
/// the x86-64 baseline, which has no 64-bit vector compare, into scalar
/// compares packed into a vector and counted with multiplies, measured
/// several times slower.
#[inline(always)]
fn count_le(node: &Node, x: u64) -> usize {
    node.0.iter().fold(KEYS, |count, &k| {
        count - usize::from(x.overflowing_sub(k).1)
    })
}

/// A static search tree over ascending keys: a B+ tree with [`KEYS`]
/// keys and [`FANOUT`] children per node, laid out level by level, root
/// first, in one array. The bottom level is the keys themselves, eight
/// to a node. The children of inner node `m` of a level are nodes
/// `FANOUT·m ..= FANOUT·m + 8` of the level below, and its `j`-th key is
/// the first key under child `j + 1`. Every slot past the last key or
/// child holds `u64::MAX`, so a search for any `x < u64::MAX` never
/// counts one.
#[derive(Clone, Debug)]
struct Tree {
    nodes: Box<[Node]>,
    /// Where each level starts in `nodes`, root first; the last entry is
    /// the bottom level.
    levels: Box<[usize]>,
    /// Number of keys.
    len: usize,
}

impl Tree {
    /// The tree over `keys`, which ascend.
    fn new(keys: impl ExactSizeIterator<Item = u64>) -> Tree {
        let len = keys.len();
        // Node counts per level, bottom up, ending at the one root.
        let mut counts = vec![len.div_ceil(KEYS).max(1)];
        while let Some(&below) = counts.last().filter(|&&c| c > 1) {
            counts.push(below.div_ceil(FANOUT));
        }
        let levels: Box<[usize]> = counts
            .iter()
            .rev()
            .scan(0, |start, &count| {
                let at = *start;
                *start += count;
                Some(at)
            })
            .collect();
        let mut nodes = vec![Node([u64::MAX; KEYS]); counts.iter().sum()];
        let bottom = levels[levels.len() - 1];
        for (i, key) in keys.enumerate() {
            nodes[bottom + i / KEYS].0[i % KEYS] = key;
        }
        // The first key under each node of the level just filled; every
        // node holds at least one key.
        let mut firsts: Vec<u64> = nodes[bottom..].iter().map(|n| n.0[0]).collect();
        for (&start, &count) in levels.iter().rev().zip(&counts).skip(1) {
            for (m, node) in nodes[start..start + count].iter_mut().enumerate() {
                for (j, key) in node.0.iter_mut().enumerate() {
                    *key = firsts.get(FANOUT * m + j + 1).copied().unwrap_or(u64::MAX);
                }
            }
            firsts = (0..count).map(|m| firsts[FANOUT * m]).collect();
        }
        Tree {
            nodes: nodes.into_boxed_slice(),
            levels,
            len,
        }
    }

    /// How many keys are at most `x`: one counted node per level.
    #[inline(always)]
    fn rank(&self, x: u64) -> usize {
        // Every key is at most `u64::MAX`, the padding included.
        if x == u64::MAX {
            return self.len;
        }
        let (&bottom, inner) = self.levels.split_last().expect("a tree has a level");
        let mut child = 0;
        for &start in inner {
            child = FANOUT * child + count_le(&self.nodes[start + child], x);
        }
        KEYS * child + count_le(&self.nodes[bottom + child], x)
    }
}

/// Pairwise-disjoint regions in base order, searched by their bases.
#[derive(Clone, Debug)]
struct Layer {
    tree: Tree,
    /// The store-order position of the layer's `i`-th region; empty when
    /// the layer is the whole rule list in store order.
    positions: Box<[usize]>,
}

impl Layer {
    /// The store-order position of the one region that can cover an
    /// access at `addr`: the last whose base is at most `addr`. Always
    /// inlined: both arms of [`FrozenStore::lookup_frozen`] call it, and
    /// a call per lookup made 6 rules slower than the binary search this
    /// tree replaced.
    #[inline(always)]
    fn candidate(&self, addr: VAddr) -> Option<usize> {
        let i = self.tree.rank(addr.raw()).checked_sub(1)?;
        Some(self.positions.get(i).copied().unwrap_or(i))
    }
}

/// Immutable region set with `&self` lookup, built at snapshot-publish
/// time. See the module docs for the exact semantics contract.
#[derive(Clone, Debug)]
pub struct FrozenStore {
    /// Regions in original store order (what `regions()` exposes); the
    /// layers index into it, so each region is kept once.
    regions: Vec<Region>,
    layers: Vec<Layer>,
}

impl FrozenStore {
    /// Build the index for `regions`, the rule list in store order: one
    /// layer when the set is pairwise disjoint, the layered
    /// decomposition otherwise. A list already in base order with each
    /// region ending below the next one's base (the sorted kind's, and a
    /// datapath table's) is the one layer as it stands: no sort, no
    /// positions. Zero-length regions cover nothing and join no layer.
    pub fn build(regions: Vec<Region>) -> FrozenStore {
        let ascending = regions.iter().all(|r| !r.is_empty())
            && regions
                .windows(2)
                .all(|w| w[0].last().is_some_and(|last| last < w[1].base));
        let layers = if !ascending {
            // Stable: equal bases keep their store order.
            let mut by_base: Vec<usize> = (0..regions.len())
                .filter(|&p| !regions[p].is_empty())
                .collect();
            by_base.sort_by_key(|&p| regions[p].base);
            // Greedy interval partitioning in base order: each region
            // goes into the first layer whose most recent region it does
            // not overlap. Layers stay base-sorted and disjoint.
            let mut layers: Vec<Vec<usize>> = Vec::new();
            for p in by_base {
                let fits = |layer: &&mut Vec<usize>| {
                    !layer
                        .last()
                        .is_some_and(|&q| regions[q].overlaps(&regions[p]))
                };
                match layers.iter_mut().find(fits) {
                    Some(layer) => layer.push(p),
                    None => layers.push(vec![p]),
                }
            }
            layers
                .into_iter()
                .map(|positions| Layer {
                    tree: Tree::new(positions.iter().map(|&p| regions[p].base.raw())),
                    positions: positions.into_boxed_slice(),
                })
                .collect()
        } else if regions.is_empty() {
            Vec::new()
        } else {
            vec![Layer {
                tree: Tree::new(regions.iter().map(|r| r.base.raw())),
                positions: Box::default(),
            }]
        };
        FrozenStore { regions, layers }
    }

    /// Which index this store built.
    pub fn kind(&self) -> FrozenKind {
        if self.layers.len() > 1 {
            FrozenKind::Interval
        } else {
            FrozenKind::Sorted
        }
    }

    /// Node probes per layer: the depth of the deepest layer's tree (0
    /// for an empty store). A lookup makes at most `layers × depth`.
    pub fn depth(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.tree.levels.len())
            .max()
            .unwrap_or(0)
    }

    /// Number of layers: 1 for a disjoint set, the greedy partition's
    /// size for an overlapping one, 0 for an empty store.
    pub fn layers(&self) -> usize {
        self.layers.len()
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
        // A disjoint set, the common shape: its one candidate decides.
        if let [layer] = &self.layers[..] {
            let Some(r) = layer.candidate(addr).map(|pos| self.regions[pos]) else {
                return Lookup::NoMatch;
            };
            return if !r.covers(addr, size) {
                Lookup::NoMatch
            } else if r.prot.allows(flags) {
                Lookup::Permitted(r)
            } else {
                Lookup::Forbidden(r)
            };
        }
        // One candidate per layer. Track the granting and covering
        // candidates with the smallest store-order position — no early
        // exit, the first-in-store-order grant may sit in any layer.
        let mut grant: Option<(usize, Region)> = None;
        let mut cover: Option<(usize, Region)> = None;
        for layer in &self.layers {
            let Some(pos) = layer.candidate(addr) else {
                continue;
            };
            let r = self.regions[pos];
            if !r.covers(addr, size) {
                continue;
            }
            if r.prot.allows(flags) {
                if grant.is_none_or(|(p, _)| pos < p) {
                    grant = Some((pos, r));
                }
            } else if cover.is_none_or(|(p, _)| pos < p) {
                cover = Some((pos, r));
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
    fn zero_length_regions_join_no_layer() {
        // An empty region covers nothing, so it must not stand in for
        // the region it sits inside as the layer's candidate.
        let regions = vec![
            r(0x1000, 0x100, Protection::ALL),
            Region::new(VAddr(0x1050), Size(0), Protection::NONE).unwrap(),
        ];
        let f = FrozenStore::build(regions.clone());
        assert_eq!((f.len(), f.layers()), (2, 1));
        assert_eq!(
            f.lookup_frozen(VAddr(0x1060), Size(8), AccessFlags::READ),
            Lookup::Permitted(regions[0])
        );
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
        // last() is inclusive u64::MAX; end() would be None. The layered
        // index must survive this.
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
