//! Property tests for the frozen snapshot-side index (DESIGN §3.19) and
//! the rule list's admission contract.
//!
//! Two families:
//!
//! 1. **Lookup parity** — [`FrozenStore`] (both index shapes, including
//!    the fleet-scale layered index) must agree *bit-for-bit* with the
//!    reference linear scan over the same region vector: same verdict
//!    class and the same witness region, including store-order
//!    tiebreaks among overlapping rules. Checked for arbitrary
//!    (overlapping) sets, for every store kind's published snapshot, at
//!    5,000 regions, and at the search tree's edges: every rule count
//!    from 0 to 200 (one node holds 8 keys, so the tree deepens at 9 and
//!    73 rules) and 4,102, probed at and beside every base and last
//!    byte and at both ends of the address space, with the top rule
//!    ending at 2^64 or sitting at base `u64::MAX` — the key that
//!    equals the tree's padding. The tree's depth is checked too: it is
//!    the number of node probes a layer's lookup makes.
//!
//! 2. **Admission** — for both [`StoreKind`]s, `add_region` must return
//!    exactly what a one-rule-at-a-time linear reference of the insert
//!    contract returns, and one `replace_regions` over the same list must
//!    accept exactly the lists that run of inserts accepts, end with the
//!    same `regions()`, and fail with the run's first error.

use proptest::prelude::*;

use kop_core::{AccessFlags, Protection, Region, Size, VAddr};
use kop_policy::{FrozenStore, Lookup, PolicyError, PolicyModule, StoreKind, MAX_REGIONS};

/// The reference semantics, straight from the paper's flat table: the
/// first granting region in store order wins; otherwise the first
/// covering region forbids; otherwise no rule matches.
fn linear_scan(regions: &[Region], addr: VAddr, size: Size, flags: AccessFlags) -> Lookup {
    let mut covering = None;
    for r in regions {
        if r.covers(addr, size) {
            if r.prot.allows(flags) {
                return Lookup::Permitted(*r);
            }
            if covering.is_none() {
                covering = Some(*r);
            }
        }
    }
    match covering {
        Some(r) => Lookup::Forbidden(r),
        None => Lookup::NoMatch,
    }
}

fn prot_of(sel: u32) -> Protection {
    match sel {
        0 => Protection::READ_ONLY,
        1 => Protection::READ_WRITE,
        2 => Protection::ALL,
        _ => Protection::NONE,
    }
}

fn flags_of(sel: u32) -> AccessFlags {
    match sel {
        0 => AccessFlags::READ,
        1 => AccessFlags::WRITE,
        _ => AccessFlags::RW,
    }
}

/// Arbitrary — freely overlapping — region vectors.
fn arb_overlapping(max: usize) -> impl Strategy<Value = Vec<Region>> {
    proptest::collection::vec((0u64..0x4000, 1u64..0x1000, 0u32..4), 1..max).prop_map(|specs| {
        specs
            .into_iter()
            .map(|(slot, len, p)| {
                Region::new(VAddr(0x10_0000 + slot * 0x10), Size(len), prot_of(p)).expect("fits")
            })
            .collect()
    })
}

fn arb_access() -> impl Strategy<Value = (VAddr, Size, AccessFlags)> {
    (0u64..0x5000, 1u64..96, 0u32..3)
        .prop_map(|(off, size, f)| (VAddr(0x10_0000 + off * 0x10), Size(size), flags_of(f)))
}

/// Disjoint regions on a grid (admissible under every store kind).
fn arb_disjoint(max: usize) -> impl Strategy<Value = Vec<Region>> {
    proptest::collection::vec((0u64..200, 1u64..0x1000, 0u32..4), 1..max).prop_map(|specs| {
        let mut used = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for (slot, len, p) in specs {
            if !used.insert(slot) {
                continue;
            }
            out.push(
                Region::new(VAddr(0x10_0000 + slot * 0x1000), Size(len), prot_of(p)).expect("fits"),
            );
        }
        out
    })
}

/// The insert contract one rule at a time, with linear scans — the
/// oracle for admission. Degenerate rules and duplicate bases are
/// rejected first, then the table's cap or the sorted kind's overlap
/// with the predecessor, then the successor, in base order.
fn reference_insert(
    kind: StoreKind,
    rules: &mut Vec<Region>,
    region: Region,
) -> Result<(), PolicyError> {
    if region.len.raw() == 0 {
        return Err(PolicyError::ZeroLength);
    }
    if region.base.checked_add(region.len.raw() - 1).is_none() {
        return Err(PolicyError::Overflow);
    }
    if let Some(&existing) = rules.iter().find(|r| r.base == region.base) {
        return Err(PolicyError::DuplicateBase { existing });
    }
    match kind {
        StoreKind::Table => {
            if rules.len() >= MAX_REGIONS {
                return Err(PolicyError::TableFull {
                    capacity: MAX_REGIONS,
                });
            }
            rules.push(region);
        }
        StoreKind::Sorted => {
            let pred = rules
                .iter()
                .filter(|r| r.base < region.base)
                .max_by_key(|r| r.base);
            let succ = rules
                .iter()
                .filter(|r| r.base > region.base)
                .min_by_key(|r| r.base);
            for &existing in [pred, succ].into_iter().flatten() {
                if existing.overlaps(&region) {
                    return Err(PolicyError::Overlap { existing });
                }
            }
            rules.push(region);
            rules.sort_by_key(|r| r.base);
        }
    }
    Ok(())
}

/// Insert sequences that reach every outcome: grid rules that are
/// mostly disjoint, some spanning their neighbours (overlap; mid-slot
/// ones can overlap on both sides), shared slots (duplicate bases),
/// zero-length and overflowing rules, and runs long enough to fill the
/// 64-rule table. Half the sequences are clean — distinct slots, no
/// degenerate or mid-slot rules — so whole reloads also succeed.
fn arb_inserts() -> impl Strategy<Value = Vec<Region>> {
    let specs = proptest::collection::vec((0u64..160, 1u64..0x3000, 0u32..4, 0u32..24), 1..110);
    (any::<bool>(), specs).prop_map(|(clean, specs)| {
        let mut slots = std::collections::BTreeSet::new();
        specs
            .into_iter()
            .filter(|&(slot, _, _, shape)| !clean || (shape > 1 && slots.insert(slot)))
            .map(|(slot, len, p, shape)| {
                let grid = 0x10_0000 + slot * 0x1000;
                let (base, len) = match shape {
                    0 => (grid, 0),
                    1 => (u64::MAX - 0x10, 0x100),
                    2 => (grid, len),
                    3..=5 if !clean => (grid + 0x800, len),
                    _ => (grid, len.min(0xfff)),
                };
                Region {
                    base: VAddr(base),
                    len: Size(len),
                    prot: prot_of(p),
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Frozen indexes agree with the linear scan on overlapping sets —
    /// verdict AND witness region (the tiebreak among covering rules).
    #[test]
    fn frozen_matches_linear_scan_exactly(
        regions in arb_overlapping(256),
        accesses in proptest::collection::vec(arb_access(), 1..96),
    ) {
        let frozen = FrozenStore::build(regions.clone());
        for &(addr, size, flags) in &accesses {
            let expect = linear_scan(&regions, addr, size, flags);
            prop_assert_eq!(
                frozen.lookup_frozen(addr, size, flags), expect,
                "frozen index {} diverges at {:?}", frozen.kind().name(), addr
            );
        }
    }

    /// Every store kind's published snapshot answers exactly like the
    /// linear scan over its own `regions()`.
    #[test]
    fn published_snapshot_agrees_with_every_store_kind(
        regions in arb_disjoint(48),
        accesses in proptest::collection::vec(arb_access(), 1..48),
    ) {
        for kind in StoreKind::ALL {
            let pm = PolicyModule::with_kind(kind);
            for r in &regions {
                pm.add_region(*r).expect("disjoint regions admitted");
            }
            let snap = pm.policy_snapshot();
            let listed = pm.regions();
            for &(addr, size, flags) in &accesses {
                prop_assert_eq!(
                    snap.lookup(addr, size, flags),
                    linear_scan(&listed, addr, size, flags),
                    "{} snapshot of {} diverges", snap.frozen_kind().name(), kind
                );
            }
        }
    }

    /// `add_region` matches the reference insert result for result, and
    /// one `replace_regions` over the same list accepts exactly when the
    /// whole run does, failing with the run's first error and otherwise
    /// ending with the same rules.
    #[test]
    fn replace_admits_exactly_what_a_run_of_inserts_admits(inserts in arb_inserts()) {
        for kind in StoreKind::ALL {
            let run = PolicyModule::with_kind(kind);
            let mut reference = Vec::new();
            let mut first_err = None;
            for r in &inserts {
                let want = reference_insert(kind, &mut reference, *r);
                prop_assert_eq!(run.add_region(*r), want.clone(), "{} insert {:?}", kind, r);
                if first_err.is_none() {
                    first_err = want.err();
                }
            }
            prop_assert_eq!(run.regions(), reference.clone(), "{} rules", kind);

            let whole = PolicyModule::with_kind(kind);
            let result = whole.replace_regions(inserts.iter().copied());
            match first_err {
                None => {
                    prop_assert_eq!(result, Ok(()), "{}", kind);
                    prop_assert_eq!(whole.regions(), reference, "{} rules", kind);
                }
                Some(e) => {
                    prop_assert_eq!(result, Err(e), "{}", kind);
                    prop_assert!(whole.regions().is_empty(), "{} failed replace kept rules", kind);
                }
            }
        }
    }
}

/// The fleet-scale end of the satellite: 5,000 regions through a
/// deterministic generator, thousands of probes, exact parity.
#[test]
fn frozen_agrees_with_linear_scan_at_5000_regions() {
    let mut state = 0x243f_6a88_85a3_08d3u64; // deterministic LCG
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut regions = Vec::with_capacity(5000);
    for _ in 0..5000 {
        let base = 0x10_0000 + (next() % 0x80_0000);
        let len = 1 + (next() % 0x800);
        let prot = prot_of((next() % 4) as u32);
        regions.push(Region::new(VAddr(base), Size(len), prot).unwrap());
    }
    let frozen = FrozenStore::build(regions.clone());
    assert_eq!(frozen.len(), 5000);
    for _ in 0..4000 {
        let addr = VAddr(0x10_0000 + (next() % 0x81_0000));
        let size = Size(1 + (next() % 64));
        let flags = flags_of((next() % 3) as u32);
        let expect = linear_scan(&regions, addr, size, flags);
        assert_eq!(frozen.lookup_frozen(addr, size, flags), expect);
    }
}

/// `n` disjoint rules in base order, with mixed lengths and gaps (some
/// adjacent), protections cycling through all four. With `top` the last
/// rule moves to the top of the address space: `Top::End` ends it at
/// 2^64, `Top::Byte` makes it one byte at base `u64::MAX`.
fn ladder(n: usize, top: Top) -> Vec<Region> {
    let mut base = 0x10_0000u64;
    let mut rules: Vec<Region> = (0..n as u64)
        .map(|i| {
            let len = 0x10 + (i * 0x37) % 0x200;
            let r = Region::new(VAddr(base), Size(len), prot_of((i % 4) as u32)).expect("fits");
            base += len + [0, 1, 0x40][(i % 3) as usize];
            r
        })
        .collect();
    if let Some(last) = rules.last_mut() {
        let (base, len) = match top {
            Top::Below => (last.base.raw(), last.len.raw()),
            Top::End => (u64::MAX - 0xff, 0x100),
            Top::Byte => (u64::MAX, 1),
        };
        *last = Region::new(VAddr(base), Size(len), last.prot).expect("fits");
    }
    rules
}

/// Where [`ladder`]'s last rule sits.
#[derive(Clone, Copy, Debug)]
enum Top {
    Below,
    End,
    Byte,
}

/// The probes the tree's edges live at: each base −1, +0 and +1, each
/// last byte and the byte past it, and 0, `u64::MAX − 1` and
/// `u64::MAX`.
fn edge_probes(rules: &[Region]) -> Vec<u64> {
    let mut probes = vec![0, u64::MAX - 1, u64::MAX];
    for r in rules {
        let (base, last) = (r.base.raw(), r.last().expect("non-empty").raw());
        probes.extend([base.wrapping_sub(1), base, base.wrapping_add(1)]);
        probes.extend([last, last.wrapping_add(1)]);
    }
    probes
}

/// Every store-order shape of the same rules: base order (one layer
/// over the list as it stands), reversed (one layer whose positions
/// differ from its order), and behind a read-only window over all of
/// them that comes first in store order (two layers; reads grant from
/// the window, writes from a rule under it).
fn shapes(rules: &[Region]) -> [Vec<Region>; 3] {
    let reversed = rules.iter().rev().copied().collect();
    let mut windowed = rules.to_vec();
    if let (Some(first), Some(last)) = (rules.first(), rules.iter().map(|r| r.last()).max()) {
        let last = last.expect("non-empty").raw();
        let len = last - first.base.raw() + 1;
        windowed.insert(
            0,
            Region::new(first.base, Size(len), Protection::READ_ONLY).expect("fits"),
        );
    }
    [rules.to_vec(), reversed, windowed]
}

/// Exact parity with the scan at every edge probe of `rules`, for
/// one-byte and 8-byte reads and writes.
fn assert_edges_agree(rules: &[Region], probes: &[u64]) {
    let frozen = FrozenStore::build(rules.to_vec());
    for (i, &addr) in probes.iter().enumerate() {
        let size = Size([1, 8][i % 2]);
        let flags = [AccessFlags::READ, AccessFlags::WRITE][(i / 2) % 2];
        assert_eq!(
            frozen.lookup_frozen(VAddr(addr), size, flags),
            linear_scan(rules, VAddr(addr), size, flags),
            "{} of {} rules ({} layers) at {addr:#x}, {size:?} {flags:?}",
            frozen.kind().name(),
            rules.len(),
            frozen.layers(),
        );
    }
}

#[test]
fn frozen_agrees_at_every_node_boundary_up_to_200_rules() {
    for n in 0..=200 {
        let rules = ladder(n, [Top::Below, Top::End, Top::Byte][n % 3]);
        let probes = edge_probes(&rules);
        for shape in shapes(&rules) {
            assert_edges_agree(&shape, &probes);
        }
    }
}

#[test]
fn frozen_agrees_at_the_edges_of_4102_rules() {
    // Base order and windowed; the scan is the cost, so one top.
    let rules = ladder(4102, Top::End);
    let probes = edge_probes(&rules);
    let [sorted, _, windowed] = shapes(&rules);
    assert_edges_agree(&sorted, &probes);
    assert_edges_agree(&windowed, &probes);
}

#[test]
fn the_top_byte_and_a_rule_ending_at_2_64_are_found() {
    // Both keys sit at the tree's padding value or next to it; a full
    // last node (8 and 72 keys) and a part-filled one both count.
    for n in [1, 7, 8, 9, 72, 73, 81, 4102] {
        let mut rules = ladder(n - 1, Top::Below);
        rules.push(Region::new(VAddr(u64::MAX), Size(1), Protection::READ_ONLY).expect("fits"));
        let frozen = FrozenStore::build(rules.clone());
        assert_eq!(
            frozen.lookup_frozen(VAddr(u64::MAX), Size(1), AccessFlags::READ),
            Lookup::Permitted(rules[n - 1]),
            "{n} rules"
        );
        rules[n - 1] =
            Region::new(VAddr(u64::MAX - 0xff), Size(0x100), Protection::READ_WRITE).expect("fits");
        let frozen = FrozenStore::build(rules.clone());
        for addr in [u64::MAX - 0xff, u64::MAX - 7, u64::MAX] {
            assert_eq!(
                frozen.lookup_frozen(VAddr(addr), Size(1), AccessFlags::WRITE),
                Lookup::Permitted(rules[n - 1]),
                "{n} rules at {addr:#x}"
            );
        }
    }
}

/// The probe bound as structure, not timing: a disjoint set is one
/// layer whose tree is 1, 2 and 4 nodes deep at the datapath's 6 rules,
/// the paper's 64 and the fleet's 4,102; one wide window adds a layer,
/// not depth.
#[test]
fn tree_depth_is_the_node_probe_count() {
    for (n, depth) in [
        (0, 0),
        (6, 1),
        (8, 1),
        (9, 2),
        (64, 2),
        (72, 2),
        (73, 3),
        (4102, 4),
    ] {
        let [sorted, _, windowed] = shapes(&ladder(n, Top::Below));
        let frozen = FrozenStore::build(sorted);
        assert_eq!(frozen.depth(), depth, "{n} disjoint rules");
        assert_eq!(frozen.layers(), usize::from(n > 0), "{n} disjoint rules");
        if n > 0 {
            let frozen = FrozenStore::build(windowed);
            assert_eq!(
                (frozen.layers(), frozen.depth()),
                (2, depth),
                "{n} rules under a window"
            );
        }
    }
}
