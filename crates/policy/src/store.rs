//! The rule list's admission contract.
//!
//! A [`crate::module::PolicyModule`] keeps its firewall rules as one list
//! in store order and answers every check from the frozen snapshot built
//! from that list ([`crate::frozen::FrozenStore`]). What a deployment
//! chooses is only which lists are admissible — the [`StoreKind`]:
//!
//! * [`StoreKind::Table`] — the paper's table (§3.1): insertion order, at
//!   most [`MAX_REGIONS`] rules, overlapping rules allowed;
//! * [`StoreKind::Sorted`] — the paper's first scaling step (§4.2): base
//!   order, no cap, overlapping rules rejected ("the primary tradeoff" of
//!   the non-table structures, §3.1).
//!
//! [`admit`] checks a whole list with one sort, O(n log n), and accepts
//! exactly the lists a run of single inserts into an empty store would
//! accept.

use core::fmt;

use kop_core::{Region, VAddr};

/// Maximum number of rules in the paper's table.
pub const MAX_REGIONS: usize = 64;

/// Errors raised by policy mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PolicyError {
    /// The structure's capacity is exhausted (the paper's table holds 64).
    TableFull {
        /// The capacity that was hit.
        capacity: usize,
    },
    /// This structure cannot hold overlapping regions (the paper notes this
    /// as "the primary tradeoff" of the non-table structures).
    Overlap {
        /// The existing region that overlaps the inserted one.
        existing: Region,
    },
    /// A rule with exactly this base address already exists. Bases key
    /// removal (`remove(base)`), so two rules sharing one base would make
    /// removal ambiguous; every store kind rejects them.
    DuplicateBase {
        /// The existing region with the same base.
        existing: Region,
    },
    /// Zero-length regions are meaningless firewall rules.
    ZeroLength,
    /// `base + len` would overflow the address space.
    Overflow,
    /// No region with the given base exists.
    NoSuchRegion {
        /// The base address requested.
        base: VAddr,
    },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::TableFull { capacity } => {
                write!(f, "policy table full ({capacity} regions)")
            }
            PolicyError::Overlap { existing } => {
                write!(f, "region overlaps existing rule {existing}")
            }
            PolicyError::DuplicateBase { existing } => {
                write!(f, "region duplicates base of existing rule {existing}")
            }
            PolicyError::ZeroLength => f.write_str("zero-length region"),
            PolicyError::Overflow => f.write_str("region overflows address space"),
            PolicyError::NoSuchRegion { base } => write!(f, "no region with base {base}"),
        }
    }
}

impl std::error::Error for PolicyError {}

/// Outcome of a region lookup for a specific access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// Some region covers the whole access and grants the intent.
    Permitted(Region),
    /// At least one region covers the whole access, but none grant the
    /// intent (e.g. a write to a read-only region).
    Forbidden(Region),
    /// No region covers the whole access — fall back to the default action.
    NoMatch,
}

/// Which admission contract a rule list follows — used in reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StoreKind {
    /// The paper's 64-entry table: insertion order, overlaps allowed.
    Table,
    /// Base-sorted rules (the paper's O(log n) suggestion): no cap,
    /// overlaps rejected.
    Sorted,
}

impl StoreKind {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            StoreKind::Table => "table64",
            StoreKind::Sorted => "sorted",
        }
    }

    /// All kinds (for sweeps in figures and tests).
    pub const ALL: [StoreKind; 2] = [StoreKind::Table, StoreKind::Sorted];
}

impl fmt::Display for StoreKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Reject regions that are degenerate on their own.
fn validate_region(region: &Region) -> Result<(), PolicyError> {
    if region.len.raw() == 0 {
        return Err(PolicyError::ZeroLength);
    }
    if region.base.checked_add(region.len.raw() - 1).is_none() {
        return Err(PolicyError::Overflow);
    }
    Ok(())
}

/// Admit `rules`, given in insertion order, under `kind`'s contract and
/// return them in store order. Accepts exactly the lists a run of single
/// inserts into an empty store accepts; otherwise fails with the error
/// the first rejected insert raises — zero length, overflow and
/// duplicate base first, then [`PolicyError::TableFull`] or
/// [`PolicyError::Overlap`].
pub(crate) fn admit(kind: StoreKind, rules: Vec<Region>) -> Result<Vec<Region>, PolicyError> {
    if let Some(by_base) = sorted_if_admissible(kind, &rules) {
        return Ok(match kind {
            StoreKind::Table => rules,
            StoreKind::Sorted => by_base,
        });
    }
    // Every prefix of an admissible list is admissible, so the longest
    // admissible prefix — what a run of inserts accepts before its first
    // rejection — is found by binary search.
    let (mut ok, mut bad) = (0, rules.len());
    while bad - ok > 1 {
        let mid = ok + (bad - ok) / 2;
        if sorted_if_admissible(kind, &rules[..mid]).is_some() {
            ok = mid;
        } else {
            bad = mid;
        }
    }
    Err(rejection(kind, &rules[..ok], &rules[ok]))
}

/// `rules` sorted by base, if the list is admissible under `kind`.
fn sorted_if_admissible(kind: StoreKind, rules: &[Region]) -> Option<Vec<Region>> {
    if kind == StoreKind::Table && rules.len() > MAX_REGIONS {
        return None;
    }
    if rules.iter().any(|r| validate_region(r).is_err()) {
        return None;
    }
    let mut by_base = rules.to_vec();
    by_base.sort_unstable_by_key(|r| r.base);
    // Equal bases sit next to each other once sorted, and a base-sorted
    // list whose neighbours are disjoint is pairwise disjoint.
    let clash = |a: &Region, b: &Region| match kind {
        StoreKind::Table => a.base == b.base,
        StoreKind::Sorted => a.overlaps(b),
    };
    by_base
        .windows(2)
        .all(|w| !clash(&w[0], &w[1]))
        .then_some(by_base)
}

/// Why inserting `region` after the admissible list `accepted` fails.
/// Called only when `accepted` plus `region` is not admissible.
fn rejection(kind: StoreKind, accepted: &[Region], region: &Region) -> PolicyError {
    if let Err(e) = validate_region(region) {
        return e;
    }
    if let Some(&existing) = accepted.iter().find(|r| r.base == region.base) {
        return PolicyError::DuplicateBase { existing };
    }
    match kind {
        StoreKind::Table => PolicyError::TableFull {
            capacity: MAX_REGIONS,
        },
        StoreKind::Sorted => {
            // `accepted` is disjoint, so only the neighbours of `region`
            // in base order can overlap it; the predecessor is reported
            // first.
            let pred = accepted
                .iter()
                .filter(|r| r.base < region.base)
                .max_by_key(|r| r.base);
            let succ = accepted
                .iter()
                .filter(|r| r.base > region.base)
                .min_by_key(|r| r.base);
            let existing = [pred, succ]
                .into_iter()
                .flatten()
                .find(|r| r.overlaps(region))
                .expect("an inadmissible sorted insert overlaps a neighbour");
            PolicyError::Overlap {
                existing: *existing,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kop_core::{Protection, Size};

    fn r(base: u64, len: u64) -> Region {
        Region::new(VAddr(base), Size(len), Protection::READ_WRITE).unwrap()
    }

    #[test]
    fn validate_rejects_degenerate_regions() {
        let zero = Region {
            base: VAddr(0x1000),
            len: Size(0),
            prot: Protection::ALL,
        };
        assert_eq!(validate_region(&zero), Err(PolicyError::ZeroLength));
        let wraps = Region {
            base: VAddr(u64::MAX - 0x10),
            len: Size(0x100),
            prot: Protection::ALL,
        };
        assert_eq!(validate_region(&wraps), Err(PolicyError::Overflow));
        assert_eq!(validate_region(&r(0x1000, 0x1000)), Ok(()));
    }

    #[test]
    fn kinds_have_distinct_names() {
        let names: std::collections::BTreeSet<&str> =
            StoreKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), StoreKind::ALL.len());
    }

    #[test]
    fn first_rejected_insert_names_the_error() {
        // The overlap at index 2 is reported against the predecessor
        // even though a later rule would also clash.
        let rules = vec![
            r(0x1000, 0x1000),
            r(0x4000, 0x1000),
            r(0x1800, 0x3000),
            r(0x1000, 0x10),
        ];
        assert_eq!(
            admit(StoreKind::Sorted, rules.clone()),
            Err(PolicyError::Overlap {
                existing: r(0x1000, 0x1000)
            })
        );
        // The table allows the overlap and trips on the duplicate base.
        assert_eq!(
            admit(StoreKind::Table, rules),
            Err(PolicyError::DuplicateBase {
                existing: r(0x1000, 0x1000)
            })
        );
        // With no predecessor, the successor is the clash.
        assert_eq!(
            admit(StoreKind::Sorted, vec![r(0x2000, 0x100), r(0x1f00, 0x200)]),
            Err(PolicyError::Overlap {
                existing: r(0x2000, 0x100)
            })
        );
    }

    #[test]
    fn degenerate_rule_beats_the_cap() {
        let mut rules: Vec<Region> = (0..MAX_REGIONS as u64)
            .map(|i| r(i * 0x1000, 0x800))
            .collect();
        rules.push(r(0x100_0000, 0x800));
        assert_eq!(
            admit(StoreKind::Table, rules.clone()),
            Err(PolicyError::TableFull {
                capacity: MAX_REGIONS
            })
        );
        rules[MAX_REGIONS].len = Size(0);
        assert_eq!(
            admit(StoreKind::Table, rules.clone()),
            Err(PolicyError::ZeroLength)
        );
        // The sorted kind has no cap.
        rules.pop();
        rules.push(r(0x100_0000, 0x800));
        assert_eq!(
            admit(StoreKind::Sorted, rules).map(|v| v.len()),
            Ok(MAX_REGIONS + 1)
        );
    }
}
