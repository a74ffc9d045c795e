//! Memory regions and their algebra.
//!
//! A policy is a set of [`Region`]s — "firewall rules" in the paper's
//! terminology. Each entry stores a lower bound, a length, and protection
//! flags (§3.1). The algebra here (coverage, permission, overlap) is the
//! foundation shared by every policy data structure in `kop-policy`.

use core::fmt;

use crate::access::{AccessFlags, Protection};
use crate::addr::{Size, VAddr};

/// A contiguous address range with a protection.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    /// Lower bound (inclusive).
    pub base: VAddr,
    /// Length in bytes. A zero-length region matches nothing.
    pub len: Size,
    /// Permissions granted inside the region.
    pub prot: Protection,
}

impl Region {
    /// Construct a region. Returns `None` if `base + len` overflows the
    /// address space (the policy module rejects such rules at insert time).
    pub fn new(base: VAddr, len: Size, prot: Protection) -> Option<Region> {
        // `base + len` may equal 2^64 exactly (a region ending at the very
        // top); we allow that by checking `len - 1`.
        if len.raw() == 0 {
            return Some(Region { base, len, prot });
        }
        base.checked_add(len.raw() - 1)?;
        Some(Region { base, len, prot })
    }

    /// Whether the region is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len.raw() == 0
    }

    /// The last address contained in the region. `None` for empty regions.
    #[inline]
    pub fn last(&self) -> Option<VAddr> {
        if self.is_empty() {
            None
        } else {
            Some(self.base.wrapping_add(self.len.raw() - 1))
        }
    }

    /// One past the last contained address, if representable.
    #[inline]
    pub fn end(&self) -> Option<VAddr> {
        self.base.checked_add(self.len.raw())
    }

    /// Whether `addr` lies inside the region.
    #[inline]
    pub fn contains_addr(&self, addr: VAddr) -> bool {
        match addr.offset_from(self.base) {
            Some(off) => off < self.len.raw(),
            None => false,
        }
    }

    /// Whether the whole access `[addr, addr+size)` lies inside the region.
    ///
    /// This is the check the guard performs: an access is covered by a rule
    /// only if *every* byte it touches is covered — an access straddling the
    /// region boundary is not covered.
    #[inline]
    pub fn covers(&self, addr: VAddr, size: Size) -> bool {
        if size.raw() == 0 {
            // Zero-sized accesses are vacuously covered if the address is in
            // range; the guard layer rejects them before lookup anyway.
            return self.contains_addr(addr);
        }
        let Some(off) = addr.offset_from(self.base) else {
            return false;
        };
        // off + size <= len, avoiding overflow.
        match off.checked_add(size.raw()) {
            Some(end) => end <= self.len.raw(),
            None => false,
        }
    }

    /// Whether the access is covered *and* the region grants the intent.
    #[inline]
    pub fn permits(&self, addr: VAddr, size: Size, flags: AccessFlags) -> bool {
        self.covers(addr, size) && self.prot.allows(flags)
    }

    /// Whether two regions overlap in at least one byte.
    pub fn overlaps(&self, other: &Region) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        let a_last = self.last().expect("non-empty");
        let b_last = other.last().expect("non-empty");
        self.base <= b_last && other.base <= a_last
    }
}

/// A cached grant: the region a policy lookup permitted an access by,
/// tagged with the generation of the snapshot that granted it.
/// Generations are drawn from one process-wide counter, so the tag names
/// one snapshot of one policy: a grant never admits under another policy.
///
/// Both guard fast paths keep grants per site: a guard front's slot and
/// a promoted tier's baked table. [`Grant::admits`] is their one
/// admit rule, so neither can admit an access the general check would
/// not permit by the same region.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Grant {
    /// The region that granted.
    pub region: Region,
    /// Generation of the snapshot the grant came from. No snapshot has
    /// generation 0, so a generation-0 grant is cold.
    pub gen: u64,
}

impl Grant {
    /// A cold grant: it admits nothing.
    pub const COLD: Grant = Grant {
        region: Region {
            base: VAddr(0),
            len: Size(0),
            prot: Protection::NONE,
        },
        gen: 0,
    };

    /// Whether the grant vouches for the access while `live_gen` is the
    /// policy's generation: the tag is live, the access is well formed
    /// (size above 0, a non-empty intent), and the region covers every
    /// byte and grants the intent ([`Region::permits`], the general
    /// check's own test). Anything else is the general check's to
    /// classify.
    #[inline]
    pub fn admits(&self, live_gen: u64, addr: VAddr, size: Size, flags: AccessFlags) -> bool {
        self.gen == live_gen
            && size.raw() > 0
            && !flags.is_empty()
            && self.region.permits(addr, size, flags)
    }
}

impl fmt::Debug for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Region[{:#x}..{:#x} {} ({} B)]",
            self.base.raw(),
            self.base.raw().wrapping_add(self.len.raw()),
            self.prot,
            self.len.raw()
        )
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:#018x} +{:#x} {}",
            self.base.raw(),
            self.len.raw(),
            self.prot
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(base: u64, len: u64) -> Region {
        Region::new(VAddr(base), Size(len), Protection::READ_WRITE).unwrap()
    }

    #[test]
    fn new_rejects_overflow() {
        assert!(Region::new(VAddr(u64::MAX), Size(2), Protection::ALL).is_none());
        // A region ending exactly at the top of the address space is fine.
        assert!(Region::new(VAddr(u64::MAX), Size(1), Protection::ALL).is_some());
        assert!(Region::new(VAddr(u64::MAX - 9), Size(10), Protection::ALL).is_some());
    }

    #[test]
    fn contains_and_covers() {
        let reg = r(100, 50);
        assert!(reg.contains_addr(VAddr(100)));
        assert!(reg.contains_addr(VAddr(149)));
        assert!(!reg.contains_addr(VAddr(150)));
        assert!(!reg.contains_addr(VAddr(99)));

        assert!(reg.covers(VAddr(100), Size(50)));
        assert!(reg.covers(VAddr(140), Size(10)));
        assert!(!reg.covers(VAddr(140), Size(11))); // straddles the end
        assert!(!reg.covers(VAddr(99), Size(2))); // straddles the start
    }

    #[test]
    fn covers_top_of_address_space() {
        let reg = Region::new(VAddr(u64::MAX - 7), Size(8), Protection::ALL).unwrap();
        assert!(reg.covers(VAddr(u64::MAX - 7), Size(8)));
        assert!(reg.covers(VAddr(u64::MAX), Size(1)));
        assert!(!reg.covers(VAddr(u64::MAX), Size(2))); // would wrap
    }

    #[test]
    fn permits_checks_protection() {
        let ro = Region::new(VAddr(0x1000), Size(0x100), Protection::READ_ONLY).unwrap();
        assert!(ro.permits(VAddr(0x1000), Size(8), AccessFlags::READ));
        assert!(!ro.permits(VAddr(0x1000), Size(8), AccessFlags::WRITE));
        assert!(!ro.permits(VAddr(0x1000), Size(8), AccessFlags::RW));
    }

    #[test]
    fn grant_admits_only_what_its_region_permits_while_live() {
        let rw = |base, len| Region::new(VAddr(base), Size(len), Protection::READ_WRITE).unwrap();
        let g = Grant {
            region: rw(0x1000, 0x1000),
            gen: 3,
        };
        let admits =
            |g: &Grant, gen, addr, size, flags| g.admits(gen, VAddr(addr), Size(size), flags);
        assert!(admits(&g, 3, 0x1800, 8, AccessFlags::RW));
        assert!(admits(&g, 3, 0x1ff8, 8, AccessFlags::READ));
        // Cold, and a stale tag.
        assert!(!admits(&Grant::COLD, 0, 0, 8, AccessFlags::READ));
        assert!(!admits(&Grant::COLD, 1, 0, 8, AccessFlags::READ));
        assert!(!admits(&g, 4, 0x1800, 8, AccessFlags::READ));
        // Malformed shapes: size 0, empty intent.
        assert!(!admits(&g, 3, 0x1800, 0, AccessFlags::READ));
        assert!(!admits(&g, 3, 0x1800, 8, AccessFlags::NONE));
        // Straddling either end.
        assert!(!admits(&g, 3, 0x0ffc, 8, AccessFlags::READ));
        assert!(!admits(&g, 3, 0x1ffc, 8, AccessFlags::READ));
        // A permission the region lacks.
        assert!(!admits(&g, 3, 0x1800, 8, AccessFlags::EXEC));
        let ro = Grant {
            region: Region::new(VAddr(0x1000), Size(0x1000), Protection::READ_ONLY).unwrap(),
            gen: 3,
        };
        assert!(!admits(&ro, 3, 0x1800, 8, AccessFlags::WRITE));
        // A region ending at 2^64: its last 8 bytes are admitted; an
        // access whose end wraps is not.
        let top = Grant {
            region: rw(u64::MAX - 0xfff, 0x1000),
            gen: 3,
        };
        assert!(admits(&top, 3, u64::MAX - 7, 8, AccessFlags::READ));
        assert!(admits(&top, 3, u64::MAX, 1, AccessFlags::READ));
        assert!(!admits(&top, 3, u64::MAX, 2, AccessFlags::READ));
        assert!(!admits(&top, 3, u64::MAX - 7, 16, AccessFlags::READ));
    }

    #[test]
    fn overlap_cases() {
        assert!(r(0, 10).overlaps(&r(9, 10)));
        assert!(!r(0, 10).overlaps(&r(10, 10)));
        assert!(r(5, 1).overlaps(&r(0, 10)));
        assert!(!r(0, 0).overlaps(&r(0, 10)));
        assert!(!r(0, 10).overlaps(&r(5, 0)));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_region() -> impl Strategy<Value = Region> {
        (0u64..10_000, 0u64..1_000)
            .prop_map(|(b, l)| Region::new(VAddr(b), Size(l), Protection::READ_WRITE).unwrap())
    }

    proptest! {
        #[test]
        fn overlap_is_symmetric(a in arb_region(), b in arb_region()) {
            prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        }

        #[test]
        fn covers_implies_contains_every_byte(a in arb_region(), off in 0u64..1200, sz in 1u64..64) {
            let addr = VAddr(a.base.raw().wrapping_add(off));
            if a.covers(addr, Size(sz)) {
                for i in 0..sz {
                    prop_assert!(a.contains_addr(addr.wrapping_add(i)));
                }
            }
        }
    }
}
