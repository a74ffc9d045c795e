//! Access intent flags and region protections.
//!
//! The paper's guard signature is
//! `void carat_guard(void* addr, size_t size, int access_flags)` where
//! `access_flags` is "a bitmap of flags that indicate the intent of the
//! access (read/write)". [`AccessFlags`] is that bitmap; [`Protection`] is
//! the per-region permission set it is checked against.

use core::fmt;
use core::ops::{BitAnd, BitOr, BitOrAssign};

/// Bitmap describing the intent of a single memory access.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessFlags(u32);

impl AccessFlags {
    /// No intent bits set (invalid for a real guard call).
    pub const NONE: AccessFlags = AccessFlags(0);
    /// The access reads memory.
    pub const READ: AccessFlags = AccessFlags(1 << 0);
    /// The access writes memory.
    pub const WRITE: AccessFlags = AccessFlags(1 << 1);
    /// The access fetches instructions. CARAT KOP itself does not guard
    /// instruction fetches (the paper relies on paging to keep module code
    /// read-only) but the bit exists so policies can express it.
    pub const EXEC: AccessFlags = AccessFlags(1 << 2);
    /// A read-modify-write access (e.g. an atomic op): both bits.
    pub const RW: AccessFlags = AccessFlags((1 << 0) | (1 << 1));

    /// Construct from the raw `int access_flags` ABI value.
    #[inline]
    pub const fn from_raw(v: u32) -> Self {
        AccessFlags(v)
    }

    /// Raw ABI value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Whether every bit in `other` is also set in `self`.
    #[inline]
    pub const fn contains(self, other: AccessFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no bits are set.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether the READ bit is set.
    #[inline]
    pub const fn is_read(self) -> bool {
        self.0 & Self::READ.0 != 0
    }

    /// Whether the WRITE bit is set.
    #[inline]
    pub const fn is_write(self) -> bool {
        self.0 & Self::WRITE.0 != 0
    }

    /// Whether the EXEC bit is set.
    #[inline]
    pub const fn is_exec(self) -> bool {
        self.0 & Self::EXEC.0 != 0
    }
}

impl BitOr for AccessFlags {
    type Output = AccessFlags;
    #[inline]
    fn bitor(self, rhs: Self) -> Self {
        AccessFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for AccessFlags {
    #[inline]
    fn bitor_assign(&mut self, rhs: Self) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for AccessFlags {
    type Output = AccessFlags;
    #[inline]
    fn bitand(self, rhs: Self) -> Self {
        AccessFlags(self.0 & rhs.0)
    }
}

impl fmt::Debug for AccessFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AccessFlags({self})")
    }
}

impl fmt::Display for AccessFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = if self.is_read() { "r" } else { "-" };
        let w = if self.is_write() { "w" } else { "-" };
        let x = if self.is_exec() { "x" } else { "-" };
        write!(f, "{r}{w}{x}")
    }
}

/// Permission set granted by a policy region: which access intents the
/// region allows.
///
/// A guard for access `a` against a region with protection `p` succeeds iff
/// `p.allows(a)` — i.e. every requested intent bit is granted.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Protection(AccessFlags);

impl Protection {
    /// Grants nothing: the region exists purely to *deny*.
    pub const NONE: Protection = Protection(AccessFlags::NONE);
    /// Read-only region.
    pub const READ_ONLY: Protection = Protection(AccessFlags::READ);
    /// Write-only region (rare; e.g. a doorbell-only MMIO page).
    pub const WRITE_ONLY: Protection = Protection(AccessFlags::WRITE);
    /// Read-write region.
    pub const READ_WRITE: Protection = Protection(AccessFlags::RW);
    /// Read-execute region (code).
    pub const READ_EXEC: Protection =
        Protection(AccessFlags(AccessFlags::READ.0 | AccessFlags::EXEC.0));
    /// All intents granted.
    pub const ALL: Protection = Protection(AccessFlags(
        AccessFlags::READ.0 | AccessFlags::WRITE.0 | AccessFlags::EXEC.0,
    ));

    /// Construct from granted flags.
    #[inline]
    pub const fn new(granted: AccessFlags) -> Self {
        Protection(granted)
    }

    /// The granted flags.
    #[inline]
    pub const fn granted(self) -> AccessFlags {
        self.0
    }

    /// Whether an access with intent `flags` is permitted.
    #[inline]
    pub const fn allows(self, flags: AccessFlags) -> bool {
        self.0.contains(flags)
    }
}

impl fmt::Debug for Protection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Protection({})", self.0)
    }
}

impl fmt::Display for Protection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_bits_distinct() {
        assert_eq!(AccessFlags::READ.raw() & AccessFlags::WRITE.raw(), 0);
        assert_eq!(AccessFlags::READ.raw() & AccessFlags::EXEC.raw(), 0);
        assert_eq!(AccessFlags::WRITE.raw() & AccessFlags::EXEC.raw(), 0);
    }

    #[test]
    fn rw_is_union() {
        assert_eq!(AccessFlags::RW, AccessFlags::READ | AccessFlags::WRITE);
        assert!(AccessFlags::RW.is_read());
        assert!(AccessFlags::RW.is_write());
        assert!(!AccessFlags::RW.is_exec());
    }

    #[test]
    fn contains_semantics() {
        assert!(AccessFlags::RW.contains(AccessFlags::READ));
        assert!(!AccessFlags::READ.contains(AccessFlags::RW));
        assert!(AccessFlags::READ.contains(AccessFlags::NONE));
    }

    #[test]
    fn protection_allows() {
        assert!(Protection::READ_ONLY.allows(AccessFlags::READ));
        assert!(!Protection::READ_ONLY.allows(AccessFlags::WRITE));
        assert!(!Protection::READ_ONLY.allows(AccessFlags::RW));
        assert!(Protection::READ_WRITE.allows(AccessFlags::RW));
        assert!(Protection::ALL.allows(AccessFlags::EXEC));
        assert!(!Protection::NONE.allows(AccessFlags::READ));
        // Vacuously, every protection allows the empty intent.
        assert!(Protection::NONE.allows(AccessFlags::NONE));
    }

    #[test]
    fn display_rwx() {
        assert_eq!(AccessFlags::READ.to_string(), "r--");
        assert_eq!(AccessFlags::RW.to_string(), "rw-");
        assert_eq!(Protection::ALL.to_string(), "rwx");
        assert_eq!(AccessFlags::NONE.to_string(), "---");
    }

    #[test]
    fn raw_roundtrip() {
        for raw in 0..8u32 {
            assert_eq!(AccessFlags::from_raw(raw).raw(), raw);
        }
    }
}
