//! Address and size newtypes.
//!
//! The simulated kernel uses 64-bit virtual addresses laid out like x86-64
//! Linux (see [`crate::layout`]). Wrapping arithmetic is used everywhere a
//! real kernel would silently wrap, but range-checked helpers are provided
//! so higher layers can reject overflowing accesses instead of wrapping.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A 64-bit virtual address in the simulated kernel's address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VAddr(pub u64);

/// A byte count. Guards receive the access size alongside the address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Size(pub u64);

impl VAddr {
    /// The null address.
    pub const NULL: VAddr = VAddr(0);

    /// Construct from a raw 64-bit value.
    #[inline]
    pub const fn new(v: u64) -> Self {
        VAddr(v)
    }

    /// Raw value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Offset by `off` bytes, wrapping on overflow (kernel pointer math).
    #[inline]
    pub const fn wrapping_add(self, off: u64) -> VAddr {
        VAddr(self.0.wrapping_add(off))
    }

    /// Offset by `off` bytes; `None` on overflow.
    #[inline]
    pub fn checked_add(self, off: u64) -> Option<VAddr> {
        self.0.checked_add(off).map(VAddr)
    }

    /// The distance in bytes from `base` to `self`; `None` if `self < base`.
    #[inline]
    pub fn offset_from(self, base: VAddr) -> Option<u64> {
        self.0.checked_sub(base.0)
    }

    /// Whether the address is aligned to `align` (power of two).
    #[inline]
    pub fn is_aligned(self, align: u64) -> bool {
        debug_assert!(align.is_power_of_two());
        self.0 & (align - 1) == 0
    }
}

impl Size {
    /// Zero bytes.
    pub const ZERO: Size = Size(0);

    /// Construct from a raw byte count.
    #[inline]
    pub const fn new(v: u64) -> Self {
        Size(v)
    }

    /// Raw byte count.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl Add<u64> for VAddr {
    type Output = VAddr;
    #[inline]
    fn add(self, rhs: u64) -> VAddr {
        VAddr(self.0.wrapping_add(rhs))
    }
}

impl AddAssign<u64> for VAddr {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 = self.0.wrapping_add(rhs);
    }
}

impl Sub<VAddr> for VAddr {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: VAddr) -> u64 {
        self.0.wrapping_sub(rhs.0)
    }
}

impl Add for Size {
    type Output = Size;
    #[inline]
    fn add(self, rhs: Size) -> Size {
        Size(self.0 + rhs.0)
    }
}

impl From<u64> for VAddr {
    #[inline]
    fn from(v: u64) -> Self {
        VAddr(v)
    }
}

impl From<u64> for Size {
    #[inline]
    fn from(v: u64) -> Self {
        Size(v)
    }
}

impl From<usize> for Size {
    #[inline]
    fn from(v: usize) -> Self {
        Size(v as u64)
    }
}

impl fmt::Debug for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VAddr({:#018x})", self.0)
    }
}

impl fmt::Display for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

impl fmt::Display for Size {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} B", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_checks() {
        assert!(VAddr(0x1000).is_aligned(0x1000));
        assert!(!VAddr(0x1001).is_aligned(0x1000));
        assert!(VAddr(0).is_aligned(8));
    }

    #[test]
    fn checked_add_overflow() {
        assert_eq!(VAddr(u64::MAX).checked_add(1), None);
        assert_eq!(VAddr(10).checked_add(5), Some(VAddr(15)));
    }

    #[test]
    fn offset_from() {
        assert_eq!(VAddr(100).offset_from(VAddr(40)), Some(60));
        assert_eq!(VAddr(40).offset_from(VAddr(100)), None);
    }

    #[test]
    fn pointer_subtraction_wraps() {
        assert_eq!(VAddr(0) - VAddr(1), u64::MAX);
        assert_eq!(VAddr(10) - VAddr(4), 6);
    }

    #[test]
    fn size_conversions() {
        let s: Size = 128usize.into();
        assert_eq!(s.raw(), 128);
        assert_eq!((s + Size::new(2)).raw(), 130);
    }
}
