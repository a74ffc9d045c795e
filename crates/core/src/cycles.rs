//! Cycle accounting.
//!
//! The paper measures packet-launch latency "in cycles using the cycle
//! counter" (§4.2, Figure 7). The simulation keeps a deterministic virtual
//! TSC; [`Cycles`] is its unit.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Mul, Sub};

/// A count of CPU cycles on the simulated machine.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Construct from a raw count.
    #[inline]
    pub const fn new(v: u64) -> Self {
        Cycles(v)
    }

    /// Raw count.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Cycles(100);
        let b = Cycles(40);
        assert_eq!(a + b, Cycles(140));
        assert_eq!(a - b, Cycles(60));
        assert_eq!(b * 3, Cycles(120));
        assert_eq!(b.saturating_sub(a), Cycles::ZERO);
    }

    #[test]
    fn sum() {
        let total: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(total, Cycles(6));
    }
}
