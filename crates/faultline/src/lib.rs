//! # kop-faultline — deterministic fault injection for the simulation
//!
//! The paper's robustness claim is qualitative: a guarded module that
//! violates policy is caught before it corrupts the kernel. This crate
//! makes the claim *measurable* by injecting faults — deterministically,
//! from a seed — at the device seam: [`FaultyMem`] wraps any
//! [`kop_e1000e::MemSpace`] and misbehaves like failing hardware. MMIO
//! reads return all-ones (surprise removal), the TX DMA engine hangs
//! (TDH stuck), frames are dropped on the wire side, the link flaps,
//! descriptor reads come back with a flipped bit, and interrupts storm
//! or go missing.
//!
//! Every fault site is driven by a [`FaultPoint`] whose [`Trigger`] fires
//! on the nth event, inside an event window, or with a probability drawn
//! from a seeded RNG — so a fault storm replays bit-identically from its
//! seed, and the recovery machinery (driver watchdog/reset/retry, module
//! quarantine) can be regression-tested instead of hand-waved. One more
//! point, `restart_storm`, is consumed by no wrapper: the soak harness
//! checks it once per supervision round to make a supervised module
//! misbehave.

#![warn(missing_docs)]

pub mod mem;
pub mod plan;

pub use mem::{FaultStats, FaultyMem};
pub use plan::{FaultPlan, FaultPoint, Trigger};
