//! # kop-e1000e — simulated Intel e1000e-family NIC and driver
//!
//! The paper's evaluation vehicle (§4) is the in-tree `e1000e` driver for
//! Intel 1 Gbit/s NICs (their test card is an Intel CT with an 82574L
//! chipset), built out-of-tree both with and without the CARAT KOP
//! transformation. This crate reproduces that vehicle:
//!
//! * [`regs`] — the 8254x/82574 register map subset the driver touches,
//! * [`desc`] — legacy transmit/receive descriptor layouts,
//! * [`device`] — the NIC device model: register file, TX/RX rings walked
//!   by a DMA engine, interrupt cause/mask, statistics registers. DMA
//!   reads descriptors and payloads straight from "physical" memory —
//!   *not* through guards, exactly as the paper notes ("the overwhelming
//!   amount of data transfer occurs due to the DMA engine on the NIC,
//!   which is not checked (and thus not slowed) by CARAT KOP"),
//! * [`memspace`] — the driver's memory-access abstraction: [`memspace::DirectMem`]
//!   performs raw accesses (the *baseline* build) while
//!   [`memspace::GuardedMem`] invokes `carat_guard` before every access
//!   (the *transformed* build). Monomorphization makes this the native
//!   analogue of compile-time guard injection: the baseline build contains
//!   no trace of the guard code,
//! * [`driver`] — the driver itself: reset/bring-up, ring programming,
//!   transmit, cleanup, and receive, written once and instantiated over
//!   either memory space ("No code was modified in the driver"),
//! * [`mq`] — multi-queue TX: N worker threads, each with its own driver
//!   and ring, sharing only the policy module — the workload behind the
//!   `reproduce smp` figure.

#![warn(missing_docs)]

pub mod desc;
pub mod device;
pub mod driver;
pub mod memspace;
pub mod mq;
pub mod regs;

pub use device::{E1000Device, FrameSink, VecSink};
pub use driver::{DriverError, DriverStats, E1000Driver};
pub use memspace::{driver_site_map, AccessCounts, DirectMem, GuardedMem, MemSpace};
pub use mq::{run_mq_tx, run_mq_tx_with, run_queues, MqReport, QueueReport};
