//! # kop-kernel — the simulated monolithic kernel substrate
//!
//! CARAT KOP operationalizes its guards *"within the Linux kernel"*: the
//! policy module is inserted into the kernel, protected modules are
//! validated and linked at insertion time, and a root user drives the
//! policy through `ioctl /dev/carat` (paper §3, Figure 1). This crate is
//! that substrate, simulated:
//!
//! * [`mem`] — a sparse simulated physical/virtual memory with page
//!   permissions (module text is mapped read-only, §2),
//! * [`symbols`] — the kernel's exported-symbol table, including the
//!   *private* export of `carat_guard`,
//! * [`loader`] — `insmod`/`rmmod`: signature verification against the
//!   trusted compiler keys, IR re-verification, import resolution, module
//!   memory layout, and global initialization,
//! * [`chardev`] — character devices with ioctl dispatch; `/dev/carat` is
//!   registered at boot and speaks the `kop-policy` manager protocol,
//! * [`kernel`] — the [`kernel::Kernel`] object tying it all together,
//!   including the kernel log (`dmesg`) and the panic model (panics are
//!   values, so tests can assert the paper's "log and panic" behaviour).

#![warn(missing_docs)]

pub mod chardev;
pub mod kernel;
pub mod lifecycle;
pub mod loader;
pub mod mem;
pub mod objects;
pub mod symbols;

pub use kernel::{
    Kernel, KernelConfig, QuarantineRecord, Verification, TRACE_DEV, VIOLATION_BUDGET,
};
pub use lifecycle::{LifecycleState, ModuleLifecycle};
pub use loader::{
    LoadedModule, LoweredModule, ModuleImage, ModuleLayout, ModuleReservation, ModuleStager,
    StageError, StagedModule,
};
pub use mem::{FaultHook, SimMemory};
pub use objects::{FileHandle, QueueHandle};
pub use symbols::{Symbol, SymbolKind, SymbolTable, Visibility};
