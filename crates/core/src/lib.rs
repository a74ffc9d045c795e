//! # kop-core
//!
//! Shared primitives for the CARAT KOP reproduction: virtual addresses
//! and sizes, access flags, memory regions and cached grants, cycle
//! accounting types, and the error/violation vocabulary used across every
//! other crate in the workspace.
//!
//! These types intentionally mirror the vocabulary of the paper: a *guard*
//! receives `(addr, size, access_flags)` and the policy module compares that
//! triple against a table of [`Region`]s.

#![warn(missing_docs)]

pub mod access;
pub mod addr;
pub mod cycles;
pub mod error;
pub mod layout;
pub mod region;

pub use access::{AccessFlags, Protection};
pub use addr::{Size, VAddr};
pub use cycles::Cycles;
pub use error::{KernelError, KernelResult, Violation};
pub use region::{Grant, Region};
