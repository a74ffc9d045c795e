//! # kop-bench — the benchmark harness
//!
//! One generator per figure in the paper's evaluation (§4.2), plus the
//! ablations DESIGN.md calls out. Each generator returns a
//! [`figures::FigureData`] whose series can be rendered as text (the
//! `reproduce` binary) and asserted on (the regression tests in
//! `tests/`). Criterion benches under `benches/` measure the *real*
//! wall-clock cost of the same code paths on the host.

#![warn(missing_docs)]

pub mod baseline;
pub mod corpus;
pub mod figures;
pub mod setup;

pub use figures::{FigureData, Series};
