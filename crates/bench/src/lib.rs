//! # kop-bench — the benchmark harness
//!
//! One generator per figure in the paper's evaluation (§4.2), plus the
//! ablations DESIGN.md calls out. Each generator returns a
//! [`figures::FigureData`] whose series can be rendered as text (the
//! `reproduce` binary) and asserted on (the regression tests in
//! `tests/`). The host-timed figures measure the *real* wall-clock cost
//! of those code paths through one harness (`figures/measure.rs`).

#![warn(missing_docs)]

pub mod baseline;
pub mod corpus;
pub mod figures;
pub mod setup;

pub use figures::{FigureData, Series};
