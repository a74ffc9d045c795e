//! Figure and claim generators — one per table/figure in the paper.
//!
//! Each generator runs the full pipeline (real driver model → counted
//! work → calibrated machine model → jittered trials) and returns a
//! [`FigureData`] with the same series the paper plots. The shapes — who
//! wins, by roughly what factor, where the crossovers sit — are the
//! reproduction target; absolute numbers are calibrated, as documented in
//! DESIGN.md and EXPERIMENTS.md.
//!
//! One module per generator, listed once in [`FIGURES`]. `data` holds
//! [`FigureData`], its renderings and the quick flag; `measure` is the
//! one timing harness of the host-timed figures (best-of-k over
//! interleaved configurations, per-batch p99); [`rig`] holds the set-ups
//! several generators share.

mod ablation_ds;
mod ablation_opt;
mod analysis;
mod claims;
mod data;
mod exec;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fleet;
mod forward;
mod jit;
mod measure;
mod opt;
mod resilience;
pub mod rig;
mod smp;
mod soak;
mod trace;

pub use ablation_ds::ablation_ds;
pub use ablation_opt::ablation_opt;
pub use analysis::analysis;
pub use claims::claims;
pub use exec::exec;
pub use fig3::fig3;
pub use fig4::fig4;
pub use fig5::fig5;
pub use fig6::fig6;
pub use fig7::fig7;
pub use fleet::fleet;
pub use forward::forward;
pub use jit::jit;
pub use opt::opt;
pub use resilience::resilience;
pub use smp::smp;
pub use soak::soak;
pub use trace::trace;

use data::quick;
pub use data::{set_quick, FigureData, Series};

/// A generator: every figure yields one [`FigureData`] but
/// `resilience`, which yields two.
pub type Generator = fn() -> Vec<FigureData>;

/// Every figure by the name `reproduce` takes, in report order
/// (`reproduce all` runs them all).
pub const FIGURES: &[(&str, Generator)] = &[
    ("fig3", || vec![fig3()]),
    ("fig4", || vec![fig4()]),
    ("fig5", || vec![fig5()]),
    ("fig6", || vec![fig6()]),
    ("fig7", || vec![fig7()]),
    ("claims", || vec![claims()]),
    ("analysis", || vec![analysis()]),
    ("ablation-ds", || vec![ablation_ds()]),
    ("ablation-opt", || vec![ablation_opt()]),
    ("opt", || vec![opt()]),
    ("resilience", resilience),
    ("trace", || vec![trace()]),
    ("exec", || vec![exec()]),
    ("jit", || vec![jit()]),
    ("smp", || vec![smp()]),
    ("soak", || vec![soak()]),
    ("forward", || vec![forward()]),
    ("fleet", || vec![fleet()]),
];
