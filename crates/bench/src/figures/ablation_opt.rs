use kop_compiler::CompileOptions;

use super::rig::opt_workload;
use super::{FigureData, Series};

/// ABL-OPT: what the CARAT CAKE-style guard optimizations the paper
/// deliberately omits would buy — static and dynamic guard counts for the
/// unoptimized vs optimized pipelines.
pub fn ablation_opt() -> FigureData {
    let (static_plain, dyn_plain, r_plain) = opt_workload(&CompileOptions::carat_kop());
    let (static_opt, dyn_opt, r_opt) = opt_workload(&CompileOptions::optimized());
    assert_eq!(r_plain, r_opt, "optimizations must preserve semantics");

    FigureData {
        id: "ablation-opt",
        title: "guard-optimization ablation: CARAT KOP (unoptimized) vs CARAT CAKE-style passes"
            .into(),
        axes: ("", ""),
        series: vec![
            Series {
                label: "static_guards".into(),
                points: vec![(0.0, static_plain), (1.0, static_opt)],
            },
            Series {
                label: "dynamic_guards".into(),
                points: vec![(0.0, dyn_plain), (1.0, dyn_opt)],
            },
        ],
        headlines: vec![
            ("static_guards_unopt".into(), static_plain),
            ("static_guards_opt".into(), static_opt),
            ("dynamic_guards_unopt".into(), dyn_plain),
            ("dynamic_guards_opt".into(), dyn_opt),
            ("dynamic_reduction".into(), 1.0 - dyn_opt / dyn_plain),
        ],
        notes: vec![
            "x=0: paper configuration (every access guarded); x=1: cross-block redundant-elim + range coalescing".into(),
            "the paper argues the unoptimized overhead is already <1%, so these passes are optional — this quantifies what they would save anyway".into(),
        ],
    }
}
