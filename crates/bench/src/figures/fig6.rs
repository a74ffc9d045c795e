use kop_net::{tool, ToolConfig};

use crate::setup;

use super::rig::cfg;
use super::{FigureData, Series};

/// Figure 6: mean slowdown vs packet size (64..1500 B, 2 regions, burst
/// tool path). Expected: slowdown concentrated on small packets, max
/// ~2.5%, approaching 1.0 at 1500 B.
pub fn fig6() -> FigureData {
    let sizes = [64u64, 128, 256, 512, 1024, 1500];
    let mut points = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        let seed = 3100 + i as u64;
        let c = ToolConfig {
            frame_size: size as usize,
            ..cfg(seed)
        };
        let mut base = setup::baseline_sender(setup::r350_burst());
        let rb = tool::run_throughput(&mut base, &c).expect("baseline");
        let mut carat = setup::carat_sender(setup::r350_burst(), setup::n_region_policy(2), 0);
        let rc = tool::run_throughput(&mut carat, &c).expect("carat");
        points.push((size as f64, kop_sim::slowdown(&rb.samples, &rc.samples)));
    }
    let max_slowdown = points.iter().map(|p| p.1).fold(f64::MIN, f64::max);
    let last = points.last().expect("nonempty").1;
    FigureData {
        id: "fig6",
        title: "mean throughput slowdown vs packet size (R350 burst, 2 regions)".into(),
        axes: ("packet size (bytes)", "slowdown (baseline/carat)"),
        series: vec![Series {
            label: "carat".into(),
            points,
        }],
        headlines: vec![
            ("max_slowdown".into(), max_slowdown),
            ("slowdown_at_1500".into(), last),
        ],
        notes: vec![
            "paper: impact largely independent of size; to the extent it varies (max ~2.5%) it is concentrated on small packets".into(),
            "uses the burst tool path (see EXPERIMENTS.md on the Fig.4/Fig.6 tension in the paper)".into(),
        ],
    }
}
