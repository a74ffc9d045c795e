use kop_sim::MachineProfile;

use crate::setup;

use super::rig::throughput_series;
use super::FigureData;

/// Figure 5: throughput vs number of policy regions (R350, 128 B):
/// baseline, carat (2), carat16, carat64. Expected: effect exists but is
/// small; worst case (<1% median change).
pub fn fig5() -> FigureData {
    let machine = MachineProfile::r350;
    let (base_s, base) = throughput_series(machine(), "baseline", None, 3003);
    let mut series = Vec::new();
    let mut headlines = vec![("baseline_median_pps".into(), base.median)];
    for (label, n) in [("carat", 2usize), ("carat16", 16), ("carat64", 64)] {
        let (s, sum) = throughput_series(machine(), label, Some((n, setup::hit_pos_for(n))), 3003);
        headlines.push((format!("{label}_median_pps"), sum.median));
        headlines.push((
            format!("{label}_median_rel_change"),
            base.median_rel_change(&sum),
        ));
        series.push(s);
    }
    series.push(base_s);
    FigureData {
        id: "fig5",
        title: "throughput vs number of policy regions (R350, 128 B)".into(),
        axes: ("packets per second", "CDF"),
        series,
        headlines,
        notes: vec![
            "paper: n has a small but significant effect; even n=64 changes the median <1%".into(),
            "paper: for large n an O(log n) structure would ameliorate this (see ablation-ds)"
                .into(),
        ],
    }
}
