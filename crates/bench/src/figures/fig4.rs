use kop_sim::MachineProfile;

use super::rig::throughput_series;
use super::FigureData;

/// Figure 4: same experiment on the faster R350. Expected: "even smaller,
/// and, indeed, almost unmeasurable" — <0.1%.
pub fn fig4() -> FigureData {
    let (base_s, base) = throughput_series(MachineProfile::r350(), "baseline", None, 3002);
    let (carat_s, carat) = throughput_series(MachineProfile::r350(), "carat", Some((2, 0)), 3002);
    FigureData {
        id: "fig4",
        title: "throughput CDF, carat vs baseline (R350, 128 B, 2 regions)".into(),
        axes: ("packets per second", "CDF"),
        series: vec![carat_s, base_s],
        headlines: vec![
            ("baseline_median_pps".into(), base.median),
            ("carat_median_pps".into(), carat.median),
            ("median_rel_change".into(), base.median_rel_change(&carat)),
        ],
        notes: vec!["paper: relative change in the median is <0.1%".into()],
    }
}
