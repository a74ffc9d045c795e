use kop_sim::MachineProfile;

use super::rig::throughput_series;
use super::FigureData;

/// Figure 3: CARAT KOP effect on packet launch throughput, slow R415,
/// two regions, 128-byte packets. Expected: minimal effect, median delta
/// <0.8% (~1,000 pps).
pub fn fig3() -> FigureData {
    let (base_s, base) = throughput_series(MachineProfile::r415(), "baseline", None, 3001);
    let (carat_s, carat) = throughput_series(MachineProfile::r415(), "carat", Some((2, 0)), 3001);
    let delta = base.median - carat.median;
    let rel = base.median_rel_change(&carat);
    FigureData {
        id: "fig3",
        title: "throughput CDF, carat vs baseline (R415, 128 B, 2 regions)".into(),
        axes: ("packets per second", "CDF"),
        series: vec![carat_s, base_s],
        headlines: vec![
            ("baseline_median_pps".into(), base.median),
            ("carat_median_pps".into(), carat.median),
            ("median_delta_pps".into(), delta),
            ("median_rel_change".into(), rel),
        ],
        notes: vec!["paper: median changes by ~1,000 pps, a relative change of <0.8%".into()],
    }
}
