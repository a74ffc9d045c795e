use kop_net::{EtherType, MacAddr};
use kop_sim::{histogram, median, MachineProfile, TrialRunner};

use crate::setup;

use super::{FigureData, Series};

/// Figure 7: `sendmsg` latency histograms (cycles), carat vs baseline
/// (R350, 128 B, 2 regions), outliers excluded as in the paper. Expected:
/// closely matched histograms; medians 686 (base) vs 694 (carat) with
/// outliers included — within cycle-counter noise.
pub fn fig7() -> FigureData {
    let machine = MachineProfile::r350();
    // Counted per-packet work (the paper measures the live system; we
    // probe the real driver model).
    let mut probe = setup::baseline_sender(machine.clone());
    let work = probe
        .probe_work(MacAddr::BROADCAST, EtherType::Experimental, 128)
        .expect("probe");

    let base_lat = machine.sendmsg_latency_cycles(&work);
    let carat_lat = base_lat + machine.packet_cycles_guard_overhead(&work, 1);

    let n = 40_000;
    let outlier_p = 0.0004; // ring-full descheduling
    let mut base_runner = TrialRunner::new(machine.clone(), 1, 777);
    let base_samples = base_runner.latency_samples(base_lat, n, outlier_p);
    let mut carat_runner = TrialRunner::new(machine.clone(), 1, 778);
    let carat_samples = carat_runner.latency_samples(carat_lat, n, outlier_p);

    // Medians including outliers (the paper quotes 694 vs 686 this way).
    let base_median = median(&base_samples);
    let carat_median = median(&carat_samples);

    // Histograms excluding outliers, like the figure.
    let keep = |v: &Vec<f64>| -> Vec<f64> { v.iter().copied().filter(|&c| c < 5_000.0).collect() };
    let base_clean = keep(&base_samples);
    let carat_clean = keep(&carat_samples);
    let to_series = |label: &str, samples: &[f64]| Series {
        label: label.into(),
        points: histogram(samples, 500.0, 1200.0, 28)
            .into_iter()
            .map(|(edge, count)| (edge, count as f64))
            .collect(),
    };
    FigureData {
        id: "fig7",
        title: "sendmsg latency histogram (R350, 128 B, 2 regions), outliers excluded".into(),
        axes: ("latency (cycles)", "count"),
        series: vec![to_series("base", &base_clean), to_series("carat", &carat_clean)],
        headlines: vec![
            ("base_median_cycles".into(), base_median),
            ("carat_median_cycles".into(), carat_median),
            ("median_delta_cycles".into(), carat_median - base_median),
            (
                "outliers_excluded".into(),
                (base_samples.len() - base_clean.len() + carat_samples.len() - carat_clean.len())
                    as f64,
            ),
        ],
        notes: vec![
            "paper: medians 694 (carat) vs 686 (baseline) cycles — within measurement noise".into(),
            "outliers (>10M cycles when the ring fills and the app is descheduled) excluded, as in the paper".into(),
        ],
    }
}
