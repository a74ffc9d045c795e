//! Trial orchestration — the measurement half of the user-level tool.
//!
//! §4.2: *"We run many trials, launching about 100,000 packets per trial.
//! The figure plots the CDF of these trials."* A trial's deterministic
//! per-packet cost comes from actually driving the simulated driver
//! ([`crate::sender::RawSender`]); trial-to-trial variance comes from the
//! seeded jitter in [`kop_sim::TrialRunner`].

use kop_e1000e::MemSpace;
use kop_sim::{Summary, TrialRunner};

use crate::frame::{EtherType, MacAddr};
use crate::sender::{RawSender, SendError};

/// Tool configuration (mirrors the paper's factors: packet count, packet
/// size, and number of trials).
#[derive(Clone, Debug)]
pub struct ToolConfig {
    /// Packets per trial (paper: ~100,000).
    pub packets_per_trial: u64,
    /// Number of trials (the CDF sample count).
    pub trials: usize,
    /// Frame size on the wire, including the 14-byte header.
    pub frame_size: usize,
    /// Jitter seed (same seed ⇒ identical distributions).
    pub seed: u64,
}

impl Default for ToolConfig {
    fn default() -> Self {
        ToolConfig {
            packets_per_trial: 100_000,
            trials: 41,
            frame_size: 128,
            seed: 0x4b4f_5001,
        }
    }
}

/// A measurement report: throughput samples plus their summary.
#[derive(Clone, Debug)]
pub struct ToolReport {
    /// Per-trial throughput samples (packets/second).
    pub samples: Vec<f64>,
    /// Summary statistics.
    pub summary: Summary,
    /// The calibrated per-packet cost used (cycles).
    pub cycles_per_packet: f64,
}

/// Measure the deterministic per-packet cost by driving the real driver
/// for a calibration burst, then spread it over `cfg.trials` jittered
/// trials.
pub fn run_throughput(
    sender: &mut RawSender<impl MemSpace>,
    cfg: &ToolConfig,
) -> Result<ToolReport, SendError> {
    // Calibration burst: real driver work, steady-state cleanup included.
    let cycles_per_packet = sender.send_burst(
        MacAddr::BROADCAST,
        EtherType::Experimental,
        cfg.frame_size,
        256,
    )?;
    let machine = sender.machine().clone();
    let mut runner = TrialRunner::new(machine, cfg.packets_per_trial, cfg.seed);
    let samples = runner.throughput_samples(cycles_per_packet, cfg.trials);
    let summary = Summary::of(&samples);
    Ok(ToolReport {
        samples,
        summary,
        cycles_per_packet,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kop_e1000e::{DirectMem, E1000Device, E1000Driver, GuardedMem};
    use kop_policy::{DefaultAction, PolicyModule};
    use kop_sim::MachineProfile;

    fn baseline(machine: MachineProfile) -> RawSender<DirectMem> {
        let mem = DirectMem::with_defaults(E1000Device::default());
        let mut drv = E1000Driver::probe(mem).unwrap();
        drv.up().unwrap();
        RawSender::new(drv, machine)
    }

    fn carat(machine: MachineProfile, pm: &PolicyModule) -> RawSender<GuardedMem<&PolicyModule>> {
        let mem = GuardedMem::new(DirectMem::with_defaults(E1000Device::default()), pm);
        let mut drv = E1000Driver::probe(mem).unwrap();
        drv.up().unwrap();
        RawSender::new(drv, machine)
    }

    #[test]
    fn throughput_report_in_paper_range() {
        let mut s = baseline(MachineProfile::r350());
        let report = run_throughput(&mut s, &ToolConfig::default()).unwrap();
        assert_eq!(report.samples.len(), 41);
        assert!(
            report.summary.median > 100_000.0 && report.summary.median < 125_000.0,
            "median {}",
            report.summary.median
        );
    }

    #[test]
    fn figure3_shape_baseline_beats_carat_slightly() {
        let pm = PolicyModule::new();
        pm.set_default_action(DefaultAction::Allow);
        let cfg = ToolConfig::default();
        let mut base = baseline(MachineProfile::r415());
        let mut guarded = carat(MachineProfile::r415(), &pm);
        let rb = run_throughput(&mut base, &cfg).unwrap();
        let rc = run_throughput(&mut guarded, &cfg).unwrap();
        let rel = rb.summary.median_rel_change(&rc.summary);
        // Paper Figure 3: median delta ~1000 pps, <0.8%.
        assert!(rel > 0.0, "carat must be slower");
        assert!(rel < 0.008, "rel {rel}");
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = ToolConfig::default();
        let mut a = baseline(MachineProfile::r350());
        let mut b = baseline(MachineProfile::r350());
        let ra = run_throughput(&mut a, &cfg).unwrap();
        let rb = run_throughput(&mut b, &cfg).unwrap();
        assert_eq!(ra.samples, rb.samples);
    }
}
