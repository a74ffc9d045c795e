use kop_e1000e::device::CountSink;
use kop_e1000e::{DriverError, E1000Driver, MemSpace};
use kop_faultline::{FaultPlan, Trigger};
use kop_sim::cdf_points;

use crate::setup;

use super::quick;
use super::rig::{driver, guarded, unguarded};
use super::{FigureData, Series};

/// Outcome of one fault-storm run: what got through and how long the
/// stalls were. All units are DMA tick-rounds — fully deterministic.
struct ResilienceRun {
    delivered: u64,
    submitted: u64,
    ticks: u64,
    stall_lengths: Vec<f64>,
    watchdog_fires: u64,
    resets: u64,
}

/// Drive `frames` transmissions through a (possibly faulty) driver with
/// the full recovery stack engaged: bounded submit retries on `RingFull`,
/// a periodic watchdog (every 8 frames, like the real driver's timer),
/// and adapter reset on persistent errors. Recovery latency is measured
/// as the length of each stall — a maximal run of tick-rounds where
/// descriptors were pending but nothing reached the wire.
fn resilience_run<M: MemSpace>(drv: &mut E1000Driver<M>, frames: u64) -> ResilienceRun {
    const DST: [u8; 6] = [0x52, 0x54, 0x00, 0xfa, 0x11, 0x7e];
    let payload = [0xabu8; 114]; // 128 B frames, as in the throughput figures
    let mut sink = CountSink::default();
    let mut ticks = 0u64;
    let mut submitted = 0u64;
    let mut stall = 0u64;
    let mut stalls = Vec::new();

    let account = |got: u64, pending: u64, stall: &mut u64, stalls: &mut Vec<f64>| {
        if got == 0 && pending > 0 {
            *stall += 1;
        } else if *stall > 0 {
            stalls.push(*stall as f64);
            *stall = 0;
        }
    };

    for i in 0..frames {
        // Submit with bounded retry; the watchdog breaks TX hangs.
        for _attempt in 0..8 {
            match drv.xmit(DST, 0x0800, &payload) {
                Ok(()) => {
                    submitted += 1;
                    break;
                }
                Err(DriverError::RingFull) => {
                    ticks += 1;
                    let got = drv.mem().tx_tick(&mut sink);
                    account(got, drv.tx_pending(), &mut stall, &mut stalls);
                    let _ = drv.clean_tx();
                    let _ = drv.watchdog();
                }
                Err(_) => {
                    // Device-level failure (e.g. link reported down): full
                    // adapter reset, then retry the frame.
                    let _ = drv.reset();
                }
            }
        }
        ticks += 1;
        let got = drv.mem().tx_tick(&mut sink);
        account(got, drv.tx_pending(), &mut stall, &mut stalls);
        if i % 8 == 0 {
            let _ = drv.watchdog();
        }
    }
    // Drain what is still queued (bounded: a hung device stops mattering
    // once the budget is spent).
    for _ in 0..1024 {
        if drv.tx_pending() == 0 {
            break;
        }
        ticks += 1;
        let got = drv.mem().tx_tick(&mut sink);
        account(got, drv.tx_pending(), &mut stall, &mut stalls);
        let _ = drv.clean_tx();
        let _ = drv.watchdog();
    }
    if stall > 0 {
        stalls.push(stall as f64);
    }
    ResilienceRun {
        delivered: sink.frames,
        submitted,
        ticks,
        stall_lengths: stalls,
        watchdog_fires: drv.stats().watchdog_fires,
        resets: drv.stats().resets,
    }
}

/// RESILIENCE: survive-the-violation. Injects TX hangs and wire-side
/// frame drops at increasing rates (seeded, deterministic) into the
/// e1000e device seam and measures what the recovery stack (watchdog,
/// adapter reset, bounded retry) still delivers — baseline vs carat
/// (two-region policy, R350 vehicle). Returns two figures: delivered
/// fraction vs fault rate, and the recovery-latency CDF at the highest
/// injected rate.
pub fn resilience() -> Vec<FigureData> {
    let (rates, frames): (&[f64], u64) = if quick() {
        (&[0.0, 0.02, 0.1], 400)
    } else {
        (&[0.0, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1], 4_000)
    };
    let cdf_rate = *rates.last().expect("nonempty rates");

    // Two fault shapes per rate: wire-side drops as a Bernoulli per tick
    // (transient loss), and one sustained TX hang whose length scales
    // with the rate (640 ticks × rate) — the shape the watchdog exists
    // for: single-tick hiccups self-heal, a stuck TDH needs a reset.
    let plan_for = |rate: f64, seed: u64| {
        let plan = FaultPlan::new(seed);
        if rate == 0.0 {
            return plan;
        }
        plan.with_dma_drop(Trigger::Probability(rate))
            .with_tx_hang(Trigger::Window {
                start: 64,
                len: (rate * 640.0).round() as u64,
            })
    };

    let mut base_points = Vec::new();
    let mut carat_points = Vec::new();
    let mut headlines = Vec::new();
    let mut cdf_series = Vec::new();

    for (i, &rate) in rates.iter().enumerate() {
        let seed = 4001 + i as u64;

        // Baseline: faults injected under the unguarded driver.
        let mem = kop_faultline::FaultyMem::new(unguarded(), plan_for(rate, seed));
        let base = resilience_run(&mut driver(mem), frames);

        // Carat: the identical fault schedule (same seed) injected above
        // the guard layer; guards check every driver access throughout.
        let mem = kop_faultline::FaultyMem::new(
            guarded(setup::two_region_policy()),
            plan_for(rate, seed),
        );
        let carat = resilience_run(&mut driver(mem), frames);

        let frac = |r: &ResilienceRun| r.delivered as f64 / frames as f64;
        base_points.push((rate, frac(&base)));
        carat_points.push((rate, frac(&carat)));
        let pct = (rate * 1000.0).round() as u64; // per-mille label, stable
        headlines.push((format!("base_delivered_frac_r{pct}"), frac(&base)));
        headlines.push((format!("carat_delivered_frac_r{pct}"), frac(&carat)));
        headlines.push((
            format!("carat_watchdog_fires_r{pct}"),
            carat.watchdog_fires as f64,
        ));
        headlines.push((format!("carat_resets_r{pct}"), carat.resets as f64));
        if rate == cdf_rate {
            headlines.push(("base_submitted_at_max_rate".into(), base.submitted as f64));
            headlines.push(("carat_ticks_at_max_rate".into(), carat.ticks as f64));
            headlines.push((
                "carat_recovery_p95_ticks".into(),
                kop_sim::percentile(&carat.stall_lengths, 95.0),
            ));
            headlines.push((
                "carat_recovery_max_ticks".into(),
                kop_sim::percentile(&carat.stall_lengths, 100.0),
            ));
            for (label, run) in [("base", &base), ("carat", &carat)] {
                cdf_series.push(Series {
                    label: label.to_string(),
                    points: cdf_points(&run.stall_lengths),
                });
            }
        }
    }

    let throughput = FigureData {
        id: "resilience",
        title: "delivered fraction vs injected device-fault rate (R350, 128 B, 2 regions)".into(),
        axes: ("fault rate (per DMA tick)", "delivered fraction"),
        series: vec![
            Series {
                label: "carat".into(),
                points: carat_points,
            },
            Series {
                label: "baseline".into(),
                points: base_points,
            },
        ],
        headlines,
        notes: vec![
            "faults: TX hang (TDH stuck) + wire-side frame drop, each Bernoulli per tick at the x-axis rate".into(),
            "recovery stack: stuck-TDH watchdog, full adapter reset with ring re-init, bounded retry".into(),
            "expected: guarded and baseline degrade identically — guards do not impede recovery".into(),
        ],
    };
    let latency = FigureData {
        id: "resilience-latency",
        title: format!(
            "recovery-latency CDF at fault rate {cdf_rate} (stall length in DMA tick-rounds)"
        ),
        axes: ("stall length (ticks)", "CDF"),
        series: cdf_series,
        headlines: vec![],
        notes: vec![
            "a stall is a maximal run of ticks with descriptors pending and nothing delivered"
                .into(),
            "the watchdog bounds stalls: it fires after two stuck observations and resets the adapter".into(),
        ],
    };
    vec![throughput, latency]
}
