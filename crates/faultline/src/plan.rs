//! Fault plans: *when* a fault fires, decided deterministically.
//!
//! A [`FaultPoint`] counts the events presented to it and fires according
//! to its [`Trigger`]. A [`FaultPlan`] bundles one point per fault site;
//! [`crate::FaultyMem`] consumes the device points and the soak harness
//! reads `restart_storm` itself. Probability triggers draw from a splitmix
//! RNG seeded per point from the plan seed, so two plans built from the
//! same seed produce identical fault schedules.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// When a fault point fires, relative to its private event counter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Trigger {
    /// Never fires (the quiet default).
    Never,
    /// Fires exactly on the `n`th event (1-based), once.
    Nth(u64),
    /// Fires for every event in `[start, start + len)` (1-based counter).
    Window {
        /// First event (1-based) on which the fault is active.
        start: u64,
        /// Number of consecutive events the fault stays active.
        len: u64,
    },
    /// Fires independently per event with this probability, drawn from the
    /// point's seeded RNG.
    Probability(f64),
}

/// One injectable fault site: an event counter plus a [`Trigger`].
#[derive(Clone, Debug)]
pub struct FaultPoint {
    trigger: Trigger,
    rng: StdRng,
    events: u64,
    fired: u64,
}

impl FaultPoint {
    /// A point with the given trigger; `seed` feeds the RNG used by
    /// [`Trigger::Probability`].
    pub fn new(trigger: Trigger, seed: u64) -> FaultPoint {
        FaultPoint {
            trigger,
            rng: StdRng::seed_from_u64(seed),
            events: 0,
            fired: 0,
        }
    }

    /// A point that never fires.
    pub fn off() -> FaultPoint {
        FaultPoint::new(Trigger::Never, 0)
    }

    /// Present one event: bump the counter and decide whether the fault
    /// fires on it.
    pub fn check(&mut self) -> bool {
        self.events += 1;
        let hit = match self.trigger {
            Trigger::Never => false,
            Trigger::Nth(n) => self.events == n,
            Trigger::Window { start, len } => self.events >= start && self.events - start < len,
            Trigger::Probability(p) => self.rng.random::<f64>() < p,
        };
        if hit {
            self.fired += 1;
        }
        hit
    }

    /// Events presented so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Events on which the fault fired.
    pub fn fired(&self) -> u64 {
        self.fired
    }
}

/// A seeded schedule of faults at the device seam, plus the soak
/// harness's `restart_storm`.
///
/// Starts quiet; enable sites with the `with_*` builders. The plan is
/// `Clone`, so one configured plan can drive several wrappers (each clone
/// keeps independent counters but the identical schedule).
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// Device seam: MMIO accesses return all-ones / writes vanish
    /// (surprise removal). Counted per MMIO access.
    pub surprise_removal: FaultPoint,
    /// Device seam: the TX DMA engine does nothing this tick (TDH stuck).
    /// Counted per `tx_tick`.
    pub tx_hang: FaultPoint,
    /// Device seam: descriptors complete but the frame is dropped on the
    /// wire side. Counted per `tx_tick`.
    pub dma_drop: FaultPoint,
    /// Device seam: STATUS reads report link down. Counted per STATUS
    /// read.
    pub link_flap: FaultPoint,
    /// Device seam: a RAM (descriptor) read comes back with one bit
    /// flipped. Counted per RAM read.
    pub desc_corrupt: FaultPoint,
    /// Harness seam: the module under supervision misbehaves (probes a
    /// forbidden address) this round, driving it toward quarantine and
    /// the supervisor toward a restart. Counted per supervision round by
    /// the soak harness — no wrapper consumes it.
    pub restart_storm: FaultPoint,
    /// Device RX seam: the receive DMA engine drops an incoming frame on
    /// the floor (wire loss — `rx_inject` reports failure, nothing is
    /// written to memory). Counted per `rx_inject`.
    pub rx_dma_drop: FaultPoint,
    /// Device RX seam: an RX descriptor *status-byte* read comes back
    /// with its low bits flipped — the driver sees done-work as pending
    /// (a missed harvest, recovered on the next poll) or garbage.
    /// Counted per 1-byte RAM read.
    pub rx_desc_corrupt: FaultPoint,
    /// Interrupt seam: an ICR read comes back with RX/TX causes spuriously
    /// set (interrupt storm — the ISR runs with no work behind it).
    /// Counted per ICR read.
    pub irq_storm: FaultPoint,
    /// Interrupt seam: an ICR read comes back zero, swallowing latched
    /// causes (lost interrupt — recovered by the next poll or watchdog).
    /// Counted per ICR read.
    pub lost_irq: FaultPoint,
}

impl FaultPlan {
    /// A plan whose probability triggers will draw from streams derived
    /// from `seed`; all sites start [`Trigger::Never`].
    ///
    /// Each point XORs the seed with its own fixed salt, so points draw
    /// independent streams and a point's stream never depends on which
    /// other points exist.
    pub fn new(seed: u64) -> FaultPlan {
        let point = |salt: u64| FaultPoint::new(Trigger::Never, seed ^ salt);
        FaultPlan {
            surprise_removal: point(0x9e37_79b9_7f4a_7c15),
            tx_hang: point(0xbf58_476d_1ce4_e5b9),
            dma_drop: point(0x94d0_49bb_1331_11eb),
            link_flap: point(0xd6e8_feb8_6659_fd93),
            desc_corrupt: point(0xa5a5_a5a5_5a5a_5a5a),
            restart_storm: point(0x1f83_d9ab_fb41_bd6b),
            rx_dma_drop: point(0x5be0_cd19_137e_2179),
            rx_desc_corrupt: point(0x6a09_e667_f3bc_c908),
            irq_storm: point(0xbb67_ae85_84ca_a73b),
            lost_irq: point(0x510e_527f_ade6_82d1),
        }
    }

    /// A plan with every site off (alias of `new(0)` for readability).
    pub fn quiet() -> FaultPlan {
        FaultPlan::new(0)
    }

    fn retrigger(point: &mut FaultPoint, trigger: Trigger) {
        point.trigger = trigger;
    }

    /// Enable surprise removal with the given trigger.
    pub fn with_surprise_removal(mut self, t: Trigger) -> FaultPlan {
        Self::retrigger(&mut self.surprise_removal, t);
        self
    }

    /// Enable TX hangs with the given trigger.
    pub fn with_tx_hang(mut self, t: Trigger) -> FaultPlan {
        Self::retrigger(&mut self.tx_hang, t);
        self
    }

    /// Enable wire-side frame drops with the given trigger.
    pub fn with_dma_drop(mut self, t: Trigger) -> FaultPlan {
        Self::retrigger(&mut self.dma_drop, t);
        self
    }

    /// Enable link flaps with the given trigger.
    pub fn with_link_flap(mut self, t: Trigger) -> FaultPlan {
        Self::retrigger(&mut self.link_flap, t);
        self
    }

    /// Enable descriptor-read bit corruption with the given trigger.
    pub fn with_desc_corrupt(mut self, t: Trigger) -> FaultPlan {
        Self::retrigger(&mut self.desc_corrupt, t);
        self
    }

    /// Enable supervised-module misbehaviour storms with the given
    /// trigger.
    pub fn with_restart_storm(mut self, t: Trigger) -> FaultPlan {
        Self::retrigger(&mut self.restart_storm, t);
        self
    }

    /// Enable RX wire-side frame drops with the given trigger.
    pub fn with_rx_dma_drop(mut self, t: Trigger) -> FaultPlan {
        Self::retrigger(&mut self.rx_dma_drop, t);
        self
    }

    /// Enable RX descriptor status corruption with the given trigger.
    pub fn with_rx_desc_corrupt(mut self, t: Trigger) -> FaultPlan {
        Self::retrigger(&mut self.rx_desc_corrupt, t);
        self
    }

    /// Enable spurious interrupt storms with the given trigger.
    pub fn with_irq_storm(mut self, t: Trigger) -> FaultPlan {
        Self::retrigger(&mut self.irq_storm, t);
        self
    }

    /// Enable lost interrupts with the given trigger.
    pub fn with_lost_irq(mut self, t: Trigger) -> FaultPlan {
        Self::retrigger(&mut self.lost_irq, t);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_fires_exactly_once() {
        let mut p = FaultPoint::new(Trigger::Nth(3), 1);
        let hits: Vec<bool> = (0..6).map(|_| p.check()).collect();
        assert_eq!(hits, [false, false, true, false, false, false]);
        assert_eq!(p.fired(), 1);
        assert_eq!(p.events(), 6);
    }

    #[test]
    fn window_covers_len_events() {
        let mut p = FaultPoint::new(Trigger::Window { start: 2, len: 3 }, 1);
        let hits: Vec<bool> = (0..6).map(|_| p.check()).collect();
        assert_eq!(hits, [false, true, true, true, false, false]);
        assert_eq!(p.fired(), 3);
    }

    #[test]
    fn probability_is_deterministic_per_seed() {
        let run = |seed| {
            let mut p = FaultPoint::new(Trigger::Probability(0.3), seed);
            (0..1000).map(|_| p.check()).collect::<Vec<bool>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
        let fired = run(42).iter().filter(|&&h| h).count();
        // ~300 expected; loose bounds just catch a broken draw.
        assert!((150..450).contains(&fired), "fired {fired} of 1000");
    }

    #[test]
    fn never_and_off_never_fire() {
        let mut p = FaultPoint::off();
        assert!((0..100).all(|_| !p.check()));
    }

    #[test]
    fn plan_clones_replay_identically() {
        let plan = FaultPlan::new(7).with_dma_drop(Trigger::Probability(0.5));
        let mut a = plan.clone();
        let mut b = plan;
        for _ in 0..200 {
            assert_eq!(a.dma_drop.check(), b.dma_drop.check());
        }
    }

    #[test]
    fn plan_points_draw_independent_streams() {
        let mut plan = FaultPlan::new(9)
            .with_tx_hang(Trigger::Probability(0.5))
            .with_dma_drop(Trigger::Probability(0.5));
        let a: Vec<bool> = (0..64).map(|_| plan.tx_hang.check()).collect();
        let b: Vec<bool> = (0..64).map(|_| plan.dma_drop.check()).collect();
        assert_ne!(a, b, "sites must not share one RNG stream");
    }

    /// Each point's first 64 draws under `Probability(0.5)` for one seed,
    /// as bit masks (bit i = draw i fired). A point's salt is part of the
    /// schedule every seeded figure replays: shifting one (say, by
    /// reordering or deleting points) changes `reproduce soak` and
    /// `resilience` output, so the streams are pinned here.
    #[test]
    fn each_point_keeps_its_random_stream() {
        let p = Trigger::Probability(0.5);
        let mut plan = FaultPlan::new(0x5eed)
            .with_surprise_removal(p)
            .with_tx_hang(p)
            .with_dma_drop(p)
            .with_link_flap(p)
            .with_desc_corrupt(p)
            .with_restart_storm(p)
            .with_rx_dma_drop(p)
            .with_rx_desc_corrupt(p)
            .with_irq_storm(p)
            .with_lost_irq(p);
        let streams = [
            &mut plan.surprise_removal,
            &mut plan.tx_hang,
            &mut plan.dma_drop,
            &mut plan.link_flap,
            &mut plan.desc_corrupt,
            &mut plan.restart_storm,
            &mut plan.rx_dma_drop,
            &mut plan.rx_desc_corrupt,
            &mut plan.irq_storm,
            &mut plan.lost_irq,
        ]
        .map(|point| (0..64).fold(0u64, |bits, i| bits | (u64::from(point.check()) << i)));
        assert_eq!(
            streams,
            [
                0xbc97_7170_d546_0752,
                0xda7c_3b1d_7fa3_9f31,
                0x1c88_6a5c_b60b_3433,
                0xe01f_cea6_4e0c_5d37,
                0x91df_a70e_7f1f_cf61,
                0x88a5_ecb3_e682_e94b,
                0x101a_e9fe_cd4e_5913,
                0x1e8a_fb10_5905_5d05,
                0xb8ac_943d_bd8a_d2cb,
                0x4871_aedf_021f_a631,
            ]
        );
    }
}
