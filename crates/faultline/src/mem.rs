//! The device seam: a [`MemSpace`] wrapper that misbehaves like failing
//! hardware.
//!
//! [`FaultyMem`] delegates every access to the wrapped space and injects
//! faults per the plan's device-side [`FaultPoint`](crate::plan::FaultPoint)s:
//!
//! * **surprise removal** — while active, MMIO reads return all-ones and
//!   MMIO writes vanish, exactly what a PCIe read to a removed device
//!   returns on real hardware;
//! * **TX hang** — `tx_tick` does nothing, so TDH stays stuck while the
//!   driver keeps queueing (the situation `e1000e`'s `tx_timeout`
//!   watchdog exists for);
//! * **DMA drop** — the tick runs (descriptors complete, TDH advances)
//!   but the frames never reach the wire;
//! * **link flap** — STATUS reads report link down;
//! * **descriptor corruption** — a RAM read (the driver's RAM reads are
//!   descriptor reads) comes back with one bit flipped;
//! * **RX DMA drop** — an incoming frame vanishes before the receive
//!   engine sees it (wire loss);
//! * **RX status corruption** — a descriptor status-byte read comes back
//!   with DD|EOP flipped (done work looks pending, or vice versa);
//! * **interrupt storm / lost interrupt** — ICR reads come back with
//!   spurious causes set, or with every latched cause swallowed.
//!
//! The wrapper sits *under* the guard layer (wrap `DirectMem`, then
//! [`kop_e1000e::GuardedMem`] over it) or *over* it — either way the
//! driver code is unchanged, mirroring how the paper instruments the
//! stock driver without modifying it.

use std::sync::Arc;

use kop_core::Violation;
use kop_e1000e::device::{E1000Device, FrameSink};
use kop_e1000e::regs::{self, BAR_SIZE};
use kop_e1000e::{AccessCounts, MemSpace};
use kop_trace::{Producer, TraceEvent, Tracer};

use crate::plan::FaultPlan;

/// What the fault layer actually did — the injection-side ledger the
/// resilience figure reports against.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// MMIO reads answered with all-ones (surprise removal).
    pub mmio_all_ones: u64,
    /// MMIO writes silently dropped (surprise removal).
    pub mmio_writes_dropped: u64,
    /// TX ticks suppressed (TDH left stuck).
    pub tx_ticks_suppressed: u64,
    /// Frames completed by the device but dropped before the wire.
    pub frames_dropped: u64,
    /// STATUS reads answered with link down.
    pub link_flaps: u64,
    /// RAM reads answered with a flipped bit.
    pub reads_corrupted: u64,
    /// Incoming frames dropped before the receive DMA engine saw them.
    pub rx_frames_dropped: u64,
    /// RX descriptor status reads answered with flipped low bits.
    pub rx_status_corrupted: u64,
    /// ICR reads answered with spurious causes set (interrupt storm).
    pub irq_storms: u64,
    /// ICR reads answered with zero, swallowing latched causes.
    pub irqs_lost: u64,
}

impl FaultStats {
    /// Total injected fault events across all device sites.
    pub fn total(&self) -> u64 {
        self.mmio_all_ones
            + self.mmio_writes_dropped
            + self.tx_ticks_suppressed
            + self.frames_dropped
            + self.link_flaps
            + self.reads_corrupted
            + self.rx_frames_dropped
            + self.rx_status_corrupted
            + self.irq_storms
            + self.irqs_lost
    }
}

/// Discards every frame — the wire side of a stalled DMA engine.
struct DropSink;

impl FrameSink for DropSink {
    fn deliver(&mut self, _frame: &[u8]) {}
}

/// A [`MemSpace`] that injects device faults per a seeded [`FaultPlan`].
pub struct FaultyMem<M: MemSpace> {
    inner: M,
    plan: FaultPlan,
    stats: FaultStats,
}

impl<M: MemSpace> FaultyMem<M> {
    /// Wrap `inner`; only the plan's device-side points are consulted.
    pub fn new(inner: M, plan: FaultPlan) -> FaultyMem<M> {
        FaultyMem {
            inner,
            plan,
            stats: FaultStats::default(),
        }
    }

    /// The injection ledger so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.stats
    }

    /// The plan, for inspecting per-point event/fire counters.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Unwrap, discarding the fault layer.
    pub fn into_inner(self) -> M {
        self.inner
    }

    fn in_bar(&self, addr: u64) -> bool {
        let bar = self.inner.mmio_base();
        addr >= bar && addr < bar + BAR_SIZE
    }

    /// Record a fired fault in the wrapped space's tracer, if any.
    fn note_fault(&self, what: &'static str) {
        if let Some(t) = self.inner.tracer() {
            t.record(Producer::Faultline, TraceEvent::FaultInjected { what });
        }
    }
}

/// All-ones of the access width, what a dead PCIe device reads as.
fn all_ones(size: u64) -> u64 {
    if size >= 8 {
        u64::MAX
    } else {
        (1u64 << (size * 8)) - 1
    }
}

impl<M: MemSpace> MemSpace for FaultyMem<M> {
    fn read(&mut self, addr: u64, size: u64) -> Result<u64, Violation> {
        if self.in_bar(addr) {
            if self.plan.surprise_removal.check() {
                self.stats.mmio_all_ones += 1;
                self.note_fault("surprise_removal_read");
                return Ok(all_ones(size));
            }
            let mut v = self.inner.read(addr, size)?;
            if addr == self.inner.mmio_base() + regs::STATUS && self.plan.link_flap.check() {
                self.stats.link_flaps += 1;
                self.note_fault("link_flap");
                v &= !regs::status::LU;
            }
            if addr == self.inner.mmio_base() + regs::ICR {
                // The inner read already cleared ICR; the fault decides
                // what the ISR *sees* (spurious causes / nothing at all).
                if self.plan.irq_storm.check() {
                    self.stats.irq_storms += 1;
                    self.note_fault("irq_storm");
                    v |= regs::intr::RXT0 | regs::intr::TXDW;
                }
                if self.plan.lost_irq.check() {
                    self.stats.irqs_lost += 1;
                    self.note_fault("lost_irq");
                    v = 0;
                }
            }
            return Ok(v);
        }
        let mut v = self.inner.read(addr, size)?;
        if self.plan.desc_corrupt.check() {
            self.stats.reads_corrupted += 1;
            self.note_fault("desc_corrupt");
            // Deterministic bit choice: walk the word as faults accumulate.
            v ^= 1 << (self.plan.desc_corrupt.fired() % (size * 8).max(1));
        }
        if size == 1 && self.plan.rx_desc_corrupt.check() {
            self.stats.rx_status_corrupted += 1;
            self.note_fault("rx_desc_corrupt");
            // Status bytes are the driver's only 1-byte reads; flipping
            // DD|EOP makes done work look pending (missed harvest) or
            // pending work look done (garbage descriptor).
            v ^= 0b11;
        }
        Ok(v)
    }

    fn write(&mut self, addr: u64, size: u64, value: u64) -> Result<(), Violation> {
        if self.in_bar(addr) && self.plan.surprise_removal.check() {
            self.stats.mmio_writes_dropped += 1;
            self.note_fault("surprise_removal_write");
            return Ok(());
        }
        self.inner.write(addr, size, value)
    }

    // Bulk paths carry payload, not control state — left fault-free so
    // delivered frames stay byte-exact (corruption targets are the
    // control-plane reads above).
    fn bulk_write(&mut self, addr: u64, bytes: &[u8]) {
        self.inner.bulk_write(addr, bytes)
    }

    fn bulk_read(&mut self, addr: u64, len: usize) -> Vec<u8> {
        self.inner.bulk_read(addr, len)
    }

    fn tx_tick(&mut self, sink: &mut dyn FrameSink) -> u64 {
        if self.plan.tx_hang.check() {
            self.stats.tx_ticks_suppressed += 1;
            self.note_fault("tx_hang");
            return 0;
        }
        if self.plan.dma_drop.check() {
            let n = self.inner.tx_tick(&mut DropSink);
            self.stats.frames_dropped += n;
            self.note_fault("dma_drop");
            return 0;
        }
        self.inner.tx_tick(sink)
    }

    fn rx_inject(&mut self, frame: &[u8]) -> bool {
        if self.plan.rx_dma_drop.check() {
            self.stats.rx_frames_dropped += 1;
            self.note_fault("rx_dma_drop");
            return false;
        }
        self.inner.rx_inject(frame)
    }

    fn device(&mut self) -> &mut E1000Device {
        self.inner.device()
    }

    fn counts(&self) -> AccessCounts {
        self.inner.counts()
    }

    fn arena_base(&self) -> u64 {
        self.inner.arena_base()
    }

    fn arena_len(&self) -> u64 {
        self.inner.arena_len()
    }

    fn mmio_base(&self) -> u64 {
        self.inner.mmio_base()
    }

    fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.inner.tracer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Trigger;
    use kop_e1000e::device::VecSink;
    use kop_e1000e::{DirectMem, E1000Driver};

    fn faulty(plan: FaultPlan) -> FaultyMem<DirectMem> {
        FaultyMem::new(DirectMem::with_defaults(E1000Device::default()), plan)
    }

    #[test]
    fn surprise_removal_reads_all_ones_and_swallows_writes() {
        let plan = FaultPlan::quiet().with_surprise_removal(Trigger::Window { start: 1, len: 100 });
        let mut m = faulty(plan);
        let bar = m.mmio_base();
        assert_eq!(m.read(bar + regs::STATUS, 4).unwrap(), 0xffff_ffff);
        assert_eq!(m.read(bar + regs::CTRL, 8).unwrap(), u64::MAX);
        m.write(bar + regs::CTRL, 4, regs::ctrl::SLU).unwrap();
        let st = m.fault_stats();
        assert_eq!(st.mmio_all_ones, 2);
        assert_eq!(st.mmio_writes_dropped, 1);
        // RAM is unaffected by device removal.
        let base = m.arena_base();
        m.write(base, 8, 7).unwrap();
        assert_eq!(m.read(base, 8).unwrap(), 7);
    }

    #[test]
    fn tx_hang_leaves_tdh_stuck_until_window_passes() {
        let plan = FaultPlan::quiet().with_tx_hang(Trigger::Window { start: 1, len: 2 });
        let mut drv = E1000Driver::probe(faulty(plan)).unwrap();
        drv.up().unwrap();
        drv.xmit([2; 6], 0x0800, b"stuck?").unwrap();
        let mut sink = VecSink::default();
        assert_eq!(drv.mem().tx_tick(&mut sink), 0);
        assert_eq!(drv.mem().tx_tick(&mut sink), 0);
        assert_eq!(drv.mem().fault_stats().tx_ticks_suppressed, 2);
        // Window over: the queued frame drains.
        assert_eq!(drv.mem().tx_tick(&mut sink), 1);
        assert_eq!(sink.frames.len(), 1);
    }

    #[test]
    fn watchdog_recovers_driver_from_injected_hang() {
        let plan = FaultPlan::quiet().with_tx_hang(Trigger::Window { start: 1, len: 4 });
        let mut drv = E1000Driver::probe(faulty(plan)).unwrap();
        drv.up().unwrap();
        drv.xmit([2; 6], 0x0800, b"doomed").unwrap();
        let mut sink = VecSink::default();
        drv.mem().tx_tick(&mut sink);
        assert!(!drv.watchdog().unwrap(), "first pass arms");
        drv.mem().tx_tick(&mut sink);
        assert!(drv.watchdog().unwrap(), "second pass fires and resets");
        assert_eq!(drv.stats().resets, 1);
        // Post-reset the driver transmits again once the hang window ends.
        drv.xmit([2; 6], 0x0800, b"recovered").unwrap();
        while drv.mem().tx_tick(&mut sink) == 0 {}
        assert_eq!(sink.frames.len(), 1);
    }

    #[test]
    fn dma_drop_completes_descriptors_but_loses_frames() {
        let plan = FaultPlan::quiet().with_dma_drop(Trigger::Nth(1));
        let mut drv = E1000Driver::probe(faulty(plan)).unwrap();
        drv.up().unwrap();
        drv.xmit([2; 6], 0x0800, b"lost").unwrap();
        let mut sink = VecSink::default();
        assert_eq!(drv.mem().tx_tick(&mut sink), 0);
        assert!(sink.frames.is_empty());
        assert_eq!(drv.mem().fault_stats().frames_dropped, 1);
        // Descriptors were consumed: ring is clean, not hung.
        drv.clean_tx().unwrap();
        assert_eq!(drv.tx_pending(), 0);
    }

    #[test]
    fn link_flap_masks_lu_on_status_reads() {
        let plan = FaultPlan::quiet().with_link_flap(Trigger::Nth(2));
        let mut m = faulty(plan);
        let bar = m.mmio_base();
        m.write(bar + regs::CTRL, 4, regs::ctrl::SLU).unwrap();
        assert_ne!(m.read(bar + regs::STATUS, 4).unwrap() & regs::status::LU, 0);
        assert_eq!(m.read(bar + regs::STATUS, 4).unwrap() & regs::status::LU, 0);
        assert_ne!(m.read(bar + regs::STATUS, 4).unwrap() & regs::status::LU, 0);
        assert_eq!(m.fault_stats().link_flaps, 1);
    }

    #[test]
    fn desc_corrupt_flips_exactly_one_bit_on_ram_reads() {
        let plan = FaultPlan::quiet().with_desc_corrupt(Trigger::Nth(2));
        let mut m = faulty(plan);
        let base = m.arena_base();
        m.write(base, 8, 0).unwrap();
        assert_eq!(m.read(base, 8).unwrap(), 0);
        let corrupted = m.read(base, 8).unwrap();
        assert_eq!(corrupted.count_ones(), 1, "exactly one bit flipped");
        assert_eq!(m.read(base, 8).unwrap(), 0, "fault was transient");
        assert_eq!(m.fault_stats().reads_corrupted, 1);
    }

    #[test]
    fn fired_faults_land_in_the_trace() {
        let plan = FaultPlan::quiet().with_link_flap(Trigger::Nth(1));
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        let inner = kop_e1000e::GuardedMem::with_tracer(
            DirectMem::with_defaults(E1000Device::default()),
            kop_policy::NoopPolicy,
            Arc::clone(&tracer),
        );
        let mut m = FaultyMem::new(inner, plan);
        let bar = m.mmio_base();
        let _ = m.read(bar + regs::STATUS, 4).unwrap();
        let snap = tracer.snapshot();
        assert!(
            snap.records
                .iter()
                .any(|r| r.producer == Producer::Faultline
                    && matches!(r.event, TraceEvent::FaultInjected { what: "link_flap" })),
            "fault event missing from {:?}",
            snap.records
        );
        // The guarded read under the fault layer was traced too.
        assert_eq!(tracer.total_checks(), 1);
    }

    #[test]
    fn rx_dma_drop_loses_frames_on_the_wire_side() {
        let plan = FaultPlan::quiet().with_rx_dma_drop(Trigger::Nth(2));
        let mut drv = E1000Driver::probe(faulty(plan)).unwrap();
        drv.up().unwrap();
        assert!(drv.mem().rx_inject(b"delivered frame"));
        assert!(!drv.mem().rx_inject(b"dropped frame"), "wire loss");
        assert!(drv.mem().rx_inject(b"delivered again"));
        assert_eq!(drv.mem().fault_stats().rx_frames_dropped, 1);
        // The driver harvests exactly the two delivered frames.
        let frames = drv.rx_poll().unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0], b"delivered frame");
        assert_eq!(frames[1], b"delivered again");
    }

    #[test]
    fn rx_status_corruption_hides_done_work_until_next_poll() {
        // Fire on the driver's first 1-byte status read: the completed
        // descriptor looks pending, the poll comes up empty, and the
        // next (clean) poll harvests the frame — no loss.
        let plan = FaultPlan::quiet().with_rx_desc_corrupt(Trigger::Nth(1));
        let mut drv = E1000Driver::probe(faulty(plan)).unwrap();
        drv.up().unwrap();
        assert!(drv.mem().rx_inject(b"hidden briefly"));
        let (frames, drained) = drv.poll(8).unwrap();
        assert!(frames.is_empty(), "corrupted status hid the frame");
        // The end-of-pass drain re-check reads the true status byte, so
        // NAPI already knows there is still work: poll again.
        assert!(!drained);
        assert_eq!(drv.mem().fault_stats().rx_status_corrupted, 1);
        let (frames, _) = drv.poll(8).unwrap();
        assert_eq!(frames, vec![b"hidden briefly".to_vec()], "recovered");
    }

    #[test]
    fn irq_storm_raises_spurious_causes() {
        let plan = FaultPlan::quiet().with_irq_storm(Trigger::Nth(1));
        let mut drv = E1000Driver::probe(faulty(plan)).unwrap();
        drv.up().unwrap();
        // No RX work exists, yet the ISR sees causes.
        let cause = drv.irq_enter().unwrap();
        assert_ne!(cause & regs::intr::RXT0, 0, "spurious RXT0");
        assert_eq!(drv.mem().fault_stats().irq_storms, 1);
        // The poll behind the spurious interrupt finds nothing and
        // re-arms; the datapath is unharmed.
        let (frames, drained) = drv.poll(8).unwrap();
        assert!(frames.is_empty());
        assert!(drained);
        assert_eq!(drv.stats().rx_no_desc, 1);
    }

    #[test]
    fn lost_irq_recovered_by_polling() {
        let plan = FaultPlan::quiet().with_lost_irq(Trigger::Nth(1));
        let mut drv = E1000Driver::probe(faulty(plan)).unwrap();
        drv.up().unwrap();
        assert!(drv.mem().rx_inject(b"quietly waiting"));
        // The latched RXT0 is swallowed at ISR entry...
        let cause = drv.irq_enter().unwrap();
        assert_eq!(cause, 0, "interrupt lost");
        assert_eq!(drv.mem().fault_stats().irqs_lost, 1);
        // ...but the frame is still in the ring; a poll recovers it.
        let (frames, _) = drv.poll(8).unwrap();
        assert_eq!(frames, vec![b"quietly waiting".to_vec()]);
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let mut m = faulty(FaultPlan::quiet());
        let bar = m.mmio_base();
        m.write(bar + regs::CTRL, 4, regs::ctrl::SLU).unwrap();
        assert_ne!(m.read(bar + regs::STATUS, 4).unwrap() & regs::status::LU, 0);
        assert_eq!(m.fault_stats(), FaultStats::default());
        assert_eq!(m.fault_stats().total(), 0);
    }
}
