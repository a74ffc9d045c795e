//! The echo/forwarding workload: the full RX → parse → rewrite → TX
//! lifecycle over the mini-e1000e.
//!
//! The wire offers flow-level load ([`crate::FlowGen`]) to the device's
//! receive DMA engine; the driver services it NAPI-style (ISR entry,
//! budgeted poll passes, batched descriptor recycling), the module
//! parses each frame's Ethernet header (guarded CPU reads in the guarded
//! instantiation), rewrites it for the return path, and queues it back
//! out through the guarded TX path. Every step the paper's TX-only
//! workload never exercised — device-initiated DMA into module-owned
//! buffers, header-parse loads, interrupt masking — runs here under the
//! same policy and trace machinery.
//!
//! Loss accounting is exact: frames the wire dropped (overrun or
//! injected fault) are counted at the inject site, everything else must
//! come out the TX side byte-identically (modulo the forwarding
//! rewrite), which the ledger-auditing callers assert.

use std::time::Duration;

use kop_e1000e::{run_queues, DriverError, E1000Driver, FrameSink, MemSpace};

use crate::flowgen::FlowGen;
use crate::frame::{Frame, MacAddr};
use crate::sink::LedgerSink;

/// The forwarding rewrite applied to each received frame: the echo
/// module sends the frame back where it came from — destination becomes
/// the original source, source becomes the forwarder's own MAC.
/// EtherType and payload (including the ledger sequence number) are
/// untouched, so baseline and guarded runs stay byte-comparable.
pub fn rewrite(frame: &Frame, own_mac: MacAddr) -> Frame {
    Frame {
        dst: frame.src,
        src: own_mac,
        ethertype: frame.ethertype,
        payload: frame.payload.clone(),
    }
}

/// What one forwarding run did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ForwardReport {
    /// Frames the generator offered to the wire.
    pub offered: u64,
    /// Frames the device accepted into RX descriptors.
    pub accepted: u64,
    /// Frames the wire lost (receiver overrun or injected RX fault).
    pub wire_dropped: u64,
    /// Frames parsed, rewritten, and queued back out the TX path.
    pub forwarded: u64,
    /// Received frames too mangled to parse (dropped by the module).
    pub unparseable: u64,
    /// Frames the TX DMA engine delivered to the sink during the run.
    pub delivered: u64,
    /// ISR entries taken.
    pub irqs: u64,
    /// NAPI poll passes executed.
    pub polls: u64,
}

/// Drive the echo workload: offer `offered` frames from `gen` in seeded
/// bursts, service them with NAPI polls of `budget` descriptors, forward
/// each back out, and run the TX engine into `sink`.
///
/// Backpressure is handled the way the real datapath does it: if the TX
/// ring fills, the device gets tick rounds to drain before the frame is
/// retried; if the RX ring overruns, the frame is dropped on the wire
/// and counted (never partially delivered).
pub fn run_forward<M: MemSpace>(
    drv: &mut E1000Driver<M>,
    gen: &mut FlowGen,
    sink: &mut dyn FrameSink,
    offered: u64,
    budget: u64,
) -> Result<ForwardReport, DriverError> {
    let own_mac = MacAddr(drv.mac());
    let mut report = ForwardReport {
        offered,
        ..ForwardReport::default()
    };

    let mut injected = 0u64;
    let mut pending_burst: Vec<Vec<u8>> = Vec::new();
    while injected < offered || {
        // Drain phase: keep polling until the RX ring is empty.
        let (frames, drained) = drv.poll(budget)?;
        report.polls += 1;
        report.delivered += forward_batch(drv, frames, own_mac, sink, &mut report)?;
        !drained
    } {
        if injected >= offered {
            continue;
        }
        // Offer the next seeded burst to the wire, capped at the
        // remaining budget so the generator never stamps a sequence
        // number onto a frame this run would have to discard (which
        // would read as loss to a ledger spanning several runs).
        if pending_burst.is_empty() {
            pending_burst = gen.next_burst_capped((offered - injected) as usize);
        }
        for frame in pending_burst.drain(..) {
            if injected >= offered {
                break;
            }
            injected += 1;
            if drv.mem().rx_inject(&frame) {
                report.accepted += 1;
            } else {
                report.wire_dropped += 1;
            }
        }

        // ISR entry (the coalescing throttle may have absorbed this
        // burst — poll regardless, as a NAPI softirq would after the
        // previous pass left work pending).
        if drv.irq_enter()? != 0 {
            report.irqs += 1;
        }
        loop {
            let (frames, drained) = drv.poll(budget)?;
            report.polls += 1;
            report.delivered += forward_batch(drv, frames, own_mac, sink, &mut report)?;
            if drained {
                break;
            }
        }
    }

    // Let the TX engine deliver whatever is still queued.
    report.delivered += drv.drain(sink, 256)?;
    Ok(report)
}

/// Parse, rewrite, and re-queue one poll pass's worth of frames,
/// ticking the TX engine through ring-full backpressure. Returns frames
/// the device delivered to `sink` while handling this batch.
fn forward_batch<M: MemSpace>(
    drv: &mut E1000Driver<M>,
    frames: Vec<Vec<u8>>,
    own_mac: MacAddr,
    sink: &mut dyn FrameSink,
    report: &mut ForwardReport,
) -> Result<u64, DriverError> {
    let mut delivered = 0u64;
    for bytes in frames {
        let Some(parsed) = Frame::parse(&bytes) else {
            report.unparseable += 1;
            continue;
        };
        let out = rewrite(&parsed, own_mac).to_bytes();
        loop {
            match drv.xmit_raw(&out) {
                Ok(()) => break,
                Err(DriverError::RingFull) => {
                    delivered += drv.mem().tx_tick(sink);
                    drv.clean_tx()?;
                }
                Err(e) => return Err(e),
            }
        }
        report.forwarded += 1;
    }
    Ok(delivered)
}

/// What one receive queue's forwarding worker did.
#[derive(Clone, Debug)]
pub struct ForwardQueueReport {
    /// Queue index.
    pub queue: usize,
    /// The queue's forwarding run.
    pub report: ForwardReport,
    /// Guard invocations over the queue driver's whole lifetime.
    pub guard_calls: u64,
    /// Whether the queue's ledger audit was exact: every accepted frame
    /// delivered exactly once, every missing sequence accounted for by a
    /// wire-side drop.
    pub ledger_clean: bool,
}

/// Result of a multi-queue forwarding run.
#[derive(Clone, Debug)]
pub struct MqForwardReport {
    /// Per-queue breakdown, sorted by queue index.
    pub queues: Vec<ForwardQueueReport>,
    /// Wall-clock for the whole parallel phase (slowest queue).
    pub elapsed: Duration,
}

impl MqForwardReport {
    /// Total frames forwarded across all queues.
    pub fn forwarded(&self) -> u64 {
        self.queues.iter().map(|q| q.report.forwarded).sum()
    }

    /// Total frames offered across all queues.
    pub fn offered(&self) -> u64 {
        self.queues.iter().map(|q| q.report.offered).sum()
    }

    /// Total guard calls across all queues.
    pub fn guard_calls(&self) -> u64 {
        self.queues.iter().map(|q| q.guard_calls).sum()
    }

    /// Aggregate forwarding rate in frames per second.
    pub fn frames_per_sec(&self) -> f64 {
        self.forwarded() as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// True when every queue's ledger audit was exact.
    pub fn all_clean(&self) -> bool {
        self.queues.iter().all(|q| q.ledger_clean)
    }
}

/// Run `queues` forwarding workers concurrently — the RX mirror of
/// [`kop_e1000e::mq::run_mq_tx_with`]. Each queue is a full driver over
/// its own rings and arena, fed by its own deterministically-seeded
/// [`FlowGen`] (seed derived from `seed` and the queue index) and audited
/// by its own [`LedgerSink`]; `make_mem(queue)` builds each worker's
/// memory space, so a shared policy (or per-queue guard fronts over one)
/// is the only contended object. Workers start together at one line so
/// `elapsed` measures genuinely concurrent forwarding.
pub fn run_mq_forward<M, F>(
    queues: usize,
    offered_per_queue: u64,
    flows: usize,
    seed: u64,
    budget: u64,
    make_mem: F,
) -> Result<MqForwardReport, DriverError>
where
    M: MemSpace + Send,
    F: Fn(usize) -> M + Sync,
{
    let (queues, elapsed) = run_queues(queues, |queue, line| {
        let mut drv = E1000Driver::probe(make_mem(queue))?;
        drv.up()?;
        let mut gen = FlowGen::new(
            seed ^ (queue as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            flows,
        );
        let mut ledger = LedgerSink::new();
        let (report, elapsed) =
            line.timed(|| run_forward(&mut drv, &mut gen, &mut ledger, offered_per_queue, budget))?;
        let ledger_clean = ledger.duplicates == 0
            && ledger.unsequenced == 0
            && ledger.frames == report.forwarded
            && ledger.missing(report.offered).len() as u64 == report.wire_dropped;
        let report = ForwardQueueReport {
            queue,
            report,
            guard_calls: drv.counts().guard_calls,
            ledger_clean,
        };
        Ok((report, elapsed))
    })?;
    Ok(MqForwardReport { queues, elapsed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{EtherType, ETH_HLEN};
    use crate::sink::LedgerSink;
    use kop_e1000e::device::E1000Device;
    use kop_e1000e::{DirectMem, GuardedMem};
    use kop_policy::{DefaultAction, PolicyModule};

    fn direct_driver() -> E1000Driver<DirectMem> {
        let mem = DirectMem::with_defaults(E1000Device::default());
        let mut drv = E1000Driver::probe(mem).expect("probe");
        drv.up().expect("up");
        drv
    }

    #[test]
    fn rewrite_swaps_direction_and_keeps_payload() {
        let f = Frame::new(
            MacAddr::local(1),
            MacAddr::local(2),
            EtherType::Experimental,
            b"sequence + data".to_vec(),
        );
        let own = MacAddr::local(99);
        let out = rewrite(&f, own);
        assert_eq!(out.dst, f.src, "echoed back to the sender");
        assert_eq!(out.src, own, "from the forwarder");
        assert_eq!(out.ethertype, f.ethertype);
        assert_eq!(out.payload, f.payload);
    }

    #[test]
    fn forward_run_audits_clean_on_a_ledger() {
        let mut drv = direct_driver();
        let mut gen = FlowGen::new(5, 256);
        let mut ledger = LedgerSink::new();
        let report = run_forward(&mut drv, &mut gen, &mut ledger, 500, 64).unwrap();
        assert_eq!(report.offered, 500);
        assert_eq!(report.accepted + report.wire_dropped, 500);
        assert_eq!(report.forwarded, report.accepted);
        assert_eq!(report.delivered, report.forwarded);
        assert_eq!(report.unparseable, 0);
        // Every accepted sequence arrived exactly once.
        assert_eq!(ledger.frames, report.forwarded);
        assert_eq!(ledger.duplicates, 0);
        assert_eq!(ledger.unsequenced, 0);
        // The driver's RX counters saw the same world.
        let s = drv.stats();
        assert_eq!(s.rx_packets, report.accepted);
        assert_eq!(s.tx_packets, report.forwarded);
        assert!(s.poll_passes > 0);
    }

    #[test]
    fn forwarded_frames_are_the_rewritten_originals() {
        let mut drv = direct_driver();
        let mut gen = FlowGen::new(9, 8);
        let mut sink = crate::sink::PacketSink::capturing(64);
        let schedule: Vec<Vec<u8>> = {
            // Replay the same seed to know exactly what was offered.
            let mut shadow = FlowGen::new(9, 8);
            (0..64).flat_map(|_| shadow.next_burst()).collect()
        };
        let own = MacAddr(drv.mac());
        let report = run_forward(&mut drv, &mut gen, &mut sink, 40, 32).unwrap();
        assert_eq!(report.wire_dropped, 0, "no overrun at this load");
        for (sent, got) in schedule.iter().zip(sink.captured_raw()) {
            let sent_f = Frame::parse(sent).unwrap();
            let expect = rewrite(&sent_f, own).to_bytes();
            assert_eq!(got, &expect, "byte-identical modulo the rewrite");
            // The ledger sequence bytes specifically are untouched.
            assert_eq!(&got[ETH_HLEN..ETH_HLEN + 8], &sent[ETH_HLEN..ETH_HLEN + 8]);
        }
    }

    #[test]
    fn guarded_forwarding_reconciles_guard_counts() {
        let pm = PolicyModule::new();
        pm.set_default_action(DefaultAction::Allow);
        let mem = GuardedMem::new(DirectMem::with_defaults(E1000Device::default()), &pm);
        let mut drv = E1000Driver::probe(mem).expect("probe");
        drv.up().expect("up");
        let mut gen = FlowGen::new(5, 256);
        let mut ledger = LedgerSink::new();
        let report = run_forward(&mut drv, &mut gen, &mut ledger, 300, 64).unwrap();
        assert_eq!(report.forwarded, report.accepted);
        assert_eq!(ledger.duplicates, 0);
        let d = drv.counts();
        assert_eq!(
            d.guard_calls,
            d.ram_reads + d.ram_writes + d.mmio_reads + d.mmio_writes,
            "every CPU access on the RX+TX path guarded"
        );
        assert_eq!(pm.stats().checks, d.guard_calls, "policy saw every guard");
    }

    #[test]
    fn mq_forwarding_shares_one_policy_and_audits_clean() {
        use std::sync::Arc;
        let pm = Arc::new(PolicyModule::two_region_paper_policy());
        let before = pm.stats().checks;
        let queues = 3usize;
        let report = run_mq_forward(queues, 200, 64, 21, 32, |_q| {
            GuardedMem::new(
                DirectMem::with_defaults(E1000Device::default()),
                Arc::clone(&pm),
            )
        })
        .unwrap();
        assert_eq!(report.queues.len(), queues);
        assert!(report.all_clean(), "every queue's ledger audit is exact");
        for q in &report.queues {
            assert_eq!(q.report.offered, 200);
            assert_eq!(q.report.forwarded, q.report.accepted);
            assert!(q.guard_calls > 0);
        }
        // Every guard on every queue reached the one shared policy.
        assert_eq!(pm.stats().checks - before, report.guard_calls());
        assert!(report.frames_per_sec() > 0.0);
    }

    #[test]
    fn forwarding_runs_under_the_least_privilege_datapath_policy() {
        // Derive the exact geometry from a throwaway driver (the default
        // layout is deterministic), then forward under a policy that
        // admits only those windows — RX buffers read-only.
        let geo = direct_driver().datapath_geometry();
        let pm = PolicyModule::datapath_policy(&geo);
        let mem = GuardedMem::new(DirectMem::with_defaults(E1000Device::default()), &pm);
        let mut drv = E1000Driver::probe(mem).expect("probe under least privilege");
        drv.up().expect("up under least privilege");
        let mut gen = FlowGen::new(13, 128);
        let mut ledger = LedgerSink::new();
        let report = run_forward(&mut drv, &mut gen, &mut ledger, 300, 64).unwrap();
        assert_eq!(report.forwarded, report.accepted);
        assert_eq!(ledger.duplicates, 0);
        // Nothing on the whole RX→TX path strayed outside the datapath
        // windows, and nothing wrote into DMA-owned receive memory.
        let s = pm.stats();
        assert_eq!(
            s.denied_no_match + s.denied_insufficient + s.denied_malformed,
            0
        );
        assert_eq!(s.checks, drv.counts().guard_calls);
        // The policy really is enforcing: a CPU store into an RX buffer
        // is a violation.
        use kop_core::{AccessFlags, Size, VAddr};
        assert!(pm
            .check(VAddr(geo.rx_buffers.0 + 64), Size(8), AccessFlags::WRITE)
            .is_err());
    }

    #[test]
    fn baseline_and_guarded_forward_identical_bytes() {
        let mut base_drv = direct_driver();
        let mut base_sink = crate::sink::PacketSink::capturing(2000);
        let mut base_gen = FlowGen::new(77, 512);
        run_forward(&mut base_drv, &mut base_gen, &mut base_sink, 400, 64).unwrap();

        let pm = PolicyModule::new();
        pm.set_default_action(DefaultAction::Allow);
        let mem = GuardedMem::new(DirectMem::with_defaults(E1000Device::default()), &pm);
        let mut g_drv = E1000Driver::probe(mem).expect("probe");
        g_drv.up().expect("up");
        let mut g_sink = crate::sink::PacketSink::capturing(2000);
        let mut g_gen = FlowGen::new(77, 512);
        run_forward(&mut g_drv, &mut g_gen, &mut g_sink, 400, 64).unwrap();

        assert_eq!(base_sink.frames, g_sink.frames);
        assert_eq!(base_sink.captured_raw(), g_sink.captured_raw());
    }
}
