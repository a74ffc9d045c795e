//! Flow-level traffic generation for the receive path.
//!
//! The TX-side tool ([`crate::tool`]) sends one synthetic stream; the
//! receive/forwarding workload needs *offered load* that looks like a
//! switch uplink: thousands of concurrent flows, heavy-tailed frame
//! sizes (most traffic is small control/ACK frames, a thin tail of
//! MTU-sized bulk data), and bursty arrivals. [`FlowGen`] produces that
//! from a seed, deterministically: two generators built from the same
//! seed emit byte-identical frame schedules, which is what lets the
//! baseline and guarded forwarding runs be compared frame-for-frame.
//!
//! Every emitted frame carries a globally unique little-endian `u64`
//! sequence number at payload offset 0 (wire offset 14), the layout
//! [`crate::LedgerSink`] audits — so a forwarding run can prove zero
//! loss and zero duplication end to end.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::frame::{EtherType, Frame, MacAddr};

/// Payload bytes reserved for the ledger sequence number.
const SEQ_LEN: usize = 8;
/// Payload bytes reserved for the flow id (after the sequence).
const FLOW_ID_LEN: usize = 4;
/// Smallest generated payload: sequence + flow id + a little filler,
/// comfortably above the parse threshold and the Ethernet minimum.
const MIN_PAYLOAD: usize = 46;
/// Largest generated payload (1500 MTU).
const MAX_PAYLOAD: usize = 1500;

/// One flow's immutable identity.
#[derive(Clone, Copy, Debug)]
struct FlowState {
    src: MacAddr,
    dst: MacAddr,
    /// Per-flow byte used as payload filler so flows are distinguishable
    /// on the wire beyond their id field.
    dye: u8,
}

/// Seeded, deterministic flow-level load generator.
#[derive(Clone, Debug)]
pub struct FlowGen {
    rng: StdRng,
    flows: Vec<FlowState>,
    next_seq: u64,
}

impl FlowGen {
    /// A generator over `flows` concurrent flows, seeded with `seed`.
    /// Flow endpoints are derived deterministically from the flow index.
    pub fn new(seed: u64, flows: usize) -> FlowGen {
        let flows = flows.max(1);
        let states = (0..flows)
            .map(|i| FlowState {
                src: MacAddr::local(i as u16),
                dst: MacAddr::local((i as u16).wrapping_add(0x8000)),
                dye: (i % 251) as u8,
            })
            .collect();
        FlowGen {
            rng: StdRng::seed_from_u64(seed),
            flows: states,
            next_seq: 0,
        }
    }

    /// The sequence number the *next* emitted frame will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Uniform draw in `[lo, hi]`.
    fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.rng.random_below((hi - lo + 1) as u64) as usize
    }

    /// Draw a heavy-tailed payload length: ~80% small (mouse flows:
    /// ACKs, RPCs), ~15% medium, ~5% MTU-sized (elephant tail).
    fn payload_len(&mut self) -> usize {
        match self.rng.random_below(100) {
            0..80 => self.between(MIN_PAYLOAD, 200),
            80..95 => self.between(200, 700),
            _ => self.between(700, MAX_PAYLOAD),
        }
    }

    /// Emit the next frame: a random flow, heavy-tailed size, stamped
    /// with the next global sequence number.
    pub fn next_frame(&mut self) -> Vec<u8> {
        let idx = self.rng.random_below(self.flows.len() as u64) as usize;
        self.frame_for(idx)
    }

    /// Emit one seeded burst: a single flow sending `1..=32` back-to-back
    /// frames (geometric-ish: short bursts dominate).
    pub fn next_burst(&mut self) -> Vec<Vec<u8>> {
        self.next_burst_capped(32)
    }

    /// Like [`FlowGen::next_burst`], but emit at most `cap` frames. The
    /// burst length is drawn as usual and then truncated, so sequence
    /// numbers are only ever consumed by frames actually returned —
    /// callers offering an exact frame budget (e.g. forwarding runs
    /// composed over one generator) stay gap-free in the ledger.
    pub fn next_burst_capped(&mut self, cap: usize) -> Vec<Vec<u8>> {
        if cap == 0 {
            return Vec::new();
        }
        let idx = self.rng.random_below(self.flows.len() as u64) as usize;
        let mut len = 1usize;
        while len < 32 && self.rng.random_below(3) != 0 {
            len += 1;
        }
        (0..len.min(cap)).map(|_| self.frame_for(idx)).collect()
    }

    fn frame_for(&mut self, idx: usize) -> Vec<u8> {
        let flow = self.flows[idx];
        let plen = self.payload_len();
        let mut payload = vec![flow.dye; plen];
        payload[..SEQ_LEN].copy_from_slice(&self.next_seq.to_le_bytes());
        payload[SEQ_LEN..SEQ_LEN + FLOW_ID_LEN].copy_from_slice(&(idx as u32).to_le_bytes());
        self.next_seq += 1;
        Frame::new(flow.dst, flow.src, EtherType::Experimental, payload).to_bytes()
    }
}

/// The flow id stamped into a generated frame, if it carries one.
pub fn flow_id(wire: &[u8]) -> Option<u32> {
    let off = crate::frame::ETH_HLEN + SEQ_LEN;
    wire.get(off..off + FLOW_ID_LEN)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{ETH_HLEN, ETH_ZLEN};
    use crate::sink::LedgerSink;
    use kop_e1000e::FrameSink;
    use std::collections::BTreeSet;

    #[test]
    fn deterministic_per_seed() {
        let mut a = FlowGen::new(42, 1000);
        let mut b = FlowGen::new(42, 1000);
        for _ in 0..500 {
            assert_eq!(a.next_frame(), b.next_frame());
        }
        let mut c = FlowGen::new(43, 1000);
        let differs = (0..500).any(|_| a.next_frame() != c.next_frame());
        assert!(differs, "different seeds, different schedules");
    }

    #[test]
    fn sizes_are_heavy_tailed_and_in_range() {
        let mut g = FlowGen::new(7, 4096);
        let mut small = 0u32;
        let mut large = 0u32;
        for _ in 0..5000 {
            let f = g.next_frame();
            assert!((ETH_ZLEN..=1514).contains(&f.len()), "len={}", f.len());
            if f.len() <= 214 {
                small += 1;
            }
            if f.len() > 714 {
                large += 1;
            }
        }
        assert!(small > 3200, "small-frame mass: {small}/5000");
        assert!(large > 50, "a real tail exists: {large}/5000");
        assert!(large < 800, "but it is a tail: {large}/5000");
    }

    #[test]
    fn sequences_audit_clean_through_a_ledger() {
        let mut g = FlowGen::new(3, 100);
        let mut ledger = LedgerSink::default();
        let mut seen_flows = BTreeSet::new();
        for _ in 0..200 {
            for f in g.next_burst() {
                seen_flows.insert(flow_id(&f).expect("generated frames carry a flow id"));
                ledger.deliver(&f);
            }
        }
        // Sequence numbers start at 0, one per frame emitted.
        let emitted = g.next_seq();
        assert_eq!(ledger.frames, emitted);
        assert_eq!(ledger.duplicates, 0);
        assert_eq!(ledger.unsequenced, 0);
        assert_eq!(ledger.distinct(), emitted);
        assert!(ledger.missing(emitted).is_empty());
        assert!(seen_flows.len() > 50, "many flows active");
    }

    #[test]
    fn bursts_stay_within_one_flow() {
        let mut g = FlowGen::new(11, 64);
        let mut multi = 0;
        for _ in 0..100 {
            let burst = g.next_burst();
            assert!((1..=32).contains(&burst.len()));
            let ids: BTreeSet<_> = burst.iter().map(|f| flow_id(f).unwrap()).collect();
            assert_eq!(ids.len(), 1, "a burst belongs to one flow");
            let srcs: BTreeSet<_> = burst.iter().map(|f| f[6..12].to_vec()).collect();
            assert_eq!(srcs.len(), 1);
            if burst.len() > 1 {
                multi += 1;
            }
        }
        assert!(multi > 20, "bursts longer than one frame occur: {multi}");
    }

    #[test]
    fn frames_parse_and_carry_the_seq_at_the_ledger_offset() {
        let mut g = FlowGen::new(1, 10);
        let f = g.next_frame();
        let parsed = Frame::parse(&f).unwrap();
        assert_eq!(parsed.ethertype, EtherType::Experimental);
        let seq = u64::from_le_bytes(f[ETH_HLEN..ETH_HLEN + 8].try_into().unwrap());
        assert_eq!(seq, 0, "first frame carries seq 0");
        assert_eq!(g.next_seq(), 1);
    }
}
