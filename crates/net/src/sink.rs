//! The packet sink the test NIC is "attached to" (§4.2).

use kop_e1000e::FrameSink;

/// Counts delivered frames; optionally captures the first few for
/// inspection.
#[derive(Clone, Debug, Default)]
pub struct PacketSink {
    /// Frames delivered.
    pub frames: u64,
    /// Wire bytes delivered.
    pub bytes: u64,
    capture_limit: usize,
    captured: Vec<Vec<u8>>,
}

impl PacketSink {
    /// A counting-only sink.
    pub fn new() -> PacketSink {
        PacketSink::default()
    }

    /// A sink that keeps the first `limit` frames for inspection.
    pub fn capturing(limit: usize) -> PacketSink {
        PacketSink {
            capture_limit: limit,
            ..PacketSink::default()
        }
    }

    /// Raw captured bytes.
    pub fn captured_raw(&self) -> &[Vec<u8>] {
        &self.captured
    }
}

impl FrameSink for PacketSink {
    fn deliver(&mut self, frame: &[u8]) {
        self.frames += 1;
        self.bytes += frame.len() as u64;
        if self.captured.len() < self.capture_limit {
            self.captured.push(frame.to_vec());
        }
    }
}

/// A sink that audits delivery of *sequence-numbered* frames: the sender
/// embeds a little-endian `u64` sequence number in the first payload
/// bytes (`frame[14..22]`), and the ledger records exactly which
/// sequences arrived and how many times. The live-upgrade harness uses
/// it to assert zero dropped and zero duplicated frames across a swap.
#[derive(Clone, Debug, Default)]
pub struct LedgerSink {
    /// Total frames delivered.
    pub frames: u64,
    /// Deliveries of a sequence number already seen (must stay 0 across
    /// a correct upgrade).
    pub duplicates: u64,
    /// Frames too short to carry a sequence number.
    pub unsequenced: u64,
    seen: std::collections::BTreeSet<u64>,
}

impl LedgerSink {
    /// An empty ledger.
    pub fn new() -> LedgerSink {
        LedgerSink::default()
    }

    /// Whether sequence `seq` was delivered.
    pub fn has(&self, seq: u64) -> bool {
        self.seen.contains(&seq)
    }

    /// Distinct sequence numbers delivered.
    pub fn distinct(&self) -> u64 {
        self.seen.len() as u64
    }

    /// The sequences in `0..expected` that never arrived.
    pub fn missing(&self, expected: u64) -> Vec<u64> {
        (0..expected).filter(|s| !self.seen.contains(s)).collect()
    }
}

impl FrameSink for LedgerSink {
    fn deliver(&mut self, frame: &[u8]) {
        self.frames += 1;
        if frame.len() < 22 {
            self.unsequenced += 1;
            return;
        }
        let seq = u64::from_le_bytes(frame[14..22].try_into().expect("8 bytes"));
        if !self.seen.insert(seq) {
            self.duplicates += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_tracks_sequences_dups_and_gaps() {
        let mut sink = LedgerSink::new();
        let mut frame = vec![0u8; 60];
        for seq in [0u64, 1, 3] {
            frame[14..22].copy_from_slice(&seq.to_le_bytes());
            sink.deliver(&frame);
        }
        frame[14..22].copy_from_slice(&1u64.to_le_bytes());
        sink.deliver(&frame); // duplicate of 1
        sink.deliver(&[0u8; 10]); // too short
        assert_eq!(sink.frames, 5);
        assert_eq!(sink.distinct(), 3);
        assert_eq!(sink.duplicates, 1);
        assert_eq!(sink.unsequenced, 1);
        assert!(sink.has(3) && !sink.has(2));
        assert_eq!(sink.missing(4), vec![2]);
    }

    #[test]
    fn counts_and_captures() {
        let mut sink = PacketSink::capturing(2);
        sink.deliver(&[0u8; 60]);
        sink.deliver(&[1u8; 128]);
        sink.deliver(&[2u8; 1514]);
        assert_eq!(sink.frames, 3);
        assert_eq!(sink.bytes, 60 + 128 + 1514);
        assert_eq!(sink.captured_raw().len(), 2, "capture limit respected");
        assert_eq!(sink.captured_raw()[1], [1u8; 128]);
    }

    #[test]
    fn counting_only_by_default() {
        let mut sink = PacketSink::new();
        sink.deliver(&[0u8; 64]);
        assert!(sink.captured_raw().is_empty());
        assert_eq!(sink.frames, 1);
    }
}
