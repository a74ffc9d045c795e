//! The NIC device model: register file, DMA engine, interrupts.
//!
//! The device is *hardware*: its DMA engine reads descriptors and packet
//! payloads directly from physical memory, bypassing CARAT KOP guards
//! entirely (§4: DMA "is not checked (and thus not slowed)"; footnote 3:
//! controlling DMA belongs to IOMMU/SR-IOV, out of scope).

use crate::desc::{rxsts, txcmd, txsts, RxDesc, TxDesc, DESC_SIZE};
use crate::regs::{self, ctrl, eerd, intr, rctl, status, tctl};

/// Bytes one RX descriptor's buffer can hold (RCTL.BSIZE default on the
/// 8254x family: 2048). Frames longer than this span several descriptors,
/// with EOP set only on the last.
pub const RX_BUF_CAP: usize = 2048;

/// Physical memory as seen by the DMA engine.
pub trait DmaMem {
    /// DMA read from physical memory.
    fn dma_read(&mut self, addr: u64, buf: &mut [u8]);
    /// DMA write to physical memory.
    fn dma_write(&mut self, addr: u64, buf: &[u8]);
}

impl DmaMem for Vec<u8> {
    fn dma_read(&mut self, addr: u64, buf: &mut [u8]) {
        let a = addr as usize;
        buf.copy_from_slice(&self[a..a + buf.len()]);
    }
    fn dma_write(&mut self, addr: u64, buf: &[u8]) {
        let a = addr as usize;
        self[a..a + buf.len()].copy_from_slice(buf);
    }
}

/// Where transmitted frames go (the "packet sink" attached to the test
/// NIC in §4.2).
pub trait FrameSink {
    /// Deliver one complete frame.
    fn deliver(&mut self, frame: &[u8]);
}

/// A sink that stores frames (testing, and the measurement sink).
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    /// Delivered frames.
    pub frames: Vec<Vec<u8>>,
}

impl FrameSink for VecSink {
    fn deliver(&mut self, frame: &[u8]) {
        self.frames.push(frame.to_vec());
    }
}

/// A sink that only counts (for long benchmark runs).
#[derive(Clone, Copy, Debug, Default)]
pub struct CountSink {
    /// Number of frames delivered.
    pub frames: u64,
    /// Total payload bytes delivered.
    pub bytes: u64,
}

impl FrameSink for CountSink {
    fn deliver(&mut self, frame: &[u8]) {
        self.frames += 1;
        self.bytes += frame.len() as u64;
    }
}

/// Statistics the device model tracks beyond the architected counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Total DMA bytes read (descriptors + payloads).
    pub dma_read_bytes: u64,
    /// Total DMA bytes written (descriptor writebacks).
    pub dma_write_bytes: u64,
    /// Register reads observed.
    pub reg_reads: u64,
    /// Register writes observed.
    pub reg_writes: u64,
    /// Frames the wire offered that the receiver dropped (disabled, ring
    /// exhausted, or not enough free descriptors for the whole frame).
    pub rx_dropped: u64,
    /// RXT0 causes actually latched by the receive engine.
    pub rx_irqs_raised: u64,
    /// Frame arrivals the interrupt-coalescing throttle (RDTR) absorbed
    /// without latching a cause.
    pub rx_irqs_coalesced: u64,
}

/// The simulated 82574L-style NIC.
pub struct E1000Device {
    // Architected registers.
    ctrl: u64,
    status: u64,
    icr: u64,
    ims: u64,
    rctl: u64,
    tctl: u64,
    tdbal: u64,
    tdbah: u64,
    tdlen: u64,
    tdh: u64,
    tdt: u64,
    rdbal: u64,
    rdbah: u64,
    rdlen: u64,
    rdh: u64,
    rdt: u64,
    rdtr: u64,
    ral0: u64,
    rah0: u64,
    eerd: u64,
    gptc: u64,
    gotc: u64,
    gprc: u64,
    /// EEPROM contents (word-addressed); words 0..3 hold the MAC.
    eeprom: [u16; 64],
    /// Partial multi-descriptor frame being assembled by the TX engine.
    tx_partial: Vec<u8>,
    /// Frames accumulated toward the next RXT0 under the RDTR throttle.
    rx_coalesce: u64,
    /// Model statistics.
    pub stats: DeviceStats,
}

impl Default for E1000Device {
    fn default() -> Self {
        Self::new([0x02, 0x00, 0x4b, 0x4f, 0x50, 0x01])
    }
}

impl E1000Device {
    /// Create a device with the given MAC address burned into its EEPROM.
    pub fn new(mac: [u8; 6]) -> E1000Device {
        let mut eeprom = [0u16; 64];
        eeprom[0] = u16::from_le_bytes([mac[0], mac[1]]);
        eeprom[1] = u16::from_le_bytes([mac[2], mac[3]]);
        eeprom[2] = u16::from_le_bytes([mac[4], mac[5]]);
        E1000Device {
            ctrl: 0,
            status: 0,
            icr: 0,
            ims: 0,
            rctl: 0,
            tctl: 0,
            tdbal: 0,
            tdbah: 0,
            tdlen: 0,
            tdh: 0,
            tdt: 0,
            rdbal: 0,
            rdbah: 0,
            rdlen: 0,
            rdh: 0,
            rdt: 0,
            rdtr: 0,
            ral0: 0,
            rah0: 0,
            eerd: 0,
            gptc: 0,
            gotc: 0,
            gprc: 0,
            eeprom,
            tx_partial: Vec::new(),
            rx_coalesce: 0,
            stats: DeviceStats::default(),
        }
    }

    fn reset(&mut self) {
        let eeprom = self.eeprom;
        let stats = self.stats;
        *self = E1000Device::new([0; 6]);
        self.eeprom = eeprom;
        self.stats = stats;
    }

    /// Register read at `offset` within the BAR.
    pub fn reg_read(&mut self, offset: u64) -> u64 {
        self.stats.reg_reads += 1;
        match offset {
            regs::CTRL => self.ctrl,
            regs::STATUS => self.status,
            regs::EERD => self.eerd,
            regs::ICR => {
                // Read-to-clear, as architected.
                let v = self.icr;
                self.icr = 0;
                v
            }
            regs::IMS => self.ims,
            regs::RCTL => self.rctl,
            regs::TCTL => self.tctl,
            regs::TDBAL => self.tdbal,
            regs::TDBAH => self.tdbah,
            regs::TDLEN => self.tdlen,
            regs::TDH => self.tdh,
            regs::TDT => self.tdt,
            regs::RDBAL => self.rdbal,
            regs::RDBAH => self.rdbah,
            regs::RDLEN => self.rdlen,
            regs::RDH => self.rdh,
            regs::RDT => self.rdt,
            regs::RDTR => self.rdtr,
            regs::RAL0 => self.ral0,
            regs::RAH0 => self.rah0,
            regs::GPTC => self.gptc,
            regs::GOTCL => self.gotc & 0xffff_ffff,
            regs::GOTCH => self.gotc >> 32,
            regs::GPRC => self.gprc,
            _ => 0,
        }
    }

    /// Register write at `offset` within the BAR.
    pub fn reg_write(&mut self, offset: u64, value: u64) {
        self.stats.reg_writes += 1;
        match offset {
            regs::CTRL => {
                if value & ctrl::RST != 0 {
                    self.reset();
                    // RST self-clears; link comes up full duplex.
                    self.status = status::LU | status::FD;
                    return;
                }
                self.ctrl = value;
                if value & ctrl::SLU != 0 {
                    self.status |= status::LU | status::FD;
                    self.icr |= intr::LSC;
                }
            }
            regs::EERD if value & eerd::START != 0 => {
                let addr = ((value >> eerd::ADDR_SHIFT) & 0xff) as usize;
                let word = self.eeprom.get(addr).copied().unwrap_or(0);
                self.eerd =
                    eerd::DONE | ((word as u64) << eerd::DATA_SHIFT) | (value & !eerd::START);
            }
            regs::IMS => self.ims |= value,
            regs::IMC => self.ims &= !value,
            regs::RCTL => self.rctl = value,
            regs::TCTL => self.tctl = value,
            regs::TDBAL => self.tdbal = value & 0xffff_fff0,
            regs::TDBAH => self.tdbah = value,
            regs::TDLEN => self.tdlen = value & 0xf_ff80,
            regs::TDH => self.tdh = value & 0xffff,
            regs::TDT => self.tdt = value & 0xffff,
            regs::RDBAL => self.rdbal = value & 0xffff_fff0,
            regs::RDBAH => self.rdbah = value,
            regs::RDLEN => self.rdlen = value & 0xf_ff80,
            regs::RDH => self.rdh = value & 0xffff,
            regs::RDT => self.rdt = value & 0xffff,
            regs::RDTR => self.rdtr = value & 0xffff,
            regs::RAL0 => self.ral0 = value,
            regs::RAH0 => self.rah0 = value,
            _ => {}
        }
    }

    /// Whether an interrupt is pending (ICR ∩ IMS non-empty).
    pub fn irq_pending(&self) -> bool {
        self.icr & self.ims != 0
    }

    fn tx_ring_entries(&self) -> u64 {
        self.tdlen / DESC_SIZE
    }

    fn rx_ring_entries(&self) -> u64 {
        self.rdlen / DESC_SIZE
    }

    fn tx_base(&self) -> u64 {
        (self.tdbah << 32) | self.tdbal
    }

    fn rx_base(&self) -> u64 {
        (self.rdbah << 32) | self.rdbal
    }

    /// Run the transmit DMA engine: consume descriptors from TDH to TDT,
    /// deliver completed frames to `sink`, write back DD status.
    /// Returns the number of frames transmitted.
    pub fn tx_tick(&mut self, mem: &mut dyn DmaMem, sink: &mut dyn FrameSink) -> u64 {
        if self.tctl & tctl::EN == 0 || self.tx_ring_entries() == 0 {
            return 0;
        }
        let mut sent = 0u64;
        while self.tdh != self.tdt {
            let daddr = self.tx_base() + self.tdh * DESC_SIZE;
            let mut dbytes = [0u8; 16];
            mem.dma_read(daddr, &mut dbytes);
            self.stats.dma_read_bytes += DESC_SIZE;
            let mut desc = TxDesc::from_bytes(&dbytes);

            // DMA the payload.
            let mut payload = vec![0u8; desc.length as usize];
            mem.dma_read(desc.buffer, &mut payload);
            self.stats.dma_read_bytes += desc.length as u64;
            self.tx_partial.extend_from_slice(&payload);

            if desc.cmd & txcmd::EOP != 0 {
                let frame = std::mem::take(&mut self.tx_partial);
                self.gptc += 1;
                self.gotc += frame.len() as u64;
                sink.deliver(&frame);
                sent += 1;
            }

            // Status writeback when requested.
            if desc.cmd & txcmd::RS != 0 {
                desc.status |= txsts::DD;
                let out = desc.to_bytes();
                mem.dma_write(daddr, &out);
                self.stats.dma_write_bytes += DESC_SIZE;
            }
            self.tdh = (self.tdh + 1) % self.tx_ring_entries();
        }
        if sent > 0 {
            self.icr |= intr::TXDW;
        }
        sent
    }

    /// RX descriptors the device currently owns (programmed by the driver
    /// via RDT, consumed by the receive engine via RDH).
    fn rx_free_descs(&self) -> u64 {
        let entries = self.rx_ring_entries();
        if entries == 0 {
            return 0;
        }
        // Ring empty for the device when RDH == RDT (driver owns none).
        (self.rdt + entries - self.rdh) % entries
    }

    /// Inject a received frame (the wire side). Returns `true` if the
    /// device had enough free RX descriptors and DMA'd the frame into
    /// their buffers — frames longer than [`RX_BUF_CAP`] span several
    /// descriptors, with [`rxsts::EOP`] set only on the last. A frame
    /// that does not fit is dropped whole (counted in
    /// [`DeviceStats::rx_dropped`], RXO latched); partial delivery never
    /// happens. RXT0 is latched per the RDTR coalescing throttle.
    pub fn rx_inject(&mut self, mem: &mut dyn DmaMem, frame: &[u8]) -> bool {
        if self.rctl & rctl::EN == 0 || self.rx_ring_entries() == 0 {
            self.stats.rx_dropped += 1;
            return false;
        }
        let needed = frame.len().div_ceil(RX_BUF_CAP).max(1) as u64;
        if self.rx_free_descs() < needed {
            self.stats.rx_dropped += 1;
            self.icr |= intr::RXO;
            return false;
        }

        let entries = self.rx_ring_entries();
        for (i, chunk) in frame
            .chunks(RX_BUF_CAP)
            .chain(frame.is_empty().then_some(frame))
            .enumerate()
        {
            let daddr = self.rx_base() + self.rdh * DESC_SIZE;
            let mut dbytes = [0u8; 16];
            mem.dma_read(daddr, &mut dbytes);
            self.stats.dma_read_bytes += DESC_SIZE;
            let mut desc = RxDesc::from_bytes(&dbytes);

            mem.dma_write(desc.buffer, chunk);
            self.stats.dma_write_bytes += chunk.len() as u64;
            desc.length = chunk.len() as u16;
            desc.status |= rxsts::DD;
            if i as u64 + 1 == needed {
                desc.status |= rxsts::EOP;
            }
            let out = desc.to_bytes();
            mem.dma_write(daddr, &out);
            self.stats.dma_write_bytes += DESC_SIZE;
            self.rdh = (self.rdh + 1) % entries;
        }

        self.gprc += 1;
        // Descriptor low-water mark: tell the driver the ring is running
        // dry (the driver only sees it if it unmasks RXDMT0).
        if self.rx_free_descs() <= entries / 8 {
            self.icr |= intr::RXDMT0;
        }
        // Interrupt-coalescing throttle: RDTR frames per RXT0.
        self.rx_coalesce += 1;
        if self.rx_coalesce >= self.rdtr.max(1) {
            self.rx_coalesce = 0;
            self.icr |= intr::RXT0;
            self.stats.rx_irqs_raised += 1;
        } else {
            self.stats.rx_irqs_coalesced += 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reset_device() -> E1000Device {
        let mut d = E1000Device::new([0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff]);
        d.reg_write(regs::CTRL, ctrl::RST);
        d
    }

    #[test]
    fn reset_brings_link_up_and_clears_state() {
        let mut d = E1000Device::default();
        d.reg_write(regs::TDT, 5);
        d.reg_write(regs::CTRL, ctrl::RST);
        assert_eq!(d.reg_read(regs::TDT), 0);
        assert_eq!(d.reg_read(regs::STATUS) & status::LU, status::LU);
    }

    #[test]
    fn eeprom_mac_read_protocol() {
        let mut d = reset_device();
        let mut mac = [0u8; 6];
        for w in 0..3 {
            d.reg_write(regs::EERD, eerd::START | (w as u64) << eerd::ADDR_SHIFT);
            let v = d.reg_read(regs::EERD);
            assert!(v & eerd::DONE != 0);
            let word = ((v >> eerd::DATA_SHIFT) & 0xffff) as u16;
            mac[w * 2..w * 2 + 2].copy_from_slice(&word.to_le_bytes());
        }
        assert_eq!(mac, [0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff]);
    }

    #[test]
    fn icr_read_to_clear_and_masking() {
        let mut d = reset_device();
        d.reg_write(regs::CTRL, ctrl::SLU);
        assert!(!d.irq_pending(), "masked: no pending irq");
        d.reg_write(regs::IMS, intr::LSC);
        assert!(d.irq_pending());
        let icr = d.reg_read(regs::ICR);
        assert!(icr & intr::LSC != 0);
        assert!(!d.irq_pending(), "read cleared ICR");
        // IMC clears mask bits.
        d.reg_write(regs::IMS, intr::TXDW | intr::RXT0);
        d.reg_write(regs::IMC, intr::TXDW | intr::LSC);
        assert_eq!(d.reg_read(regs::IMS), intr::RXT0);
    }

    /// Build a ring + one packet in a Vec-backed "physical memory".
    fn setup_tx(d: &mut E1000Device, mem: &mut [u8], payloads: &[&[u8]]) {
        let ring_base = 0x1000u64;
        let entries = 64u64;
        d.reg_write(regs::TDBAL, ring_base);
        d.reg_write(regs::TDBAH, 0);
        d.reg_write(regs::TDLEN, entries * DESC_SIZE);
        d.reg_write(regs::TDH, 0);
        d.reg_write(regs::TDT, 0);
        d.reg_write(regs::TCTL, tctl::EN | tctl::PSP);
        let mut buf_base = 0x10_000u64;
        for (i, p) in payloads.iter().enumerate() {
            mem[buf_base as usize..buf_base as usize + p.len()].copy_from_slice(p);
            let desc = TxDesc {
                buffer: buf_base,
                length: p.len() as u16,
                cmd: txcmd::EOP | txcmd::RS | txcmd::IFCS,
                ..TxDesc::default()
            };
            let daddr = (ring_base + (i as u64) * DESC_SIZE) as usize;
            mem[daddr..daddr + 16].copy_from_slice(&desc.to_bytes());
            buf_base += 2048;
        }
        d.reg_write(regs::TDT, payloads.len() as u64);
    }

    #[test]
    fn tx_engine_transmits_and_writes_back() {
        let mut d = reset_device();
        let mut mem = vec![0u8; 1 << 20];
        let mut sink = VecSink::default();
        setup_tx(&mut d, &mut mem, &[b"hello", b"world!"]);
        let sent = d.tx_tick(&mut mem, &mut sink);
        assert_eq!(sent, 2);
        assert_eq!(sink.frames, vec![b"hello".to_vec(), b"world!".to_vec()]);
        assert_eq!(d.reg_read(regs::TDH), 2);
        assert_eq!(d.reg_read(regs::GPTC), 2);
        assert_eq!(d.reg_read(regs::GOTCL), 11);
        // DD written back into both descriptors.
        for i in 0..2usize {
            let daddr = 0x1000 + i * 16;
            let desc = TxDesc::from_bytes(&mem[daddr..daddr + 16].try_into().expect("16 bytes"));
            assert!(desc.status & txsts::DD != 0);
        }
        // TXDW interrupt latched.
        d.reg_write(regs::IMS, intr::TXDW);
        assert!(d.irq_pending());
    }

    #[test]
    fn tx_engine_idle_cases() {
        let mut d = reset_device();
        let mut mem = vec![0u8; 1 << 16];
        let mut sink = VecSink::default();
        // TX not enabled.
        assert_eq!(d.tx_tick(&mut mem, &mut sink), 0);
        // Enabled but empty ring (TDH == TDT).
        d.reg_write(regs::TCTL, tctl::EN);
        d.reg_write(regs::TDLEN, 64 * DESC_SIZE);
        assert_eq!(d.tx_tick(&mut mem, &mut sink), 0);
        assert!(sink.frames.is_empty());
    }

    #[test]
    fn multi_descriptor_frame_assembled() {
        let mut d = reset_device();
        let mut mem = vec![0u8; 1 << 20];
        let mut sink = VecSink::default();
        // Two descriptors, EOP only on the second.
        d.reg_write(regs::TDBAL, 0x1000);
        d.reg_write(regs::TDLEN, 64 * DESC_SIZE);
        d.reg_write(regs::TCTL, tctl::EN);
        mem[0x10_000..0x10_003].copy_from_slice(b"foo");
        mem[0x12_000..0x12_003].copy_from_slice(b"bar");
        let d0 = TxDesc {
            buffer: 0x10_000,
            length: 3,
            cmd: txcmd::RS, // no EOP
            ..TxDesc::default()
        };
        let d1 = TxDesc {
            buffer: 0x12_000,
            length: 3,
            cmd: txcmd::EOP | txcmd::RS,
            ..TxDesc::default()
        };
        mem[0x1000..0x1010].copy_from_slice(&d0.to_bytes());
        mem[0x1010..0x1020].copy_from_slice(&d1.to_bytes());
        d.reg_write(regs::TDT, 2);
        let sent = d.tx_tick(&mut mem, &mut sink);
        assert_eq!(sent, 1);
        assert_eq!(sink.frames, vec![b"foobar".to_vec()]);
    }

    #[test]
    fn tx_ring_wraps() {
        let mut d = reset_device();
        let mut mem = vec![0u8; 1 << 20];
        let mut sink = CountSink::default();
        setup_tx(&mut d, &mut mem, &[b"x", b"x", b"x", b"x"]);
        d.tx_tick(&mut mem, &mut sink);
        assert_eq!(sink.frames, 4);
        // Reuse ring: fill 64-entry ring repeatedly via wrapping TDT.
        for round in 0..5u64 {
            let head = d.reg_read(regs::TDH);
            // Write one descriptor at the current tail and bump it.
            let tail = d.reg_read(regs::TDT);
            let desc = TxDesc {
                buffer: 0x10_000,
                length: 1,
                cmd: txcmd::EOP | txcmd::RS,
                ..TxDesc::default()
            };
            let daddr = (0x1000 + tail * DESC_SIZE) as usize;
            mem[daddr..daddr + 16].copy_from_slice(&desc.to_bytes());
            d.reg_write(regs::TDT, (tail + 1) % 64);
            d.tx_tick(&mut mem, &mut sink);
            assert_eq!(d.reg_read(regs::TDH), (head + 1) % 64, "round {round}");
        }
        assert_eq!(sink.frames, 9);
    }

    #[test]
    fn rx_inject_delivers_to_buffer() {
        let mut d = reset_device();
        let mut mem = vec![0u8; 1 << 20];
        // Program RX ring with 8 descriptors pointing at buffers.
        d.reg_write(regs::RDBAL, 0x2000);
        d.reg_write(regs::RDLEN, 8 * DESC_SIZE);
        d.reg_write(regs::RCTL, rctl::EN | rctl::BAM);
        for i in 0..8u64 {
            let desc = RxDesc {
                buffer: 0x20_000 + i * 2048,
                ..RxDesc::default()
            };
            let daddr = (0x2000 + i * DESC_SIZE) as usize;
            mem[daddr..daddr + 16].copy_from_slice(&desc.to_bytes());
        }
        d.reg_write(regs::RDH, 0);
        d.reg_write(regs::RDT, 7); // 7 descriptors available to the device
        assert!(d.rx_inject(&mut mem, b"ping"));
        assert_eq!(&mem[0x20_000..0x20_004], b"ping");
        let desc = RxDesc::from_bytes(&mem[0x2000..0x2010].try_into().expect("16 bytes"));
        assert!(desc.status & txsts::DD != 0);
        assert_eq!(desc.length, 4);
        assert_eq!(d.reg_read(regs::RDH), 1);
        assert_eq!(d.reg_read(regs::GPRC), 1);
        d.reg_write(regs::IMS, intr::RXT0);
        assert!(d.irq_pending());
    }

    #[test]
    fn rx_inject_drops_when_ring_exhausted() {
        let mut d = reset_device();
        let mut mem = vec![0u8; 1 << 16];
        d.reg_write(regs::RDBAL, 0x2000);
        d.reg_write(regs::RDLEN, 8 * DESC_SIZE);
        d.reg_write(regs::RCTL, rctl::EN);
        d.reg_write(regs::RDH, 3);
        d.reg_write(regs::RDT, 3); // empty for the device
        assert!(!d.rx_inject(&mut mem, b"drop me"));
        assert_eq!(d.reg_read(regs::GPRC), 0);
    }

    #[test]
    fn rx_disabled_drops() {
        let mut d = reset_device();
        let mut mem = vec![0u8; 1 << 16];
        assert!(!d.rx_inject(&mut mem, b"x"));
        assert_eq!(d.stats.rx_dropped, 1);
    }

    /// Program an RX ring with `entries` descriptors and buffers, RDT at
    /// `entries - 1` (all but one descriptor owned by the device).
    fn setup_rx(d: &mut E1000Device, mem: &mut [u8], entries: u64) {
        d.reg_write(regs::RDBAL, 0x2000);
        d.reg_write(regs::RDLEN, entries * DESC_SIZE);
        d.reg_write(regs::RCTL, rctl::EN | rctl::BAM);
        for i in 0..entries {
            let desc = RxDesc {
                buffer: 0x20_000 + i * 2048,
                ..RxDesc::default()
            };
            let daddr = (0x2000 + i * DESC_SIZE) as usize;
            mem[daddr..daddr + 16].copy_from_slice(&desc.to_bytes());
        }
        d.reg_write(regs::RDH, 0);
        d.reg_write(regs::RDT, entries - 1);
    }

    fn rx_desc_at(mem: &[u8], i: usize) -> RxDesc {
        let daddr = 0x2000 + i * 16;
        RxDesc::from_bytes(&mem[daddr..daddr + 16].try_into().expect("16 bytes"))
    }

    #[test]
    fn rx_long_frame_spans_descriptors_with_eop_on_last() {
        let mut d = reset_device();
        let mut mem = vec![0u8; 1 << 20];
        setup_rx(&mut d, &mut mem, 8);
        // 2048 + 2048 + 1 bytes → three descriptors.
        let frame: Vec<u8> = (0..2 * RX_BUF_CAP + 1).map(|i| i as u8).collect();
        assert!(d.rx_inject(&mut mem, &frame));
        let d0 = rx_desc_at(&mem, 0);
        let d1 = rx_desc_at(&mem, 1);
        let d2 = rx_desc_at(&mem, 2);
        for (i, desc) in [d0, d1, d2].iter().enumerate() {
            assert!(desc.status & rxsts::DD != 0, "desc {i} done");
        }
        assert_eq!(d0.status & rxsts::EOP, 0, "first chunk is not EOP");
        assert_eq!(d1.status & rxsts::EOP, 0, "middle chunk is not EOP");
        assert!(d2.status & rxsts::EOP != 0, "last chunk carries EOP");
        assert_eq!((d0.length, d1.length, d2.length), (2048, 2048, 1));
        // Buffers hold the right slices.
        assert_eq!(&mem[0x20_000..0x20_000 + 2048], &frame[..2048]);
        assert_eq!(mem[0x21_000], frame[4096]);
        assert_eq!(d.reg_read(regs::RDH), 3);
        assert_eq!(d.reg_read(regs::GPRC), 1, "one frame, not three");
    }

    #[test]
    fn rx_overrun_drops_whole_frame_and_latches_rxo() {
        let mut d = reset_device();
        let mut mem = vec![0u8; 1 << 20];
        setup_rx(&mut d, &mut mem, 8);
        d.reg_write(regs::RDT, 3);
        // 3 descriptors free; a 3-buffer frame fits, the next one doesn't.
        let big: Vec<u8> = vec![0xab; 2 * RX_BUF_CAP + 1];
        assert!(d.rx_inject(&mut mem, &big));
        assert!(!d.rx_inject(&mut mem, b"no room"));
        assert_eq!(d.stats.rx_dropped, 1);
        assert_eq!(d.reg_read(regs::GPRC), 1);
        // Nothing was DMA'd for the dropped frame and RDH did not move.
        assert_eq!(d.reg_read(regs::RDH), 3);
        let icr = d.reg_read(regs::ICR);
        assert!(icr & intr::RXO != 0, "overrun cause latched");
    }

    #[test]
    fn rdtr_throttle_coalesces_rx_interrupts() {
        let mut d = reset_device();
        let mut mem = vec![0u8; 1 << 20];
        setup_rx(&mut d, &mut mem, 32);
        d.reg_write(regs::RDTR, 4); // one RXT0 per 4 frames
        d.reg_write(regs::IMS, intr::RXT0);
        for i in 0..3 {
            assert!(d.rx_inject(&mut mem, b"burst"));
            assert!(!d.irq_pending(), "frame {i} absorbed by the throttle");
        }
        assert!(d.rx_inject(&mut mem, b"burst"));
        assert!(d.irq_pending(), "4th frame latches RXT0");
        assert_eq!(d.stats.rx_irqs_raised, 1);
        assert_eq!(d.stats.rx_irqs_coalesced, 3);
        // Throttle restarts after firing.
        let _ = d.reg_read(regs::ICR);
        assert!(d.rx_inject(&mut mem, b"burst"));
        assert!(!d.irq_pending());
    }

    #[test]
    fn rx_low_water_mark_latches_rxdmt0() {
        let mut d = reset_device();
        let mut mem = vec![0u8; 1 << 20];
        setup_rx(&mut d, &mut mem, 16);
        // 15 free; low-water mark is entries/8 == 2.
        for _ in 0..12 {
            assert!(d.rx_inject(&mut mem, b"fill"));
        }
        assert_eq!(d.reg_read(regs::ICR) & intr::RXDMT0, 0);
        assert!(d.rx_inject(&mut mem, b"fill")); // 2 free now
        assert!(d.reg_read(regs::ICR) & intr::RXDMT0 != 0);
    }
}
