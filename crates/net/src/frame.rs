//! Ethernet frames.

use core::fmt;

/// A MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// A locally-administered test address derived from an index.
    pub fn local(idx: u16) -> MacAddr {
        let b = idx.to_be_bytes();
        MacAddr([0x02, 0x4b, 0x4f, 0x50, b[0], b[1]])
    }

    /// Raw bytes.
    pub fn bytes(&self) -> [u8; 6] {
        self.0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MacAddr({self})")
    }
}

/// Well-known EtherTypes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EtherType {
    /// IPv4.
    Ipv4,
    /// ARP.
    Arp,
    /// IEEE 802.1 local experimental (the raw test traffic).
    Experimental,
    /// Anything else.
    Other(u16),
}

impl EtherType {
    /// Wire value.
    pub fn value(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Experimental => 0x88b5,
            EtherType::Other(v) => v,
        }
    }

    /// From wire value.
    pub fn from_value(v: u16) -> EtherType {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x88b5 => EtherType::Experimental,
            other => EtherType::Other(other),
        }
    }
}

/// A parsed Ethernet frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// EtherType.
    pub ethertype: EtherType,
    /// Payload (without FCS).
    pub payload: Vec<u8>,
}

/// Header length.
pub const ETH_HLEN: usize = 14;
/// Minimum frame length (no FCS).
pub const ETH_ZLEN: usize = 60;

impl Frame {
    /// Build a frame.
    pub fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: Vec<u8>) -> Frame {
        Frame {
            dst,
            src,
            ethertype,
            payload,
        }
    }

    /// Serialize to wire bytes (padded to the Ethernet minimum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ETH_HLEN + self.payload.len());
        out.extend_from_slice(&self.dst.0);
        out.extend_from_slice(&self.src.0);
        out.extend_from_slice(&self.ethertype.value().to_be_bytes());
        out.extend_from_slice(&self.payload);
        if out.len() < ETH_ZLEN {
            out.resize(ETH_ZLEN, 0);
        }
        out
    }

    /// Parse wire bytes. `None` if shorter than a header.
    pub fn parse(bytes: &[u8]) -> Option<Frame> {
        if bytes.len() < ETH_HLEN {
            return None;
        }
        let mut dst = [0u8; 6];
        dst.copy_from_slice(&bytes[0..6]);
        let mut src = [0u8; 6];
        src.copy_from_slice(&bytes[6..12]);
        let et = u16::from_be_bytes([bytes[12], bytes[13]]);
        Some(Frame {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: EtherType::from_value(et),
            payload: bytes[ETH_HLEN..].to_vec(),
        })
    }

    /// Total wire length (with padding).
    pub fn wire_len(&self) -> usize {
        (ETH_HLEN + self.payload.len()).max(ETH_ZLEN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_display_and_local() {
        let m = MacAddr([0x02, 0x4b, 0x4f, 0x50, 0x00, 0x07]);
        assert_eq!(m.to_string(), "02:4b:4f:50:00:07");
        assert_eq!(MacAddr::local(7), m);
    }

    #[test]
    fn ethertype_roundtrip() {
        for et in [
            EtherType::Ipv4,
            EtherType::Arp,
            EtherType::Experimental,
            EtherType::Other(0x1234),
        ] {
            assert_eq!(EtherType::from_value(et.value()), et);
        }
    }

    #[test]
    fn frame_roundtrip_and_padding() {
        let f = Frame::new(
            MacAddr::BROADCAST,
            MacAddr::local(1),
            EtherType::Experimental,
            b"tiny".to_vec(),
        );
        let bytes = f.to_bytes();
        assert_eq!(bytes.len(), ETH_ZLEN, "padded to minimum");
        let parsed = Frame::parse(&bytes).unwrap();
        assert_eq!(parsed.dst, f.dst);
        assert_eq!(parsed.src, f.src);
        assert_eq!(parsed.ethertype, f.ethertype);
        assert_eq!(&parsed.payload[..4], b"tiny");
        assert_eq!(f.wire_len(), ETH_ZLEN);
    }

    #[test]
    fn large_frame_not_padded() {
        let f = Frame::new(
            MacAddr::local(0),
            MacAddr::local(1),
            EtherType::Ipv4,
            vec![7u8; 1500],
        );
        assert_eq!(f.to_bytes().len(), 1514);
        assert_eq!(f.wire_len(), 1514);
    }

    #[test]
    fn short_bytes_do_not_parse() {
        assert!(Frame::parse(&[0u8; 13]).is_none());
        assert!(Frame::parse(&[]).is_none());
    }
}
