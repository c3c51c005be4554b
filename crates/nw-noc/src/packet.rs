//! Packets and their on-wire flit accounting.

use nw_types::{Bytes, Cycles, NodeId, Payload};

/// Unique packet identifier assigned at injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PacketId(pub u64);

impl std::fmt::Display for PacketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pkt{}", self.0)
    }
}

/// A packet travelling on the NoC.
///
/// The payload travels as a size plus its leading header bytes (the DSOC
/// runtime puts marshalled method invocation headers there); `tag` is an
/// opaque caller cookie for correlating requests and replies without
/// decoding the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Identifier assigned by the NoC at injection.
    pub id: PacketId,
    /// Source endpoint.
    pub src: NodeId,
    /// Destination endpoint.
    pub dst: NodeId,
    /// Payload carried end to end.
    pub payload: Payload,
    /// Caller correlation cookie.
    pub tag: u64,
    /// Cycle at which the packet was accepted for injection.
    pub injected_at: Cycles,
}

impl Packet {
    /// NoC header overhead added to every packet on the wire (route +
    /// sequence + tag), in bytes.
    pub const HEADER_BYTES: u64 = 8;

    /// Size on the wire: payload plus NoC header.
    pub fn wire_bytes(&self) -> Bytes {
        Bytes(u64::from(self.payload.len()) + Self::HEADER_BYTES)
    }

    /// Number of flits this packet occupies for a given flit width.
    ///
    /// # Panics
    ///
    /// Panics if `flit_bytes` is zero.
    pub fn flits(&self, flit_bytes: u64) -> u64 {
        self.wire_bytes().div_ceil_by(flit_bytes).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(payload_len: u32) -> Packet {
        Packet {
            id: PacketId(1),
            src: NodeId(0),
            dst: NodeId(1),
            payload: Payload::zeroed(payload_len),
            tag: 0,
            injected_at: Cycles::ZERO,
        }
    }

    #[test]
    fn wire_size_includes_header() {
        assert_eq!(mk(0).wire_bytes(), Bytes(8));
        assert_eq!(mk(32).wire_bytes(), Bytes(40));
    }

    #[test]
    fn flit_counts_round_up() {
        // 8-byte flits: 40 wire bytes = 5 flits.
        assert_eq!(mk(32).flits(8), 5);
        // 41 wire bytes = 6 flits.
        assert_eq!(mk(33).flits(8), 6);
        // Empty payload still needs the header flit.
        assert_eq!(mk(0).flits(16), 1);
    }

    #[test]
    fn display_of_packet_id() {
        assert_eq!(PacketId(7).to_string(), "pkt7");
    }
}
