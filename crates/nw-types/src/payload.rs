//! Packet payload descriptors.
//!
//! What the simulated platform measures depends only on a payload's size
//! on the wire and on the fixed header that dispatch reads; every body
//! byte past that header is zero. A [`Payload`] therefore carries the wire
//! length and the leading [`Payload::HEAD_LEN`] bytes, never the body.

/// The wire length and leading bytes of one packet payload.
///
/// Bytes at or past `len` read as zero, exactly as a zero-filled buffer
/// of `len` bytes would.
///
/// # Examples
///
/// ```
/// use nw_types::Payload;
///
/// let p = Payload::new(3, &[1, 2, 3]);
/// assert_eq!(p.len(), 3);
/// assert_eq!(p.head()[..4], [1, 2, 3, 0]);
/// assert_eq!(Payload::zeroed(64).head(), &[0; 16]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Payload {
    len: u32,
    head: [u8; Payload::HEAD_LEN],
}

impl Payload {
    /// Leading wire bytes carried verbatim.
    pub const HEAD_LEN: usize = 16;

    /// A payload of `len` bytes that begins with `bytes`; bytes beyond
    /// `len` or beyond [`Payload::HEAD_LEN`] are dropped.
    pub fn new(len: u32, bytes: &[u8]) -> Payload {
        let mut head = [0; Payload::HEAD_LEN];
        let n = bytes.len().min(Payload::HEAD_LEN).min(len as usize);
        head[..n].copy_from_slice(&bytes[..n]);
        Payload { len, head }
    }

    /// A payload of `len` zero bytes.
    pub const fn zeroed(len: u32) -> Payload {
        Payload {
            len,
            head: [0; Payload::HEAD_LEN],
        }
    }

    /// Payload length on the wire, in bytes.
    pub const fn len(&self) -> u32 {
        self.len
    }

    /// Whether the payload has no bytes.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first [`Payload::HEAD_LEN`] wire bytes, zero past `len`.
    pub const fn head(&self) -> &[u8; Payload::HEAD_LEN] {
        &self.head
    }

    /// XORs `mask` into the first byte, as a corrupting fault does.
    /// Returns false, changing nothing, for an empty payload.
    pub fn xor_first(&mut self, mask: u8) -> bool {
        if self.len == 0 {
            return false;
        }
        self.head[0] ^= mask;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_past_len_stay_zero() {
        let p = Payload::new(2, &[7; 16]);
        assert_eq!(p.head()[..3], [7, 7, 0]);
        assert_eq!(Payload::new(40, &[9; 40]).head(), &[9; 16]);
    }

    #[test]
    fn xor_first_needs_a_byte_and_cancels_in_pairs() {
        let mut empty = Payload::zeroed(0);
        assert!(!empty.xor_first(0xA5));
        assert_eq!(empty, Payload::zeroed(0));
        let mut p = Payload::new(20, &[1]);
        assert!(p.xor_first(0xA5));
        assert_eq!(p.head()[0], 1 ^ 0xA5);
        assert!(p.xor_first(0xA5));
        assert_eq!(p, Payload::new(20, &[1]));
    }
}
