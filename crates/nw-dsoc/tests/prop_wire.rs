//! Property tests for the DSOC wire format: roundtrip identity, decoder
//! robustness against arbitrary bytes, and payload descriptors that stand
//! for exactly the bytes the codec would put on the wire.

use nw_dsoc::{DecodeError, Header, Message, MessageKind, MessageView, MethodId};
use nw_types::{ObjectId, Payload};
use proptest::prelude::*;

/// Every payload shape the platform runtime emits, as (descriptor, the
/// bytes it stands for).
fn runtime_shapes(
    object: ObjectId,
    method: MethodId,
    seq: u32,
    body_len: usize,
    stub_len: u32,
) -> Vec<(Payload, Vec<u8>)> {
    let message = |kind| {
        let m = Message {
            kind,
            object,
            method,
            seq,
            body: vec![0; body_len],
        };
        (
            Message::zeroed_payload(kind, object, method, seq, body_len as u64),
            m.encode(),
        )
    };
    vec![
        // The ingress invocation and the edge Call and Send share one shape.
        message(MessageKind::Invocation),
        // The twoway reply echoes the request's sequence number.
        message(MessageKind::Reply),
        // The service-call stub and the egress Send are header-less zeros.
        (Payload::zeroed(stub_len), vec![0; stub_len as usize]),
    ]
}

/// The header decode of a descriptor, in the shape `MessageView` gives.
fn header_of(p: &Payload) -> Result<(MessageKind, ObjectId, MethodId, u32, usize), DecodeError> {
    Header::decode(p).map(|h| (h.kind, h.object, h.method, h.seq, h.body_len))
}

/// `MessageView::decode` of the full bytes, in the same shape.
fn view_of(bytes: &[u8]) -> Result<(MessageKind, ObjectId, MethodId, u32, usize), DecodeError> {
    MessageView::decode(bytes).map(|v| (v.kind, v.object, v.method, v.seq, v.body.len()))
}

proptest! {
    // Pinned effort for CI determinism; override with PROPTEST_CASES.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode is the identity for any message.
    #[test]
    fn roundtrip(
        kind in prop_oneof![Just(MessageKind::Invocation), Just(MessageKind::Reply)],
        object in 0usize..1_000_000,
        method in any::<u16>(),
        seq in any::<u32>(),
        body in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let m = Message { kind, object: ObjectId(object), method: MethodId(method), seq, body };
        let decoded = Message::decode(&m.encode()).expect("own encoding decodes");
        prop_assert_eq!(decoded, m);
    }

    /// Decoding arbitrary bytes never panics, and any accepted input
    /// re-encodes to exactly the same bytes (no lossy acceptance).
    #[test]
    fn decode_is_total_and_lossless(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(m) = Message::decode(&bytes) {
            prop_assert_eq!(m.encode(), bytes);
        }
    }

    /// Truncating a valid message always fails to decode.
    #[test]
    fn truncation_rejected(
        body in prop::collection::vec(any::<u8>(), 1..64),
        cut in 1usize..16,
    ) {
        let m = Message::invocation(ObjectId(1), MethodId(2), 3, body);
        let enc = m.encode();
        let cut = cut.min(enc.len());
        prop_assert!(Message::decode(&enc[..enc.len() - cut]).is_err());
    }

    /// A runtime payload descriptor carries the codec's wire length and
    /// first 16 bytes, and its header decode agrees with `MessageView` on
    /// the full bytes: as built, with the first byte corrupted once or
    /// twice, and cut below the header length.
    #[test]
    fn descriptors_match_the_codec(
        object in 0usize..1_000_000,
        method in any::<u16>(),
        seq in any::<u32>(),
        body_len in 0usize..512,
        stub_len in 0u32..64,
        cut in 0u32..16,
    ) {
        for (p, bytes) in runtime_shapes(ObjectId(object), MethodId(method), seq, body_len, stub_len) {
            prop_assert_eq!(p.len() as usize, bytes.len());
            let mut head = [0u8; Payload::HEAD_LEN];
            let n = bytes.len().min(Payload::HEAD_LEN);
            head[..n].copy_from_slice(&bytes[..n]);
            prop_assert_eq!(p.head(), &head);

            let (mut p2, mut b2) = (p, bytes.clone());
            for _ in 0..3 {
                prop_assert_eq!(header_of(&p2), view_of(&b2));
                p2.xor_first(0xA5);
                if let Some(b) = b2.first_mut() {
                    *b ^= 0xA5;
                }
            }

            let cut = cut.min(p.len());
            let short = &bytes[..cut as usize];
            prop_assert_eq!(header_of(&Payload::new(cut, short)), view_of(short));
        }
    }
}
