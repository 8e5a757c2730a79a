//! Property-based round-trip tests for the binary codec layer: arbitrary
//! binary payloads — embedded newlines, NUL bytes, invalid UTF-8, empty and
//! maximum-size frames — must survive `Message` encode/decode, the batched
//! record framing, and a jittery simulated channel, byte for byte. The
//! seed's string protocol could not represent most of these payloads at all.

mod common;

use bytes::Bytes;
use pando_core::protocol::Message;
use pando_netsim::channel::{pair, ChannelConfig};
use pando_netsim::codec::{Record, MAX_FRAME_LEN, RECORD_HEADER_LEN};
use proptest::prelude::*;
use std::time::Duration;

/// Arbitrary binary payloads, biased towards the bytes that broke text
/// protocols: separators, NULs and non-UTF-8 lead bytes.
fn payload_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            4 => (0usize..256).prop_map(|b| b as u8),
            1 => Just(b'\n'),
            1 => Just(0u8),
            1 => Just(0xffu8),
        ],
        0..200,
    )
}

/// Payload lengths on both sides of the length from which a payload travels
/// as its own piece (1 KiB), the empty payload, and `tcp_bulk`'s 32 KiB.
fn piece_len_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(1023usize),
        Just(1024usize),
        Just(1025usize),
        Just(32 * 1024usize),
    ]
}

/// The pieces of `message` behind a riding `ack`, in wire order.
fn pieces_of(message: &Message, ack: Option<u64>) -> Vec<Bytes> {
    let pieces = message.pieces(ack).expect("within frame limit");
    let mut out = Vec::new();
    pieces.for_each(|piece| out.push(piece));
    assert_eq!(pieces.wire_len(), out.iter().map(Bytes::len).sum::<usize>());
    out
}

fn seq_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => (0usize..1_000_000).prop_map(|s| s as u64),
        1 => Just(0u64),
        1 => Just(u64::MAX),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Single-record messages round-trip for any seq and any payload bytes.
    #[test]
    fn single_messages_round_trip(seq in seq_strategy(), payload in payload_strategy()) {
        let record = Record::new(seq, Bytes::from(payload.clone()));
        for message in [
            Message::TaskBatch(vec![record.clone()]),
            Message::ResultBatch(vec![record]),
            Message::TaskError { seq, message: Bytes::from(payload.clone()) },
        ] {
            let frame = message.encode().expect("within frame limit");
            prop_assert_eq!(frame.len(), message.wire_size());
            prop_assert_eq!(Message::decode(&frame).expect("decodes"), message);
        }
    }

    /// Batched frames round-trip for any record set, and decoding is
    /// zero-copy into the frame allocation.
    #[test]
    fn batches_round_trip(
        seqs in proptest::collection::vec(seq_strategy(), 0..12),
        payloads in proptest::collection::vec(payload_strategy(), 0..12),
    ) {
        let records: Vec<Record> = seqs
            .iter()
            .zip(&payloads)
            .map(|(seq, payload)| Record::new(*seq, Bytes::from(payload.clone())))
            .collect();
        for message in [
            Message::TaskBatch(records.clone()),
            Message::ResultBatch(records.clone()),
        ] {
            let frame = message.encode().expect("within frame limit");
            prop_assert_eq!(frame.len(), message.wire_size());
            let decoded = Message::decode(&frame).expect("decodes");
            prop_assert_eq!(decoded.record_count(), records.len() as u64);
            prop_assert_eq!(decoded, message);
        }
    }

    /// The piece form is the contiguous form cut up, never a second format:
    /// for every variant the pieces concatenate to `encode()` byte for byte,
    /// a payload of 1 KiB or more is a piece sharing the message's own
    /// allocation (not copied), a shorter one sits in the head, and a riding
    /// ack is the `Ack` frame followed by the data frame.
    #[test]
    fn pieces_are_the_encoding_cut_up(
        seq in seq_strategy(),
        lens in proptest::collection::vec(piece_len_strategy(), 1..9),
        ack in prop_oneof![Just(None), seq_strategy().prop_map(Some)],
    ) {
        let payloads: Vec<Bytes> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| Bytes::from(vec![i as u8 ^ 0x5a; len]))
            .collect();
        let records: Vec<Record> = payloads
            .iter()
            .enumerate()
            .map(|(i, payload)| Record::new(seq.wrapping_add(i as u64), payload.clone()))
            .collect();
        for message in [
            Message::TaskBatch(records[..1].to_vec()),
            Message::TaskError { seq, message: payloads[0].clone() },
            Message::TaskBatch(records.clone()),
            Message::ResultBatch(records.clone()),
            Message::Heartbeat,
            Message::Goodbye,
            Message::Ack { count: seq },
        ] {
            let carried: &[Bytes] = match &message {
                Message::TaskBatch(records) | Message::ResultBatch(records) => {
                    &payloads[..records.len()]
                }
                Message::TaskError { .. } => &payloads[..1],
                Message::Heartbeat | Message::Goodbye | Message::Ack { .. } => &[],
            };
            let pieces = pieces_of(&message, ack);
            let frame = message.encode().expect("within frame limit");
            let ack_frame =
                ack.map(|count| Message::Ack { count }.encode().expect("an ack encodes"));
            let ack_len = ack_frame.as_ref().map_or(0, Bytes::len);
            let wire: Vec<u8> = pieces.iter().flat_map(|piece| piece.to_vec()).collect();
            prop_assert_eq!(&wire[ack_len..], &frame[..]);
            if let Some(ack_frame) = &ack_frame {
                prop_assert_eq!(&wire[..ack_len], &ack_frame[..]);
                prop_assert_eq!(
                    Message::decode(&wire[..ack_len]).expect("the ack decodes first"),
                    Message::Ack { count: ack.expect("an ack frame was made") }
                );
            }
            prop_assert_eq!(Message::decode(&wire[ack_len..]).expect("then the frame"), message);
            let long = carried.iter().filter(|payload| payload.len() >= 1024);
            let shared = pieces
                .iter()
                .filter(|piece| carried.iter().any(|payload| piece.shares_allocation_with(payload)));
            prop_assert_eq!(shared.count(), long.clone().count());
            // Head, payload, head, payload ...: one run of head per long
            // payload, and one after the last unless the frame ends there.
            prop_assert!(pieces.len() <= 2 * long.count() + 1);
        }
    }

    /// Messages survive a jittery, bandwidth-limited channel in order and
    /// intact — the transport the real dispatcher runs over.
    #[test]
    fn messages_survive_a_jittery_channel(
        payloads in proptest::collection::vec(payload_strategy(), 1..8),
        seed in 0u64..1_000,
    ) {
        let config = ChannelConfig {
            latency: Duration::from_micros(100),
            jitter: Duration::from_micros(300),
            bandwidth_bytes_per_sec: Some(50_000_000),
            ..ChannelConfig::instant()
        }
        .with_seed(seed);
        let (master, worker) = pair::<Message>(config);
        let sent: Vec<Message> = payloads
            .iter()
            .enumerate()
            .map(|(i, payload)| {
                if i % 2 == 0 {
                    Message::TaskBatch(vec![Record::new(i as u64, Bytes::from(payload.clone()))])
                } else {
                    Message::TaskBatch(vec![
                        Record::new(i as u64, Bytes::from(payload.clone())),
                        Record::new(i as u64 + 1, Bytes::new()),
                    ])
                }
            })
            .collect();
        for message in &sent {
            let size = message.wire_size();
            let count = message.record_count();
            master
                .send_records_with_size(message.clone(), size, count)
                .expect("channel is open");
        }
        for message in &sent {
            let received = common::recv_within(&worker, Duration::from_secs(10))
                .expect("message arrives");
            prop_assert_eq!(&received, message);
        }
        master.close();
    }
}

/// The largest payload a frame can carry round-trips; one byte more is
/// rejected at encode time instead of corrupting the length field.
#[test]
fn max_size_frames_round_trip_and_overflow_is_rejected() {
    // body = 4-byte record count + one record header + payload
    let max_payload = MAX_FRAME_LEN - 4 - RECORD_HEADER_LEN;
    let one = |len| Message::TaskBatch(vec![Record::new(42, Bytes::from(vec![0xabu8; len]))]);
    let message = one(max_payload);
    let frame = message.encode().expect("exactly at the limit");
    assert_eq!(frame.len(), message.wire_size());
    assert_eq!(Message::decode(&frame).expect("decodes"), message);

    assert!(one(max_payload + 1).encode().unwrap_err().is_protocol());
}

/// Empty payloads are valid tasks, results and batch records.
#[test]
fn empty_payloads_round_trip() {
    for message in [
        Message::TaskError { seq: 0, message: Bytes::new() },
        Message::TaskBatch(vec![]),
        Message::TaskBatch(vec![Record::new(0, Bytes::new())]),
        Message::ResultBatch(vec![Record::new(0, Bytes::new())]),
    ] {
        let frame = message.encode().unwrap();
        assert_eq!(Message::decode(&frame).unwrap(), message);
    }
}
