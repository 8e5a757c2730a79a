//! Length-delimited frame codec with multi-record (batched) frames.
//!
//! Pando transmits base64-encoded strings over WebSocket / WebRTC messages.
//! This module provides the binary wire framing for the reproduction: a
//! frame is a tag byte, a 4-byte big-endian length and that many payload
//! bytes. On top of single frames it adds *multi-record* frames — one frame
//! carrying many `(seq, payload)` records — which is what lets the master
//! coalesce a batch of tasks (and a worker a batch of results) into a single
//! channel round-trip. Decoding a record frame is zero-copy: every record
//! payload is a [`Bytes`] slice into the frame's single allocation.

use bytes::{Bytes, BytesMut};
use pando_pull_stream::StreamError;

/// Maximum accepted frame length (16 MiB), mirroring the WebRTC message-size
/// limitation that forced the paper's raytracing scenes to be shrunk (§5.1).
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Bytes of framing overhead per frame: tag byte plus 4-byte length.
pub const FRAME_HEADER_LEN: usize = 5;

/// Bytes of overhead per record inside a record frame: 8-byte sequence
/// number plus 4-byte payload length.
pub const RECORD_HEADER_LEN: usize = 12;

/// A payload this short is copied beside its framing when a frame is written
/// as pieces; a longer one travels as the [`Bytes`] it already is. An iovec
/// entry and a reference count cost about this much `memcpy`.
const INLINE_PAYLOAD_MAX: usize = 1024;

/// Where the one frame writer puts a frame's bytes, in wire order. The piece
/// form is three passes of the same writer: `HeadLen`, `Head`, `Cut`.
pub enum FrameSink<'a> {
    /// The contiguous form: every byte, payloads copied.
    Whole(&'a mut BytesMut),
    /// Counts what `Head` will write.
    HeadLen(&'a mut usize),
    /// The *head*: all of a frame but its long payloads, in one small buffer.
    Head(&'a mut BytesMut),
    /// The same frame over its finished head emits the pieces: a slice of the
    /// head up to each long payload, then that payload, shared, not copied.
    Cut {
        /// What `Head` wrote.
        head: &'a Bytes,
        /// Head bytes before this offset have been emitted.
        start: usize,
        /// Head bytes before this offset have been passed over.
        cursor: usize,
        /// Receives the pieces.
        emit: &'a mut dyn FnMut(Bytes),
    },
}

impl FrameSink<'_> {
    /// Framing bytes: tag, lengths, sequence numbers.
    pub fn put_framing(&mut self, bytes: &[u8]) {
        match self {
            FrameSink::Whole(buf) | FrameSink::Head(buf) => buf.extend_from_slice(bytes),
            FrameSink::HeadLen(len) => **len += bytes.len(),
            FrameSink::Cut { cursor, .. } => *cursor += bytes.len(),
        }
    }

    /// A payload: copied like framing into `Whole` and, when short, the head;
    /// a long one the head passes skip and `Cut` emits behind the head so far.
    pub fn put_payload(&mut self, payload: &Bytes) {
        if matches!(self, FrameSink::Whole(_)) || payload.len() < INLINE_PAYLOAD_MAX {
            return self.put_framing(payload);
        }
        self.flush();
        if let FrameSink::Cut { emit, .. } = self {
            emit(payload.clone());
        }
    }

    /// Emits the head bytes a `Cut` pass has passed over since its last
    /// piece: before each long payload, and to end the pass.
    pub fn flush(&mut self) {
        if let FrameSink::Cut { head, start, cursor, emit } = self {
            if cursor > start {
                emit(head.slice(*start..*cursor));
                *start = *cursor;
            }
        }
    }
}

/// The header of a frame of `body_len` body bytes.
///
/// # Errors
///
/// Returns a protocol error if the body exceeds [`MAX_FRAME_LEN`]; an
/// unchecked `as u32` cast here would silently truncate the length field and
/// desynchronise the stream.
pub fn frame_header(tag: u8, body_len: usize) -> Result<[u8; FRAME_HEADER_LEN], StreamError> {
    if body_len > MAX_FRAME_LEN {
        return Err(StreamError::protocol(format!(
            "frame body of {body_len} bytes exceeds the {MAX_FRAME_LEN} byte limit"
        )));
    }
    let [l0, l1, l2, l3] = (body_len as u32).to_be_bytes();
    Ok([tag, l0, l1, l2, l3])
}

/// Encodes one whole frame — tag byte, 4-byte big-endian length, payload —
/// failing as [`frame_header`] does.
pub fn encode_frame(tag: u8, payload: &[u8]) -> Result<Bytes, StreamError> {
    Ok(Bytes::from([&frame_header(tag, payload.len())?[..], payload].concat()))
}

/// Reads the frame header at the front of `buf`: the tag and the length of
/// the whole frame, header included; `Ok(None)` while the header is
/// incomplete. The one place an advertised length is checked, so a reader
/// may size its buffer from the answer.
///
/// # Errors
///
/// Returns an error if the advertised length exceeds [`MAX_FRAME_LEN`].
pub fn peek_frame(buf: &[u8]) -> Result<Option<(u8, usize)>, StreamError> {
    let Some(&[tag, l0, l1, l2, l3]) = buf.first_chunk::<FRAME_HEADER_LEN>() else {
        return Ok(None);
    };
    let len = u32::from_be_bytes([l0, l1, l2, l3]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(StreamError::protocol(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_LEN} byte limit"
        )));
    }
    Ok(Some((tag, FRAME_HEADER_LEN + len)))
}

/// One `(sequence number, payload)` record of a batched frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Position of the value in the input stream.
    pub seq: u64,
    /// The value's binary payload.
    pub payload: Bytes,
}

impl Record {
    /// Creates a record.
    pub fn new(seq: u64, payload: Bytes) -> Self {
        Self { seq, payload }
    }
}

/// Number of body bytes a record batch occupies inside a frame: a 4-byte
/// record count plus, per record, [`RECORD_HEADER_LEN`] and the payload.
pub fn record_body_len(records: &[Record]) -> usize {
    4 + records.iter().map(|r| RECORD_HEADER_LEN + r.payload.len()).sum::<usize>()
}

/// Writes a record batch into a frame sized from [`record_body_len`] (where
/// the size was checked): a 4-byte big-endian record count, then per record
/// an 8-byte sequence number, a 4-byte payload length, the payload.
pub fn put_records(sink: &mut FrameSink<'_>, records: &[Record]) {
    sink.put_framing(&(records.len() as u32).to_be_bytes());
    for record in records {
        sink.put_framing(&record.seq.to_be_bytes());
        sink.put_framing(&(record.payload.len() as u32).to_be_bytes());
        sink.put_payload(&record.payload);
    }
}

/// Decodes a record-batch frame body written by [`put_records`].
///
/// Zero-copy: each returned record's payload is a slice sharing `body`'s
/// allocation.
///
/// # Errors
///
/// Returns a protocol error on truncated bodies, trailing garbage or record
/// counts that do not match the body.
pub fn decode_record_body(body: &Bytes) -> Result<Vec<Record>, StreamError> {
    if body.len() < 4 {
        return Err(StreamError::protocol("record batch body shorter than its count field"));
    }
    let count = u32::from_be_bytes([body[0], body[1], body[2], body[3]]) as usize;
    let mut records = Vec::with_capacity(count.min(1024));
    let mut offset = 4usize;
    for _ in 0..count {
        if body.len() < offset + RECORD_HEADER_LEN {
            return Err(StreamError::protocol("record batch truncated in a record header"));
        }
        let seq =
            u64::from_be_bytes(body[offset..offset + 8].try_into().expect("checked length above"));
        let len = u32::from_be_bytes(
            body[offset + 8..offset + 12].try_into().expect("checked length above"),
        ) as usize;
        offset += RECORD_HEADER_LEN;
        if body.len() < offset + len {
            return Err(StreamError::protocol("record batch truncated in a record payload"));
        }
        records.push(Record { seq, payload: body.slice(offset..offset + len) });
        offset += len;
    }
    if offset != body.len() {
        return Err(StreamError::protocol(format!(
            "record batch has {} trailing bytes",
            body.len() - offset
        )));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

    /// The body of a record-batch frame, built the way `Message::encode` does.
    fn record_body(records: &[Record]) -> Result<Bytes, StreamError> {
        let mut frame = BytesMut::new();
        frame.put_slice(&frame_header(6, record_body_len(records))?);
        put_records(&mut FrameSink::Whole(&mut frame), records);
        Ok(frame.freeze().slice(FRAME_HEADER_LEN..))
    }

    #[test]
    fn frame_round_trip() {
        let frame = encode_frame(7, b"hello world").unwrap();
        assert_eq!(peek_frame(&frame).unwrap(), Some((7, frame.len())));
        assert_eq!(&frame[FRAME_HEADER_LEN..], b"hello world");
    }

    #[test]
    fn partial_frames_wait_for_more_data() {
        let frame = encode_frame(1, &[0u8; 100]).unwrap();
        assert_eq!(peek_frame(&frame[..4]).unwrap(), None, "no length known yet");
        // From the fifth byte on the reader knows how much to wait for.
        assert_eq!(peek_frame(&frame[..5]).unwrap(), Some((1, 105)));
        assert_eq!(peek_frame(&frame[..50]).unwrap(), Some((1, 105)));
    }

    #[test]
    fn several_frames_in_one_buffer() {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&encode_frame(1, b"a").unwrap());
        buf.extend_from_slice(&encode_frame(2, b"bb").unwrap());
        let (tag, total) = peek_frame(&buf).unwrap().unwrap();
        let first = buf.split_to(total);
        assert_eq!((tag, &first[FRAME_HEADER_LEN..]), (1, &b"a"[..]));
        assert_eq!(peek_frame(&buf).unwrap(), Some((2, buf.len())));
        assert_eq!(&buf[FRAME_HEADER_LEN..], b"bb");
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(0);
        buf.put_u32(u32::MAX);
        assert!(peek_frame(&buf).is_err(), "refused from the header alone");
        let mut buf = BytesMut::new();
        buf.put_u8(0);
        buf.put_u32(MAX_FRAME_LEN as u32);
        assert!(peek_frame(&buf).unwrap().is_some(), "the limit itself is allowed");
    }

    #[test]
    fn oversized_payload_is_rejected_on_encode() {
        let payload = vec![0u8; MAX_FRAME_LEN + 1];
        let err = encode_frame(1, &payload).unwrap_err();
        assert!(err.is_protocol());
        assert!(err.message().contains("exceeds"));
    }

    #[test]
    fn empty_payload_is_fine() {
        let frame = encode_frame(9, b"").unwrap();
        assert_eq!(peek_frame(&frame).unwrap(), Some((9, FRAME_HEADER_LEN)));
    }

    #[test]
    fn record_batch_round_trip_is_zero_copy() {
        let records = vec![
            Record::new(3, Bytes::from(b"alpha".to_vec())),
            Record::new(9, Bytes::new()),
            Record::new(u64::MAX, Bytes::from(vec![0u8, b'\n', 255, 0])),
        ];
        let body = record_body(&records).unwrap();
        assert_eq!(body.len(), record_body_len(&records));
        let decoded = decode_record_body(&body).unwrap();
        assert_eq!(decoded, records);
        for record in &decoded {
            assert!(
                record.payload.shares_allocation_with(&body),
                "decoded payloads must alias the frame buffer"
            );
        }
    }

    #[test]
    fn empty_record_batch_round_trips() {
        let body = record_body(&[]).unwrap();
        assert_eq!(decode_record_body(&body).unwrap(), Vec::<Record>::new());
    }

    #[test]
    fn corrupt_record_batches_are_rejected() {
        // Too short for the count field.
        assert!(decode_record_body(&Bytes::from(vec![0u8, 0])).is_err());
        // Count says one record but the body ends.
        let mut buf = BytesMut::new();
        buf.put_u32(1);
        assert!(decode_record_body(&buf.freeze()).is_err());
        // Record length field points past the end.
        let mut buf = BytesMut::new();
        buf.put_u32(1);
        buf.put_u64(0);
        buf.put_u32(100);
        buf.put_slice(b"short");
        assert!(decode_record_body(&buf.freeze()).is_err());
        // Trailing garbage after the advertised records.
        let mut body = record_body(&[Record::new(1, Bytes::from(b"x".to_vec()))]).unwrap().to_vec();
        body.push(0);
        assert!(decode_record_body(&Bytes::from(body)).is_err());
    }

    #[test]
    fn oversized_record_batch_is_rejected() {
        let records = vec![Record::new(0, Bytes::from(vec![0u8; MAX_FRAME_LEN - 8])); 2];
        assert!(record_body(&records).is_err());
    }
}
