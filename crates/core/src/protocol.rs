//! Wire messages exchanged between the master and the workers.
//!
//! The original Pando streams base64-encoded *strings* (the `'/pando/1.0.0'`
//! convention); this reproduction's protocol is binary end to end. Every
//! task and result payload is a [`Bytes`] buffer, the sequence number is a
//! fixed 8-byte big-endian header (no `format!`/`parse` on the hot path),
//! and every task or result frame is a batch: it packs as many
//! `(seq, payload)` records as the window allows into a single
//! length-delimited frame of [`pando_netsim::codec`], so the whole batch pays
//! the channel round-trip once.
//!
//! Wire layout (after the 5-byte frame header `tag, u32 len`):
//!
//! | Message | Body |
//! |---|---|
//! | `TaskError` | `u64 seq` then the raw payload |
//! | `TaskBatch`, `ResultBatch` | `u32 count` then per record `u64 seq, u32 len, payload` |
//! | `Heartbeat`, `Goodbye` | empty |
//! | `Ack` | `u64 count` — cumulative data frames received on this session |

use bytes::{Bytes, BytesMut};
use pando_netsim::codec::{
    decode_record_body, frame_header, peek_frame, put_records, record_body_len, FrameSink, Record,
    FRAME_HEADER_LEN,
};
use pando_pull_stream::StreamError;

/// A message of the Pando master/worker protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// The worker reports an application error for a value; the master treats
    /// the worker as faulty and re-lends the value elsewhere.
    TaskError {
        /// Sequence number of the value that failed.
        seq: u64,
        /// UTF-8 error message produced by the processing function.
        message: Bytes,
    },
    /// Values to process, each tagged with its position in the input stream,
    /// coalesced into one frame: the whole batch pays the channel latency and
    /// framing overhead once.
    TaskBatch(Vec<Record>),
    /// Results of processed values, coalesced into one frame by the worker.
    ResultBatch(Vec<Record>),
    /// Periodic liveness signal.
    Heartbeat,
    /// The sender is leaving cleanly and will not send anything else.
    Goodbye,
    /// Cumulative acknowledgement: the sender has received and durably
    /// processed this many *data* frames (see [`Message::is_data`]) on the
    /// current session. Lets the peer garbage-collect its bounded
    /// unacked-frame redelivery buffer; never redelivered itself.
    Ack {
        /// Total data frames received on the session so far.
        count: u64,
    },
}

// Tags 1 and 2 are retired (one-record task and result frames): never reuse
// them, so a peer that still sends one fails as on any unknown tag.
const TAG_ERROR: u8 = 3;
const TAG_HEARTBEAT: u8 = 4;
const TAG_GOODBYE: u8 = 5;
const TAG_TASK_BATCH: u8 = 6;
const TAG_RESULT_BATCH: u8 = 7;
const TAG_ACK: u8 = 8;

/// Splits a single-record body into its sequence header and payload. The
/// payload is a zero-copy slice of `body`.
fn decode_seq_body(body: &Bytes) -> Result<(u64, Bytes), StreamError> {
    if body.len() < 8 {
        return Err(StreamError::protocol("message body shorter than its sequence header"));
    }
    let seq = u64::from_be_bytes(body[..8].try_into().expect("checked length above"));
    Ok((seq, body.slice(8..)))
}

impl Message {
    /// The one frame writer: lays out in `sink`, in wire order, the frame of
    /// a [`Message::Ack`] of `ack` (if any), then this message's. Fails, with
    /// nothing of this frame written, if the payload (or batch body) exceeds
    /// [`pando_netsim::codec::MAX_FRAME_LEN`]; an infallible encode would
    /// silently truncate the length field.
    fn write_to(&self, ack: Option<u64>, sink: &mut FrameSink<'_>) -> Result<(), StreamError> {
        if let Some(count) = ack {
            Message::Ack { count }.write_to(None, sink)?;
        }
        let tag = match self {
            Message::TaskError { .. } => TAG_ERROR,
            Message::TaskBatch(_) => TAG_TASK_BATCH,
            Message::ResultBatch(_) => TAG_RESULT_BATCH,
            Message::Heartbeat => TAG_HEARTBEAT,
            Message::Goodbye => TAG_GOODBYE,
            Message::Ack { .. } => TAG_ACK,
        };
        sink.put_framing(&frame_header(tag, self.wire_size() - FRAME_HEADER_LEN)?);
        match self {
            Message::TaskError { seq, message: payload } => {
                sink.put_framing(&seq.to_be_bytes());
                sink.put_payload(payload);
            }
            Message::TaskBatch(records) | Message::ResultBatch(records) => {
                put_records(sink, records);
            }
            Message::Ack { count } => sink.put_framing(&count.to_be_bytes()),
            Message::Heartbeat | Message::Goodbye => {}
        }
        Ok(())
    }

    /// Encodes the message as one contiguous length-delimited frame in one
    /// pass, into a buffer sized from [`Message::wire_size`]: a payload is
    /// copied once. (The socket path sends [`Message::pieces`], these bytes
    /// without that copy.)
    ///
    /// # Errors
    ///
    /// Returns a protocol error if the frame exceeds the size limit.
    pub fn encode(&self) -> Result<Bytes, StreamError> {
        let mut frame = BytesMut::with_capacity(self.wire_size());
        self.write_to(None, &mut FrameSink::Whole(&mut frame))?;
        Ok(frame.freeze())
    }

    /// The frame [`Message::encode`] produces, as pieces that borrow the
    /// message: framing and short payloads written into one small head
    /// buffer, each long payload left as the [`Bytes`] it is. With `ack`, the
    /// frame of a [`Message::Ack`] of that count goes first, in the same head:
    /// the session layer's acknowledgement riding instead of travelling alone.
    ///
    /// # Errors
    ///
    /// Returns a protocol error if the frame exceeds the size limit.
    pub fn pieces(&self, ack: Option<u64>) -> Result<Pieces<'_>, StreamError> {
        let mut head_len = 0;
        self.write_to(ack, &mut FrameSink::HeadLen(&mut head_len))?;
        let mut head = BytesMut::with_capacity(head_len);
        self.write_to(ack, &mut FrameSink::Head(&mut head)).expect("sized by the pass before");
        Ok(Pieces { message: self, ack, head: head.freeze() })
    }

    /// Size in bytes of the encoded message, used for bandwidth modelling.
    /// Computed arithmetically — no allocation or encoding pass.
    pub fn wire_size(&self) -> usize {
        FRAME_HEADER_LEN
            + match self {
                Message::TaskError { message: payload, .. } => 8 + payload.len(),
                Message::TaskBatch(records) | Message::ResultBatch(records) => {
                    record_body_len(records)
                }
                Message::Ack { .. } => 8,
                Message::Heartbeat | Message::Goodbye => 0,
            }
    }

    /// Number of task/result records the message carries, for per-record
    /// channel accounting.
    pub fn record_count(&self) -> u64 {
        match self {
            Message::TaskError { .. } => 1,
            Message::TaskBatch(records) | Message::ResultBatch(records) => records.len() as u64,
            Message::Heartbeat | Message::Goodbye | Message::Ack { .. } => 0,
        }
    }

    /// Whether this message counts towards the session-layer data-frame
    /// sequence. Both ends of a resumable session must classify frames
    /// identically — the cumulative [`Message::Ack`] counts and the
    /// redelivery cursor exchanged at resume are indices into this sequence.
    /// Control frames (`Heartbeat`, `Goodbye`, `Ack` itself) are excluded:
    /// they are cheap to lose and must never be redelivered.
    pub fn is_data(&self) -> bool {
        matches!(self, Message::TaskError { .. } | Message::TaskBatch(_) | Message::ResultBatch(_))
    }

    /// Builds the task frame for one coalesced dispatch batch: a
    /// [`Message::TaskBatch`] of however many records the window let in.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty — the dispatcher never coalesces an
    /// empty frame.
    pub fn task_frame(records: Vec<Record>) -> Message {
        assert!(!records.is_empty(), "a task frame carries at least one record");
        Message::TaskBatch(records)
    }

    /// The `(seq, payload)` records of a result frame in frame order, by
    /// value and without collecting them; empty for any non-result message.
    /// The shape [`SubStream::push_batch`](pando_pull_stream::lender::SubStream::push_batch)
    /// takes a frame in.
    pub fn into_results(self) -> impl Iterator<Item = (u64, Bytes)> {
        let records = match self {
            Message::ResultBatch(records) => records,
            _ => Vec::new(),
        };
        records.into_iter().map(|record| (record.seq, record.payload))
    }

    /// [`Message::decode_bytes`] of a copy of `frame`, for callers that do
    /// not own the frame; same errors.
    pub fn decode(frame: &[u8]) -> Result<Message, StreamError> {
        Self::decode_bytes(Bytes::copy_from_slice(frame))
    }

    /// Decodes a message from exactly one encoded frame without copying it:
    /// every payload is a slice of `frame`'s allocation.
    ///
    /// # Errors
    ///
    /// Returns a protocol error on truncated frames, bytes after the frame,
    /// unknown tags or malformed bodies.
    pub fn decode_bytes(frame: Bytes) -> Result<Message, StreamError> {
        let (tag, total) = peek_frame(&frame)?
            .filter(|&(_, total)| total <= frame.len())
            .ok_or_else(|| StreamError::protocol("truncated message frame"))?;
        if total < frame.len() {
            return Err(StreamError::protocol(format!(
                "{} trailing bytes after the message frame",
                frame.len() - total
            )));
        }
        let body = frame.slice(FRAME_HEADER_LEN..);
        match tag {
            TAG_ERROR => {
                let (seq, message) = decode_seq_body(&body)?;
                Ok(Message::TaskError { seq, message })
            }
            TAG_TASK_BATCH => Ok(Message::TaskBatch(decode_record_body(&body)?)),
            TAG_RESULT_BATCH => Ok(Message::ResultBatch(decode_record_body(&body)?)),
            TAG_HEARTBEAT => Ok(Message::Heartbeat),
            TAG_GOODBYE => Ok(Message::Goodbye),
            TAG_ACK => {
                let count = <[u8; 8]>::try_from(&body[..])
                    .map_err(|_| StreamError::protocol("ack body must be exactly 8 bytes"))?;
                Ok(Message::Ack { count: u64::from_be_bytes(count) })
            }
            other => Err(StreamError::protocol(format!("unknown message tag {other}"))),
        }
    }
}

/// A frame (behind its riding ack, if any) as [`Message::pieces`] cut it.
#[derive(Debug)]
pub struct Pieces<'a> {
    message: &'a Message,
    ack: Option<u64>,
    head: Bytes,
}

impl Pieces<'_> {
    /// Bytes the pieces put on the wire, all together.
    pub fn wire_len(&self) -> usize {
        let ack = self.ack.map_or(0, |count| Message::Ack { count }.wire_size());
        ack + self.message.wire_size()
    }

    /// Hands over the pieces in wire order: slices of the head and the
    /// message's long payloads, none of them copied.
    pub fn for_each(&self, mut emit: impl FnMut(Bytes)) {
        let mut sink = FrameSink::Cut { head: &self.head, start: 0, cursor: 0, emit: &mut emit };
        self.message.write_to(self.ack, &mut sink).expect("sized when the head was written");
        sink.flush();
    }
}

/// What a [`HeartbeatPacer`] decided at a poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeartbeatAction {
    /// The heartbeat interval has not elapsed yet; nothing to do.
    NotDue,
    /// A standalone [`Message::Heartbeat`] frame should be sent now: the
    /// channel has been idle for a full interval.
    Send,
    /// A heartbeat was due but a data frame travelled within the interval and
    /// already proved liveness — the control frame is suppressed (piggyback).
    Suppressed,
}

/// Piggybacks heartbeats on data traffic: a standalone [`Message::Heartbeat`]
/// control frame is only emitted when the sender has been silent for a full
/// heartbeat interval. Any outgoing `TaskBatch`/`ResultBatch` (or any other
/// frame) counts as a sign of life and suppresses the next standalone
/// heartbeat, cutting idle-channel chatter to zero on busy channels.
#[derive(Debug, Clone)]
pub struct HeartbeatPacer {
    interval: std::time::Duration,
    last_traffic: std::time::Instant,
    next_due: std::time::Instant,
}

impl HeartbeatPacer {
    /// Creates a pacer; the first heartbeat is due one interval from now.
    pub fn new(interval: std::time::Duration) -> Self {
        Self::new_at(interval, std::time::Instant::now())
    }

    /// Creates a pacer whose notion of "now" is supplied by the caller — the
    /// form used by components on a virtual
    /// [`Clock`](pando_netsim::sim::Clock). The first heartbeat is due one
    /// interval after `now`.
    pub fn new_at(interval: std::time::Duration, now: std::time::Instant) -> Self {
        Self { interval, last_traffic: now, next_due: now + interval }
    }

    /// Records that a data frame was just sent on the channel.
    pub fn on_traffic(&mut self) {
        self.on_traffic_at(std::time::Instant::now());
    }

    /// Like [`HeartbeatPacer::on_traffic`], against an explicit `now`.
    pub fn on_traffic_at(&mut self, now: std::time::Instant) {
        self.last_traffic = now;
    }

    /// Decides whether a standalone heartbeat is required right now. When it
    /// answers [`HeartbeatAction::Send`] the caller must actually send the
    /// frame (and need not call [`HeartbeatPacer::on_traffic`] for it — the
    /// pacer books it itself).
    pub fn poll(&mut self) -> HeartbeatAction {
        self.poll_at(std::time::Instant::now())
    }

    /// Like [`HeartbeatPacer::poll`], against an explicit `now`.
    pub fn poll_at(&mut self, now: std::time::Instant) -> HeartbeatAction {
        if now < self.next_due {
            return HeartbeatAction::NotDue;
        }
        self.next_due = now + self.interval;
        if now.duration_since(self.last_traffic) < self.interval {
            HeartbeatAction::Suppressed
        } else {
            self.last_traffic = now;
            HeartbeatAction::Send
        }
    }

    /// The instant at which the next standalone heartbeat may become due.
    pub fn next_due(&self) -> std::time::Instant {
        self.next_due
    }
}

/// Jittered exponential backoff for retry loops: reconnecting volunteers
/// now, sub-master lease retries later.
///
/// Each call to [`Backoff::next_delay`] doubles the nominal delay (starting
/// at `base`, capped at `cap`) and returns a uniformly jittered value in
/// `[nominal/2, nominal]` so a fleet of volunteers knocked offline by the
/// same network event does not reconnect in lock-step. The jitter source is
/// a seeded xorshift64 — no wall-clock or OS entropy, so retry schedules are
/// reproducible under the deterministic sim, matching the explicit-`now`
/// idiom of [`HeartbeatPacer`].
#[derive(Debug, Clone)]
pub struct Backoff {
    base: std::time::Duration,
    cap: std::time::Duration,
    max_attempts: u32,
    attempt: u32,
    rng_state: u64,
}

impl Backoff {
    /// Creates a backoff schedule.
    ///
    /// # Panics
    ///
    /// Panics if `base` is zero, `cap` is below `base`, or `max_attempts`
    /// is zero — each would describe a retry loop that spins or never runs.
    pub fn new(
        base: std::time::Duration,
        cap: std::time::Duration,
        max_attempts: u32,
        seed: u64,
    ) -> Self {
        assert!(!base.is_zero(), "a zero base delay would busy-retry");
        assert!(cap >= base, "the delay cap cannot undercut the base delay");
        assert!(max_attempts > 0, "a backoff must allow at least one attempt");
        // xorshift64 has a fixed point at zero; fold the seed into a non-zero
        // state so seed 0 still jitters.
        let rng_state = seed ^ 0x9E37_79B9_7F4A_7C15;
        Self { base, cap, max_attempts, attempt: 0, rng_state }
    }

    /// Returns the jittered delay to wait before the next attempt, or `None`
    /// once `max_attempts` delays have been handed out — the caller should
    /// then give up and surface a permanent failure.
    pub fn next_delay(&mut self) -> Option<std::time::Duration> {
        if self.attempt >= self.max_attempts {
            return None;
        }
        let doublings = self.attempt.min(32);
        let nominal = self
            .base
            .checked_mul(1u32 << doublings.min(31))
            .map(|d| d.min(self.cap))
            .unwrap_or(self.cap);
        self.attempt += 1;
        // Uniform jitter in [nominal/2, nominal].
        let nanos = nominal.as_nanos().max(1) as u64;
        let half = nanos / 2;
        let jittered = half + self.next_rand() % (nanos - half + 1);
        Some(std::time::Duration::from_nanos(jittered))
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pando_netsim::codec::encode_frame;

    fn bytes(data: &[u8]) -> Bytes {
        Bytes::copy_from_slice(data)
    }

    fn one(seq: u64, data: &[u8]) -> Vec<Record> {
        vec![Record::new(seq, bytes(data))]
    }

    #[test]
    fn task_frame_picks_the_single_or_batched_variant() {
        // One data shape per direction: a lone record is a batch of one.
        let single = Message::task_frame(one(3, b"x"));
        assert_eq!(single, Message::TaskBatch(one(3, b"x")));
        let batch =
            Message::task_frame(vec![Record::new(1, bytes(b"a")), Record::new(2, bytes(b"b"))]);
        assert_eq!(batch.record_count(), 2);
    }

    #[test]
    fn into_results_yields_result_records_only() {
        let single = Message::ResultBatch(one(4, b"r"));
        assert_eq!(single.into_results().collect::<Vec<_>>(), vec![(4, bytes(b"r"))]);
        let batch =
            Message::ResultBatch(vec![Record::new(5, bytes(b"s")), Record::new(6, bytes(b"t"))]);
        assert_eq!(
            batch.into_results().collect::<Vec<_>>(),
            vec![(5, bytes(b"s")), (6, bytes(b"t"))],
            "records arrive in frame order"
        );
        assert_eq!(Message::Heartbeat.into_results().count(), 0);
        let tasks = Message::TaskBatch(vec![Record::new(0, bytes(b"x"))]);
        assert_eq!(tasks.into_results().count(), 0, "a task frame carries no results");
    }

    #[test]
    fn pacer_sends_only_after_a_silent_interval() {
        use std::time::{Duration, Instant};
        let start = Instant::now();
        let at = |ms: u64| start + Duration::from_millis(ms);
        let mut pacer = HeartbeatPacer::new_at(Duration::from_millis(20), start);
        assert_eq!(pacer.poll_at(at(19)), HeartbeatAction::NotDue);
        // Idle for a full interval: a standalone heartbeat goes out.
        assert_eq!(pacer.poll_at(at(25)), HeartbeatAction::Send);
        assert_eq!(pacer.poll_at(at(25)), HeartbeatAction::NotDue);
        assert_eq!(pacer.next_due(), at(45));
        // Traffic inside the next interval suppresses the following beat.
        pacer.on_traffic_at(at(40));
        assert_eq!(pacer.poll_at(at(50)), HeartbeatAction::Suppressed);
        assert_eq!(pacer.next_due(), at(70));
    }

    #[test]
    fn round_trip_every_variant() {
        let messages = [
            Message::TaskBatch(one(0, b"0.52")),
            Message::TaskError { seq: 3, message: bytes(b"render failed") },
            Message::TaskBatch(vec![
                Record::new(1, bytes(b"a")),
                Record::new(2, bytes(b"")),
                Record::new(u64::MAX, bytes(&[0, 10, 255])),
            ]),
            Message::ResultBatch(one(7, b"foobar")),
            Message::ResultBatch(vec![Record::new(8, bytes(b"r")), Record::new(9, bytes(b""))]),
            Message::Heartbeat,
            Message::Goodbye,
            Message::Ack { count: 0 },
            Message::Ack { count: u64::MAX },
        ];
        for message in messages {
            let encoded = message.encode().unwrap();
            assert_eq!(Message::decode(&encoded).unwrap(), message);
            assert_eq!(encoded.len(), message.wire_size(), "wire_size must match the encoding");
        }
    }

    #[test]
    fn binary_payloads_survive() {
        // Newlines, NUL bytes and invalid UTF-8 are all fine: the seq header
        // is fixed-width, not separator-based.
        let message = Message::TaskBatch(one(1, &[b'\n', 0, 0xff, 0xfe, b'\n', 0]));
        assert_eq!(Message::decode(&message.encode().unwrap()).unwrap(), message);
    }

    #[test]
    fn wire_size_grows_with_payload() {
        let small = Message::TaskBatch(one(0, b"x"));
        let large = Message::TaskBatch(one(0, &[b'x'; 10_000]));
        assert!(large.wire_size() > small.wire_size() + 9_000);
        assert!(Message::Heartbeat.wire_size() < 10);
    }

    #[test]
    fn batching_amortises_framing_overhead() {
        // Every record beyond the first saves a 5-byte frame header and a
        // 4-byte record count, on top of collapsing N channel round-trips
        // into one.
        let singles: usize =
            (0..16).map(|seq| Message::TaskBatch(one(seq, b"payload")).wire_size()).sum();
        let batch =
            Message::TaskBatch((0..16).map(|seq| Record::new(seq, bytes(b"payload"))).collect());
        assert_eq!(batch.wire_size() + 15 * 9, singles, "16 one-record frames vs one batch");
        assert_eq!(batch.record_count(), 16);
        assert_eq!(Message::Heartbeat.record_count(), 0);
    }

    #[test]
    fn decoded_batch_payloads_share_one_allocation() {
        let message = Message::TaskBatch(vec![
            Record::new(0, bytes(b"first")),
            Record::new(1, bytes(b"second")),
        ]);
        let frame = message.encode().unwrap();
        let Message::TaskBatch(records) = Message::decode_bytes(frame.clone()).unwrap() else {
            panic!("expected a task batch");
        };
        assert!(records.iter().all(|record| record.payload.shares_allocation_with(&frame)));
    }

    #[test]
    fn oversized_message_encode_fails_cleanly() {
        let message =
            Message::TaskBatch(one(0, &vec![0u8; pando_netsim::codec::MAX_FRAME_LEN + 1]));
        assert!(message.encode().unwrap_err().is_protocol());
    }

    #[test]
    fn malformed_frames_are_rejected() {
        assert!(Message::decode(&[]).is_err());
        assert!(Message::decode(&[1, 2, 3]).is_err());
        // Unknown tag.
        let frame = encode_frame(42, &[0, 0, 0, 0, 0, 0, 0, 0, b'x']).unwrap();
        assert!(Message::decode(&frame).is_err());
        // Error too short for the fixed seq header.
        let frame = encode_frame(TAG_ERROR, b"1234").unwrap();
        assert!(Message::decode(&frame).is_err());
        // Batch with a corrupt record body.
        let frame = encode_frame(TAG_TASK_BATCH, &[0, 0, 0, 5]).unwrap();
        assert!(Message::decode(&frame).is_err());
        // Ack with a body that is not exactly 8 bytes.
        let frame = encode_frame(TAG_ACK, &[0, 0, 0]).unwrap();
        assert!(Message::decode(&frame).is_err());
        // A frame cut anywhere, and a frame with anything after it: the
        // transport hands over exactly one, so neither is silently accepted.
        let frame = Message::TaskBatch(one(1, b"abc")).encode().unwrap();
        assert!(
            (0..frame.len()).all(|cut| Message::decode(&frame[..cut]).unwrap_err().is_protocol())
        );
        let err = Message::decode(&[&frame[..], &[0]].concat()).unwrap_err();
        assert!(err.is_protocol() && err.message().contains("1 trailing byte"), "{err}");
    }

    #[test]
    fn data_classification_matches_the_session_contract() {
        assert!(Message::TaskError { seq: 0, message: bytes(b"x") }.is_data());
        assert!(Message::TaskBatch(vec![Record::new(0, bytes(b"x"))]).is_data());
        assert!(Message::ResultBatch(vec![Record::new(0, bytes(b"x"))]).is_data());
        assert!(!Message::Heartbeat.is_data());
        assert!(!Message::Goodbye.is_data());
        assert!(!Message::Ack { count: 3 }.is_data());
    }

    #[test]
    fn backoff_doubles_jitters_and_caps() {
        use std::time::Duration;
        let mut backoff = Backoff::new(Duration::from_millis(10), Duration::from_secs(1), 12, 42);
        let mut previous_nominal = Duration::ZERO;
        for attempt in 0..12u32 {
            let nominal =
                (Duration::from_millis(10) * 2u32.pow(attempt.min(16))).min(Duration::from_secs(1));
            let delay = backoff.next_delay().expect("within the attempt budget");
            assert!(
                delay >= nominal / 2 && delay <= nominal,
                "attempt {attempt}: {delay:?} outside [{:?}, {nominal:?}]",
                nominal / 2
            );
            assert!(nominal >= previous_nominal, "the nominal delay never shrinks");
            previous_nominal = nominal;
        }
        // The cap was reached well before the budget ran out.
        assert_eq!(previous_nominal, Duration::from_secs(1));
        assert_eq!(backoff.next_delay(), None, "the budget is a hard stop");
    }

    #[test]
    fn backoff_jitter_is_deterministic_per_seed_and_never_degenerate() {
        use std::time::Duration;
        let schedule = |seed: u64| -> Vec<Duration> {
            let mut b = Backoff::new(Duration::from_millis(5), Duration::from_millis(500), 8, seed);
            std::iter::from_fn(|| b.next_delay()).collect()
        };
        assert_eq!(schedule(7), schedule(7), "same seed, same jitter");
        assert_ne!(schedule(7), schedule(8), "different seeds de-correlate the fleet");
        // Seed 0 must not degenerate (xorshift zero fixed point is avoided).
        let zeros = schedule(0);
        assert_eq!(zeros.len(), 8);
        assert!(zeros.windows(2).any(|w| w[0] != w[1]), "seed 0 still jitters");
    }

    #[test]
    #[should_panic(expected = "busy-retry")]
    fn backoff_zero_base_is_rejected() {
        let _ = Backoff::new(std::time::Duration::ZERO, std::time::Duration::from_secs(1), 3, 0);
    }

    #[test]
    #[should_panic(expected = "cannot undercut")]
    fn backoff_inverted_range_is_rejected() {
        let _ = Backoff::new(
            std::time::Duration::from_secs(2),
            std::time::Duration::from_secs(1),
            3,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn backoff_zero_attempts_is_rejected() {
        let _ = Backoff::new(
            std::time::Duration::from_millis(1),
            std::time::Duration::from_secs(1),
            0,
            0,
        );
    }
}
