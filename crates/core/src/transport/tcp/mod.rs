//! Length-prefixed [`Message`] frames over real TCP sockets.
//!
//! This is the first transport that takes the fleet out of the process: a
//! master in one OS process drives volunteer workers in other processes over
//! localhost (or LAN) TCP, through exactly the same reactor, lender and
//! failure-detection machinery the deterministic simulator exercises.
//!
//! # Readiness backend
//!
//! All connections in a process are multiplexed onto a fixed pool of
//! [`TcpConfig::poller_threads`] epoll poller threads (module `poller`,
//! syscall shim in `transport::sys`) — a 64-volunteer master runs its
//! transport on 2 threads, where a read/write thread pair per connection
//! would take 128. Sockets are non-blocking; a per-connection state machine
//! owns partial-read reassembly (header → body, mid-frame truncation still
//! classified as a crash) and partial-write resumption, and every readiness
//! batch gives each ready connection a bounded slice of work so one
//! fire-hose peer cannot starve the rest (round-robin fairness via
//! level-triggered re-reporting). A payload is copied once on the way in —
//! from the reading thread's scratch chunk into a buffer sized for its whole
//! frame from the header — and the decoder slices that buffer
//! ([`Message::decode_bytes`]).
//!
//! The outbound queue is **byte-bounded** at [`TcpConfig::write_buffer_max`]:
//! a send that would overflow the bound fails with [`SendError::WouldBlock`]
//! (nothing enqueued, link healthy) and the registered waker fires once the
//! queue drains below the bound — see the bounded-send row of the
//! [`Transport`] contract table. epoll is the only readiness backend, so
//! master and volunteer are both Linux-only (the one platform gate is in
//! [`transport`](super)).
//!
//! # Wire format
//!
//! The wire format reuses the existing fallible codec verbatim — every frame
//! is what [`Message::encode`] produces (`tag: u8`, `len: u32` big-endian,
//! payload), with tag `0` reserved as a transport-level close marker so a
//! clean [`close`](Transport::close) is distinguishable from a crash (sent
//! as [`Message::pieces`]: `writev` gathers the payloads where they lie).
//! Before the first frame a connection handshakes (`PNDO` magic, version,
//! hello mode, volunteer name — see [`handshake`]); the master runs every
//! handshake on one readiness-driven state machine (see `acceptor`).
//!
//! # Which layer detects which failure class
//!
//! Three detectors run at different depths, fastest-first:
//!
//! 1. **Socket events** (this module): reset, EOF without the close marker,
//!    or EOF mid-frame short-circuit straight to
//!    [`RecvError::PeerFailed`] — process crashes on a live network are
//!    caught in milliseconds.
//! 2. **Application heartbeats** ([`FailureDetector`]): every arriving
//!    frame refreshes `last_heard`; `failure_timeout` of silence marks the
//!    peer failed even when the socket looks healthy. This is the only
//!    layer that catches a *wedged* peer process whose kernel still ACKs.
//! 3. **TCP keepalive** (`SO_KEEPALIVE` on every link, probes paced from
//!    `heartbeat_interval`): kernel-level probing that reaps connections
//!    whose remote *host* vanished (power loss, cable pull) even if this
//!    process never tries to write — the probe failure surfaces as a socket
//!    error, feeding back into layer 1. Keepalive never produces false
//!    positives on an idle-but-healthy link: probes are answered by the
//!    peer's kernel without waking the application, so an idle connection
//!    outlives any number of heartbeat intervals as long as both layers
//!    above stay quiet.
//!
//! Crash detection therefore maps onto the same [`FailureDetector`] path as
//! the simulated channels, and crash re-lend and shard hopping work
//! unchanged over sockets.

pub mod acceptor;
pub mod handshake;
pub(crate) mod poller;
pub mod session;

pub use acceptor::{SessionEvent, TcpAcceptor, TcpServerHandle};
pub use handshake::TCP_PROTOCOL_VERSION;
pub(crate) use handshake::{dial, HelloMode};

use super::sys;
use super::{Transport, TransportError, TransportErrorKind};
use crate::protocol::{Message, Pieces};
use bytes::{Buf, Bytes, BytesMut};
use pando_netsim::channel::{RecvError, SendError, Waker};
use pando_netsim::codec::{encode_frame, peek_frame};
use pando_netsim::heartbeat::FailureDetector;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::Read;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frame tag reserved for the transport-level close marker (the protocol's
/// message tags start at 1).
const TAG_CLOSE: u8 = 0;

/// Bytes asked of the socket per `read` call, and the size of the scratch
/// buffer each reading thread owns for it.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Knobs of a TCP link. Liveness settings mirror
/// [`ChannelConfig`](pando_netsim::channel::ChannelConfig): heartbeats are
/// expected every `heartbeat_interval` and the peer is declared crashed
/// after `failure_timeout` of silence.
///
/// Every link disables Nagle's algorithm (`TCP_NODELAY`: latency beats
/// batching for the small control frames of this protocol) and enables
/// kernel `SO_KEEPALIVE` probing, paced from `heartbeat_interval` (rounded up
/// to the kernel's 1s floor); see the module docs for how keepalive,
/// heartbeats and socket events split the failure-detection work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpConfig {
    /// Interval between keep-alive heartbeats while a link is idle.
    pub heartbeat_interval: Duration,
    /// Silence after which the peer is suspected crashed; must exceed
    /// `heartbeat_interval`.
    pub failure_timeout: Duration,
    /// Number of shared epoll poller threads multiplexing every TCP
    /// connection in the process. The pool is process-global and sized
    /// once, by the first connection created; later configs cannot resize
    /// it.
    pub poller_threads: usize,
    /// Byte bound on the per-connection outbound queue. A send that would
    /// push the queue past this bound fails with [`SendError::WouldBlock`]
    /// and the waker fires once the queue drains below the bound again; a
    /// single frame larger than the whole bound is admitted alone (never a
    /// permanent reject). This is what keeps a slow or stalled reader from
    /// growing master-side memory without bound. The same bound caps the one
    /// spent reassembly allocation a link holds on to for its next frame.
    pub write_buffer_max: usize,
    /// How long a *session* volunteer (hello mode `NEW`/`RESUME`) may stay
    /// disconnected before the master reclassifies the transient disconnect
    /// as a crash and fires the re-lend path. Plain connections ignore this:
    /// for them a dropped socket is a crash immediately, as before.
    pub reconnect_grace: Duration,
}

impl Default for TcpConfig {
    fn default() -> Self {
        Self {
            heartbeat_interval: Duration::from_secs(2),
            failure_timeout: Duration::from_secs(10),
            poller_threads: 2,
            write_buffer_max: 1024 * 1024,
            reconnect_grace: Duration::from_secs(30),
        }
    }
}

impl TcpConfig {
    /// Tightened liveness windows for tests and localhost demos, where a
    /// crash should be detected in well under a second.
    pub fn local_test() -> Self {
        Self {
            heartbeat_interval: Duration::from_millis(50),
            failure_timeout: Duration::from_millis(400),
            reconnect_grace: Duration::from_secs(2),
            ..Self::default()
        }
    }
}

/// Consumer-facing link state shared by the poller threads and the public
/// API.
pub(crate) struct LinkState {
    /// Decoded messages not yet handed to the consumer, FIFO.
    inbox: VecDeque<Message>,
    /// Peer sent the close marker: drain the inbox, then report `Closed`.
    peer_closed: bool,
    /// The link died without a close marker (I/O error, EOF, bad frame,
    /// heartbeat timeout): report `PeerFailed` after draining.
    failed: Option<TransportError>,
    /// We closed our sending direction.
    locally_closed: bool,
    /// We abandoned the connection abruptly.
    crashed: bool,
    /// Last instant any frame arrived from the peer; feeds the detector.
    last_heard: Instant,
    /// Readiness callback, one slot.
    waker: Option<Waker>,
}

/// Inbound reassembly state, touched only by the poller thread currently
/// reading the socket.
pub(crate) struct ReadState {
    /// Bytes received but not yet parsed into complete frames.
    buf: BytesMut,
    /// The last frame that left with `buf`'s allocation. Once its consumers
    /// have dropped every payload sliced from it, the allocation comes back
    /// for the next frame instead of a new one being made.
    spare: Option<Bytes>,
    /// The read direction hit EOF; never read again.
    eof: bool,
}

impl ReadState {
    /// Makes `buf` able to hold `total` bytes, those already in it included
    /// — a whole frame, sized once from its header — preferring the previous
    /// frame's allocation to a new one.
    fn size_for(&mut self, total: usize) {
        let missing = total.saturating_sub(self.buf.len());
        if self.buf.capacity() - self.buf.len() >= missing {
            return;
        }
        if let Some(Ok(mut old)) = self.spare.take().map(Bytes::try_into_mut) {
            if old.capacity() >= total {
                old.clear();
                old.extend_from_slice(&self.buf);
                self.buf = old;
                return;
            }
        }
        self.buf.reserve(missing);
    }

    /// Removes the first `total` bytes of `buf` — one complete frame — as a
    /// [`Bytes`] the decoder can slice. A frame that fills at least half of
    /// the allocation takes the allocation with it, and whatever arrived
    /// behind it moves to a fresh buffer; a small frame in a big buffer is
    /// copied out, so a 50-byte frame never walks off with the 16 KiB block
    /// under it. An allocation of up to `spare_max` bytes is remembered for
    /// [`ReadState::size_for`].
    fn take_frame(&mut self, total: usize, spare_max: usize) -> Bytes {
        let capacity = self.buf.capacity();
        if capacity <= 2 * total {
            let rest = self.buf.split_off(total);
            let frame = std::mem::replace(&mut self.buf, rest).freeze();
            if capacity <= spare_max {
                self.spare = Some(frame.clone());
            }
            frame
        } else {
            let frame = Bytes::copy_from_slice(&self.buf[..total]);
            self.buf.advance(total);
            frame
        }
    }
}

/// What one `read` of the socket did to the link.
pub(crate) enum ReadOutcome {
    /// Bytes arrived and every complete frame among them reached the inbox.
    Progress,
    /// Nothing to read right now.
    WouldBlock,
    /// The peer closed its sending direction; classified, never read again.
    Eof,
    /// The link failed (I/O error or framing violation) and was marked so;
    /// the caller tears the socket down.
    Failed,
}

/// One entry of the outbound queue: bytes that go to the socket as they are.
pub(crate) struct Piece {
    bytes: Bytes,
    /// The last piece of its frame: writing it out completes the frame.
    ends_frame: bool,
}

/// Outbound queue and partial-write cursor, drained inline by the sender
/// and by the poller on writable events.
pub(crate) struct WriteState {
    /// The pieces of encoded frames awaiting the socket, FIFO (see
    /// [`Message::pieces`]). The close marker is queued as a regular frame
    /// so ordering falls out naturally.
    queue: VecDeque<Piece>,
    /// Bytes of `queue[0]` already written (partial-write resumption).
    offset: usize,
    /// Unwritten bytes across the whole queue; the admission bound, applied
    /// per frame.
    queued_bytes: usize,
    /// The close marker has been queued: no further frames are accepted,
    /// and once the queue drains the write half is shut down.
    closing: bool,
    /// The write half has been flushed and shut down after a clean close.
    shutdown_done: bool,
    /// `crash()` dropped the queue: stop writing, never shut down cleanly.
    aborted: bool,
    /// A send bounced with `WouldBlock`; fire the waker once the queue
    /// drains below the bound.
    blocked: bool,
    /// Interest mask currently registered with epoll. Mutated only under
    /// this lock so interest updates cannot race.
    armed_interest: u32,
    /// Frames fully written to the socket.
    frames_written: u64,
    /// `write`/`writev` syscalls issued (vectored batching makes
    /// `frames_written / write_calls` exceed 1 under load).
    write_calls: u64,
    /// Payload bytes written to the socket.
    bytes_written: u64,
}

/// Everything one connection's threads share. Lock order within one link:
/// `read` → `write` → `state` → `registration`; never take an earlier lock
/// while holding a later one.
pub(crate) struct Shared {
    /// The socket itself; reads and writes go through `&TcpStream`.
    stream: TcpStream,
    state: Mutex<LinkState>,
    write: Mutex<WriteState>,
    read: Mutex<ReadState>,
    /// EOF seen or link dead: drop read interest, never read again.
    read_closed: AtomicBool,
    /// Link failed or crashed: drop write interest, never write again.
    dead: AtomicBool,
    /// Poller registration (epoll shard + token); `None` after teardown.
    registration: Mutex<Option<poller::Registration>>,
    /// Live [`TcpTransport`] handles over this link; the clean close on
    /// drop fires only when the last one goes.
    handles: AtomicUsize,
    detector: FailureDetector,
    config: TcpConfig,
}

impl Shared {
    /// Fires the registered waker. Must be called after every state change
    /// that could make the link pollable.
    fn notify(&self, state: &LinkState) {
        if let Some(waker) = &state.waker {
            waker();
        }
    }

    /// [`Shared::notify`] for a caller that has let go of `state` (frames
    /// delivered, a sender given room): the woken `try_recv` finds it free.
    pub(crate) fn wake(&self) {
        let waker = self.state.lock().waker.clone();
        if let Some(waker) = waker {
            waker();
        }
    }

    fn fail(&self, error: TransportError) {
        self.read_closed.store(true, Ordering::SeqCst);
        self.dead.store(true, Ordering::SeqCst);
        let mut state = self.state.lock();
        if state.failed.is_none() && !state.peer_closed {
            state.failed = Some(error);
        }
        self.notify(&state);
    }

    /// One `read` of the socket through `chunk`, then every frame that
    /// completed goes to the inbox and the consumer is woken once for all of
    /// them. The poller calls it on readable events.
    pub(crate) fn read_once(&self, read: &mut ReadState, chunk: &mut [u8]) -> ReadOutcome {
        loop {
            return match (&self.stream).read(chunk) {
                Ok(0) => {
                    read.eof = true;
                    self.handle_eof(read);
                    ReadOutcome::Eof
                }
                Ok(n) => {
                    // A chunk that ends one frame and begins the next goes in
                    // as two parts: the first fills the buffer sized for that
                    // frame, which leaves with it, so the buffer is not grown
                    // (and copied) for bytes that are another frame's.
                    let room = match read.buf.len() {
                        0 => n,
                        len => (read.buf.capacity() - len).min(n),
                    };
                    let mut delivered = false;
                    let intact = self.drain_frames(read, &chunk[..room], &mut delivered)
                        && (room == n || self.drain_frames(read, &chunk[room..n], &mut delivered));
                    if delivered {
                        self.wake();
                    }
                    if intact {
                        ReadOutcome::Progress
                    } else {
                        ReadOutcome::Failed
                    }
                }
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => ReadOutcome::WouldBlock,
                Err(err) => {
                    self.fail(err.into());
                    ReadOutcome::Failed
                }
            };
        }
    }

    /// Appends `part` to `read.buf` and drains every frame now complete into
    /// the inbox, setting `delivered` for the caller to wake the consumer with
    /// `state` released. Returns `false` when the link failed on a framing
    /// violation (the caller tears the socket down).
    fn drain_frames(&self, read: &mut ReadState, part: &[u8], delivered: &mut bool) -> bool {
        if read.buf.is_empty() {
            // A frame starts here: size the buffer for all of it before the
            // copy, so it is allocated exactly once.
            if let Ok(Some((_, total))) = peek_frame(part) {
                read.size_for(total.max(part.len()));
            }
        }
        read.buf.extend_from_slice(part);
        loop {
            let (tag, total) = match peek_frame(&read.buf) {
                Ok(Some(header)) => header,
                Ok(None) => return true,
                Err(err) => {
                    self.fail(TransportError::new(
                        TransportErrorKind::Protocol,
                        format!("incoming {}", err.message()),
                    ));
                    return false;
                }
            };
            if read.buf.len() < total {
                // The header says how much is coming (and `peek_frame`
                // bounded it): size the buffer for the frame once instead of
                // doubling up to it.
                read.size_for(total);
                return true;
            }
            if tag == TAG_CLOSE {
                read.buf.advance(total);
                let mut state = self.state.lock();
                state.last_heard = Instant::now();
                state.peer_closed = true;
                *delivered = true;
                // The peer will not send again; keep reading so the socket
                // drains to EOF.
                continue;
            }
            match Message::decode_bytes(read.take_frame(total, self.config.write_buffer_max)) {
                Ok(message) => {
                    let mut state = self.state.lock();
                    state.last_heard = Instant::now();
                    state.inbox.push_back(message);
                    *delivered = true;
                }
                Err(err) => {
                    self.fail(TransportError::new(
                        TransportErrorKind::Protocol,
                        format!("undecodable frame: {err}"),
                    ));
                    return false;
                }
            }
        }
    }

    /// Classifies EOF: without the close marker — or worse, mid-frame — it
    /// is a crash, not a clean shutdown.
    fn handle_eof(&self, read: &ReadState) {
        self.read_closed.store(true, Ordering::SeqCst);
        let mid_frame = !read.buf.is_empty();
        let mut state = self.state.lock();
        if !state.peer_closed && state.failed.is_none() {
            self.dead.store(true, Ordering::SeqCst);
            state.failed = Some(TransportError::new(
                TransportErrorKind::PeerFailed,
                if mid_frame {
                    "connection dropped mid-frame"
                } else {
                    "connection dropped without close marker"
                },
            ));
        }
        self.notify(&state);
    }

    /// Clears the would-block flag if the queue drained below the bound.
    /// Returns whether the caller must fire the waker (after releasing the
    /// write lock).
    fn maybe_unblock(&self, write: &mut WriteState) -> bool {
        if write.blocked && write.queued_bytes < self.config.write_buffer_max {
            write.blocked = false;
            true
        } else {
            false
        }
    }
}

/// One live TCP connection speaking the Pando frame protocol.
///
/// Created by [`TcpTransport::connect`] on the volunteer side or handed out
/// by a `TcpAcceptor` on the master side. Dropping the transport closes it
/// cleanly unless [`crash`](Transport::crash) was called first.
///
/// Clones share the underlying connection; a clone is a cheap handle for
/// observing [`stats`](TcpTransport::stats) after the original moved into a
/// worker or the reactor. The drop-close fires only when the last handle
/// goes away.
pub struct TcpTransport {
    shared: Arc<Shared>,
    /// Peer name from the handshake (volunteer side: our own name).
    peer: String,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("peer", &self.peer)
            .field("local", &self.shared.stream.local_addr().ok())
            .finish()
    }
}

/// A snapshot of one link's write-path counters, for the transport stats
/// line and the backpressure tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpLinkStats {
    /// Frames fully written to the socket.
    pub frames_written: u64,
    /// `write`/`writev` syscalls issued.
    pub write_calls: u64,
    /// Payload bytes written to the socket.
    pub bytes_written: u64,
    /// Unwritten bytes currently queued (bounded by
    /// [`TcpConfig::write_buffer_max`]).
    pub queued_bytes: usize,
}

impl TcpLinkStats {
    /// Average frames drained per `write`/`writev` syscall; above 1 means
    /// the vectored write path is batching under load.
    pub fn frames_per_write(&self) -> f64 {
        if self.write_calls == 0 {
            0.0
        } else {
            self.frames_written as f64 / self.write_calls as f64
        }
    }
}

impl TcpTransport {
    /// Connects to a master at `addr`, introduces this volunteer as `name`
    /// and returns the live transport.
    ///
    /// # Errors
    ///
    /// [`TransportErrorKind::Io`] if the connection cannot be established,
    /// [`TransportErrorKind::Protocol`] if the master answers with the wrong
    /// magic or an incompatible version.
    pub fn connect(
        addr: impl ToSocketAddrs,
        name: &str,
        config: TcpConfig,
    ) -> Result<Self, TransportError> {
        let outcome = dial(addr, name, HelloMode::Plain)?;
        Ok(Self::from_stream(outcome.stream, name.to_string(), config))
    }

    /// Wires the shared state and hands the socket to the poller.
    pub(crate) fn from_stream(stream: TcpStream, peer: String, config: TcpConfig) -> Self {
        // Best effort: a kernel that rejects the option still leaves the two
        // application-level detection layers above it.
        let _ = sys::set_keepalive(stream.as_raw_fd(), config.heartbeat_interval);
        let detector = FailureDetector::new(config.heartbeat_interval, config.failure_timeout);
        let shared = Arc::new(Shared {
            stream,
            state: Mutex::new(LinkState {
                inbox: VecDeque::new(),
                peer_closed: false,
                failed: None,
                locally_closed: false,
                crashed: false,
                last_heard: Instant::now(),
                waker: None,
            }),
            write: Mutex::new(WriteState {
                queue: VecDeque::new(),
                offset: 0,
                queued_bytes: 0,
                closing: false,
                shutdown_done: false,
                aborted: false,
                blocked: false,
                armed_interest: 0,
                frames_written: 0,
                write_calls: 0,
                bytes_written: 0,
            }),
            read: Mutex::new(ReadState {
                buf: BytesMut::with_capacity(READ_CHUNK),
                spare: None,
                eof: false,
            }),
            read_closed: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            registration: Mutex::new(None),
            handles: AtomicUsize::new(1),
            detector,
            config,
        });
        poller::register(&shared);
        Self { shared, peer }
    }

    /// The peer's handshake name (on the master side) or this volunteer's
    /// own name (on the connecting side).
    pub fn peer_name(&self) -> &str {
        &self.peer
    }

    /// Snapshot of the link's write-path counters.
    pub fn stats(&self) -> TcpLinkStats {
        let write = self.shared.write.lock();
        TcpLinkStats {
            frames_written: write.frames_written,
            write_calls: write.write_calls,
            bytes_written: write.bytes_written,
            queued_bytes: write.queued_bytes,
        }
    }

    /// Why the link failed, if it did: the typed error behind a
    /// [`RecvError::PeerFailed`] (a protocol violation, an I/O error, a crash
    /// verdict), which the `Transport` surface flattens.
    pub fn failure(&self) -> Option<TransportError> {
        self.shared.state.lock().failed.clone()
    }

    /// Whether `SO_KEEPALIVE` is enabled on the socket (`None` if the
    /// option cannot be read).
    pub fn keepalive_enabled(&self) -> Option<bool> {
        sys::keepalive_enabled(self.shared.stream.as_raw_fd()).ok()
    }

    /// The non-blocking poll behind `try_recv`.
    fn poll_inbox(&self, state: &mut LinkState) -> Result<Message, RecvError> {
        if let Some(message) = state.inbox.pop_front() {
            return Ok(message);
        }
        if state.peer_closed {
            return Err(RecvError::Closed);
        }
        if state.crashed {
            return Err(RecvError::Closed);
        }
        if state.failed.is_some() {
            return Err(RecvError::PeerFailed);
        }
        if self.shared.detector.suspects_at(state.last_heard, Instant::now()) {
            state.failed = Some(TransportError::new(
                TransportErrorKind::PeerFailed,
                "peer silent past the failure timeout",
            ));
            return Err(RecvError::PeerFailed);
        }
        Err(RecvError::Empty)
    }

    /// Admits `pieces` — one frame, its end marked — into the bounded
    /// outbound queue and drains it as far as the socket allows.
    fn enqueue_frame(&self, pieces: &Pieces<'_>) -> Result<(), SendError> {
        let shared = &self.shared;
        let mut write = shared.write.lock();
        if write.closing || write.aborted {
            return Err(SendError::Closed);
        }
        let size = pieces.wire_len();
        if write.queued_bytes > 0 && write.queued_bytes + size > shared.config.write_buffer_max {
            // Bound overflow: admit nothing, remember to wake the sender
            // once the drain dips below the bound. An oversized frame on an
            // empty queue is admitted alone instead of livelocking.
            write.blocked = true;
            return Err(SendError::WouldBlock);
        }
        pieces.for_each(|bytes| write.queue.push_back(Piece { bytes, ends_frame: false }));
        write.queue.back_mut().expect("a frame has at least its header").ends_frame = true;
        write.queued_bytes += size;
        self.kick_writer(&mut write);
        Ok(())
    }

    /// Drains the queue after it changed. Write-on-enqueue fast path: the
    /// socket is almost always writable, so drain inline on the sender's
    /// thread instead of paying an epoll wakeup of latency per frame. Only a
    /// partial write (kernel buffer full) leaves residue, and
    /// `update_interest` then arms `EPOLLOUT` so the poller resumes it. A
    /// link already deregistered (peer gone, queue was idle) takes the same
    /// path, best effort — that only ever carries the close marker.
    fn kick_writer(&self, write: &mut WriteState) {
        poller::drain_write_locked(&self.shared, write);
        poller::update_interest(&self.shared, write);
    }

    /// Sends `message` — behind the frame of a cumulative ack of `ack`, when
    /// the session layer has one to announce — as borrowed pieces.
    pub(crate) fn send_frame(&self, message: &Message, ack: Option<u64>) -> Result<(), SendError> {
        {
            let state = self.shared.state.lock();
            if state.locally_closed || state.crashed {
                return Err(SendError::Closed);
            }
            if state.failed.is_some() {
                return Err(SendError::PeerFailed);
            }
            if state.peer_closed {
                return Err(SendError::Closed);
            }
        }
        let pieces = match message.pieces(ack) {
            Ok(pieces) => pieces,
            Err(err) => {
                // An unencodable (oversized) frame poisons the link: the
                // peer could never receive it, so pretending it was sent
                // would silently drop records.
                self.shared.fail(TransportError::new(TransportErrorKind::Protocol, err.message()));
                return Err(SendError::PeerFailed);
            }
        };
        self.enqueue_frame(&pieces)
    }
}

impl Transport for TcpTransport {
    fn try_recv(&self) -> Result<Message, RecvError> {
        let mut state = self.shared.state.lock();
        self.poll_inbox(&mut state)
    }

    fn send(&self, message: Message) -> Result<(), SendError> {
        self.send_frame(&message, None)
    }

    fn send_records_with_size(
        &self,
        message: Message,
        _size: usize,
        _records: u64,
    ) -> Result<(), SendError> {
        // Real sockets carry the actual bytes; the simulated bandwidth
        // accounting parameters are meaningless here.
        self.send_frame(&message, None)
    }

    fn set_waker(&self, waker: Waker) {
        let mut state = self.shared.state.lock();
        state.waker = Some(waker);
    }

    fn clear_waker(&self) {
        let mut state = self.shared.state.lock();
        state.waker = None;
    }

    fn next_ready_at(&self) -> Option<Instant> {
        let state = self.shared.state.lock();
        if state.peer_closed || state.crashed || state.failed.is_some() {
            return None;
        }
        if !state.inbox.is_empty() {
            return Some(Instant::now());
        }
        // The only future event a quiet socket schedules is crash suspicion
        // maturing; the reactor arms a timer for it so heartbeat-timeout
        // detection works without a dedicated thread.
        Some(state.last_heard + self.shared.config.failure_timeout)
    }

    fn close(&self) {
        {
            let mut state = self.shared.state.lock();
            if state.locally_closed || state.crashed {
                return;
            }
            state.locally_closed = true;
        }
        let mut write = self.shared.write.lock();
        if write.closing || write.aborted {
            return;
        }
        write.closing = true;
        let marker = encode_frame(TAG_CLOSE, b"").expect("empty close frame encodes");
        write.queued_bytes += marker.len();
        write.queue.push_back(Piece { bytes: marker, ends_frame: true });
        self.kick_writer(&mut write);
    }

    fn crash(&self) {
        {
            let mut state = self.shared.state.lock();
            if state.crashed {
                return;
            }
            state.crashed = true;
            self.shared.read_closed.store(true, Ordering::SeqCst);
            self.shared.dead.store(true, Ordering::SeqCst);
            self.shared.notify(&state);
        }
        {
            let mut write = self.shared.write.lock();
            write.aborted = true;
            write.queue.clear();
            write.queued_bytes = 0;
            write.offset = 0;
        }
        poller::deregister(&self.shared);
        // Abrupt: no close marker, both directions torn down. The peer sees
        // EOF (or a reset) without the marker and classifies it as a crash.
        let _ = self.shared.stream.shutdown(Shutdown::Both);
    }

    fn heartbeat_interval(&self) -> Duration {
        self.shared.config.heartbeat_interval
    }
}

impl Clone for TcpTransport {
    fn clone(&self) -> Self {
        self.shared.handles.fetch_add(1, Ordering::SeqCst);
        Self { shared: self.shared.clone(), peer: self.peer.clone() }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        if self.shared.handles.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.close();
        }
    }
}

/// Counts this process's live transport threads (names starting `tcp-`:
/// pollers and the acceptor). `None` where
/// `/proc` is unavailable. This is what the CI fleet job asserts stays
/// O(`poller_threads`) instead of O(connections).
pub fn transport_thread_census() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let mut count = 0;
    for task in tasks.flatten() {
        let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
        if comm.trim_end().starts_with("tcp-") {
            count += 1;
        }
    }
    Some(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_state(capacity: usize) -> ReadState {
        ReadState { buf: BytesMut::with_capacity(capacity), spare: None, eof: false }
    }

    #[test]
    fn a_small_frame_is_copied_out_and_the_buffer_stays_with_the_link() {
        let mut read = read_state(READ_CHUNK);
        read.buf.extend_from_slice(&[7u8; 50]);
        let block = read.buf.as_ptr();
        let frame = read.take_frame(50, usize::MAX);
        assert_eq!(&frame[..], &[7u8; 50]);
        assert_ne!(frame.as_ptr(), block, "a 50-byte frame must not pin 16 KiB");
        assert!(read.buf.is_empty() && read.buf.capacity() == READ_CHUNK && read.spare.is_none());
    }

    #[test]
    fn a_big_frame_leaves_with_the_buffer_and_the_buffer_comes_back_when_dropped() {
        let total = 40_000;
        let mut read = read_state(0);
        read.size_for(total);
        read.buf.extend_from_slice(&vec![1u8; total]);
        read.buf.extend_from_slice(b"next");
        let block = read.buf.as_ptr();
        let frame = read.take_frame(total, usize::MAX);
        assert_eq!((frame.len(), frame.as_ptr()), (total, block), "taken whole, not copied");
        assert_eq!(&read.buf[..], b"next", "what arrived behind it moved to a fresh buffer");

        // While a consumer still holds a payload, the next frame gets its own
        // allocation and the bytes already buffered come along.
        let payload = frame.slice(5..);
        drop(frame);
        read.size_for(total);
        assert_ne!(read.buf.as_ptr(), block);
        assert_eq!(&read.buf[..], b"next");
        assert!(read.spare.is_none(), "one try per frame: the clone is not kept around");

        // Once the consumers are done, the allocation serves the next frame.
        read.buf.extend_from_slice(&vec![2u8; total - 4]);
        let block = read.buf.as_ptr();
        drop(payload);
        let frame = read.take_frame(total, usize::MAX);
        drop(frame);
        read.buf.extend_from_slice(b"head");
        read.size_for(total);
        assert_eq!(read.buf.as_ptr(), block, "reclaimed, not reallocated");
        assert_eq!(&read.buf[..], b"head");

        // An allocation over the link's byte bound is never held back.
        read.buf.extend_from_slice(&vec![3u8; total - 4]);
        drop(read.take_frame(total, total - 1));
        assert!(read.spare.is_none());
    }
}
