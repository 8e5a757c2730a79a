//! Resumable volunteer sessions over TCP.
//!
//! A plain [`TcpTransport`] equates a dropped socket with a crash, which is
//! the wrong verdict for the most common WAN event: a transient disconnect
//! (a Wi-Fi blip, a NAT rebinding, a laptop lid). This module layers a
//! *session* over the raw link so a returning volunteer rejoins under its
//! old name and budget instead of being declared dead:
//!
//! * `SessionCore` (private) holds the durable half of a session — the
//!   token, cumulative data-frame counters for both directions, and a
//!   bounded buffer of sent-but-unacknowledged frames for redelivery.
//! * [`SessionTransport`] is the **master-side** wrapper: when the active
//!   socket dies it *parks* the session instead of surfacing
//!   [`RecvError::PeerFailed`], and only after
//!   [`TcpConfig::reconnect_grace`] without a resume does it deliver the
//!   failure verdict — at which point the existing crash re-lend path fires
//!   unchanged. A resume routed in by the acceptor swaps in the new socket
//!   and replays every unacked frame the client reports missing.
//! * [`ReconnectingTcpTransport`] is the **worker-side** wrapper: on a
//!   socket failure it redials in a background thread with the jittered
//!   exponential [`Backoff`] from `core::protocol`, presenting its session
//!   token and received count (`RESUME <token> <recvd>`); while down it
//!   answers [`RecvError::Empty`] and buffers outbound results, so the
//!   worker pool needs no new cases beyond its existing would-block
//!   parking.
//!
//! # Acks are garbage collection, counters are truth
//!
//! Each side counts the *data* frames ([`Message::is_data`]) it has
//! received and tells the peer with a cumulative [`Message::Ack`]. The ack
//! *rides*: unannounced progress is written into the head piece of the next
//! data frame or heartbeat going the other way ([`Message::pieces`]) — one
//! admission, one `writev`, one `recv` for the two — and counts as announced
//! only once the link admitted that frame. An ack travels alone only when
//! nothing is flowing back to carry it: eight data frames unannounced, or
//! their wire bytes at a quarter of the redelivery bound (the buffer is
//! bounded in bytes; counting frames alone let a few large ones fill it
//! before their ack was due, and the sender waited forever), or a heartbeat
//! arriving while any are unannounced, so ends with different bounds stall
//! one heartbeat interval at most. No timer, no new message: a peer that
//! acks every eighth frame interoperates, because acks are cumulative.
//!
//! Acks only trim the peer's redelivery buffer — **which** frames to replay
//! after a reconnect is decided solely by the received-counts exchanged in
//! the resume handshake. A frame is therefore redelivered exactly when the
//! other side never received it: no duplicate results, no lost tasks. (The
//! lender's late/duplicate-result drop remains as a second line of defence
//! for the pathological case of a half-open old socket delivering a frame
//! after the counts were exchanged.)
//!
//! ```text
//! worker                                master
//!   │── PNDO v3 NEW "tablet-7" ──────────▶│ issue token 42, SessionTransport
//!   │◀─ PNDO v3 status=0 token=42 recvd=0─│
//!   │── Task/Result frames, acks riding ──│   (both directions)
//!   ✂ link drops                          │ park session, grace timer arms
//!   │   backoff: 50ms, 100ms, ...         │
//!   │── PNDO v3 RESUME 42 recvd=17 ──────▶│ token live → reattach
//!   │◀─ PNDO v3 status=1 token=42 recvd=9─│
//!   │◀─ replay of sent frames 18.. ───────│ (worker replays its 10.. too)
//!   │── ordinary traffic resumes ─────────│
//! ```

use super::{dial, HelloMode, TcpConfig, TcpTransport};
use crate::protocol::{Backoff, Message};
use crate::transport::{Transport, TransportError, TransportErrorKind};
use pando_netsim::channel::{RecvError, SendError, Waker};
use parking_lot::Mutex;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A [`Message::Ack`] goes out on its own once this many received data frames
/// are unannounced, bounding the peer's redelivery buffer to a handful of
/// frames of slack beyond the in-flight window.
const ACK_EVERY: u64 = 8;

/// Knobs of the worker-side reconnect loop, mapped straight onto
/// [`Backoff`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// First retry delay; doubles per attempt.
    pub base: Duration,
    /// Ceiling on the nominal delay.
    pub cap: Duration,
    /// Redial attempts before the transport gives up and reports a
    /// permanent [`RecvError::PeerFailed`].
    pub max_attempts: u32,
    /// Jitter seed, so a fleet knocked offline together does not redial in
    /// lock-step (give each volunteer a distinct seed).
    pub seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        Self {
            base: Duration::from_millis(100),
            cap: Duration::from_secs(5),
            max_attempts: 10,
            seed: 0x5EED,
        }
    }
}

impl ReconnectPolicy {
    /// Fast retries for tests and localhost demos, aligned with
    /// [`TcpConfig::local_test`]'s tightened liveness windows.
    pub fn local_test() -> Self {
        Self {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            max_attempts: 40,
            ..Self::default()
        }
    }
}

/// The durable half of a session, shared by every incarnation of the link.
struct SessionCore {
    token: AtomicU64,
    name: String,
    /// Bound on the unacked-frame buffer, in wire bytes (the session-layer
    /// counterpart of [`TcpConfig::write_buffer_max`]). A data send that
    /// would overflow it fails with [`SendError::WouldBlock`] and the waker
    /// fires once an ack trims the buffer below the bound.
    max_unacked_bytes: usize,
    state: Mutex<SessionState>,
    /// The consumer's registered waker (reactor driver or worker slot),
    /// fired on inbox activity of the active link, on ack-driven unblocking
    /// and on every link transition. One slot, like every transport.
    waker: Mutex<Option<Waker>>,
}

struct SessionState {
    /// Data frames sent on this session (the redelivery sequence).
    sent: u64,
    /// Data frames received on this session; reported in the resume hello
    /// and used by the peer to trim its replay.
    recvd: u64,
    /// `recvd` as of the last cumulative ack the link admitted.
    ack_announced: u64,
    /// Wire bytes of the data frames received since then: what the peer's
    /// redelivery buffer holds, for all this end has told it.
    unannounced_bytes: usize,
    /// Sent data frames the peer has not acknowledged, oldest first: their
    /// position in the `sent` sequence (1-based), the frame, its wire size.
    unacked: std::collections::VecDeque<(u64, Message, usize)>,
    /// Wire bytes across `unacked`; the admission bound.
    unacked_bytes: usize,
    /// A data send bounced on the bound; fire the waker once acks trim it.
    blocked: bool,
}

impl SessionCore {
    fn new(token: u64, name: String, max_unacked_bytes: usize) -> Self {
        Self {
            token: AtomicU64::new(token),
            name,
            max_unacked_bytes,
            state: Mutex::new(SessionState {
                sent: 0,
                recvd: 0,
                ack_announced: 0,
                unannounced_bytes: 0,
                unacked: std::collections::VecDeque::new(),
                unacked_bytes: 0,
                blocked: false,
            }),
            waker: Mutex::new(None),
        }
    }

    fn token(&self) -> u64 {
        self.token.load(Ordering::SeqCst)
    }

    fn recvd(&self) -> u64 {
        self.state.lock().recvd
    }

    fn fire_waker(&self) {
        let waker = self.waker.lock().clone();
        if let Some(waker) = waker {
            waker();
        }
    }

    /// A waker for the active [`TcpTransport`] that forwards into the
    /// session's slot, surviving link swaps (the slot is read at fire time).
    fn forwarder(self: &Arc<Self>) -> Waker {
        let core = self.clone();
        Arc::new(move || core.fire_waker())
    }

    /// Opens a send: a data frame of `size` wire bytes must fit the unacked
    /// bound (the socket queue's admission rule: an oversized frame on an
    /// empty buffer is admitted alone instead of livelocking; a would-block is
    /// recorded so the next trim fires the waker). Answers the cumulative ack
    /// to send along, if any receive progress is unannounced.
    fn begin_send(&self, message: &Message, size: usize) -> Result<Option<u64>, SendError> {
        let mut state = self.state.lock();
        if message.is_data()
            && state.unacked_bytes > 0
            && state.unacked_bytes + size > self.max_unacked_bytes
        {
            state.blocked = true;
            return Err(SendError::WouldBlock);
        }
        Ok((state.recvd > state.ack_announced).then_some(state.recvd))
    }

    /// Books an admitted send: the ack that went with it is announced, a data
    /// frame enters the redelivery buffer — the one clone a send makes.
    fn finish_send(&self, message: &Message, size: usize, ack: Option<u64>) {
        let mut state = self.state.lock();
        if let Some(count) = ack {
            state.ack_announced = count;
            state.unannounced_bytes = 0;
        }
        if message.is_data() {
            state.sent += 1;
            state.unacked_bytes += size;
            let seq = state.sent;
            state.unacked.push_back((seq, message.clone(), size));
        }
    }

    /// Counts an inbound frame; `Some(count)` when a cumulative ack is due
    /// on its own, nothing having flowed back for it to ride on: the
    /// unannounced frames reached [`ACK_EVERY`], or their bytes a quarter of
    /// the redelivery bound, or the peer went quiet enough to send a
    /// heartbeat (its bound may be the smaller) while any are unannounced.
    fn note_received(&self, message: &Message) -> Option<u64> {
        let mut state = self.state.lock();
        if message.is_data() {
            state.recvd += 1;
            state.unannounced_bytes += message.wire_size();
        }
        let unannounced = state.recvd - state.ack_announced;
        let due = unannounced >= ACK_EVERY
            || unannounced > 0
                && (state.unannounced_bytes >= self.max_unacked_bytes / 4
                    || matches!(message, Message::Heartbeat));
        due.then_some(state.recvd)
    }

    /// Applies a cumulative ack from the peer: frames up to `count` leave
    /// the redelivery buffer. Fires the waker if a bounded sender was
    /// waiting for room.
    fn apply_ack(&self, count: u64) {
        let mut state = self.state.lock();
        let unblocked = Self::trim_locked(&mut state, count, self.max_unacked_bytes);
        drop(state);
        if unblocked {
            self.fire_waker();
        }
    }

    fn trim_locked(state: &mut SessionState, count: u64, max: usize) -> bool {
        while let Some(&(seq, _, size)) = state.unacked.front() {
            if seq > count {
                break;
            }
            state.unacked_bytes = state.unacked_bytes.saturating_sub(size);
            state.unacked.pop_front();
        }
        if state.blocked && state.unacked_bytes < max {
            state.blocked = false;
            true
        } else {
            false
        }
    }

    /// Resume bookkeeping: drops everything the peer reports having
    /// received (its count is authoritative) and returns clones of the
    /// remaining frames, oldest first, for replay on the fresh socket. The
    /// frames stay in the buffer — they are still unacked.
    fn replay_after(&self, peer_recvd: u64) -> Vec<Message> {
        let mut state = self.state.lock();
        let unblocked = Self::trim_locked(&mut state, peer_recvd, self.max_unacked_bytes);
        let replay = state.unacked.iter().map(|(_, message, _)| message.clone()).collect();
        drop(state);
        if unblocked {
            self.fire_waker();
        }
        replay
    }

    /// The master issued a fresh token instead of resuming (the old session
    /// expired): restart the counters and drop the stale replay buffer —
    /// its results would be late duplicates of re-lent values anyway.
    fn rebind(&self, token: u64) {
        self.token.store(token, Ordering::SeqCst);
        let mut state = self.state.lock();
        state.sent = 0;
        state.recvd = 0;
        state.ack_announced = 0;
        state.unannounced_bytes = 0;
        state.unacked.clear();
        state.unacked_bytes = 0;
        let unblocked = state.blocked;
        state.blocked = false;
        drop(state);
        if unblocked {
            self.fire_waker();
        }
    }
}

/// Link incarnation state shared by both session wrappers.
enum Link {
    /// A live socket carries the session.
    Up(TcpTransport),
    /// The socket died; the session is parked (master) or redialing
    /// (worker) since the recorded instant.
    Down { since: Instant },
    /// The session ended cleanly (goodbye/close marker, or a local close
    /// while down).
    Closed,
    /// The session failed permanently: grace expired (master) or the
    /// backoff budget ran out (worker).
    Failed,
}

/// Drains the active link: acks are absorbed into the session, data frames
/// are counted (an ack goes out alone when [`SessionCore::note_received`]
/// says so), everything else passes through.
fn pump_recv(core: &SessionCore, active: &TcpTransport) -> Result<Message, RecvError> {
    loop {
        match active.try_recv() {
            Ok(Message::Ack { count }) => {
                core.apply_ack(count);
                continue;
            }
            Ok(message) => {
                if let Some(count) = core.note_received(&message) {
                    // Best effort: a refused ack stays unannounced, and the
                    // next frame in either direction announces it.
                    let ack = Message::Ack { count };
                    if active.send_frame(&ack, None).is_ok() {
                        core.finish_send(&ack, 0, Some(count));
                    }
                }
                return Ok(message);
            }
            Err(err) => return Err(err),
        }
    }
}

/// The send path of both session wrappers. A live link (`Some`) is lent the
/// message, the unannounced ack riding in its head piece, and both are booked
/// once admitted. A parked one (`None`): a data frame is buffered, bounded,
/// for the replay; a control frame is dropped — cheap to lose, pointless to
/// replay.
fn send_on(
    core: &SessionCore,
    active: Option<&TcpTransport>,
    message: &Message,
) -> Result<(), SendError> {
    let size = message.wire_size();
    let mut ack = core.begin_send(message, size)?;
    match active {
        Some(active) => active.send_frame(message, ack)?,
        None => ack = None,
    }
    core.finish_send(message, size, ack);
    Ok(())
}

/// Replays the unacked frames the peer reports missing, in order, on a
/// fresh socket. Never waits: the redelivery buffer and the socket's write
/// queue share one byte bound, so the replay normally queues whole; an
/// `Err` means the socket already died or refused a frame, and the caller
/// abandons this socket with the buffer intact — the next resume replays
/// from whatever the peer received by then.
fn replay(core: &SessionCore, active: &TcpTransport, peer_recvd: u64) -> Result<(), SendError> {
    core.replay_after(peer_recvd).iter().try_for_each(|message| active.send_frame(message, None))
}

/// The master-side session wrapper: a [`Transport`] whose failure verdict
/// distinguishes *disconnected* from *crashed*.
///
/// While the socket is up it behaves like the wrapped [`TcpTransport`],
/// plus ack bookkeeping. When the socket fails (reset, EOF, heartbeat
/// silence) the session *parks*: receives answer [`RecvError::Empty`],
/// data sends are buffered (bounded) for replay, heartbeats are dropped,
/// and [`Transport::next_ready_at`] points at the grace deadline so the
/// reactor's timer re-polls exactly when the verdict is due. A resume
/// within [`TcpConfig::reconnect_grace`] swaps in the new socket and
/// replays unacked frames; past it, the wrapper reports
/// [`RecvError::PeerFailed`] once and the unchanged crash re-lend path
/// takes over.
pub struct SessionTransport {
    core: Arc<SessionCore>,
    link: Mutex<Link>,
    grace: Duration,
    heartbeat_interval: Duration,
}

impl std::fmt::Debug for SessionTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionTransport")
            .field("token", &self.core.token())
            .field("name", &self.core.name)
            .finish()
    }
}

impl SessionTransport {
    /// Wraps a freshly-handshaken socket in a new session.
    pub(crate) fn new(
        token: u64,
        name: String,
        transport: TcpTransport,
        config: TcpConfig,
    ) -> Arc<Self> {
        let core = Arc::new(SessionCore::new(token, name, config.write_buffer_max));
        transport.set_waker(core.forwarder());
        Arc::new(Self {
            core,
            link: Mutex::new(Link::Up(transport)),
            grace: config.reconnect_grace,
            heartbeat_interval: config.heartbeat_interval,
        })
    }

    /// The session token the acceptor issued.
    pub fn token(&self) -> u64 {
        self.core.token()
    }

    /// The volunteer name bound to the session.
    pub fn volunteer_name(&self) -> &str {
        &self.core.name
    }

    /// Data frames received from the volunteer on this session; the count
    /// the resume reply reports so the client can trim its replay.
    pub(crate) fn recvd(&self) -> u64 {
        self.core.recvd()
    }

    /// Whether a resume can still be absorbed (the session neither ended
    /// cleanly nor expired past its grace window).
    pub(crate) fn resumable(&self) -> bool {
        !matches!(&*self.link.lock(), Link::Closed | Link::Failed)
    }

    /// Currently parked, waiting out the grace window?
    #[cfg(test)]
    fn is_parked(&self) -> bool {
        matches!(&*self.link.lock(), Link::Down { .. })
    }

    /// Absorbs a resumed connection: tears down whatever socket the session
    /// last held, trims the redelivery buffer by the client's received
    /// count, replays the remainder in order on the fresh socket and goes
    /// live again — or, when the replay cannot be queued whole, parks again
    /// without waiting (this runs on the acceptor's thread, under the lock
    /// the reactor polls the volunteer through). Called by the acceptor
    /// after it wrote the resume reply (so the replay follows the reply on
    /// the wire).
    pub(crate) fn reattach(&self, transport: TcpTransport, client_recvd: u64) {
        let mut link = self.link.lock();
        match &*link {
            Link::Closed | Link::Failed => {
                // The session ended while the handshake was in flight; the
                // client will observe the dead socket, redial and be issued
                // a fresh session.
                transport.crash();
                return;
            }
            Link::Up(old) => old.crash(),
            Link::Down { .. } => {}
        }
        if replay(&self.core, &transport, client_recvd).is_err() {
            // Park again and wait for the next resume: the client sees this
            // socket die and redials.
            transport.crash();
            *link = Link::Down { since: Instant::now() };
            return;
        }
        transport.set_waker(self.core.forwarder());
        *link = Link::Up(transport);
        drop(link);
        self.core.fire_waker();
    }
}

impl Transport for SessionTransport {
    fn try_recv(&self) -> Result<Message, RecvError> {
        let mut link = self.link.lock();
        loop {
            match &*link {
                Link::Up(active) => match pump_recv(&self.core, active) {
                    Err(RecvError::Closed) => {
                        *link = Link::Closed;
                        return Err(RecvError::Closed);
                    }
                    Err(RecvError::PeerFailed) => {
                        // The disconnect verdict: park instead of failing.
                        *link = Link::Down { since: Instant::now() };
                        continue;
                    }
                    received => return received,
                },
                Link::Down { since } => {
                    if since.elapsed() >= self.grace {
                        // Grace expired without a resume: the crash verdict,
                        // surfaced exactly like a plain transport would.
                        *link = Link::Failed;
                        return Err(RecvError::PeerFailed);
                    }
                    return Err(RecvError::Empty);
                }
                Link::Closed => return Err(RecvError::Closed),
                Link::Failed => return Err(RecvError::PeerFailed),
            }
        }
    }

    fn send(&self, message: Message) -> Result<(), SendError> {
        let mut link = self.link.lock();
        loop {
            match &*link {
                Link::Up(active) => match send_on(&self.core, Some(active), &message) {
                    Err(SendError::PeerFailed) => {
                        // Transient verdict: park and fall through to the
                        // parked arm, which buffers or drops.
                        *link = Link::Down { since: Instant::now() };
                    }
                    sent => return sent,
                },
                Link::Down { since } => {
                    if since.elapsed() >= self.grace {
                        *link = Link::Failed;
                        return Err(SendError::PeerFailed);
                    }
                    return send_on(&self.core, None, &message);
                }
                Link::Closed => return Err(SendError::Closed),
                Link::Failed => return Err(SendError::PeerFailed),
            }
        }
    }

    fn send_records_with_size(
        &self,
        message: Message,
        _size: usize,
        _records: u64,
    ) -> Result<(), SendError> {
        self.send(message)
    }

    fn set_waker(&self, waker: Waker) {
        *self.core.waker.lock() = Some(waker);
    }

    fn clear_waker(&self) {
        *self.core.waker.lock() = None;
    }

    fn next_ready_at(&self) -> Option<Instant> {
        match &*self.link.lock() {
            Link::Up(active) => active.next_ready_at(),
            // The reactor arms a timer for the grace deadline, so the
            // disconnected→crashed reclassification needs no extra thread.
            Link::Down { since } => Some(*since + self.grace),
            Link::Closed | Link::Failed => None,
        }
    }

    fn close(&self) {
        let mut link = self.link.lock();
        match &*link {
            Link::Up(active) => active.close(),
            Link::Down { .. } => *link = Link::Closed,
            Link::Closed | Link::Failed => {}
        }
    }

    fn crash(&self) {
        let mut link = self.link.lock();
        if let Link::Up(active) = &*link {
            active.crash();
        }
        *link = Link::Closed;
    }

    fn heartbeat_interval(&self) -> Duration {
        self.heartbeat_interval
    }
}

/// Shared state behind every clone of a [`ReconnectingTcpTransport`].
struct ReconnectShared {
    core: Arc<SessionCore>,
    link: Mutex<Link>,
    addrs: Vec<SocketAddr>,
    config: TcpConfig,
    policy: ReconnectPolicy,
    /// A redial thread is running; transitions spawn at most one.
    redialing: AtomicBool,
    /// The consumer closed or crashed the transport: stop redialing.
    closed: AtomicBool,
}

/// The worker-side session wrapper: a [`TcpTransport`] that survives link
/// loss by redialing with jittered exponential backoff and resuming its
/// session.
///
/// While the link is down, receives answer [`RecvError::Empty`] (the worker
/// loop's ordinary idle case), results are buffered up to the session bound
/// ([`SendError::WouldBlock`] beyond it — the same parking the loop already
/// handles), and heartbeats are dropped. Once the backoff budget is spent
/// the transport reports a permanent [`RecvError::PeerFailed`], matching a
/// real crash. Clones share the session, like [`TcpTransport`] clones share
/// the socket.
///
/// [`Transport::drop_link`] severs the current socket *without* ending the
/// session — the hook [`FaultPlan::Disconnect`] uses to script a flap.
///
/// [`FaultPlan::Disconnect`]: pando_netsim::fault::FaultPlan::Disconnect
#[derive(Clone)]
pub struct ReconnectingTcpTransport {
    shared: Arc<ReconnectShared>,
}

impl std::fmt::Debug for ReconnectingTcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReconnectingTcpTransport")
            .field("token", &self.shared.core.token())
            .field("name", &self.shared.core.name)
            .finish()
    }
}

impl ReconnectingTcpTransport {
    /// Connects to a master at `addr`, introduces this volunteer as `name`
    /// and opens a resumable session.
    ///
    /// # Errors
    ///
    /// Like [`TcpTransport::connect`]: [`TransportErrorKind::Io`] when the
    /// initial connection cannot be established (the backoff only governs
    /// *re*connects), [`TransportErrorKind::Protocol`] on a bad handshake.
    pub fn connect(
        addr: impl ToSocketAddrs,
        name: &str,
        config: TcpConfig,
        policy: ReconnectPolicy,
    ) -> Result<Self, TransportError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(TransportError::new(
                TransportErrorKind::Io,
                "address resolved to no socket addresses",
            ));
        }
        let outcome = dial(&addrs[..], name, HelloMode::New)?;
        let transport = TcpTransport::from_stream(outcome.stream, name.to_string(), config.clone());
        let core =
            Arc::new(SessionCore::new(outcome.token, name.to_string(), config.write_buffer_max));
        transport.set_waker(core.forwarder());
        Ok(Self {
            shared: Arc::new(ReconnectShared {
                core,
                link: Mutex::new(Link::Up(transport)),
                addrs,
                config,
                policy,
                redialing: AtomicBool::new(false),
                closed: AtomicBool::new(false),
            }),
        })
    }

    /// The session token issued by the master (changes if an expired
    /// session was downgraded to a fresh join).
    pub fn token(&self) -> u64 {
        self.shared.core.token()
    }

    /// Whether the link is currently down with the redial loop working on
    /// it.
    pub fn is_reconnecting(&self) -> bool {
        matches!(&*self.shared.link.lock(), Link::Down { .. })
    }

    /// Parks the link and makes sure a redial thread is running. Must be
    /// called with the link lock held having just set `Link::Down`.
    fn ensure_redial(shared: &Arc<ReconnectShared>) {
        if shared.closed.load(Ordering::SeqCst) {
            return;
        }
        if shared.redialing.swap(true, Ordering::SeqCst) {
            return;
        }
        let runner = shared.clone();
        crate::thread::spawn(format!("pando-redial-{}", shared.core.name), move || {
            run_redial(runner)
        });
    }
}

/// Body of the worker-side redial thread: sleeps out the backoff schedule,
/// re-dials with `RESUME <token> <recvd>`, replays whatever the master
/// reports missing and swaps the fresh socket in. Exits on success, on a
/// closed transport, or with `Link::Failed` once the attempt budget is
/// spent.
fn run_redial(shared: Arc<ReconnectShared>) {
    let mut backoff = Backoff::new(
        shared.policy.base,
        shared.policy.cap,
        shared.policy.max_attempts,
        shared.policy.seed,
    );
    loop {
        if shared.closed.load(Ordering::SeqCst) {
            break;
        }
        let Some(delay) = backoff.next_delay() else {
            let mut link = shared.link.lock();
            if matches!(&*link, Link::Down { .. }) {
                *link = Link::Failed;
            }
            drop(link);
            shared.core.fire_waker();
            break;
        };
        thread::sleep(delay);
        if shared.closed.load(Ordering::SeqCst) {
            break;
        }
        let mode = HelloMode::Resume { token: shared.core.token(), recvd: shared.core.recvd() };
        let Ok(outcome) = dial(&shared.addrs[..], &shared.core.name, mode) else {
            continue;
        };
        let transport = TcpTransport::from_stream(
            outcome.stream,
            shared.core.name.clone(),
            shared.config.clone(),
        );
        let mut link = shared.link.lock();
        if shared.closed.load(Ordering::SeqCst) || !matches!(&*link, Link::Down { .. }) {
            transport.crash();
            break;
        }
        if outcome.resumed {
            if replay(&shared.core, &transport, outcome.peer_recvd).is_err() {
                // Burn the attempt and keep dialing.
                transport.crash();
                continue;
            }
        } else {
            // The master no longer knows the session (grace expired, or it
            // restarted): start over under the fresh token. Stale results
            // would be dropped master-side as late duplicates anyway.
            shared.core.rebind(outcome.token);
        }
        transport.set_waker(shared.core.forwarder());
        *link = Link::Up(transport);
        drop(link);
        shared.core.fire_waker();
        break;
    }
    shared.redialing.store(false, Ordering::SeqCst);
    // Self-heal: a failure observed while this thread was winding down must
    // not leave the link stranded without a redialer.
    if !shared.closed.load(Ordering::SeqCst) && matches!(&*shared.link.lock(), Link::Down { .. }) {
        ReconnectingTcpTransport::ensure_redial(&shared);
    }
}

impl Transport for ReconnectingTcpTransport {
    fn try_recv(&self) -> Result<Message, RecvError> {
        let shared = &self.shared;
        let mut link = shared.link.lock();
        loop {
            match &*link {
                Link::Up(active) => match pump_recv(&shared.core, active) {
                    Err(RecvError::Closed) => {
                        *link = Link::Closed;
                        return Err(RecvError::Closed);
                    }
                    Err(RecvError::PeerFailed) => {
                        *link = Link::Down { since: Instant::now() };
                        ReconnectingTcpTransport::ensure_redial(shared);
                        continue;
                    }
                    received => return received,
                },
                // Down reads as idle: the redial thread owns recovery, and
                // the worker pool's heartbeat/would-block parking already
                // copes with an idle stretch.
                Link::Down { .. } => return Err(RecvError::Empty),
                Link::Closed => return Err(RecvError::Closed),
                Link::Failed => return Err(RecvError::PeerFailed),
            }
        }
    }

    fn send(&self, message: Message) -> Result<(), SendError> {
        let shared = &self.shared;
        let mut link = shared.link.lock();
        loop {
            match &*link {
                Link::Up(active) => match send_on(&shared.core, Some(active), &message) {
                    Err(SendError::PeerFailed) => {
                        *link = Link::Down { since: Instant::now() };
                        ReconnectingTcpTransport::ensure_redial(shared);
                    }
                    sent => return sent,
                },
                Link::Down { .. } => return send_on(&shared.core, None, &message),
                Link::Closed => return Err(SendError::Closed),
                Link::Failed => return Err(SendError::PeerFailed),
            }
        }
    }

    fn send_records_with_size(
        &self,
        message: Message,
        _size: usize,
        _records: u64,
    ) -> Result<(), SendError> {
        self.send(message)
    }

    fn set_waker(&self, waker: Waker) {
        *self.shared.core.waker.lock() = Some(waker);
    }

    fn clear_waker(&self) {
        *self.shared.core.waker.lock() = None;
    }

    fn next_ready_at(&self) -> Option<Instant> {
        match &*self.shared.link.lock() {
            Link::Up(active) => active.next_ready_at(),
            // Re-poll within a heartbeat; the redial thread fires the waker
            // the moment the session is live again.
            Link::Down { .. } => Some(Instant::now() + self.shared.config.heartbeat_interval),
            Link::Closed | Link::Failed => None,
        }
    }

    fn close(&self) {
        self.shared.closed.store(true, Ordering::SeqCst);
        let mut link = self.shared.link.lock();
        match &*link {
            Link::Up(active) => active.close(),
            Link::Down { .. } => *link = Link::Closed,
            Link::Closed | Link::Failed => {}
        }
    }

    fn crash(&self) {
        self.shared.closed.store(true, Ordering::SeqCst);
        let mut link = self.shared.link.lock();
        if let Link::Up(active) = &*link {
            active.crash();
        }
        *link = Link::Closed;
    }

    fn heartbeat_interval(&self) -> Duration {
        self.shared.config.heartbeat_interval
    }

    /// Severs the current socket abruptly *without* ending the session: the
    /// master sees a socket event and parks the session; this side redials
    /// with backoff and resumes. This is the scripted-flap hook — a crash
    /// would be [`Transport::crash`].
    fn drop_link(&self) {
        let shared = &self.shared;
        let mut link = shared.link.lock();
        if let Link::Up(active) = &*link {
            active.crash();
            *link = Link::Down { since: Instant::now() };
            ReconnectingTcpTransport::ensure_redial(shared);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use pando_netsim::codec::Record;
    use std::io::Read;
    use std::net::{TcpListener, TcpStream};

    /// A connected loopback pair: the raw client end and a transport over
    /// the accepted end.
    fn link(listener: &TcpListener, config: &TcpConfig) -> (TcpStream, TcpTransport) {
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, TcpTransport::from_stream(server, "vol".into(), config.clone()))
    }

    fn task(seq: u64, len: usize) -> Message {
        Message::TaskBatch(vec![Record::new(seq, Bytes::from(vec![seq as u8; len]))])
    }

    fn announced(core: &SessionCore) -> u64 {
        core.state.lock().ack_announced
    }

    /// The next message of the session, waiting for the poller to deliver it.
    fn recv_within(core: &SessionCore, active: &TcpTransport) -> Message {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match pump_recv(core, active) {
                Ok(message) => return message,
                Err(RecvError::Empty) => {
                    assert!(Instant::now() < deadline, "nothing arrived within 10 s");
                    thread::sleep(Duration::from_micros(50));
                }
                Err(err) => panic!("link lost: {err}"),
            }
        }
    }

    #[test]
    fn an_ack_goes_out_alone_on_three_triggers_only() {
        let bound = 1024 * 1024;
        let core = SessionCore::new(1, "vol".into(), bound);
        let announce = |count| core.finish_send(&Message::Ack { count }, 0, Some(count));

        // Frames: the eighth unannounced one, and not before.
        for seq in 1..ACK_EVERY {
            assert_eq!(core.note_received(&task(seq, 8)), None, "frame {seq}");
        }
        assert_eq!(core.note_received(&task(8, 8)), Some(8));
        assert_eq!(announced(&core), 0, "due is not announced: the link may refuse the ack");
        assert_eq!(core.note_received(&task(9, 8)), Some(9), "still due until it is admitted");
        announce(9);
        assert_eq!(announced(&core), 9);

        // Bytes: a quarter of the redelivery bound, however few the frames.
        assert_eq!(core.note_received(&task(10, bound / 8)), None);
        assert_eq!(core.note_received(&task(11, bound / 8)), Some(11));
        announce(11);

        // A heartbeat: the peer has gone quiet, so nothing will carry the
        // ack — but only if there is something to announce.
        assert_eq!(core.note_received(&Message::Heartbeat), None);
        assert_eq!(core.note_received(&task(12, 8)), None);
        assert_eq!(core.note_received(&Message::Heartbeat), Some(12));
        announce(12);
        assert_eq!(core.note_received(&Message::Heartbeat), None);
    }

    #[test]
    fn a_riding_ack_is_announced_only_once_its_frame_was_admitted() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let config = TcpConfig::default();
        let core = SessionCore::new(1, "vol".into(), config.write_buffer_max);
        for seq in 1..=3 {
            assert_eq!(core.note_received(&task(seq, 8)), None);
        }

        // A link whose peer never reads, its write queue over half full: the
        // frame is refused, and the ack it would have carried stays due.
        let tight = TcpConfig { write_buffer_max: 64 * 1024, ..config.clone() };
        let (_deaf_client, clogged) = link(&listener, &tight);
        while clogged.send(task(0, 32 * 1024)) != Err(SendError::WouldBlock) {}
        let frame = task(1, REPLAYED);
        assert_eq!(send_on(&core, Some(&clogged), &frame), Err(SendError::WouldBlock));
        assert_eq!(announced(&core), 0);
        assert!(core.state.lock().unacked.is_empty(), "a refused frame is not owed a replay");

        // A parked link buffers the frame for the replay; no ack rides there.
        assert_eq!(send_on(&core, None, &frame), Ok(()));
        assert_eq!((announced(&core), core.state.lock().unacked.len()), (0, 1));

        // A healthy link: the ack frame, then the data frame, in one head —
        // and on one admission both are booked.
        let (mut client, healthy) = link(&listener, &config);
        assert_eq!(send_on(&core, Some(&healthy), &frame), Ok(()));
        assert_eq!(announced(&core), 3);
        assert_eq!(healthy.stats().frames_written, 1, "one frame to the link, ack included");
        let mut expected = Message::Ack { count: 3 }.encode().unwrap().to_vec();
        expected.extend_from_slice(&frame.encode().unwrap());
        let mut wire = vec![0u8; expected.len()];
        client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        client.read_exact(&mut wire).unwrap();
        assert!(wire == expected, "Ack{{3}} then the task, byte for byte");
        let state = core.state.lock();
        assert!(state.unacked_bytes == 2 * frame.wire_size() && state.unacked_bytes <= 1 << 20);
    }

    #[test]
    fn a_request_response_exchange_sends_no_ack_of_its_own() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let config = TcpConfig { failure_timeout: Duration::from_secs(30), ..TcpConfig::default() };
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let master = TcpTransport::from_stream(server, "vol".into(), config.clone());
        let worker = TcpTransport::from_stream(client, "vol".into(), config.clone());
        let bound = config.write_buffer_max;
        let (master_core, worker_core) =
            (SessionCore::new(1, "vol".into(), bound), SessionCore::new(1, "vol".into(), bound));

        let exchanges = 1_000;
        for seq in 0..exchanges {
            send_on(&master_core, Some(&master), &task(seq, 8)).unwrap();
            assert_eq!(recv_within(&worker_core, &worker), task(seq, 8));
            let result = Message::ResultBatch(vec![Record::new(seq, Bytes::from(vec![7u8; 8]))]);
            send_on(&worker_core, Some(&worker), &result).unwrap();
            assert_eq!(recv_within(&master_core, &master), result);
            // Every frame acknowledged the one before it: a steady exchange
            // keeps one frame, its latest, in each redelivery buffer.
            for core in [&master_core, &worker_core] {
                let state = core.state.lock();
                assert!(state.unacked.len() <= 1 && state.unacked_bytes <= bound);
            }
        }
        for (end, link) in [("master", &master), ("worker", &worker)] {
            assert_eq!(
                link.stats().frames_written,
                exchanges,
                "the {end} wrote a frame that was not a task or a result: an ack on its own"
            );
        }
    }

    /// Payload of the frames under replay: three quarters of the tight
    /// write bound the clogged socket gets.
    const REPLAYED: usize = 48 * 1024;

    #[test]
    fn a_replay_that_would_block_parks_the_session_again_with_its_buffer_intact() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let config = TcpConfig::default();
        let (_first_client, first) = link(&listener, &config);
        let session = SessionTransport::new(7, "vol".into(), first, config.clone());
        for seq in 1..=3 {
            session.send(task(seq, REPLAYED)).unwrap();
        }

        // A replacement socket whose peer never reads and whose write queue
        // is more than half full: the replay's first frame is refused.
        let tight = TcpConfig { write_buffer_max: 64 * 1024, ..config.clone() };
        let (_deaf_client, clogged) = link(&listener, &tight);
        while clogged.send(task(0, 32 * 1024)) != Err(SendError::WouldBlock) {}
        session.reattach(clogged, 0);
        assert!(session.is_parked(), "no waiting for room: the session parks again");
        assert_eq!(session.core.state.lock().unacked.len(), 3, "nothing unacked was lost");

        // The next resume finishes the job: all three frames, in order.
        let (mut client, fresh) = link(&listener, &config);
        session.reattach(fresh, 1);
        assert!(!session.is_parked());
        let mut expected = task(2, REPLAYED).encode().unwrap().to_vec();
        expected.extend_from_slice(&task(3, REPLAYED).encode().unwrap());
        let mut replayed = vec![0u8; expected.len()];
        client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        client.read_exact(&mut replayed).unwrap();
        assert_eq!(replayed, expected, "frame 1 was reported received, 2 and 3 are replayed");
    }
}
