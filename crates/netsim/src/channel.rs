//! Duplex message channels with configurable latency, jitter and failure
//! semantics.
//!
//! A channel pair models one connection between the Pando master and one
//! volunteer device. It provides exactly the transport properties the paper
//! relies on: reliable in-order delivery, a one-way latency that is usually
//! bounded (partial synchrony), a clean close (the volunteer leaves) and a
//! crash (the browser tab is closed or connectivity is lost) that the peer
//! only detects after the heartbeat timeout.
//!
//! Endpoints are readiness-driven, like the browser channels they model:
//! [`Endpoint::try_recv`] never blocks, [`Endpoint::set_waker`] registers a
//! callback fired whenever the endpoint *may* have become pollable — a frame
//! arrived, the peer closed, crashed or was dropped — and
//! [`Endpoint::next_ready_at`] exposes the earliest instant at which a
//! buffered-but-undelivered frame (or a pending crash suspicion) matures, so
//! an epoll-style reactor can multiplex thousands of endpoints over a fixed
//! thread pool.

use crate::heartbeat::FailureDetector;
use crate::sim::Clock;
use crossbeam::channel;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The browser communication technology being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// A WebSocket connection relayed through a server reachable by both ends.
    WebSocket,
    /// A WebRTC data channel established directly between two browsers after
    /// a signalling handshake.
    WebRtc,
}

impl fmt::Display for ChannelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelKind::WebSocket => f.write_str("websocket"),
            ChannelKind::WebRtc => f.write_str("webrtc"),
        }
    }
}

/// Configuration of a simulated channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelConfig {
    /// Which technology the channel models (affects the signalling path, not
    /// the data path).
    pub kind: ChannelKind,
    /// One-way propagation latency.
    pub latency: Duration,
    /// Maximum additional random delay added per message.
    pub jitter: Duration,
    /// Available bandwidth; `None` means transmission time is negligible.
    pub bandwidth_bytes_per_sec: Option<u64>,
    /// Interval between heartbeats (used by the failure detector).
    pub heartbeat_interval: Duration,
    /// Time without any heartbeat after which the peer is suspected to have
    /// crashed.
    pub failure_timeout: Duration,
    /// Seed for the per-channel jitter generator.
    pub seed: u64,
    /// Byte bound on data frames sent but not yet consumed by the peer — the
    /// simulated twin of a real transport's bounded write queue. A sized send
    /// that would push the in-flight byte count past the bound is rejected
    /// with [`SendError::WouldBlock`]; the sender's waker fires once the peer
    /// drains back below the bound. `None` (the default, and what every
    /// profile constructor uses) keeps the channel unbounded, so existing
    /// deterministic traces are byte-identical. Zero-size sends (heartbeats,
    /// control frames) are always admitted.
    pub send_buffer_max: Option<usize>,
    /// Probability in `[0, 1)` that one transmission of a frame is lost on
    /// the wire. The channel models the transport *above* raw datagrams —
    /// TCP plus the session layer's ack/redelivery buffer — where a lost
    /// frame is never dropped for good: it is retransmitted until it lands,
    /// so loss surfaces as added delivery delay ([`ChannelConfig::retransmit`]
    /// per lost transmission), never as a missing or duplicated frame.
    /// Retransmissions are counted per link
    /// ([`Endpoint::link_retransmits`]). `0.0` (every profile
    /// constructor's default) draws nothing from the jitter RNG, keeping
    /// pre-existing deterministic traces byte-identical.
    pub loss: f64,
    /// Recovery delay added to a frame's delivery for **each** lost
    /// transmission — the retransmit timeout of the modelled reliable
    /// transport. Only consulted when [`ChannelConfig::loss`] is non-zero.
    pub retransmit: Duration,
}

impl ChannelConfig {
    /// A loop-back configuration with no latency, useful in unit tests.
    pub fn instant() -> Self {
        Self {
            kind: ChannelKind::WebSocket,
            latency: Duration::ZERO,
            jitter: Duration::ZERO,
            bandwidth_bytes_per_sec: None,
            heartbeat_interval: Duration::from_millis(5),
            failure_timeout: Duration::from_millis(25),
            seed: 0,
            send_buffer_max: None,
            loss: 0.0,
            retransmit: Duration::from_millis(25),
        }
    }

    /// A local-area-network Wi-Fi profile (paper §5.2).
    pub fn lan() -> Self {
        Self {
            kind: ChannelKind::WebSocket,
            latency: Duration::from_millis(2),
            jitter: Duration::from_millis(1),
            bandwidth_bytes_per_sec: Some(12_500_000), // ~100 Mbit/s Wi-Fi
            heartbeat_interval: Duration::from_millis(100),
            failure_timeout: Duration::from_millis(500),
            seed: 0,
            send_buffer_max: None,
            loss: 0.0,
            retransmit: Duration::from_millis(25),
        }
    }

    /// A VPN profile between cities of the same country (paper §5.3).
    pub fn vpn() -> Self {
        Self {
            kind: ChannelKind::WebSocket,
            latency: Duration::from_millis(15),
            jitter: Duration::from_millis(4),
            bandwidth_bytes_per_sec: Some(125_000_000), // 1 Gbit/s
            heartbeat_interval: Duration::from_millis(200),
            failure_timeout: Duration::from_secs(1),
            seed: 0,
            send_buffer_max: None,
            loss: 0.0,
            retransmit: Duration::from_millis(60),
        }
    }

    /// A wide-area-network profile across Europe (paper §5.4).
    pub fn wan() -> Self {
        Self {
            kind: ChannelKind::WebRtc,
            latency: Duration::from_millis(45),
            jitter: Duration::from_millis(10),
            bandwidth_bytes_per_sec: Some(12_500_000), // 100 Mbit/s
            heartbeat_interval: Duration::from_millis(500),
            failure_timeout: Duration::from_secs(2),
            seed: 0,
            send_buffer_max: None,
            loss: 0.0,
            retransmit: Duration::from_millis(200),
        }
    }

    /// Returns the same configuration with a different jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the same configuration with a per-transmission loss
    /// probability (see [`ChannelConfig::loss`]).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= loss < 1.0` — at 1.0 every retransmission is
    /// lost too and the frame would never be delivered.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss probability {loss} outside [0, 1)");
        self.loss = loss;
        self
    }

    /// Transmission delay of a message of `size` bytes at the configured
    /// bandwidth.
    fn transmission_delay(&self, size: usize) -> Duration {
        match self.bandwidth_bytes_per_sec {
            Some(bw) if bw > 0 => Duration::from_secs_f64(size as f64 / bw as f64),
            _ => Duration::ZERO,
        }
    }
}

impl Default for ChannelConfig {
    fn default() -> Self {
        Self::lan()
    }
}

/// Error returned by [`Endpoint::send`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// The channel was closed cleanly by either side.
    Closed,
    /// The peer crashed (detected through the failure detector).
    PeerFailed,
    /// The bounded send buffer ([`ChannelConfig::send_buffer_max`], or a real
    /// transport's write queue) has no room for this frame. Nothing was sent;
    /// the channel is still usable. The registered waker fires once the
    /// buffer drains below the bound, so callers park instead of spinning.
    WouldBlock,
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::Closed => f.write_str("channel closed"),
            SendError::PeerFailed => f.write_str("peer failed"),
            SendError::WouldBlock => f.write_str("send buffer full"),
        }
    }
}

impl std::error::Error for SendError {}

/// Error returned by the receiving operations of an [`Endpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvError {
    /// The channel was closed cleanly: no more messages will ever arrive.
    Closed,
    /// The peer crashed; detected after the heartbeat failure timeout.
    PeerFailed,
    /// No message is currently available (the channel is still usable).
    Empty,
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Closed => f.write_str("channel closed"),
            RecvError::PeerFailed => f.write_str("peer failed"),
            RecvError::Empty => f.write_str("no message available"),
        }
    }
}

impl std::error::Error for RecvError {}

enum Frame<T> {
    Data { payload: T, deliver_at: Instant, size: usize },
    Close { deliver_at: Instant },
}

struct Direction<T> {
    tx: channel::Sender<Frame<T>>,
    rx: channel::Receiver<Frame<T>>,
}

/// Readiness callback registered with [`Endpoint::set_waker`]: invoked (from
/// the peer's thread) whenever the endpoint may have become pollable.
pub type Waker = Arc<dyn Fn() + Send + Sync>;

struct SideState {
    /// Set when this side crashed (abruptly stopped).
    crashed_at: Option<Instant>,
    /// Set when this side closed its sending direction cleanly.
    closed: bool,
    /// Set when this side has observed the peer's close notification.
    peer_done: bool,
    /// Set when this side's endpoint was dropped entirely; the peer treats it
    /// like a crash unless a clean close preceded it.
    dropped: bool,
    /// Readiness callback of this side, fired by the *peer* on frame arrival,
    /// close, crash and drop.
    waker: Option<Waker>,
    /// Next time at which a message may be delivered (keeps FIFO order even
    /// with jitter).
    next_delivery: Instant,
    /// Bytes of data frames sent by this side but not yet consumed by the
    /// peer; compared against [`ChannelConfig::send_buffer_max`].
    bytes_in_flight: usize,
    /// A sized send was rejected with [`SendError::WouldBlock`]; the next
    /// drain below the bound fires this side's waker exactly once.
    send_blocked: bool,
    /// Transmissions of this side's frames lost on the wire and re-sent by
    /// the modelled reliable transport ([`ChannelConfig::loss`]).
    frames_retransmitted: u64,
}

struct Shared {
    a: Mutex<SideState>,
    b: Mutex<SideState>,
}

/// One endpoint of a simulated duplex channel. Create pairs with [`pair`].
pub struct Endpoint<T> {
    /// `true` for the endpoint returned first by [`pair`].
    is_a: bool,
    config: ChannelConfig,
    /// The clock delivery times and failure suspicions are measured on: the
    /// wall clock for real runs, a virtual clock under the deterministic
    /// simulator (see [`pair_with_clock`]).
    clock: Clock,
    outgoing: channel::Sender<Frame<T>>,
    incoming: channel::Receiver<Frame<T>>,
    shared: Arc<Shared>,
    rng: Mutex<StdRng>,
    detector: FailureDetector,
    /// Buffered frame whose delivery time has not yet been reached.
    pending: Mutex<Option<Frame<T>>>,
}

impl<T> fmt::Debug for Endpoint<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint")
            .field("kind", &self.config.kind)
            .field("is_a", &self.is_a)
            .finish_non_exhaustive()
    }
}

/// Creates a connected pair of endpoints with the given configuration.
///
/// # Examples
///
/// ```
/// use pando_netsim::channel::{pair, ChannelConfig};
///
/// let (master, worker) = pair::<String>(ChannelConfig::instant());
/// master.send("task".to_string()).unwrap();
/// // No latency: the frame is deliverable the moment `send` returns.
/// assert_eq!(worker.try_recv().unwrap(), "task");
/// ```
pub fn pair<T: Send + 'static>(config: ChannelConfig) -> (Endpoint<T>, Endpoint<T>) {
    pair_with_clock(config, Clock::wall())
}

/// Creates a connected pair of endpoints reading time from `clock`.
///
/// With [`Clock::wall`] this is exactly [`pair`]. With a virtual clock the
/// channel becomes deterministic: delivery instants, jitter and
/// crash-suspicion maturities are measured on the virtual time line, and a
/// frame whose simulated latency has not elapsed yet reports
/// [`RecvError::Empty`] through [`Endpoint::try_recv`] until the scheduler
/// advances the clock past [`Endpoint::next_ready_at`].
pub fn pair_with_clock<T: Send + 'static>(
    config: ChannelConfig,
    clock: Clock,
) -> (Endpoint<T>, Endpoint<T>) {
    let a_to_b = channel::unbounded();
    let b_to_a = channel::unbounded();
    let now = clock.now();
    let side = || {
        Mutex::new(SideState {
            crashed_at: None,
            closed: false,
            peer_done: false,
            dropped: false,
            waker: None,
            next_delivery: now,
            bytes_in_flight: 0,
            send_blocked: false,
            frames_retransmitted: 0,
        })
    };
    let shared = Arc::new(Shared { a: side(), b: side() });
    let dir_ab = Direction { tx: a_to_b.0, rx: a_to_b.1 };
    let dir_ba = Direction { tx: b_to_a.0, rx: b_to_a.1 };
    let a = Endpoint {
        is_a: true,
        config: config.clone(),
        clock: clock.clone(),
        outgoing: dir_ab.tx,
        incoming: dir_ba.rx,
        shared: shared.clone(),
        rng: Mutex::new(StdRng::seed_from_u64(config.seed)),
        detector: FailureDetector::new(config.heartbeat_interval, config.failure_timeout),
        pending: Mutex::new(None),
    };
    let b = Endpoint {
        is_a: false,
        config: config.clone(),
        clock,
        outgoing: dir_ba.tx,
        incoming: dir_ab.rx,
        shared,
        rng: Mutex::new(StdRng::seed_from_u64(config.seed.wrapping_add(1))),
        detector: FailureDetector::new(config.heartbeat_interval, config.failure_timeout),
        pending: Mutex::new(None),
    };
    (a, b)
}

impl<T: Send + 'static> Endpoint<T> {
    fn my_state(&self) -> &Mutex<SideState> {
        if self.is_a {
            &self.shared.a
        } else {
            &self.shared.b
        }
    }

    fn peer_state(&self) -> &Mutex<SideState> {
        if self.is_a {
            &self.shared.b
        } else {
            &self.shared.a
        }
    }

    /// The configuration this channel was created with.
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// Registers a readiness callback for this endpoint, replacing any
    /// previous one. The peer invokes it after enqueueing a frame, on clean
    /// close, on crash and when its endpoint is dropped — every event after
    /// which a non-blocking poll ([`Endpoint::try_recv`]) may observe
    /// something new.
    ///
    /// The callback must be cheap and must not call back into the endpoint:
    /// it typically flips a "ready" flag and pushes the endpoint onto a
    /// reactor queue. Delivery delays are *not* signalled through the waker
    /// (the frame was already announced when it was sent); pollers combine
    /// the waker with [`Endpoint::next_ready_at`] to re-poll frames whose
    /// simulated latency has not elapsed yet.
    pub fn set_waker(&self, waker: Waker) {
        self.my_state().lock().waker = Some(waker);
    }

    /// Removes the readiness callback, if any.
    pub fn clear_waker(&self) {
        self.my_state().lock().waker = None;
    }

    /// Fires the peer's readiness callback, if registered.
    fn wake_peer(&self) {
        let waker = self.peer_state().lock().waker.clone();
        if let Some(waker) = waker {
            waker();
        }
    }

    /// The earliest instant at which this endpoint may become pollable again
    /// without a new wake event: the delivery time of a buffered frame whose
    /// simulated latency has not elapsed, or the moment a pending crash
    /// suspicion matures. `None` means "nothing buffered" — the next
    /// readiness change will fire the waker.
    ///
    /// Note that a frame still in the wire queue is only buffered (and thus
    /// visible here) after a [`Endpoint::try_recv`] attempted to deliver it,
    /// so reactors should call `try_recv` first and consult this on `Empty`.
    pub fn next_ready_at(&self) -> Option<Instant> {
        let pending = self.pending.lock().as_ref().map(|frame| match frame {
            Frame::Data { deliver_at, .. } | Frame::Close { deliver_at } => *deliver_at,
        });
        let suspicion = self
            .peer_state()
            .lock()
            .crashed_at
            .map(|crashed_at| crashed_at + self.config.failure_timeout);
        match (pending, suspicion) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        }
    }

    /// Sends a message, modelling it as having a negligible size.
    ///
    /// # Errors
    ///
    /// Returns [`SendError::Closed`] if either side already closed the channel
    /// and [`SendError::PeerFailed`] if the peer is known to have crashed.
    pub fn send(&self, payload: T) -> Result<(), SendError> {
        self.send_with_size(payload, 0)
    }

    /// Sends a message of `size` bytes: the delivery time accounts for the
    /// propagation latency, the random jitter and the transmission time at
    /// the configured bandwidth.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Endpoint::send`].
    fn send_with_size(&self, payload: T, size: usize) -> Result<(), SendError> {
        self.send_records_with_size(payload, size, 1)
    }

    /// Sends one message of `size` bytes — a batched frame of task or result
    /// records. The whole batch pays the propagation latency and jitter
    /// **once**, and the transmission time of its total size. The record
    /// count keeps the signature of `pando-core`'s
    /// `Transport::send_records_with_size`; a simulated link ignores it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Endpoint::send`].
    pub fn send_records_with_size(
        &self,
        payload: T,
        size: usize,
        _records: u64,
    ) -> Result<(), SendError> {
        {
            let peer = self.peer_state().lock();
            if let Some(crashed_at) = peer.crashed_at {
                if self.clock.now().saturating_duration_since(crashed_at)
                    >= self.config.failure_timeout
                {
                    return Err(SendError::PeerFailed);
                }
            }
        }
        let mut mine = self.my_state().lock();
        if mine.closed {
            return Err(SendError::Closed);
        }
        if mine.crashed_at.is_some() {
            return Err(SendError::PeerFailed);
        }
        // Bounded-send admission, mirroring a real transport's byte-bounded
        // write queue. Zero-size frames (heartbeats) always pass, and a
        // frame larger than the whole bound is admitted alone rather than
        // deadlocking the sender.
        if let Some(max) = self.config.send_buffer_max {
            if size > 0 && mine.bytes_in_flight > 0 && mine.bytes_in_flight + size > max {
                mine.send_blocked = true;
                return Err(SendError::WouldBlock);
            }
        }
        let jitter = if self.config.jitter.is_zero() {
            Duration::ZERO
        } else {
            let nanos = self.config.jitter.as_nanos() as u64;
            Duration::from_nanos(self.rng.lock().gen_range(0..=nanos))
        };
        let mut delay = self.config.latency + jitter + self.config.transmission_delay(size);
        // Per-transmission loss: the modelled reliable transport re-sends a
        // lost frame after `retransmit`, so each lost transmission converts
        // to delay. The geometric draw is capped at 16 losses per frame to
        // bound both the loop and the worst-case delivery delay.
        // loss == 0.0 must not touch the RNG: the jitter sequence, and with
        // it every pre-existing golden trace, stays byte-identical.
        if self.config.loss > 0.0 {
            let mut lost = 0u32;
            {
                let mut rng = self.rng.lock();
                while lost < 16 && rng.gen_bool(self.config.loss) {
                    lost += 1;
                }
            }
            if lost > 0 {
                delay += self.config.retransmit * lost;
                mine.frames_retransmitted += u64::from(lost);
            }
        }
        let deliver_at = (self.clock.now() + delay).max(mine.next_delivery);
        mine.next_delivery = deliver_at;
        mine.bytes_in_flight += size;
        drop(mine);
        self.outgoing
            .send(Frame::Data { payload, deliver_at, size })
            .map_err(|_| SendError::Closed)?;
        self.wake_peer();
        Ok(())
    }

    /// Books `size` consumed bytes against the *peer's* in-flight counter
    /// (the peer sent them, this side just delivered them) and fires the
    /// peer's waker if a bounded send was parked on the drain.
    fn drain_in_flight(&self, size: usize) {
        if size == 0 || self.config.send_buffer_max.is_none() {
            return;
        }
        let max = self.config.send_buffer_max.unwrap_or(usize::MAX);
        let waker = {
            let mut peer = self.peer_state().lock();
            peer.bytes_in_flight = peer.bytes_in_flight.saturating_sub(size);
            if peer.send_blocked && peer.bytes_in_flight < max {
                peer.send_blocked = false;
                peer.waker.clone()
            } else {
                None
            }
        };
        if let Some(waker) = waker {
            waker();
        }
    }

    /// Returns the next message if one is deliverable now, without blocking.
    /// A frame whose latency has not elapsed stays buffered, and
    /// [`Endpoint::next_ready_at`] reports when it matures.
    ///
    /// # Errors
    ///
    /// [`RecvError::Empty`] if no message is deliverable yet,
    /// [`RecvError::Closed`] after a clean close (once the frames sent before
    /// it were delivered) and [`RecvError::PeerFailed`] once the failure
    /// detector suspects the peer.
    pub fn try_recv(&self) -> Result<T, RecvError> {
        // A frame already pulled off the wire but not yet deliverable.
        let buffered = self.pending.lock().take();
        let frame = match buffered {
            Some(frame) => Some(frame),
            None => match self.incoming.try_recv() {
                Ok(frame) => Some(frame),
                Err(channel::TryRecvError::Empty) => None,
                Err(channel::TryRecvError::Disconnected) => {
                    // The peer endpoint was dropped entirely. A clean close
                    // was observed as a Close frame; anything else is
                    // indistinguishable from a crash.
                    let peer = self.peer_state().lock();
                    return if peer.closed {
                        Err(RecvError::Closed)
                    } else {
                        Err(RecvError::PeerFailed)
                    };
                }
            },
        };
        let now = self.clock.now();
        match frame {
            Some(Frame::Data { payload, deliver_at, size }) => {
                if deliver_at > now {
                    *self.pending.lock() = Some(Frame::Data { payload, deliver_at, size });
                    return Err(RecvError::Empty);
                }
                self.drain_in_flight(size);
                Ok(payload)
            }
            Some(Frame::Close { deliver_at }) => {
                if deliver_at > now {
                    *self.pending.lock() = Some(Frame::Close { deliver_at });
                    return Err(RecvError::Empty);
                }
                // Keep answering Closed on subsequent calls.
                self.my_state().lock().peer_done = true;
                Err(RecvError::Closed)
            }
            None => {
                if self.my_state().lock().peer_done {
                    return Err(RecvError::Closed);
                }
                // Crash detection: the peer stops sending heartbeats when it
                // crashes; the detector fires after the failure timeout.
                let peer = self.peer_state().lock();
                let failed = match peer.crashed_at {
                    Some(crashed_at) => self.detector.suspects_at(crashed_at, now),
                    // Dropped without closing: once the queue is drained this
                    // is indistinguishable from a crash, and the drop already
                    // woke us.
                    None => peer.dropped && !peer.closed,
                };
                Err(if failed { RecvError::PeerFailed } else { RecvError::Empty })
            }
        }
    }

    /// Closes this endpoint's sending direction cleanly (half-close): the
    /// peer observes [`RecvError::Closed`] after draining the messages
    /// already in flight, but may still send its remaining results back.
    pub fn close(&self) {
        let mut mine = self.my_state().lock();
        if mine.closed || mine.crashed_at.is_some() {
            return;
        }
        mine.closed = true;
        let deliver_at = (self.clock.now() + self.config.latency).max(mine.next_delivery);
        drop(mine);
        let _ = self.outgoing.send(Frame::Close { deliver_at });
        self.wake_peer();
    }

    /// Crashes this endpoint abruptly (crash-stop): nothing more is sent, not
    /// even a close notification; the peer only finds out after the heartbeat
    /// failure timeout.
    pub fn crash(&self) {
        self.my_state().lock().crashed_at = Some(self.clock.now());
        // The peer's poller re-checks now and schedules a re-poll for the
        // moment the failure detector starts suspecting (next_ready_at).
        self.wake_peer();
    }

    /// Pauses the link in **both** directions until `until`: a deterministic
    /// transient disconnect (Wi-Fi blip, route flap). Frames already in
    /// flight keep their delivery instants (they passed the outage point
    /// before the link dropped); every frame sent from now on is delivered
    /// no earlier than `until`. Nothing is lost, reordered or mutated, so a
    /// paused run differs from a fault-free one only in delivery timing.
    /// Because delivery times ride on `next_delivery` (which is monotonic),
    /// pausing composes with latency, jitter and bandwidth modelling, and —
    /// unlike [`Endpoint::crash`] — never trips the failure detector: the
    /// sim's grace-window twin of a volunteer that reconnects in time.
    pub fn pause_link_until(&self, until: Instant) {
        for side in [&self.shared.a, &self.shared.b] {
            let mut state = side.lock();
            state.next_delivery = state.next_delivery.max(until);
        }
        // Any frame already buffered on either side now matures later; the
        // already-sent announcement wakes are enough (pollers re-check
        // `next_ready_at`), but nudge the peer so a parked reactor re-arms
        // its timer against the new maturity.
        self.wake_peer();
    }

    /// Total lost-and-re-sent transmissions on this link, both directions.
    /// Either endpoint of the pair reports the same number.
    pub fn link_retransmits(&self) -> u64 {
        self.shared.a.lock().frames_retransmitted + self.shared.b.lock().frames_retransmitted
    }
}

impl<T> Drop for Endpoint<T> {
    fn drop(&mut self) {
        // Mark the side as gone *before* waking the peer, so a reactor thread
        // polling concurrently either still drains the queued frames or
        // observes the drop — never sleeps forever on a vanished peer.
        let (mine, peer) = if self.is_a {
            (&self.shared.a, &self.shared.b)
        } else {
            (&self.shared.b, &self.shared.a)
        };
        mine.lock().dropped = true;
        let waker = peer.lock().waker.clone();
        if let Some(waker) = waker {
            waker();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Waits up to `timeout` (wall clock) for `try_recv` to answer anything
    /// but `Empty`, parked between polls: the waker unparks this thread on
    /// every send, close, crash and drop, and `next_ready_at` bounds the park
    /// while a frame is in flight or a crash suspicion is pending. `Empty`
    /// once the deadline passes.
    fn recv_within<T: Send + 'static>(
        endpoint: &Endpoint<T>,
        timeout: Duration,
    ) -> Result<T, RecvError> {
        let deadline = Instant::now() + timeout;
        let me = std::thread::current();
        endpoint.set_waker(Arc::new(move || me.unpark()));
        let received = loop {
            match endpoint.try_recv() {
                Err(RecvError::Empty) if Instant::now() < deadline => {
                    let until = endpoint.next_ready_at().map_or(deadline, |at| at.min(deadline));
                    std::thread::park_timeout(until.saturating_duration_since(Instant::now()));
                }
                received => break received,
            }
        };
        endpoint.clear_waker();
        received
    }

    const PATIENCE: Duration = Duration::from_secs(10);

    #[test]
    fn messages_are_delivered_in_order() {
        let (a, b) = pair::<u32>(ChannelConfig::instant());
        for i in 0..100 {
            a.send(i).unwrap();
        }
        let received: Vec<u32> = (0..100).map(|_| b.try_recv().unwrap()).collect();
        assert_eq!(received, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn both_directions_work() {
        let (a, b) = pair::<&'static str>(ChannelConfig::instant());
        a.send("ping").unwrap();
        assert_eq!(b.try_recv().unwrap(), "ping");
        b.send("pong").unwrap();
        assert_eq!(a.try_recv().unwrap(), "pong");
    }

    #[test]
    fn latency_delays_delivery() {
        let mut config = ChannelConfig::instant();
        config.latency = Duration::from_millis(30);
        let (a, b) = pair::<u8>(config);
        let start = Instant::now();
        a.send(1).unwrap();
        assert_eq!(recv_within(&b, PATIENCE).unwrap(), 1);
        assert!(start.elapsed() >= Duration::from_millis(25), "latency must be observed");
    }

    #[test]
    fn jitter_preserves_fifo_order() {
        let mut config = ChannelConfig::instant();
        config.latency = Duration::from_millis(1);
        config.jitter = Duration::from_millis(5);
        config.seed = 42;
        let (a, b) = pair::<u32>(config);
        for i in 0..20 {
            a.send(i).unwrap();
        }
        let received: Vec<u32> = (0..20).map(|_| recv_within(&b, PATIENCE).unwrap()).collect();
        assert_eq!(received, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn bandwidth_adds_transmission_delay() {
        let mut config = ChannelConfig::instant();
        config.bandwidth_bytes_per_sec = Some(1_000_000); // 1 MB/s
        let (a, b) = pair::<Vec<u8>>(config.clone());
        assert_eq!(config.transmission_delay(100_000), Duration::from_millis(100));
        let start = Instant::now();
        a.send_with_size(vec![0u8; 100_000], 100_000).unwrap();
        recv_within(&b, PATIENCE).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(90));
    }

    #[test]
    fn clean_close_is_observed_after_in_flight_messages() {
        let (a, b) = pair::<u32>(ChannelConfig::instant());
        a.send(1).unwrap();
        a.send(2).unwrap();
        a.close();
        assert_eq!(b.try_recv().unwrap(), 1);
        assert_eq!(b.try_recv().unwrap(), 2);
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Closed);
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Closed, "the verdict stays");
        // The close is a half-close: b can still send results back, but the
        // side that closed may not send any more.
        b.send(3).unwrap();
        assert_eq!(a.try_recv().unwrap(), 3);
        assert_eq!(a.send(4).unwrap_err(), SendError::Closed);
    }

    #[test]
    fn crash_is_detected_after_failure_timeout() {
        let mut config = ChannelConfig::instant();
        config.failure_timeout = Duration::from_millis(50);
        let (a, b) = pair::<u32>(config);
        a.send(7).unwrap();
        a.crash();
        // The in-flight message is still delivered (it was already sent).
        assert_eq!(b.try_recv().unwrap(), 7);
        let start = Instant::now();
        assert_eq!(recv_within(&b, PATIENCE).unwrap_err(), RecvError::PeerFailed);
        assert!(start.elapsed() >= Duration::from_millis(40), "failure needs the timeout");
        assert_eq!(b.try_recv().unwrap_err(), RecvError::PeerFailed, "the verdict stays");
    }

    #[test]
    fn try_recv_and_timeout() {
        let (a, b) = pair::<u32>(ChannelConfig::instant());
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty);
        assert_eq!(recv_within(&b, Duration::from_millis(10)).unwrap_err(), RecvError::Empty);
        a.send(5).unwrap();
        assert_eq!(recv_within(&b, Duration::from_millis(100)).unwrap(), 5);
    }

    #[test]
    fn batch_pays_latency_once_not_per_record() {
        let mut config = ChannelConfig::instant();
        config.latency = Duration::from_millis(20);
        let (a, b) = pair::<u8>(config);
        let start = Instant::now();
        a.send_records_with_size(7, 0, 16).unwrap();
        assert_eq!(recv_within(&b, PATIENCE).unwrap(), 7);
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(15));
        assert!(
            elapsed < Duration::from_millis(150),
            "a 16-record batch must not pay 16 latencies ({elapsed:?})"
        );
    }

    #[test]
    fn try_recv_is_nonblocking_while_a_frame_is_in_flight() {
        // Regression: a frame whose simulated delay has not elapsed must make
        // try_recv report Empty immediately — not sleep, not time out through
        // the failure-timeout path, not get consumed early.
        let mut config = ChannelConfig::instant();
        config.latency = Duration::from_millis(40);
        let (a, b) = pair::<u32>(config);
        a.send(9).unwrap();
        let start = Instant::now();
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty);
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty);
        assert!(start.elapsed() < Duration::from_millis(20), "try_recv must not block");
        // The buffered frame advertises its maturity time.
        let ready_at = b.next_ready_at().expect("an in-flight frame is buffered");
        assert!(ready_at > start, "delivery lies in the future");
        std::thread::sleep(Duration::from_millis(45));
        assert_eq!(b.try_recv().unwrap(), 9);
    }

    #[test]
    fn try_recv_is_nonblocking_while_a_close_is_in_flight() {
        // Regression: an in-flight Close frame used to make try_recv sleep
        // for the full latency *and* consume the close before its delivery
        // time.
        let mut config = ChannelConfig::instant();
        config.latency = Duration::from_millis(40);
        let (a, b) = pair::<u32>(config);
        a.send(1).unwrap();
        a.close();
        let start = Instant::now();
        // Both the data frame and the close are still travelling.
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty);
        assert!(start.elapsed() < Duration::from_millis(20), "try_recv must not block");
        std::thread::sleep(Duration::from_millis(45));
        assert_eq!(b.try_recv().unwrap(), 1);
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Closed);
    }

    #[test]
    fn waker_fires_on_send_close_and_crash() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (a, b) = pair::<u32>(ChannelConfig::instant());
        let wakeups = Arc::new(AtomicUsize::new(0));
        let counter = wakeups.clone();
        b.set_waker(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }));
        a.send(1).unwrap();
        assert_eq!(wakeups.load(Ordering::SeqCst), 1);
        a.send(2).unwrap();
        assert_eq!(wakeups.load(Ordering::SeqCst), 2);
        a.close();
        assert_eq!(wakeups.load(Ordering::SeqCst), 3);
        a.crash();
        assert_eq!(wakeups.load(Ordering::SeqCst), 4);
        b.clear_waker();
        let _ = b.try_recv();
    }

    #[test]
    fn waker_fires_when_the_peer_is_dropped() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (a, b) = pair::<u32>(ChannelConfig::instant());
        let wakeups = Arc::new(AtomicUsize::new(0));
        let counter = wakeups.clone();
        b.set_waker(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }));
        drop(a);
        assert_eq!(wakeups.load(Ordering::SeqCst), 1);
        // A dropped peer without a clean close reads as a failure.
        assert_eq!(b.try_recv().unwrap_err(), RecvError::PeerFailed);
    }

    #[test]
    fn crash_suspicion_is_advertised_through_next_ready_at() {
        let mut config = ChannelConfig::instant();
        config.failure_timeout = Duration::from_millis(50);
        let (a, b) = pair::<u32>(config);
        assert!(b.next_ready_at().is_none(), "nothing buffered, nothing suspected");
        a.crash();
        let ready_at = b.next_ready_at().expect("suspicion maturity is scheduled");
        assert!(ready_at > Instant::now(), "the detector has not fired yet");
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty);
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(b.try_recv().unwrap_err(), RecvError::PeerFailed);
    }

    #[test]
    fn virtual_clock_channel_never_sleeps_and_delivers_on_advance() {
        use crate::sim::Clock;
        let clock = Clock::virtual_clock();
        let mut config = ChannelConfig::instant();
        config.latency = Duration::from_millis(10);
        config.failure_timeout = Duration::from_millis(50);
        let (a, b) = pair_with_clock::<u32>(config, clock.clone());
        let wall_start = Instant::now();
        a.send(1).unwrap();
        // The frame is 10 virtual ms away: polls report Empty without
        // blocking, however often they are repeated.
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty);
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty);
        let ready_at = b.next_ready_at().expect("in-flight frame advertises maturity");
        clock.advance_to(ready_at);
        assert_eq!(b.try_recv().unwrap(), 1);
        // Crash suspicion matures on the virtual time line, not wall time.
        a.crash();
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty);
        let suspect_at = b.next_ready_at().expect("suspicion maturity is scheduled");
        clock.advance_to(suspect_at);
        assert_eq!(b.try_recv().unwrap_err(), RecvError::PeerFailed);
        assert!(
            wall_start.elapsed() < Duration::from_secs(1),
            "60 virtual ms must not cost real sleeps"
        );
    }

    #[test]
    fn virtual_clock_close_is_delivered_on_advance() {
        use crate::sim::Clock;
        let clock = Clock::virtual_clock();
        let mut config = ChannelConfig::instant();
        config.latency = Duration::from_millis(5);
        let (a, b) = pair_with_clock::<u32>(config, clock.clone());
        a.send(7).unwrap();
        a.close();
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty);
        clock.advance_to(clock.now() + Duration::from_millis(5));
        assert_eq!(b.try_recv().unwrap(), 7);
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Closed);
    }

    #[test]
    fn profiles_have_increasing_latency() {
        assert!(ChannelConfig::lan().latency < ChannelConfig::vpn().latency);
        assert!(ChannelConfig::vpn().latency < ChannelConfig::wan().latency);
        assert_eq!(ChannelConfig::wan().kind, ChannelKind::WebRtc);
        assert_eq!(ChannelKind::WebSocket.to_string(), "websocket");
        assert_eq!(ChannelKind::WebRtc.to_string(), "webrtc");
    }

    #[test]
    fn bounded_send_would_blocks_and_wakes_on_drain() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut config = ChannelConfig::instant();
        config.send_buffer_max = Some(100);
        let (a, b) = pair::<u32>(config);
        a.send_with_size(1, 80).unwrap();
        // The next sized frame would push past the bound: rejected, nothing
        // sent, channel still healthy.
        assert_eq!(a.send_with_size(2, 40).unwrap_err(), SendError::WouldBlock);
        // Zero-size control frames (heartbeats) always pass.
        a.send(3).unwrap();
        let woke = Arc::new(AtomicUsize::new(0));
        let counter = woke.clone();
        a.set_waker(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }));
        // Draining the 80-byte frame frees the buffer and fires the parked
        // sender's waker exactly once.
        assert_eq!(b.try_recv().unwrap(), 1);
        assert_eq!(woke.load(Ordering::SeqCst), 1);
        a.send_with_size(4, 40).unwrap();
        assert_eq!(b.try_recv().unwrap(), 3);
        assert_eq!(b.try_recv().unwrap(), 4);
        // No further drain-wakes without another WouldBlock.
        assert_eq!(woke.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn pause_link_delays_delivery_without_tripping_the_detector() {
        use crate::sim::Clock;
        let clock = Clock::virtual_clock();
        let mut config = ChannelConfig::instant();
        config.latency = Duration::from_millis(1);
        config.failure_timeout = Duration::from_millis(25);
        let (a, b) = pair_with_clock::<u32>(config, clock.clone());
        // The link flaps for far longer than the failure timeout.
        let back_up = clock.now() + Duration::from_millis(200);
        a.pause_link_until(back_up);
        b.pause_link_until(back_up); // idempotent: both handles may script it
        a.send(1).unwrap();
        a.send(2).unwrap();
        clock.advance_to(clock.now() + Duration::from_millis(150));
        // Mid-outage: nothing deliverable, but the peer is NOT suspected
        // (Empty, not PeerFailed) — a pause is a flap, not a crash.
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty);
        let ready_at = b.next_ready_at().expect("stalled frame advertises maturity");
        assert!(ready_at >= back_up);
        clock.advance_to(ready_at);
        assert_eq!(b.try_recv().unwrap(), 1);
        // FIFO survives the pause, and the reverse direction was paused too.
        b.send(10).unwrap();
        assert!(a.try_recv().is_ok() || a.next_ready_at().is_some());
        clock.advance_to(clock.now() + Duration::from_millis(5));
        assert_eq!(b.try_recv().unwrap(), 2);
    }

    #[test]
    fn loss_delays_frames_deterministically_without_dropping_them() {
        use crate::sim::Clock;
        let run = |seed: u64| {
            let clock = Clock::virtual_clock();
            let mut config = ChannelConfig::instant().with_loss(0.4).with_seed(seed);
            config.latency = Duration::from_millis(1);
            config.retransmit = Duration::from_millis(30);
            let (a, b) = pair_with_clock::<u32>(config, clock.clone());
            // Virtual clocks anchor at their creation instant, so record
            // elapsed-since-start rather than absolute instants.
            let t0 = clock.now();
            let mut deliveries = Vec::new();
            for i in 0..50 {
                a.send_with_size(i, 8).unwrap();
            }
            while deliveries.len() < 50 {
                match b.try_recv() {
                    Ok(v) => deliveries.push((v, clock.now().saturating_duration_since(t0))),
                    Err(RecvError::Empty) => {
                        let at = b.next_ready_at().expect("frames are in flight");
                        clock.advance_to(at);
                    }
                    Err(other) => panic!("unexpected {other:?}"),
                }
            }
            (deliveries, b.link_retransmits())
        };
        let (first, retx) = run(7);
        // Every frame arrives exactly once, in order: loss is delay, not drop.
        assert_eq!(first.iter().map(|(v, _)| *v).collect::<Vec<_>>(), (0..50).collect::<Vec<_>>());
        assert!(retx > 0, "at 40% loss, 50 frames must lose a few transmissions");
        // Same seed ⇒ byte-identical delivery schedule.
        let (second, retx2) = run(7);
        assert_eq!(first, second);
        assert_eq!(retx, retx2);
        // A different seed loses different transmissions.
        let (_, retx3) = run(8);
        assert_ne!(retx, retx3);
    }

    #[test]
    fn zero_loss_does_not_perturb_the_jitter_sequence() {
        // loss = 0.0 must not draw from the RNG: the delivery schedule of a
        // jittery channel is byte-identical whether the loss knob exists on
        // the config or not (all pre-existing golden traces rely on this).
        use crate::sim::Clock;
        let deliveries = |config: ChannelConfig| {
            let clock = Clock::virtual_clock();
            let (a, b) = pair_with_clock::<u32>(config, clock.clone());
            let t0 = clock.now();
            let mut out = Vec::new();
            for i in 0..20 {
                a.send_with_size(i, 4).unwrap();
            }
            while out.len() < 20 {
                match b.try_recv() {
                    Ok(_) => out.push(clock.now().saturating_duration_since(t0)),
                    Err(RecvError::Empty) => clock.advance_to(b.next_ready_at().unwrap()),
                    Err(other) => panic!("unexpected {other:?}"),
                }
            }
            out
        };
        let mut jittery = ChannelConfig::instant().with_seed(3);
        jittery.jitter = Duration::from_millis(5);
        let baseline = deliveries(jittery.clone());
        jittery.retransmit = Duration::from_secs(9); // must never be consulted
        assert_eq!(deliveries(jittery), baseline);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn certain_loss_is_rejected() {
        let _ = ChannelConfig::instant().with_loss(1.0);
    }

    #[test]
    fn oversized_frame_is_admitted_alone() {
        let mut config = ChannelConfig::instant();
        config.send_buffer_max = Some(10);
        let (a, b) = pair::<u32>(config);
        // A single frame larger than the whole bound must go through when
        // the buffer is empty — rejecting it would deadlock the sender.
        a.send_with_size(1, 1000).unwrap();
        assert_eq!(a.send_with_size(2, 1).unwrap_err(), SendError::WouldBlock);
        assert_eq!(b.try_recv().unwrap(), 1);
        a.send_with_size(2, 1).unwrap();
        assert_eq!(b.try_recv().unwrap(), 2);
    }
}
