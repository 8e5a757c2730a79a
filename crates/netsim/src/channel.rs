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
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
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

impl<T> Frame<T> {
    fn deliver_at(&self) -> Instant {
        match self {
            Frame::Data { deliver_at, .. } | Frame::Close { deliver_at } => *deliver_at,
        }
    }
}

/// Readiness callback registered with [`Endpoint::set_waker`]: invoked (from
/// the peer's thread) whenever the endpoint may have become pollable.
pub type Waker = Arc<dyn Fn() + Send + Sync>;

/// One direction of a link, owned by the side that sends on it.
struct Side<T> {
    /// Frames this side sent that the peer has not taken yet, in send order.
    /// A frame whose delivery instant lies in the future stays here.
    wire: VecDeque<Frame<T>>,
    /// This side's jitter and loss generator.
    rng: StdRng,
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

/// Splits a link into `(mine, peer)` for the side `is_a` names.
fn sides<T>(link: &mut [Side<T>; 2], is_a: bool) -> (&mut Side<T>, &mut Side<T>) {
    let [a, b] = link;
    if is_a {
        (a, b)
    } else {
        (b, a)
    }
}

/// Calls `waker`, if any, once the link's lock is released.
fn wake(waker: Option<Waker>) {
    if let Some(waker) = waker {
        waker();
    }
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
    /// Both directions of the link, behind its one lock; shared with the
    /// peer endpoint.
    link: Arc<Mutex<[Side<T>; 2]>>,
    detector: FailureDetector,
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
    let now = clock.now();
    let side = |seed| Side {
        wire: VecDeque::new(),
        rng: StdRng::seed_from_u64(seed),
        crashed_at: None,
        closed: false,
        peer_done: false,
        dropped: false,
        waker: None,
        next_delivery: now,
        bytes_in_flight: 0,
        send_blocked: false,
        frames_retransmitted: 0,
    };
    let link = Arc::new(Mutex::new([side(config.seed), side(config.seed.wrapping_add(1))]));
    let endpoint = |is_a, link| Endpoint {
        is_a,
        config: config.clone(),
        clock: clock.clone(),
        link,
        detector: FailureDetector::new(config.heartbeat_interval, config.failure_timeout),
    };
    (endpoint(true, link.clone()), endpoint(false, link))
}

impl<T: Send + 'static> Endpoint<T> {
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
        sides(&mut self.link.lock(), self.is_a).0.waker = Some(waker);
    }

    /// Removes the readiness callback, if any.
    pub fn clear_waker(&self) {
        sides(&mut self.link.lock(), self.is_a).0.waker = None;
    }

    /// The earliest instant at which this endpoint may become pollable again
    /// without a new wake event: the delivery time of the first frame on the
    /// wire towards this endpoint, or the moment a pending crash suspicion
    /// matures. `None` means "nothing in flight" — the next readiness change
    /// will fire the waker.
    pub fn next_ready_at(&self) -> Option<Instant> {
        let mut link = self.link.lock();
        let (_, peer) = sides(&mut link, self.is_a);
        let head = peer.wire.front().map(Frame::deliver_at);
        let suspicion = peer.crashed_at.map(|crashed_at| crashed_at + self.config.failure_timeout);
        head.into_iter().chain(suspicion).min()
    }

    /// Sends a message, modelling it as having a negligible size.
    ///
    /// # Errors
    ///
    /// Returns [`SendError::Closed`] if either side already closed the channel
    /// and [`SendError::PeerFailed`] if the peer is known to have crashed.
    pub fn send(&self, payload: T) -> Result<(), SendError> {
        self.send_records_with_size(payload, 0, 1)
    }

    /// Sends one message of `size` bytes — a batched frame of task or result
    /// records. The delivery time accounts for the propagation latency and
    /// the random jitter, paid **once** per frame, and the transmission time
    /// of its total size at the configured bandwidth. The record count keeps
    /// the signature of `pando-core`'s `Transport::send_records_with_size`;
    /// a simulated link ignores it.
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
        let now = self.clock.now();
        let mut link = self.link.lock();
        let (mine, peer) = sides(&mut link, self.is_a);
        if peer.crashed_at.is_some_and(|crashed_at| self.detector.suspects_at(crashed_at, now)) {
            return Err(SendError::PeerFailed);
        }
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
            Duration::from_nanos(mine.rng.gen_range(0..=nanos))
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
            while lost < 16 && mine.rng.gen_bool(self.config.loss) {
                lost += 1;
            }
            if lost > 0 {
                delay += self.config.retransmit * lost;
                mine.frames_retransmitted += u64::from(lost);
            }
        }
        let deliver_at = (now + delay).max(mine.next_delivery);
        mine.next_delivery = deliver_at;
        mine.bytes_in_flight += size;
        if peer.dropped {
            return Err(SendError::Closed);
        }
        mine.wire.push_back(Frame::Data { payload, deliver_at, size });
        let waker = peer.waker.clone();
        drop(link);
        wake(waker);
        Ok(())
    }

    /// Returns the next message if one is deliverable now, without blocking.
    /// A frame whose latency has not elapsed stays on the wire, and
    /// [`Endpoint::next_ready_at`] reports when it matures.
    ///
    /// # Errors
    ///
    /// [`RecvError::Empty`] if no message is deliverable yet,
    /// [`RecvError::Closed`] after a clean close (once the frames sent before
    /// it were delivered) and [`RecvError::PeerFailed`] once the failure
    /// detector suspects the peer.
    pub fn try_recv(&self) -> Result<T, RecvError> {
        let now = self.clock.now();
        let mut link = self.link.lock();
        let (mine, peer) = sides(&mut link, self.is_a);
        match peer.wire.front().map(Frame::deliver_at) {
            Some(deliver_at) if deliver_at > now => Err(RecvError::Empty),
            Some(_) => match peer.wire.pop_front() {
                Some(Frame::Data { payload, size, .. }) => {
                    // Book the consumed bytes against the peer's in-flight
                    // count, and wake it if a bounded send was parked on the
                    // drain.
                    let mut waker = None;
                    if let Some(max) = self.config.send_buffer_max.filter(|_| size > 0) {
                        peer.bytes_in_flight = peer.bytes_in_flight.saturating_sub(size);
                        if peer.send_blocked && peer.bytes_in_flight < max {
                            peer.send_blocked = false;
                            waker = peer.waker.clone();
                        }
                    }
                    drop(link);
                    wake(waker);
                    Ok(payload)
                }
                Some(Frame::Close { .. }) | None => {
                    // Keep answering Closed on subsequent calls.
                    mine.peer_done = true;
                    Err(RecvError::Closed)
                }
            },
            // The peer endpoint was dropped and its frames are drained. A
            // clean close was observed as a Close frame; anything else is
            // indistinguishable from a crash.
            None if peer.dropped => {
                Err(if peer.closed { RecvError::Closed } else { RecvError::PeerFailed })
            }
            None if mine.peer_done => Err(RecvError::Closed),
            // Crash detection: the peer stops sending heartbeats when it
            // crashes; the detector fires after the failure timeout.
            None => match peer.crashed_at {
                Some(crashed_at) if self.detector.suspects_at(crashed_at, now) => {
                    Err(RecvError::PeerFailed)
                }
                _ => Err(RecvError::Empty),
            },
        }
    }

    /// Closes this endpoint's sending direction cleanly (half-close): the
    /// peer observes [`RecvError::Closed`] after draining the messages
    /// already in flight, but may still send its remaining results back.
    pub fn close(&self) {
        let now = self.clock.now();
        let mut link = self.link.lock();
        let (mine, peer) = sides(&mut link, self.is_a);
        if mine.closed || mine.crashed_at.is_some() {
            return;
        }
        mine.closed = true;
        let deliver_at = (now + self.config.latency).max(mine.next_delivery);
        mine.wire.push_back(Frame::Close { deliver_at });
        let waker = peer.waker.clone();
        drop(link);
        wake(waker);
    }

    /// Crashes this endpoint abruptly (crash-stop): nothing more is sent, not
    /// even a close notification; the peer only finds out after the heartbeat
    /// failure timeout.
    pub fn crash(&self) {
        let now = self.clock.now();
        let mut link = self.link.lock();
        let (mine, peer) = sides(&mut link, self.is_a);
        mine.crashed_at = Some(now);
        // The peer's poller re-checks now and schedules a re-poll for the
        // moment the failure detector starts suspecting (next_ready_at).
        let waker = peer.waker.clone();
        drop(link);
        wake(waker);
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
        let mut link = self.link.lock();
        for side in link.iter_mut() {
            side.next_delivery = side.next_delivery.max(until);
        }
        // Frames sent from now on mature later; nudge the peer so a parked
        // reactor re-arms its timer against the new maturity.
        let waker = sides(&mut link, self.is_a).1.waker.clone();
        drop(link);
        wake(waker);
    }

    /// Total lost-and-re-sent transmissions on this link, both directions.
    /// Either endpoint of the pair reports the same number.
    pub fn link_retransmits(&self) -> u64 {
        self.link.lock().iter().map(|side| side.frames_retransmitted).sum()
    }
}

impl<T> Drop for Endpoint<T> {
    fn drop(&mut self) {
        // Mark the side as gone and read the peer's waker under the one lock,
        // so a reactor thread polling concurrently either still drains the
        // frames on the wire or observes the drop — never sleeps forever on a
        // vanished peer.
        let mut link = self.link.lock();
        let (mine, peer) = sides(&mut link, self.is_a);
        mine.dropped = true;
        let waker = peer.waker.clone();
        drop(link);
        wake(waker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pair on a fresh virtual clock, with the clock and its origin.
    fn virtual_pair<T: Send + 'static>(
        config: ChannelConfig,
    ) -> (Endpoint<T>, Endpoint<T>, Clock, Instant) {
        let clock = Clock::virtual_clock();
        let (a, b) = pair_with_clock(config, clock.clone());
        let origin = clock.now();
        (a, b, clock, origin)
    }

    fn ms(millis: u64) -> Duration {
        Duration::from_millis(millis)
    }

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
        config.latency = ms(30);
        let (a, b, clock, origin) = virtual_pair::<u8>(config);
        a.send(1).unwrap();
        clock.advance_to(origin + ms(30) - Duration::from_nanos(1));
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty, "latency must be observed");
        assert_eq!(b.next_ready_at(), Some(origin + ms(30)));
        clock.advance_to(origin + ms(30));
        assert_eq!(b.try_recv().unwrap(), 1);
    }

    #[test]
    fn jitter_preserves_fifo_order() {
        let mut config = ChannelConfig::instant();
        config.latency = ms(1);
        config.jitter = ms(5);
        config.seed = 42;
        let (a, b, clock, origin) = virtual_pair::<u32>(config);
        for i in 0..20 {
            a.send(i).unwrap();
        }
        // Side a draws its jitter from `seed`; a frame never overtakes the
        // one sent before it.
        let mut rng = StdRng::seed_from_u64(42);
        let mut due = origin;
        for i in 0..20 {
            let jitter = Duration::from_nanos(rng.gen_range(0..=5_000_000));
            due = due.max(origin + ms(1) + jitter);
            assert_eq!(b.next_ready_at(), Some(due));
            clock.advance_to(due);
            assert_eq!(b.try_recv().unwrap(), i);
        }
    }

    #[test]
    fn bandwidth_adds_transmission_delay() {
        let mut config = ChannelConfig::instant();
        config.bandwidth_bytes_per_sec = Some(1_000_000); // 1 MB/s
        assert_eq!(config.transmission_delay(100_000), ms(100));
        let (a, b, clock, origin) = virtual_pair::<Vec<u8>>(config);
        a.send_records_with_size(vec![0u8; 100_000], 100_000, 1).unwrap();
        assert_eq!(b.next_ready_at(), Some(origin + ms(100)));
        clock.advance_to(origin + ms(99));
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty);
        clock.advance_to(origin + ms(100));
        assert_eq!(b.try_recv().unwrap().len(), 100_000);
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
        config.failure_timeout = ms(50);
        let (a, b, clock, origin) = virtual_pair::<u32>(config);
        a.send(7).unwrap();
        a.crash();
        // The in-flight message is still delivered (it was already sent).
        assert_eq!(b.try_recv().unwrap(), 7);
        clock.advance_to(origin + ms(49));
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty, "failure needs the timeout");
        clock.advance_to(origin + ms(50));
        assert_eq!(b.try_recv().unwrap_err(), RecvError::PeerFailed);
        assert_eq!(b.try_recv().unwrap_err(), RecvError::PeerFailed, "the verdict stays");
    }

    #[test]
    fn try_recv_and_timeout() {
        let (a, b, clock, origin) = virtual_pair::<u32>(ChannelConfig::instant());
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty);
        // Time passing with nothing sent changes nothing, and nothing is due.
        clock.advance_to(origin + ms(10));
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty);
        assert_eq!(b.next_ready_at(), None);
        a.send(5).unwrap();
        assert_eq!(b.next_ready_at(), Some(origin + ms(10)));
        assert_eq!(b.try_recv().unwrap(), 5);
    }

    #[test]
    fn batch_pays_latency_once_not_per_record() {
        let mut config = ChannelConfig::instant();
        config.latency = ms(20);
        let (a, b, clock, origin) = virtual_pair::<u8>(config);
        a.send_records_with_size(7, 0, 16).unwrap();
        // A 16-record batch is due after one latency, not sixteen.
        assert_eq!(b.next_ready_at(), Some(origin + ms(20)));
        clock.advance_to(origin + ms(20));
        assert_eq!(b.try_recv().unwrap(), 7);
    }

    #[test]
    fn try_recv_is_nonblocking_while_a_frame_is_in_flight() {
        // Regression: a frame whose simulated delay has not elapsed must make
        // try_recv report Empty at once — not wait, not time out through the
        // failure-timeout path, not get consumed early.
        let mut config = ChannelConfig::instant();
        config.latency = ms(40);
        let (a, b, clock, origin) = virtual_pair::<u32>(config);
        a.send(9).unwrap();
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty);
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty);
        assert_eq!(clock.now(), origin, "try_recv must not wait");
        // The frame on the wire advertises its maturity time.
        assert_eq!(b.next_ready_at(), Some(origin + ms(40)));
        clock.advance_to(origin + ms(40));
        assert_eq!(b.try_recv().unwrap(), 9);
    }

    #[test]
    fn try_recv_is_nonblocking_while_a_close_is_in_flight() {
        // Regression: an in-flight Close frame used to make try_recv sleep
        // for the full latency *and* consume the close before its delivery
        // time.
        let mut config = ChannelConfig::instant();
        config.latency = ms(40);
        let (a, b, clock, origin) = virtual_pair::<u32>(config);
        a.send(1).unwrap();
        a.close();
        // Both the data frame and the close are still travelling.
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty);
        clock.advance_to(origin + ms(39));
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty);
        clock.advance_to(origin + ms(40));
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
        config.failure_timeout = ms(50);
        let (a, b, clock, origin) = virtual_pair::<u32>(config);
        assert!(b.next_ready_at().is_none(), "nothing in flight, nothing suspected");
        a.crash();
        assert_eq!(b.next_ready_at(), Some(origin + ms(50)), "suspicion maturity is scheduled");
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty);
        clock.advance_to(origin + ms(50));
        assert_eq!(b.try_recv().unwrap_err(), RecvError::PeerFailed);
    }

    #[test]
    fn a_dropped_peer_is_drained_before_it_is_judged() {
        let mut config = ChannelConfig::instant();
        config.latency = ms(10);
        let (a, b, clock, origin) = virtual_pair::<u32>(config.clone());
        a.send(1).unwrap();
        clock.advance_to(origin + ms(5));
        a.send(2).unwrap();
        drop(a);
        // The frames in flight still arrive, each at its own instant.
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty);
        clock.advance_to(origin + ms(10));
        assert_eq!(b.try_recv().unwrap(), 1);
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Empty);
        clock.advance_to(origin + ms(15));
        assert_eq!(b.try_recv().unwrap(), 2);
        // Drained, a peer dropped without a close reads as failed at once,
        // and nothing can be sent towards it.
        assert_eq!(b.try_recv().unwrap_err(), RecvError::PeerFailed);
        assert_eq!(b.send(3).unwrap_err(), SendError::Closed);

        // A clean close before the drop is read as Closed.
        let (a, b) = pair_with_clock::<u32>(config, clock.clone());
        a.send(4).unwrap();
        a.close();
        drop(a);
        clock.advance_to(origin + ms(25));
        assert_eq!(b.try_recv().unwrap(), 4);
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Closed);
        assert_eq!(b.try_recv().unwrap_err(), RecvError::Closed, "the verdict stays");
    }

    #[test]
    fn next_ready_at_reports_a_frame_before_any_poll() {
        let mut config = ChannelConfig::instant();
        config.latency = ms(40);
        let (a, b, _clock, origin) = virtual_pair::<u32>(config);
        a.send(1).unwrap();
        assert_eq!(b.next_ready_at(), Some(origin + ms(40)));
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
        a.send_records_with_size(1, 80, 1).unwrap();
        // The next sized frame would push past the bound: rejected, nothing
        // sent, channel still healthy.
        assert_eq!(a.send_records_with_size(2, 40, 1).unwrap_err(), SendError::WouldBlock);
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
        a.send_records_with_size(4, 40, 1).unwrap();
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
                a.send_records_with_size(i, 8, 1).unwrap();
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
                a.send_records_with_size(i, 4, 1).unwrap();
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
        a.send_records_with_size(1, 1000, 1).unwrap();
        assert_eq!(a.send_records_with_size(2, 1, 1).unwrap_err(), SendError::WouldBlock);
        assert_eq!(b.try_recv().unwrap(), 1);
        a.send_records_with_size(2, 1, 1).unwrap();
        assert_eq!(b.try_recv().unwrap(), 2);
    }
}
