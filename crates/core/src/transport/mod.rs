//! The transport seam between the coordination layer and the wire.
//!
//! The reactor and the worker pool never cared that messages travelled
//! over in-process [`netsim`] channels — they consume a narrow,
//! readiness-shaped surface: non-blocking
//! [`try_recv`](Transport::try_recv), fallible frame
//! [`send`](Transport::send), waker registration, a
//! [`next_ready_at`](Transport::next_ready_at) deadline hint, and the close
//! and crash verdicts that `try_recv` reports. Like the browser's WebRTC and
//! WebSocket channels, a transport has no blocking receive. [`Transport`]
//! formalizes that seam as an object-safe trait so the same state machines
//! drive
//!
//! * [`netsim::Endpoint<Message>`](pando_netsim::channel::Endpoint) — the
//!   deterministic in-process twin used by the virtual-clock fleet simulator
//!   and every test, and
//! * [`TcpTransport`](tcp::TcpTransport) — length-prefixed frames over a real
//!   socket, taking the fleet across OS processes.
//!
//! # Trait contract
//!
//! | Aspect | Guarantee |
//! |---|---|
//! | Blocking discipline | No method blocks: [`try_recv`](Transport::try_recv) answers [`RecvError::Empty`] when nothing is deliverable, and a caller that must wait parks on the waker and [`next_ready_at`](Transport::next_ready_at). |
//! | Ordering | Frames are delivered reliably and in FIFO order per connection. |
//! | Waker | The registered waker fires whenever the transport *may* have become pollable: frame arrival, clean close, crash detection, peer drop. One slot: `set_waker` replaces any previous waker. Spurious wakes are allowed; lost wakes are not. |
//! | Deadline hint | [`next_ready_at`](Transport::next_ready_at) returns the earliest instant at which a currently-known future event matures (a buffered frame's delivery time, a pending crash suspicion). `None` means "nothing scheduled"; the reactor then relies solely on the waker. |
//! | Bounded send | Outbound buffering is byte-bounded. A data send that would overflow the bound fails with [`SendError::WouldBlock`]: nothing is sent, the link stays healthy, and the waker fires once the buffer drains below the bound so the caller parks instead of spinning or buffering unboundedly. Zero-size control sends are always admitted on simulated channels; over TCP a tiny heartbeat frame may still be rejected at the bound and is safe to drop (data traffic proves liveness). A frame larger than the whole bound is admitted alone. |
//! | Close | [`close`](Transport::close) closes the *send* direction; the peer drains in-flight frames then observes [`RecvError::Closed`]. |
//! | Crash | [`crash`](Transport::crash) abandons the connection without notice; the peer observes [`RecvError::PeerFailed`] once the failure detector's timeout elapses. |
//!
//! [`netsim`]: pando_netsim

// The TCP transport is epoll and raw Linux syscalls with no fallback, and
// `config` embeds its `TcpConfig`: the crate builds on Linux only.
#[cfg(not(target_os = "linux"))]
compile_error!("pando-core is Linux-only: its TCP transport is built on epoll");

pub(crate) mod sys;
pub mod tcp;

use crate::protocol::Message;
use pando_netsim::channel::{Endpoint, RecvError, SendError, Waker};
use pando_pull_stream::StreamError;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A reliable, ordered, crash-prone message channel to one peer.
///
/// Implementations connect the master to exactly one volunteer (or vice
/// versa). The trait is object-safe: the reactor holds volunteers as
/// `Arc<dyn Transport>` so deterministic simulation endpoints and real TCP
/// connections can share one fleet.
///
/// See the [module docs](self) for the full contract table.
pub trait Transport: Send + Sync {
    /// Returns the next message if one is already available, without
    /// blocking.
    ///
    /// # Errors
    ///
    /// [`RecvError::Empty`] when nothing is ready yet, [`RecvError::Closed`]
    /// after a clean close, [`RecvError::PeerFailed`] once the peer is
    /// suspected crashed.
    fn try_recv(&self) -> Result<Message, RecvError>;

    /// Sends a control message whose wire size is negligible (heartbeats,
    /// goodbyes).
    ///
    /// # Errors
    ///
    /// [`SendError::Closed`] after either side closed,
    /// [`SendError::PeerFailed`] once the peer is suspected crashed,
    /// [`SendError::WouldBlock`] when the byte-bounded write buffer has no
    /// room (nothing sent; retry after the waker fires — for control frames
    /// like heartbeats, dropping the message is safe).
    fn send(&self, message: Message) -> Result<(), SendError>;

    /// Sends a data frame carrying `records` application records and `size`
    /// bytes on the wire (drives bandwidth modelling on simulated links and
    /// accounting on real ones).
    ///
    /// # Errors
    ///
    /// As for [`send`](Self::send). On [`SendError::WouldBlock`] no record
    /// was handed to the transport: callers park on the waker and retry the
    /// same frame rather than dropping or re-pulling its records.
    fn send_records_with_size(
        &self,
        message: Message,
        size: usize,
        records: u64,
    ) -> Result<(), SendError>;

    /// Registers `waker`, replacing any previous one. It is invoked whenever
    /// the transport may have become pollable (frame arrival, close, crash,
    /// peer drop). Spurious invocations are permitted.
    fn set_waker(&self, waker: Waker);

    /// Removes the registered waker, if any.
    fn clear_waker(&self);

    /// The earliest instant at which a currently-buffered frame or a pending
    /// crash suspicion matures, or `None` when no future event is scheduled.
    fn next_ready_at(&self) -> Option<Instant>;

    /// Closes the sending direction cleanly; the peer drains in-flight
    /// frames and then observes [`RecvError::Closed`].
    fn close(&self);

    /// Abandons the connection without notifying the peer, which only finds
    /// out via its failure detector ([`RecvError::PeerFailed`]).
    fn crash(&self);

    /// Interval at which this link expects heartbeats; workers pace their
    /// keep-alives and the reactor schedules heartbeat timers from this.
    fn heartbeat_interval(&self) -> Duration;

    /// Fault-injection hook: severs the underlying *link* abruptly (as a
    /// route flap or Wi-Fi blip would) without crashing the endpoint. A
    /// plain transport treats this as [`crash`](Self::crash); a resumable
    /// transport (a reconnecting session over TCP) instead tears down its
    /// current socket and re-establishes the session, so the worker
    /// above it only ever observes a stretch of
    /// [`RecvError::Empty`]/[`SendError::WouldBlock`]. Scripted by
    /// [`FaultPlan::Disconnect`](pando_netsim::fault::FaultPlan::Disconnect).
    fn drop_link(&self) {
        self.crash();
    }
}

/// The in-process simulated channel is the first — and deterministic —
/// transport: every method delegates 1:1 to the inherent [`Endpoint`]
/// method with identical size accounting, so the virtual-clock fleet
/// simulator produces byte-identical canonical traces through the trait.
impl Transport for Endpoint<Message> {
    fn try_recv(&self) -> Result<Message, RecvError> {
        Endpoint::try_recv(self)
    }

    fn send(&self, message: Message) -> Result<(), SendError> {
        Endpoint::send(self, message)
    }

    fn send_records_with_size(
        &self,
        message: Message,
        size: usize,
        records: u64,
    ) -> Result<(), SendError> {
        Endpoint::send_records_with_size(self, message, size, records)
    }

    fn set_waker(&self, waker: Waker) {
        Endpoint::set_waker(self, waker)
    }

    fn clear_waker(&self) {
        Endpoint::clear_waker(self)
    }

    fn next_ready_at(&self) -> Option<Instant> {
        Endpoint::next_ready_at(self)
    }

    fn close(&self) {
        Endpoint::close(self)
    }

    fn crash(&self) {
        Endpoint::crash(self)
    }

    fn heartbeat_interval(&self) -> Duration {
        self.config().heartbeat_interval
    }
}

/// Forwarding impl so `Arc<dyn Transport>` (and `Arc<T>`) satisfy the
/// generic bounds on [`WorkerBuilder::spawn`](crate::worker::WorkerBuilder::spawn)
/// and friends without unwrapping.
impl<T: Transport + ?Sized> Transport for Arc<T> {
    fn try_recv(&self) -> Result<Message, RecvError> {
        (**self).try_recv()
    }

    fn send(&self, message: Message) -> Result<(), SendError> {
        (**self).send(message)
    }

    fn send_records_with_size(
        &self,
        message: Message,
        size: usize,
        records: u64,
    ) -> Result<(), SendError> {
        (**self).send_records_with_size(message, size, records)
    }

    fn set_waker(&self, waker: Waker) {
        (**self).set_waker(waker)
    }

    fn clear_waker(&self) {
        (**self).clear_waker()
    }

    fn next_ready_at(&self) -> Option<Instant> {
        (**self).next_ready_at()
    }

    fn close(&self) {
        (**self).close()
    }

    fn crash(&self) {
        (**self).crash()
    }

    fn heartbeat_interval(&self) -> Duration {
        (**self).heartbeat_interval()
    }

    fn drop_link(&self) {
        (**self).drop_link()
    }
}

/// A failure raised by a transport backend, classified into a small set of
/// [`TransportErrorKind`]s that map onto the existing
/// [`StreamError`]/[`RecvError`]/[`SendError`] taxonomy rather than adding a
/// parallel error enum per backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportError {
    kind: TransportErrorKind,
    message: String,
}

/// Broad classification of a [`TransportError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum TransportErrorKind {
    /// The connection was closed cleanly by either side.
    Closed,
    /// The peer crashed or the link failed mid-flight (I/O error, EOF
    /// without a close notice, heartbeat timeout).
    PeerFailed,
    /// The remote spoke a different protocol or violated framing rules
    /// (bad magic, version mismatch, oversized frame, undecodable message).
    Protocol,
    /// A local I/O problem unrelated to the peer (bind failure, socket
    /// configuration).
    Io,
    /// The byte-bounded write buffer has no room for the frame right now.
    /// Transient: nothing was sent and the link is healthy; the registered
    /// waker fires when space frees.
    WouldBlock,
}

impl TransportError {
    /// Creates an error of the given kind.
    pub fn new(kind: TransportErrorKind, message: impl Into<String>) -> Self {
        Self { kind, message: message.into() }
    }

    /// The broad classification of the failure.
    pub fn kind(&self) -> TransportErrorKind {
        self.kind
    }

    /// The human-readable description.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(err: std::io::Error) -> Self {
        use std::io::ErrorKind as IoKind;
        let kind = match err.kind() {
            IoKind::UnexpectedEof
            | IoKind::ConnectionReset
            | IoKind::ConnectionAborted
            | IoKind::BrokenPipe => TransportErrorKind::PeerFailed,
            IoKind::InvalidData => TransportErrorKind::Protocol,
            IoKind::WouldBlock => TransportErrorKind::WouldBlock,
            _ => TransportErrorKind::Io,
        };
        Self::new(kind, err.to_string())
    }
}

impl From<TransportError> for StreamError {
    fn from(err: TransportError) -> Self {
        match err.kind {
            TransportErrorKind::Protocol => StreamError::protocol(err.message),
            _ => StreamError::transport(err.message),
        }
    }
}

impl From<TransportError> for RecvError {
    fn from(err: TransportError) -> Self {
        match err.kind {
            TransportErrorKind::Closed => RecvError::Closed,
            _ => RecvError::PeerFailed,
        }
    }
}

impl From<TransportError> for SendError {
    fn from(err: TransportError) -> Self {
        match err.kind {
            TransportErrorKind::Closed => SendError::Closed,
            TransportErrorKind::WouldBlock => SendError::WouldBlock,
            _ => SendError::PeerFailed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pando_netsim::channel::{pair_with_clock, ChannelConfig};
    use pando_netsim::sim::Clock;

    fn dyn_pair() -> (Arc<dyn Transport>, Arc<dyn Transport>) {
        dyn_pair_on(Clock::wall())
    }

    fn dyn_pair_on(clock: Clock) -> (Arc<dyn Transport>, Arc<dyn Transport>) {
        let (a, b) = pair_with_clock::<Message>(ChannelConfig::instant(), clock);
        (Arc::new(a), Arc::new(b))
    }

    #[test]
    fn endpoint_round_trips_through_the_trait() {
        let (master, volunteer) = dyn_pair();
        master.send(Message::Heartbeat).unwrap();
        // An instant link: each frame is deliverable once sent.
        assert_eq!(volunteer.try_recv().unwrap(), Message::Heartbeat);
        master.close();
        assert_eq!(volunteer.try_recv().unwrap_err(), RecvError::Closed);
    }

    #[test]
    fn waker_fires_through_the_trait() {
        let (master, volunteer) = dyn_pair();
        let fired = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = fired.clone();
        volunteer.set_waker(Arc::new(move || {
            flag.store(true, std::sync::atomic::Ordering::SeqCst);
        }));
        master.send(Message::Heartbeat).unwrap();
        assert!(fired.load(std::sync::atomic::Ordering::SeqCst));
        volunteer.clear_waker();
    }

    #[test]
    fn crash_is_detected_through_the_trait() {
        let clock = Clock::virtual_clock();
        let origin = clock.now();
        let (master, volunteer) = dyn_pair_on(clock.clone());
        volunteer.crash();
        let timeout = ChannelConfig::instant().failure_timeout;
        clock.advance_to(origin + timeout - Duration::from_nanos(1));
        assert_eq!(master.try_recv().unwrap_err(), RecvError::Empty, "failure needs the timeout");
        clock.advance_to(origin + timeout);
        assert_eq!(master.try_recv().unwrap_err(), RecvError::PeerFailed);
    }

    #[test]
    fn heartbeat_interval_comes_from_the_channel_config() {
        let (master, _volunteer) = dyn_pair();
        assert_eq!(master.heartbeat_interval(), ChannelConfig::instant().heartbeat_interval);
    }

    #[test]
    fn io_errors_classify_into_kinds() {
        use std::io::{Error, ErrorKind as IoKind};
        let eof: TransportError = Error::new(IoKind::UnexpectedEof, "eof").into();
        assert_eq!(eof.kind(), TransportErrorKind::PeerFailed);
        let bad: TransportError = Error::new(IoKind::InvalidData, "bad").into();
        assert_eq!(bad.kind(), TransportErrorKind::Protocol);
        let other: TransportError = Error::new(IoKind::AddrInUse, "busy").into();
        assert_eq!(other.kind(), TransportErrorKind::Io);
    }

    #[test]
    fn transport_error_maps_into_the_existing_taxonomy() {
        let closed = TransportError::new(TransportErrorKind::Closed, "bye");
        assert_eq!(RecvError::from(closed.clone()), RecvError::Closed);
        assert_eq!(SendError::from(closed), SendError::Closed);

        let failed = TransportError::new(TransportErrorKind::PeerFailed, "gone");
        assert_eq!(RecvError::from(failed.clone()), RecvError::PeerFailed);
        let stream: StreamError = failed.into();
        assert!(stream.is_transport());

        let proto = TransportError::new(TransportErrorKind::Protocol, "bad magic");
        let stream: StreamError = proto.into();
        assert!(stream.is_protocol());
    }

    #[test]
    fn would_block_maps_transiently_not_terminally() {
        use std::io::{Error, ErrorKind as IoKind};
        let wb: TransportError = Error::new(IoKind::WouldBlock, "full").into();
        assert_eq!(wb.kind(), TransportErrorKind::WouldBlock);
        assert_eq!(SendError::from(wb), SendError::WouldBlock);
    }
}
