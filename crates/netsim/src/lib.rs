//! Simulated network substrate for the Pando reproduction.
//!
//! The original Pando connects a master process to volunteer browsers over
//! WebSocket and WebRTC channels. What the coordination layer actually relies
//! on is a small set of transport properties: reliable in-order delivery,
//! partial synchrony (messages are usually delivered within a bound), and
//! disconnection detection through heartbeats. This crate provides those
//! properties in-process so the whole system can be exercised, measured and
//! fault-injected deterministically on one machine:
//!
//! * [`channel`] — duplex message channels with configurable latency, jitter
//!   and bandwidth, plus clean-close and crash semantics;
//! * [`heartbeat`] — heartbeat-based failure detection in the crash-stop,
//!   partially-synchronous model assumed by the paper;
//! * [`fault`] — fault injection plans (crash after N messages / after a
//!   delay) used by the deployment-scenario experiments;
//! * [`signaling`] — the *public server* used to bootstrap connections: a
//!   rendez-vous point that either relays traffic (WebSocket-style) or only
//!   brokers the handshake of a direct connection (WebRTC-style), with a NAT
//!   traversal model;
//! * [`codec`] — a length-delimited frame codec over [`bytes`], used by the
//!   core protocol to give messages a realistic wire size;
//! * [`sim`] — the [`Clock`](sim::Clock) every channel reads time from: the
//!   wall clock, or a virtual clock that the deterministic fleet simulator
//!   advances explicitly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod codec;
pub mod fault;
pub mod heartbeat;
pub mod signaling;
pub mod sim;

pub use channel::{ChannelConfig, ChannelKind, Endpoint, RecvError, SendError};
pub use fault::FaultPlan;
pub use signaling::{PublicServer, VolunteerUrl};
