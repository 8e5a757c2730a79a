//! Pando: personal volunteer computing — the coordination system.
//!
//! This crate assembles the substrates ([`pando_pull_stream`],
//! [`pando_netsim`], [`pando_workloads`], [`pando_devices`]) into the system
//! described by the paper (Figure 7): a **master** process that parallelises
//! the application of a function over a stream of values by lending values to
//! **volunteer** devices, each running a **worker** loop, connected through
//! WebSocket/WebRTC-like channels bootstrapped by a **public server**.
//!
//! * [`config`] — deployment configuration (batch size, channel profile,
//!   TCP knobs, clock);
//! * [`protocol`] — the wire messages exchanged between master and workers
//!   and their framed encoding;
//! * [`master`] — the [`master::Pando`] master: StreamLender + a
//!   `batch_size` window per volunteer (the reactor's credits, the paper's
//!   `pull-limit`) + ordered output;
//! * [`reactor`] — the event-driven driver of every volunteer: a fixed
//!   thread pool multiplexing dispatch and receive for the whole fleet;
//! * [`worker`] — the volunteer-side processing loop (`AsyncMap(f)`), as a
//!   thread per device or a pool serving thousands of simulated devices;
//! * [`volunteer`] — volunteer lifecycle (candidate → processor) and
//!   deployment over a [`PublicServer`](pando_netsim::signaling::PublicServer);
//! * [`monitor`] — the synchronous-parallel-search feedback loop used by the
//!   crypto-currency mining application (paper §4.2);
//! * [`metrics`] — per-device throughput accounting over a measurement
//!   window, as used for Table 2: lock-free cells fed through handles the
//!   drivers hold;
//! * [`trace`] — the deployment's typed event trace: the master's joins and
//!   session ends, and the simulator's volunteer events, rendered in one
//!   place;
//! * [`sim`] — the virtual-clock *fleet simulator* that single-steps the
//!   real reactor for tick-for-tick reproducible runs, from the paper's
//!   LAN / VPN / WAN experiments (`make paper`) to 10k-volunteer fleets;
//! * [`scenario`] — checked-in `scenarios/*.toml` topology/churn/fault
//!   scripts compiled to fleet-simulator runs, backing the golden-trace
//!   regression suite (`examples/scenario_run.rs`, `make scenarios`);
//! * [`transport`] — the [`transport::Transport`] seam between the
//!   coordination layer and the wire: the simulated [`pando_netsim`]
//!   channels and the real-socket [`transport::tcp::TcpTransport`] backend
//!   drive the same reactor through one object-safe trait.
//!
//! The wire protocol is binary end to end: every task and result travels as
//! a [`bytes::Bytes`] payload with a fixed sequence header, batched into
//! multi-record frames ([`protocol::Message::TaskBatch`]) so a whole window
//! of tasks pays the channel round-trip once. Applications plug in through a
//! [`TaskCodec`](pando_pull_stream::codec::TaskCodec) mapping their native
//! task/result types to payloads.
//!
//! # Quickstart
//!
//! ```
//! use pando_core::config::PandoConfig;
//! use pando_core::master::Pando;
//! use pando_core::worker::WorkerBuilder;
//! use pando_pull_stream::codec::StringCodec;
//! use pando_pull_stream::source::{count, SourceExt};
//!
//! // The function to distribute, typed through a codec (here plain text,
//! // the original '/pando/1.0.0' convention).
//! let square = |input: &String| -> Result<String, pando_pull_stream::StreamError> {
//!     let n: u64 = input.parse().map_err(|_| "not a number")?;
//!     Ok((n * n).to_string())
//! };
//!
//! let pando = Pando::new(PandoConfig::local_test());
//! // Two volunteer devices join.
//! let mut workers = Vec::new();
//! for _ in 0..2 {
//!     let endpoint = pando.open_volunteer_channel();
//!     workers.push(WorkerBuilder::new().spawn_typed(endpoint, StringCodec, square));
//! }
//! let output = pando
//!     .run_typed(StringCodec, count(20).map_values(|v| v.to_string()))
//!     .collect_values()
//!     .unwrap();
//! assert_eq!(output.len(), 20);
//! assert_eq!(output[3], "16");
//! for w in workers { w.join(); }
//! ```

// `deny` rather than `forbid`: the one sanctioned exception is
// `transport::sys`, the raw epoll/keepalive/timer-slack syscall shim, which
// opts back in locally. Everything else stays safe Rust.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod master;
pub mod metrics;
pub mod monitor;
pub mod protocol;
pub mod reactor;
pub mod scenario;
pub mod sim;
mod thread;
pub mod trace;
pub mod transport;
pub mod volunteer;
pub mod worker;

pub use config::PandoConfig;
pub use master::Pando;
pub use transport::{Transport, TransportError, TransportErrorKind};
pub use worker::WorkerBuilder;
