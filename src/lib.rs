//! Pando — personal volunteer computing (Lavoie et al., Middleware 2019)
//! reproduced in Rust.
//!
//! This facade crate re-exports the workspace's sub-crates under one name and
//! owns the root-level `tests/` (cross-crate integration and experiment shape
//! checks) and `examples/` (the paper's applications end to end):
//!
//! * [`pull_stream`] — the pull-stream protocol, StreamLender and
//!   StubbornQueue (the paper's coordination substrate);
//! * [`netsim`] — simulated WebSocket/WebRTC-like channels, heartbeats,
//!   signalling and fault injection;
//! * [`devices`] — device profiles calibrated to the paper's Table 2;
//! * [`workloads`] — the six evaluated compute-bound applications;
//! * [`core`] — the master/worker coordination system;
//! * [`bench`](mod@bench) — the harness regenerating the paper's tables and
//!   figures.
//!
//! Start from [`core::master::Pando`] or run `cargo run --example quickstart`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pando_bench as bench;
pub use pando_core as core;
pub use pando_devices as devices;
pub use pando_netsim as netsim;
pub use pando_pull_stream as pull_stream;
pub use pando_workloads as workloads;
