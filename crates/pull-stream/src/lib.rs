//! Pull-stream design pattern and the Pando coordination abstractions.
//!
//! This crate is a Rust reproduction of the streaming substrate used by the
//! Pando personal volunteer computing tool (Lavoie et al., Middleware 2019).
//! It provides:
//!
//! * the **pull-stream protocol** ([`Source`], [`Request`], [`Answer`]): a
//!   lazy, demand-driven streaming protocol in which a downstream consumer
//!   *asks* for each value and an upstream producer answers with a *value*,
//!   *done*, or an *error* — the Rust analogue of the JavaScript
//!   `pull-stream` callback protocol used by Pando;
//! * the few stream modules the coordination layer composes around them:
//!   in-memory and generated sources ([`source`]), `map` and `asyncMap`
//!   ([`through`]) and collecting sinks ([`sink`]);
//! * the typed payload layer ([`codec`]): [`codec::Payload`] is the binary
//!   wire form of every task and result (`bytes::Bytes`, cheap to clone and
//!   slice), and [`codec::TaskCodec`] maps application types to it —
//!   replacing the original tool's base64-string convention;
//! * the [`StreamLender`](lender::StreamLender) (`pull-lend-stream`), the
//!   paper's core contribution: it splits one input stream into many
//!   concurrent *sub-streams*, one per participating device, and merges the
//!   results back into a single ordered output stream while tolerating
//!   crash-stop failures of the devices;
//! * the [`ShardedLender`], which partitions the
//!   sequence space across `N` independent lender shards behind a splitter
//!   stage and merges their ordered outputs, so many cores can dispatch
//!   concurrently without a global lock;
//! * the [`StubbornQueue`](stubborn::StubbornQueue) (`pull-stubborn`), which
//!   resubmits inputs whose results could not be confirmed because an
//!   external data-distribution protocol failed.
//!
//! The paper's `pull-limit` module, which bounds the values in flight towards
//! each device so that transfers overlap with computation without flooding
//! slow workers, is not here: the master reactor's per-volunteer credits
//! (`pando_core::reactor`) are that window.
//!
//! # Quick example
//!
//! The simplest pull-stream pipeline from the paper (Figure 5): a source that
//! lazily counts from 1 to `n` connected to a sink that consumes every value.
//!
//! ```
//! use pando_pull_stream::source::{count, SourceExt};
//!
//! let values: Vec<u64> = count(10).collect_values().expect("stream failed");
//! assert_eq!(values, (1..=10).collect::<Vec<_>>());
//! ```
//!
//! # StreamLender example
//!
//! ```
//! use pando_pull_stream::source::{count, SourceExt};
//! use pando_pull_stream::lender::StreamLender;
//! use std::thread;
//!
//! let lender: StreamLender<u64, u64> = StreamLender::new(count(100));
//!
//! // Two "devices" borrow values concurrently and return squared results.
//! let mut workers = Vec::new();
//! for _ in 0..2 {
//!     let mut sub = lender.lend();
//!     workers.push(thread::spawn(move || {
//!         while let Some(task) = sub.next_task() {
//!             let result = task.value * task.value;
//!             sub.push_result(task.seq, result).unwrap();
//!         }
//!         sub.complete();
//!     }));
//! }
//!
//! let output: Vec<u64> = lender.output().collect_values().unwrap();
//! for handle in workers { handle.join().unwrap(); }
//!
//! // Results come back in input order even though two workers raced.
//! assert_eq!(output, (1..=100u64).map(|x| x * x).collect::<Vec<_>>());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod lender;
pub mod protocol;
pub mod shard;
pub mod sink;
pub mod source;
pub mod stubborn;
pub mod sync;
pub mod through;

pub use codec::{Payload, TaskCodec};
pub use error::StreamError;
pub use protocol::{Answer, Request};
pub use shard::{ShardedLender, ShardedOutput};
pub use source::{BoxSource, Source, SourceExt};
