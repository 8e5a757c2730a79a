//! Duplex streams: a paired source and sink, the shape of a bidirectional
//! channel endpoint and of a StreamLender sub-stream.

use crate::sink::BoxSink;
use crate::source::BoxSource;
#[cfg(test)]
use crate::{error::StreamError, sink::Sink, source::Source};
#[cfg(test)]
use std::thread::{self, JoinHandle};

/// A bidirectional stream endpoint.
///
/// Values of type `Out` flow *out of* the endpoint through [`Duplex::source`];
/// values of type `In` flow *into* it through [`Duplex::sink`]. A network
/// channel endpoint, a Pando worker, and a StreamLender sub-stream are all
/// duplexes, which is what lets them be composed freely (paper Figure 7).
pub struct Duplex<In, Out> {
    /// The stream of values produced by this endpoint.
    pub source: BoxSource<Out>,
    /// The consumer of values sent to this endpoint.
    pub sink: BoxSink<In>,
}

#[cfg(test)]
impl<In: Send + 'static, Out: Send + 'static> Duplex<In, Out> {
    /// Creates a duplex from a source and a sink.
    pub fn new(source: impl Source<Out> + 'static, sink: impl Sink<In> + 'static) -> Self {
        Self { source: Box::new(source), sink: Box::new(sink) }
    }
}

impl<In, Out> std::fmt::Debug for Duplex<In, Out> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Duplex").finish_non_exhaustive()
    }
}

/// Connects two duplex endpoints with two pump threads: everything produced
/// by `a` is sent into `b`, and everything produced by `b` is sent into `a`.
#[cfg(test)]
pub fn connect<A, B>(a: Duplex<A, B>, b: Duplex<B, A>) -> DuplexLink
where
    A: Send + 'static,
    B: Send + 'static,
{
    let Duplex { source: a_source, sink: mut a_sink } = a;
    let Duplex { source: b_source, sink: mut b_sink } = b;
    let forward = thread::Builder::new()
        .name("pull-duplex-forward".into())
        .spawn(move || b_sink.drain(a_source))
        .expect("spawn duplex forward pump");
    let backward = thread::Builder::new()
        .name("pull-duplex-backward".into())
        .spawn(move || a_sink.drain(b_source))
        .expect("spawn duplex backward pump");
    DuplexLink { forward, backward }
}

/// Handle on the two pump threads created by [`connect`].
#[cfg(test)]
#[derive(Debug)]
pub struct DuplexLink {
    forward: JoinHandle<Result<(), StreamError>>,
    backward: JoinHandle<Result<(), StreamError>>,
}

#[cfg(test)]
impl DuplexLink {
    /// Waits for both pump threads to finish and reports the first error.
    pub fn join(self) -> Result<(), StreamError> {
        let forward = self
            .forward
            .join()
            .map_err(|_| StreamError::protocol("duplex forward pump panicked"))?;
        let backward = self
            .backward
            .join()
            .map_err(|_| StreamError::protocol("duplex backward pump panicked"))?;
        forward.and(backward)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::fn_sink;
    use crate::source::{count, SourceExt};
    use crossbeam::channel;

    #[test]
    fn connect_pumps_both_directions() {
        // Endpoint A produces 1..=10 and records what it receives.
        let (a_recv_tx, a_recv_rx) = channel::unbounded();
        let a = Duplex::new(
            count(10),
            fn_sink(move |v: u64| a_recv_tx.send(v).map_err(|_| StreamError::transport("closed"))),
        );
        // Endpoint B produces 100..=104 and records what it receives.
        let (b_recv_tx, b_recv_rx) = channel::unbounded();
        let b = Duplex::new(
            count(5).map_values(|v| v + 99),
            fn_sink(move |v: u64| b_recv_tx.send(v).map_err(|_| StreamError::transport("closed"))),
        );
        connect(a, b).join().unwrap();
        let to_b: Vec<u64> = b_recv_rx.try_iter().collect();
        let to_a: Vec<u64> = a_recv_rx.try_iter().collect();
        assert_eq!(to_b, (1..=10).collect::<Vec<_>>());
        assert_eq!(to_a, (100..=104).collect::<Vec<_>>());
    }

    #[test]
    fn link_error_is_reported() {
        let a: Duplex<u64, u64> = Duplex::new(
            count(3),
            fn_sink(|_v: u64| Err(StreamError::new("cannot accept results"))),
        );
        let b: Duplex<u64, u64> = Duplex::new(count(3), fn_sink(|_v: u64| Ok(())));
        let err = connect(a, b).join().unwrap_err();
        assert_eq!(err.message(), "cannot accept results");
    }
}
