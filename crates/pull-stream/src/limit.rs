//! The Limiter (`pull-limit`): bounds the number of values in flight through
//! a duplex channel.
//!
//! The channel implementations used by Pando eagerly read every available
//! value on the sending side. Left unchecked, a fast input source would be
//! entirely buffered inside the channel of the first worker that connects,
//! starving the others and defeating the adaptive property of the programming
//! model. The Limiter initially lets a bounded number of inputs through and
//! afterwards releases one more input for every result that comes back. With
//! a large enough limit (the *batch size*), data transfers overlap with the
//! computation and the network latency is hidden (paper §2.4.3 and §5.5).

use crate::duplex::Duplex;
use crate::protocol::{Answer, Request};
use crate::sink::{BoxSink, Sink};
use crate::source::{BoxSource, Source};
use crate::sync::Semaphore;
use crate::StreamError;

/// Bounds the number of values in flight through a duplex.
///
/// A `Limiter` is created with a limit `n` (the batch size). Wrapping a duplex
/// with [`Limiter::wrap`] yields a new duplex whose sink side blocks once `n`
/// values have been sent without a matching value coming back out of the
/// source side.
///
/// # Examples
///
/// ```
/// use pando_pull_stream::limit::Limiter;
/// let limiter = Limiter::new(4);
/// assert_eq!(limiter.limit(), 4);
/// assert_eq!(limiter.in_flight(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Limiter {
    limit: usize,
    semaphore: Semaphore,
}

impl Limiter {
    /// Creates a limiter allowing at most `limit` values in flight.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero: a zero limit would never let any value
    /// through.
    pub fn new(limit: usize) -> Self {
        assert!(limit > 0, "limit must be at least 1");
        Self { limit, semaphore: Semaphore::new(limit) }
    }

    /// The configured limit (batch size).
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// The number of values currently in flight: the permits taken by the
    /// sink side and not yet given back by a value out of the source side.
    pub fn in_flight(&self) -> usize {
        self.limit.saturating_sub(self.semaphore.available())
    }

    /// Wraps `duplex` so that at most [`Limiter::limit`] values are in flight
    /// at any time: the returned duplex's sink blocks once the limit is
    /// reached and unblocks when values come back out of the source.
    pub fn wrap<In, Out>(&self, duplex: Duplex<In, Out>) -> Duplex<In, Out>
    where
        In: Send + 'static,
        Out: Send + 'static,
    {
        let Duplex { source, sink } = duplex;
        Duplex {
            source: Box::new(ReleasingSource { inner: source, semaphore: self.semaphore.clone() }),
            sink: Box::new(GatedSink { inner: sink, semaphore: self.semaphore.clone() }),
        }
    }
}

/// Convenience function mirroring the JavaScript `limit(duplex, n)` call.
///
/// # Panics
///
/// Panics if `limit` is zero.
pub fn limit<In, Out>(duplex: Duplex<In, Out>, limit: usize) -> Duplex<In, Out>
where
    In: Send + 'static,
    Out: Send + 'static,
{
    Limiter::new(limit).wrap(duplex)
}

struct ReleasingSource<Out> {
    inner: BoxSource<Out>,
    semaphore: Semaphore,
}

impl<Out: Send> Source<Out> for ReleasingSource<Out> {
    fn pull(&mut self, request: Request) -> Answer<Out> {
        let terminating = request.is_termination();
        let answer = self.inner.pull(request);
        match &answer {
            Answer::Value(_) => self.semaphore.release(),
            _ => self.semaphore.close(),
        }
        if terminating {
            self.semaphore.close();
        }
        answer
    }
}

struct GatedSink<In> {
    inner: BoxSink<In>,
    semaphore: Semaphore,
}

impl<In: Send + 'static> Sink<In> for GatedSink<In> {
    fn drain(&mut self, source: BoxSource<In>) -> Result<(), StreamError> {
        let gated = GatedSource { inner: source, semaphore: self.semaphore.clone() };
        self.inner.drain(Box::new(gated))
    }
}

struct GatedSource<In> {
    inner: BoxSource<In>,
    semaphore: Semaphore,
}

impl<In: Send> Source<In> for GatedSource<In> {
    fn pull(&mut self, request: Request) -> Answer<In> {
        if request.is_termination() {
            return self.inner.pull(request);
        }
        if !self.semaphore.acquire() {
            // The receiving side terminated: release the upstream and stop.
            let _ = self.inner.pull(Request::Abort);
            return Answer::Done;
        }
        match self.inner.pull(Request::Ask) {
            value @ Answer::Value(_) => value,
            terminal => {
                // Give the unused permit back so accounting stays balanced.
                self.semaphore.release();
                terminal
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::fn_sink;
    use crate::source::{count, SourceExt};
    use crossbeam::channel;
    use std::thread;
    use std::time::Duration;

    /// A duplex that echoes whatever is sent to it, with an explicit queue so
    /// tests can control when values come back.
    fn echo_duplex() -> (Duplex<u64, u64>, channel::Sender<u64>, channel::Receiver<u64>) {
        let (to_echo_tx, to_echo_rx) = channel::unbounded::<u64>();
        let (from_echo_tx, from_echo_rx) = channel::unbounded::<u64>();
        let source_rx = from_echo_rx.clone();
        let source = move |req: Request| -> Answer<u64> {
            if req.is_termination() {
                return Answer::Done;
            }
            match source_rx.recv() {
                Ok(v) => Answer::Value(v),
                Err(_) => Answer::Done,
            }
        };
        let sink = fn_sink(move |v: u64| {
            to_echo_tx.send(v).map_err(|_| StreamError::transport("echo closed"))
        });
        (Duplex::new(source, sink), from_echo_tx, to_echo_rx)
    }

    #[test]
    #[should_panic(expected = "limit must be at least 1")]
    fn zero_limit_panics() {
        let _ = Limiter::new(0);
    }

    #[test]
    fn limiter_reports_configuration() {
        let limiter = Limiter::new(3);
        assert_eq!(limiter.limit(), 3);
        assert_eq!(limiter.in_flight(), 0);
    }

    #[test]
    fn sink_blocks_at_limit_until_results_return() {
        let (duplex, results_tx, sent_rx) = echo_duplex();
        let limiter = Limiter::new(2);
        let Duplex { mut source, mut sink } = limiter.wrap(duplex);

        // Pump an effectively unbounded input through the limited sink in a
        // background thread; it must stall after 2 values.
        let pump = thread::spawn(move || sink.drain(count(1000).boxed()));
        thread::sleep(Duration::from_millis(50));
        let sent_so_far: Vec<u64> = sent_rx.try_iter().collect();
        assert_eq!(sent_so_far, vec![1, 2], "limit of 2 must stall the sender");
        assert_eq!(limiter.in_flight(), 2);

        // Returning one result through the source side releases exactly one
        // more input.
        results_tx.send(1).unwrap();
        assert_eq!(source.pull(Request::Ask), Answer::Value(1));
        thread::sleep(Duration::from_millis(50));
        let released: Vec<u64> = sent_rx.try_iter().collect();
        assert_eq!(released, vec![3], "one result returned releases one more input");

        // Terminating the receiving side closes the semaphore and lets the
        // pump finish instead of blocking forever.
        assert_eq!(source.pull(Request::Abort), Answer::Done);
        pump.join().unwrap().unwrap();
    }

    #[test]
    fn end_to_end_limited_echo() {
        // Worker thread: echoes tasks back as results, simulating a device.
        let (duplex, results_tx, sent_rx) = echo_duplex();
        let limiter = Limiter::new(3);
        let bound = limiter.clone();
        let worker = thread::spawn(move || {
            for task in sent_rx.iter() {
                // This task holds a permit; never more than the limit do.
                let in_flight = bound.in_flight();
                assert!((1..=3).contains(&in_flight), "{in_flight} in flight");
                results_tx.send(task * 10).unwrap();
            }
        });

        let Duplex { source, mut sink } = limiter.wrap(duplex);

        let collector = thread::spawn(move || crate::sink::take(source, 20).unwrap());
        let pump = thread::spawn(move || sink.drain(count(20).boxed()));

        let results = collector.join().unwrap();
        pump.join().unwrap().unwrap();
        worker.join().unwrap();
        assert_eq!(results, (1..=20).map(|v| v * 10).collect::<Vec<_>>());
        assert_eq!(limiter.in_flight(), 0, "all 20 came back");
    }

    #[test]
    fn source_termination_unblocks_sender() {
        // The worker side never returns anything and closes immediately.
        let source = |req: Request| -> Answer<u64> {
            let _ = req;
            Answer::Done
        };
        let (discard_tx, discard_rx) = channel::unbounded::<u64>();
        let sink =
            fn_sink(move |v: u64| discard_tx.send(v).map_err(|_| StreamError::transport("closed")));
        let duplex = Duplex::new(source, sink);
        let limiter = Limiter::new(1);
        let Duplex { mut source, mut sink } = limiter.wrap(duplex);

        // Terminate the receiving side first: this closes the semaphore.
        assert_eq!(source.pull(Request::Ask), Answer::Done);
        // The sending side now stops instead of blocking forever.
        sink.drain(count(100).boxed()).unwrap();
        // At most one value could have slipped through before the closure.
        assert!(discard_rx.try_iter().count() <= 1);
    }

    #[test]
    fn limit_function_matches_wrapper() {
        let (duplex, results_tx, sent_rx) = echo_duplex();
        let worker = thread::spawn(move || {
            for task in sent_rx.iter() {
                results_tx.send(task).unwrap();
            }
        });
        let Duplex { source, mut sink } = limit(duplex, 2);
        let collector = thread::spawn(move || crate::sink::take(source, 5).unwrap());
        let pump = thread::spawn(move || sink.drain(count(5).boxed()));
        assert_eq!(collector.join().unwrap(), vec![1, 2, 3, 4, 5]);
        pump.join().unwrap().unwrap();
        worker.join().unwrap();
    }

    #[test]
    fn unused_permit_returned_when_input_ends() {
        let (duplex, _results_tx, _sent_rx) = echo_duplex();
        let limiter = Limiter::new(5);
        let Duplex { source: _source, mut sink } = limiter.wrap(duplex);
        sink.drain(count(2).boxed()).unwrap();
        // Two permits consumed by the two values; the final pull that saw
        // `Done` must give its permit back.
        assert_eq!(limiter.in_flight(), 2);
        assert_eq!(limiter.semaphore.available(), 3);
    }
}
