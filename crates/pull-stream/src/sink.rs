//! Sinks: the consuming end of a pull-stream.
//!
//! A sink drives a source to completion. The free functions [`collect`] and
//! [`take`] drain a stream into a `Vec`; the [`Sink`] trait is used where a
//! sink must be handed around as a value, for example the sending half of a
//! network channel.

use crate::error::StreamError;
use crate::protocol::{Answer, Request};
use crate::source::{BoxSource, Source};

/// The consuming end of a pull-stream.
///
/// A sink takes ownership of a source and pulls it until the stream
/// terminates. Network channel endpoints implement `Sink` so that a pipeline
/// can be written as `pipe(source, channel.sink)`.
pub trait Sink<T>: Send {
    /// Drains `source` to completion.
    ///
    /// # Errors
    ///
    /// Returns the stream error if the source terminates with one or if the
    /// sink itself fails (for example the underlying channel closed).
    fn drain(&mut self, source: BoxSource<T>) -> Result<(), StreamError>;
}

/// A boxed, type-erased [`Sink`].
pub type BoxSink<T> = Box<dyn Sink<T> + Send>;

impl<T> Sink<T> for BoxSink<T> {
    fn drain(&mut self, source: BoxSource<T>) -> Result<(), StreamError> {
        self.as_mut().drain(source)
    }
}

/// A sink built from a closure called once per value.
///
/// The closure returns `Ok(())` to keep pulling or an error to fail the
/// stream (the error is propagated upstream with [`Request::Fail`]).
#[cfg(test)]
pub fn fn_sink<T, F>(f: F) -> FnSink<F>
where
    T: Send,
    F: FnMut(T) -> Result<(), StreamError> + Send,
{
    FnSink { f }
}

/// Sink wrapping a closure. Created by [`fn_sink`].
#[cfg(test)]
#[derive(Debug)]
pub struct FnSink<F> {
    f: F,
}

#[cfg(test)]
impl<T, F> Sink<T> for FnSink<F>
where
    T: Send,
    F: FnMut(T) -> Result<(), StreamError> + Send,
{
    fn drain(&mut self, mut source: BoxSource<T>) -> Result<(), StreamError> {
        loop {
            match source.pull(Request::Ask) {
                Answer::Value(v) => {
                    if let Err(err) = (self.f)(v) {
                        let _ = source.pull(Request::Fail(err.clone()));
                        return Err(err);
                    }
                }
                Answer::Done => return Ok(()),
                Answer::Err(err) => return Err(err),
            }
        }
    }
}

/// Pulls `source` to completion, collecting every value into a `Vec` (the
/// pull-stream `collect` module).
///
/// # Errors
///
/// Returns the stream error if the source terminates with one.
pub fn collect<T, S: Source<T>>(mut source: S) -> Result<Vec<T>, StreamError> {
    let mut out = Vec::new();
    loop {
        match source.pull(Request::Ask) {
            Answer::Value(v) => out.push(v),
            Answer::Done => return Ok(out),
            Answer::Err(err) => return Err(err),
        }
    }
}

/// Pulls at most `n` values then aborts the stream, returning the values
/// pulled. Useful for consuming a bounded prefix of an infinite stream.
///
/// # Errors
///
/// Returns the stream error if the source terminates with one before `n`
/// values were pulled.
pub fn take<T, S: Source<T>>(mut source: S, n: usize) -> Result<Vec<T>, StreamError> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        match source.pull(Request::Ask) {
            Answer::Value(v) => out.push(v),
            Answer::Done => return Ok(out),
            Answer::Err(err) => return Err(err),
        }
    }
    let _ = source.pull(Request::Abort);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{count, failing, infinite, SourceExt};

    #[test]
    fn collect_gathers_values() {
        assert_eq!(collect(count(3)).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn collect_propagates_error() {
        assert!(collect(failing::<u8>(StreamError::new("e"))).is_err());
    }

    #[test]
    fn take_bounds_infinite_stream() {
        let out = take(infinite(|i| i), 3).unwrap();
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn take_stops_at_done() {
        let out = take(count(2), 10).unwrap();
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn fn_sink_failure_propagates_upstream() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let upstream_failed = Arc::new(AtomicBool::new(false));
        let flag = upstream_failed.clone();
        let mut i = 0u64;
        let source = move |req: Request| -> Answer<u64> {
            if let Request::Fail(_) = req {
                flag.store(true, Ordering::SeqCst);
                return Answer::Done;
            }
            if req.is_termination() {
                return Answer::Done;
            }
            i += 1;
            Answer::Value(i)
        };
        let mut sink =
            fn_sink(|v: u64| if v >= 3 { Err(StreamError::new("sink full")) } else { Ok(()) });
        let err = sink.drain(source.boxed()).unwrap_err();
        assert_eq!(err.message(), "sink full");
        assert!(upstream_failed.load(Ordering::SeqCst));
    }

    #[test]
    fn fn_sink_drains_everything_on_success() {
        let mut collected = Vec::new();
        let mut sink = fn_sink(|v: u64| {
            collected.push(v);
            Ok(())
        });
        sink.drain(count(5).boxed()).unwrap();
        assert_eq!(collected, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn boxed_sink_is_still_a_sink() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let seen = Arc::new(AtomicUsize::new(0));
        let counter = seen.clone();
        let mut sink: BoxSink<u64> = Box::new(fn_sink(move |_v: u64| {
            counter.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }));
        sink.drain(count(3).boxed()).unwrap();
        assert_eq!(seen.load(Ordering::SeqCst), 3);
    }
}
