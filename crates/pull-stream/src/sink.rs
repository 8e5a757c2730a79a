//! Sinks: the consuming end of a pull-stream.
//!
//! A sink drives a source to completion. The free functions [`collect`] and
//! [`take`] drain a stream into a `Vec`.

use crate::error::StreamError;
use crate::protocol::{Answer, Request};
use crate::source::Source;

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
    use crate::source::{count, failing, infinite};

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
}
