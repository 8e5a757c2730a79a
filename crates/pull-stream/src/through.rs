//! Through modules (transformers): stream stages that both consume and
//! produce values, sitting between a source and a sink (paper Figure 6).
//! The master uses two: `map` ([`Map`]) and `asyncMap` ([`TryMap`]).

use crate::error::StreamError;
use crate::protocol::{Answer, Request};
use crate::source::Source;

/// Maps every value with a function. Created by
/// [`SourceExt::map_values`](crate::SourceExt::map_values).
#[derive(Debug)]
pub struct Map<S, F, T> {
    upstream: S,
    f: F,
    _marker: std::marker::PhantomData<fn(T)>,
}

impl<S, F, T> Map<S, F, T> {
    /// Wraps `upstream`, applying `f` to every value.
    pub fn new(upstream: S, f: F) -> Self {
        Self { upstream, f, _marker: std::marker::PhantomData }
    }
}

impl<T, U, S, F> Source<U> for Map<S, F, T>
where
    S: Source<T>,
    F: FnMut(T) -> U + Send,
    T: Send,
    U: Send,
{
    fn pull(&mut self, request: Request) -> Answer<U> {
        self.upstream.pull(request).map(&mut self.f)
    }

    fn try_pull(&mut self) -> Option<Answer<U>> {
        self.upstream.try_pull().map(|answer| answer.map(&mut self.f))
    }
}

/// Maps every value with a fallible function; the first error aborts the
/// upstream and terminates the stream. Created by
/// [`SourceExt::try_map`](crate::SourceExt::try_map).
///
/// This is the analogue of the pull-stream `asyncMap` module that Pando
/// workers use to apply the user-provided function `f` to each input.
#[derive(Debug)]
pub struct TryMap<S, F, T> {
    upstream: S,
    f: F,
    failed: bool,
    _marker: std::marker::PhantomData<fn(T)>,
}

impl<S, F, T> TryMap<S, F, T> {
    /// Wraps `upstream`, applying the fallible `f` to every value.
    pub fn new(upstream: S, f: F) -> Self {
        Self { upstream, f, failed: false, _marker: std::marker::PhantomData }
    }
}

impl<T, U, S, F> Source<U> for TryMap<S, F, T>
where
    S: Source<T>,
    F: FnMut(T) -> Result<U, StreamError> + Send,
    T: Send,
    U: Send,
{
    fn pull(&mut self, request: Request) -> Answer<U> {
        if self.failed {
            return Answer::Done;
        }
        match self.upstream.pull(request) {
            Answer::Value(v) => match (self.f)(v) {
                Ok(mapped) => Answer::Value(mapped),
                Err(err) => {
                    self.failed = true;
                    // Release the upstream before reporting the failure.
                    let _ = self.upstream.pull(Request::Fail(err.clone()));
                    Answer::Err(err)
                }
            },
            Answer::Done => Answer::Done,
            Answer::Err(err) => Answer::Err(err),
        }
    }

    fn try_pull(&mut self) -> Option<Answer<U>> {
        if self.failed {
            return Some(Answer::Done);
        }
        Some(match self.upstream.try_pull()? {
            Answer::Value(v) => match (self.f)(v) {
                Ok(mapped) => Answer::Value(mapped),
                Err(err) => {
                    self.failed = true;
                    let _ = self.upstream.pull(Request::Fail(err.clone()));
                    Answer::Err(err)
                }
            },
            Answer::Done => Answer::Done,
            Answer::Err(err) => Answer::Err(err),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{count, failing, SourceExt};

    #[test]
    fn map_transforms_values() {
        let out = count(3).map_values(|x| x * 10).collect_values().unwrap();
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn map_propagates_errors() {
        let err =
            failing::<u64>(StreamError::new("up")).map_values(|x| x).collect_values().unwrap_err();
        assert_eq!(err.message(), "up");
    }

    #[test]
    fn try_map_success() {
        let out = count(3).try_map(|x| Ok(x + 1)).collect_values().unwrap();
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn try_map_error_aborts_upstream() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let saw_termination = Arc::new(AtomicBool::new(false));
        let flag = saw_termination.clone();
        let mut upstream_calls = 0u64;
        let upstream = move |req: Request| -> Answer<u64> {
            if req.is_termination() {
                flag.store(true, Ordering::SeqCst);
                return Answer::Done;
            }
            upstream_calls += 1;
            Answer::Value(upstream_calls)
        };
        let err = upstream
            .try_map(|x| if x < 3 { Ok(x) } else { Err(StreamError::new("boom")) })
            .collect_values()
            .unwrap_err();
        assert_eq!(err.message(), "boom");
        assert!(saw_termination.load(Ordering::SeqCst), "upstream must be released");
    }

    #[test]
    fn try_map_is_done_after_failure() {
        let mut stream = count(10).try_map(|_| Err::<u64, _>(StreamError::new("x")));
        assert!(matches!(stream.pull(Request::Ask), Answer::Err(_)));
        assert_eq!(stream.pull(Request::Ask), Answer::Done);
    }
}
