//! Sources: the producing end of a pull-stream, plus constructors for common
//! sources and the [`SourceExt`] combinator extension trait.

use crate::error::StreamError;
use crate::protocol::{Answer, Request};
use crate::sink;
use crate::through;

/// The producing end of a pull-stream.
///
/// A source is pulled by its consumer: every call to [`Source::pull`] with
/// [`Request::Ask`] produces at most one value. A source must obey the
/// protocol discipline of the pull-stream pattern:
///
/// * after answering [`Answer::Done`] or [`Answer::Err`], every subsequent
///   pull must keep answering a termination (idempotent termination);
/// * after receiving [`Request::Abort`] or [`Request::Fail`], the source must
///   release its resources and answer with a termination.
///
/// Sources provided by this crate follow the discipline; combinators in
/// [`SourceExt`] preserve it.
///
/// # Examples
///
/// ```
/// use pando_pull_stream::{Answer, Request, Source};
/// use pando_pull_stream::source::count;
///
/// let mut source = count(2);
/// assert_eq!(source.pull(Request::Ask), Answer::Value(1));
/// assert_eq!(source.pull(Request::Ask), Answer::Value(2));
/// assert_eq!(source.pull(Request::Ask), Answer::Done);
/// // Termination is idempotent.
/// assert_eq!(source.pull(Request::Ask), Answer::Done);
/// ```
pub trait Source<T>: Send {
    /// Answers a single request from the downstream consumer.
    fn pull(&mut self, request: Request) -> Answer<T>;

    /// Non-blocking ask: `Some(answer)` if the source can answer *right now*
    /// without waiting on another party, `None` if it would have to wait.
    ///
    /// The default conservatively reports `None` ("would block"), which is
    /// the safe answer for interactive sources (a stubborn queue waiting for
    /// resubmissions, a network endpoint, standard input). In-memory sources
    /// and pure adapters override it, which is what lets the batching
    /// dispatcher of the master coalesce whatever is immediately available
    /// into one frame without risking a deadlock on values it has not sent
    /// yet.
    fn try_pull(&mut self) -> Option<Answer<T>> {
        None
    }
}

/// A boxed, type-erased [`Source`].
pub type BoxSource<T> = Box<dyn Source<T> + Send>;

impl<T> Source<T> for BoxSource<T> {
    fn pull(&mut self, request: Request) -> Answer<T> {
        self.as_mut().pull(request)
    }

    fn try_pull(&mut self) -> Option<Answer<T>> {
        self.as_mut().try_pull()
    }
}

impl<T, F> Source<T> for F
where
    F: FnMut(Request) -> Answer<T> + Send,
{
    fn pull(&mut self, request: Request) -> Answer<T> {
        self(request)
    }
}

/// Extension methods available on every [`Source`].
///
/// These are the pull-stream modules the master composes: `map`
/// ([`SourceExt::map_values`]), `asyncMap` ([`SourceExt::try_map`]) and
/// `collect` ([`SourceExt::collect_values`]).
pub trait SourceExt<T>: Source<T> + Sized + 'static
where
    T: Send + 'static,
{
    /// Boxes the source, erasing its concrete type.
    #[cfg(test)]
    fn boxed(self) -> BoxSource<T> {
        Box::new(self)
    }

    /// Transforms every value with `f` (the pull-stream `map` module).
    ///
    /// ```
    /// use pando_pull_stream::source::{count, SourceExt};
    /// let doubled: Vec<u64> = count(3).map_values(|x| x * 2).collect_values().unwrap();
    /// assert_eq!(doubled, vec![2, 4, 6]);
    /// ```
    fn map_values<U, F>(self, f: F) -> through::Map<Self, F, T>
    where
        U: Send + 'static,
        F: FnMut(T) -> U + Send + 'static,
    {
        through::Map::new(self, f)
    }

    /// Transforms every value with a fallible `f` (the pull-stream `asyncMap`
    /// module used by Pando workers). The first error terminates the stream
    /// with [`Answer::Err`] and aborts the upstream source.
    ///
    /// ```
    /// use pando_pull_stream::source::{count, SourceExt};
    /// use pando_pull_stream::StreamError;
    /// let result = count(10)
    ///     .try_map(|x| if x < 4 { Ok(x) } else { Err(StreamError::new("too big")) })
    ///     .collect_values();
    /// assert!(result.is_err());
    /// ```
    fn try_map<U, F>(self, f: F) -> through::TryMap<Self, F, T>
    where
        U: Send + 'static,
        F: FnMut(T) -> Result<U, StreamError> + Send + 'static,
    {
        through::TryMap::new(self, f)
    }

    /// Collects every value into a `Vec` (the `collect` sink).
    ///
    /// # Errors
    ///
    /// Returns the stream error if the source terminates with one.
    fn collect_values(self) -> Result<Vec<T>, StreamError> {
        sink::collect(self)
    }
}

impl<T, S> SourceExt<T> for S
where
    S: Source<T> + Sized + 'static,
    T: Send + 'static,
{
}

/// A source over the items of any [`IntoIterator`].
///
/// ```
/// use pando_pull_stream::source::{from_iter, SourceExt};
/// let out: Vec<&str> = from_iter(["a", "b"]).collect_values().unwrap();
/// assert_eq!(out, vec!["a", "b"]);
/// ```
pub fn from_iter<I>(iter: I) -> impl Source<I::Item>
where
    I: IntoIterator,
    I::IntoIter: Send,
    I::Item: Send,
{
    IterSource { iter: Some(iter.into_iter()) }
}

/// A source over an explicit vector of values (the pull-stream `values` module).
#[cfg(test)]
pub fn values<T: Send>(values: Vec<T>) -> impl Source<T> {
    from_iter(values)
}

/// A lazy source counting from 1 to `n` (paper Figure 5).
///
/// ```
/// use pando_pull_stream::source::{count, SourceExt};
/// assert_eq!(count(4).collect_values().unwrap(), vec![1, 2, 3, 4]);
/// ```
pub fn count(n: u64) -> impl Source<u64> {
    from_iter(1..=n)
}

/// An infinite source calling `f(i)` for `i = 0, 1, 2, ...` on every ask.
///
/// Infinite sources are the reason Pando is *lazy*: values are only generated
/// when a participating device has capacity to process them.
pub fn infinite<T, F>(f: F) -> impl Source<T>
where
    T: Send,
    F: FnMut(u64) -> T + Send,
{
    Generate { f, next: 0, terminated: false }
}

/// A source that immediately terminates with the given error.
#[cfg(test)]
pub fn failing<T: Send>(error: StreamError) -> Failing<T> {
    Failing { error, _marker: std::marker::PhantomData }
}

/// Source over an iterator. Created by [`from_iter`] and [`count`].
#[derive(Debug)]
struct IterSource<I> {
    iter: Option<I>,
}

impl<I> Source<I::Item> for IterSource<I>
where
    I: Iterator + Send,
    I::Item: Send,
{
    fn pull(&mut self, request: Request) -> Answer<I::Item> {
        if request.is_termination() {
            self.iter = None;
            return match request {
                Request::Fail(err) => Answer::Err(err),
                _ => Answer::Done,
            };
        }
        match self.iter.as_mut().and_then(Iterator::next) {
            Some(value) => Answer::Value(value),
            None => {
                self.iter = None;
                Answer::Done
            }
        }
    }

    fn try_pull(&mut self) -> Option<Answer<I::Item>> {
        // In-memory: the next item is always immediately available.
        Some(self.pull(Request::Ask))
    }
}

/// Infinite generator source. Created by [`infinite`].
#[derive(Debug)]
struct Generate<F> {
    f: F,
    next: u64,
    terminated: bool,
}

impl<T, F> Source<T> for Generate<F>
where
    T: Send,
    F: FnMut(u64) -> T + Send,
{
    fn pull(&mut self, request: Request) -> Answer<T> {
        if self.terminated || request.is_termination() {
            self.terminated = true;
            return match request {
                Request::Fail(err) => Answer::Err(err),
                _ => Answer::Done,
            };
        }
        let index = self.next;
        self.next += 1;
        Answer::Value((self.f)(index))
    }

    fn try_pull(&mut self) -> Option<Answer<T>> {
        // Generators compute rather than wait; answering is immediate.
        Some(self.pull(Request::Ask))
    }
}

/// Source terminating immediately with an error. Created by [`failing`].
#[cfg(test)]
#[derive(Debug)]
pub struct Failing<T> {
    error: StreamError,
    _marker: std::marker::PhantomData<fn() -> T>,
}

#[cfg(test)]
impl<T: Send> Source<T> for Failing<T> {
    fn pull(&mut self, _request: Request) -> Answer<T> {
        Answer::Err(self.error.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_produces_one_to_n() {
        let out = count(5).collect_values().unwrap();
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn count_zero_is_empty() {
        let out = count(0).collect_values().unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn values_round_trip() {
        let out = values(vec!["x", "y", "z"]).collect_values().unwrap();
        assert_eq!(out, vec!["x", "y", "z"]);
    }

    #[test]
    fn termination_is_idempotent() {
        let mut src = count(1);
        assert_eq!(src.pull(Request::Ask), Answer::Value(1));
        assert_eq!(src.pull(Request::Ask), Answer::Done);
        assert_eq!(src.pull(Request::Ask), Answer::Done);
    }

    #[test]
    fn abort_releases_source() {
        let mut src = count(100);
        assert_eq!(src.pull(Request::Ask), Answer::Value(1));
        assert_eq!(src.pull(Request::Abort), Answer::Done);
        assert_eq!(src.pull(Request::Ask), Answer::Done);
    }

    #[test]
    fn fail_echoes_error() {
        let mut src = count(100);
        let answer = src.pull(Request::Fail(StreamError::new("downstream")));
        assert_eq!(answer, Answer::Err(StreamError::new("downstream")));
    }

    #[test]
    fn infinite_is_lazy_and_unbounded() {
        let out = sink::take(infinite(|i| i * i), 4).unwrap();
        assert_eq!(out, vec![0, 1, 4, 9]);
    }

    #[test]
    fn failing_source_reports_error() {
        let err = failing::<u8>(StreamError::new("nope")).collect_values().unwrap_err();
        assert_eq!(err.message(), "nope");
    }

    #[test]
    fn closure_is_a_source() {
        let mut remaining = 2;
        let closure = move |req: Request| -> Answer<u32> {
            if req.is_termination() || remaining == 0 {
                Answer::Done
            } else {
                remaining -= 1;
                Answer::Value(remaining)
            }
        };
        let out = closure.collect_values().unwrap();
        assert_eq!(out, vec![1, 0]);
    }

    #[test]
    fn boxed_source_is_still_a_source() {
        let boxed: BoxSource<u64> = count(3).boxed();
        assert_eq!(boxed.collect_values().unwrap(), vec![1, 2, 3]);
    }
}
