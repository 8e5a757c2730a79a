//! The pull-stream callback protocol: requests flowing upstream and answers
//! flowing downstream.
//!
//! The protocol is the Rust analogue of the JavaScript pull-stream convention
//! used by Pando (paper Figure 6): the downstream side sends a request that
//! either *asks* for the next value, *aborts* the stream normally, or *fails*
//! it with an error; the upstream side answers with a *value*, with *done*, or
//! with an *error*.

use crate::error::StreamError;

/// A request sent upstream by the consumer of a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Ask for the next value.
    Ask,
    /// Terminate the stream early, without error. The producer must release
    /// its resources and answer with [`Answer::Done`] (or an error).
    Abort,
    /// Terminate the stream early because the consumer failed. The producer
    /// must release its resources; it normally answers with [`Answer::Err`]
    /// echoing the error.
    Fail(StreamError),
}

impl Request {
    /// Returns `true` if this request terminates the stream (abort or fail).
    ///
    /// ```
    /// use pando_pull_stream::{Request, StreamError};
    /// assert!(!Request::Ask.is_termination());
    /// assert!(Request::Abort.is_termination());
    /// assert!(Request::Fail(StreamError::new("x")).is_termination());
    /// ```
    pub fn is_termination(&self) -> bool {
        !matches!(self, Request::Ask)
    }
}

/// An answer sent downstream by the producer of a stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer<T> {
    /// The next value of the stream.
    Value(T),
    /// The stream finished normally: no more values will ever be produced.
    Done,
    /// The stream finished with an error: no more values will ever be produced.
    Err(StreamError),
}

impl<T> Answer<T> {
    /// Returns `true` if the answer terminates the stream (done or error).
    pub fn is_termination(&self) -> bool {
        !matches!(self, Answer::Value(_))
    }

    /// Returns `true` if the answer is [`Answer::Done`].
    pub fn is_done(&self) -> bool {
        matches!(self, Answer::Done)
    }

    /// Returns `true` if the answer carries a value.
    pub fn is_value(&self) -> bool {
        matches!(self, Answer::Value(_))
    }

    /// Returns the carried value, if any, consuming the answer.
    #[cfg(test)]
    pub fn into_value(self) -> Option<T> {
        match self {
            Answer::Value(v) => Some(v),
            _ => None,
        }
    }

    /// Maps the carried value with `f`, leaving `Done` and `Err` untouched.
    ///
    /// ```
    /// use pando_pull_stream::Answer;
    /// let doubled = Answer::Value(21).map(|v: i32| v * 2);
    /// assert_eq!(doubled, Answer::Value(42));
    /// let done: Answer<i32> = Answer::Done;
    /// assert_eq!(done.map(|v| v * 2), Answer::Done);
    /// ```
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Answer<U> {
        match self {
            Answer::Value(v) => Answer::Value(f(v)),
            Answer::Done => Answer::Done,
            Answer::Err(e) => Answer::Err(e),
        }
    }
}

impl<T> From<Option<T>> for Answer<T> {
    fn from(value: Option<T>) -> Self {
        match value {
            Some(v) => Answer::Value(v),
            None => Answer::Done,
        }
    }
}

impl<T> From<Result<T, StreamError>> for Answer<T> {
    fn from(value: Result<T, StreamError>) -> Self {
        match value {
            Ok(v) => Answer::Value(v),
            Err(e) => Answer::Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_termination() {
        assert!(!Request::Ask.is_termination());
        assert!(Request::Abort.is_termination());
        let fail = Request::Fail(StreamError::new("x"));
        assert!(fail.is_termination());
    }

    #[test]
    fn answer_predicates() {
        let v: Answer<i32> = Answer::Value(3);
        assert!(v.is_value());
        assert!(!v.is_termination());
        assert_eq!(v.clone().into_value(), Some(3));

        let d: Answer<i32> = Answer::Done;
        assert!(d.is_done());
        assert!(d.is_termination());

        let e: Answer<i32> = Answer::Err(StreamError::new("bad"));
        assert!(e.is_termination());
    }

    #[test]
    fn answer_map_preserves_termination() {
        let e: Answer<i32> = Answer::Err(StreamError::new("bad"));
        assert_eq!(e.map(|v| v + 1), Answer::Err(StreamError::new("bad")));
    }

    #[test]
    fn conversions() {
        assert_eq!(Answer::from(Some(1)), Answer::Value(1));
        assert_eq!(Answer::<i32>::from(None), Answer::Done);
        assert_eq!(Answer::from(Ok::<_, StreamError>(1)), Answer::Value(1));
        assert_eq!(
            Answer::<i32>::from(Err(StreamError::new("e"))),
            Answer::Err(StreamError::new("e"))
        );
    }
}
