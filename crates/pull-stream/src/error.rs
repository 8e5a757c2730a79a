//! Error type shared by every pull-stream module.

use std::error::Error;
use std::fmt;

/// Error produced or propagated by a pull-stream module.
///
/// The pull-stream protocol carries errors *in band*: an upstream module may
/// answer an `ask` with [`Answer::Err`](crate::Answer::Err) and a downstream
/// module may terminate a stream early with [`Request::Fail`](crate::Request::Fail).
/// `StreamError` is intentionally a simple, cloneable message-carrying type so
/// it can travel in both directions and across threads.
///
/// # Examples
///
/// ```
/// use pando_pull_stream::StreamError;
///
/// let err = StreamError::new("worker disconnected");
/// assert_eq!(err.to_string(), "worker disconnected");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StreamError {
    message: String,
    kind: ErrorKind,
}

/// Broad classification of a [`StreamError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// A failure raised by application code (the mapped function, a sink, ...).
    Application,
    /// A transport failure: the channel to a device closed or timed out.
    Transport,
    /// A protocol violation: a module answered after `done`, returned a result
    /// for a value it never borrowed, etc.
    Protocol,
}

impl StreamError {
    /// Creates an application-level error with the given message.
    ///
    /// ```
    /// # use pando_pull_stream::StreamError;
    /// let err = StreamError::new("bad input");
    /// assert_eq!(err.kind(), pando_pull_stream::error::ErrorKind::Application);
    /// ```
    pub fn new(message: impl Into<String>) -> Self {
        Self { message: message.into(), kind: ErrorKind::Application }
    }

    /// Creates a transport-level error (channel closed, heartbeat timeout, ...).
    pub fn transport(message: impl Into<String>) -> Self {
        Self { message: message.into(), kind: ErrorKind::Transport }
    }

    /// Creates a protocol-violation error.
    pub fn protocol(message: impl Into<String>) -> Self {
        Self { message: message.into(), kind: ErrorKind::Protocol }
    }

    /// The human readable message carried by the error.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The broad classification of the error.
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    /// Returns `true` if the error came from the transport layer.
    pub fn is_transport(&self) -> bool {
        self.kind == ErrorKind::Transport
    }

    /// Returns `true` if the error marks a pull-stream protocol violation.
    pub fn is_protocol(&self) -> bool {
        self.kind == ErrorKind::Protocol
    }
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Error for StreamError {}

impl From<&str> for StreamError {
    fn from(message: &str) -> Self {
        StreamError::new(message)
    }
}

impl From<String> for StreamError {
    fn from(message: String) -> Self {
        StreamError::new(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_message() {
        let err = StreamError::new("boom");
        assert_eq!(format!("{err}"), "boom");
        assert_eq!(err.message(), "boom");
    }

    #[test]
    fn kinds_are_reported() {
        assert_eq!(StreamError::new("a").kind(), ErrorKind::Application);
        assert!(StreamError::transport("t").is_transport());
        assert!(StreamError::protocol("p").is_protocol());
        assert!(!StreamError::transport("t").is_protocol());
    }

    #[test]
    fn conversions_from_strings() {
        let a: StreamError = "oops".into();
        let b: StreamError = String::from("oops").into();
        assert_eq!(a, b);
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StreamError>();
    }

    #[test]
    fn implements_std_error() {
        fn takes_error<E: std::error::Error>(_: E) {}
        takes_error(StreamError::new("x"));
    }
}
