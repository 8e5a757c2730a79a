//! Heartbeat-based failure detection.
//!
//! Pando relies on the heartbeat mechanism of WebSocket and WebRTC to suspect
//! failures: a peer that stops answering heartbeats within a time bound is
//! considered crashed (crash-stop model under partial synchrony, paper §2.3).
//! [`FailureDetector`] captures that logic in one place so the simulated
//! channels and the master's drivers share the same semantics.

use std::time::{Duration, Instant};

/// A simple timeout-based failure detector.
///
/// The detector is *eventually accurate* under partial synchrony: a peer that
/// keeps sending heartbeats within the interval is never suspected, and a
/// crashed peer is suspected at most `failure_timeout` after its last sign of
/// life.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    failure_timeout: Duration,
}

impl FailureDetector {
    /// Creates a detector.
    ///
    /// # Panics
    ///
    /// Panics if `failure_timeout` is not strictly larger than
    /// `heartbeat_interval`: the detector would suspect correct peers between
    /// two heartbeats.
    pub fn new(heartbeat_interval: Duration, failure_timeout: Duration) -> Self {
        assert!(
            failure_timeout > heartbeat_interval,
            "failure timeout must exceed the heartbeat interval"
        );
        Self { failure_timeout }
    }

    /// Returns `true` if a peer last heard from at `last_seen` should be
    /// suspected of having crashed by `now`. The caller supplies `now` so
    /// components running on a virtual [`Clock`](crate::sim::Clock) compare
    /// simulated timestamps against simulated time, not wall time.
    pub fn suspects_at(&self, last_seen: Instant, now: Instant) -> bool {
        now.saturating_duration_since(last_seen) >= self.failure_timeout
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector(timeout_ms: u64) -> FailureDetector {
        FailureDetector::new(
            Duration::from_millis(timeout_ms / 3),
            Duration::from_millis(timeout_ms),
        )
    }

    #[test]
    #[should_panic(expected = "failure timeout must exceed")]
    fn timeout_must_exceed_interval() {
        let _ = FailureDetector::new(Duration::from_millis(10), Duration::from_millis(5));
    }

    #[test]
    fn fresh_peer_is_not_suspected() {
        let d = detector(100);
        let now = Instant::now();
        assert!(!d.suspects_at(now, now));
        assert!(!d.suspects_at(now, now + Duration::from_millis(99)));
    }

    #[test]
    fn stale_peer_is_suspected() {
        let d = detector(30);
        let now = Instant::now();
        assert!(d.suspects_at(now, now + Duration::from_millis(30)));
        assert!(d.suspects_at(now, now + Duration::from_millis(500)));
    }
}
