//! Simulated time.
//!
//! The evaluation replays the paper's LAN / VPN / WAN scenarios (Table 2)
//! over minutes of simulated time. Running them in wall-clock time would take
//! hours; instead a [`Clock`] lets the *real* transport stack
//! ([`channel`](crate::channel)) run on either the wall clock or a virtual
//! clock advanced explicitly by a single-threaded scheduler — the foundation
//! of the deterministic fleet simulation in `pando_core::sim`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A clock the transport stack reads the current time from.
///
/// The wall clock (the default) is [`Instant::now`]. A *virtual* clock is
/// anchored at an arbitrary origin captured once at creation and only moves
/// when [`Clock::advance_to`] is called — every component that reads time
/// through the clock (channel delivery, failure suspicion, heartbeat pacing,
/// reactor timers) then becomes a deterministic function of the sequence of
/// advances, which is what makes two same-seed simulation runs produce
/// byte-identical traces.
///
/// Cloning a virtual clock yields another handle on the *same* time line.
///
/// # Examples
///
/// ```
/// use pando_netsim::sim::Clock;
/// use std::time::Duration;
///
/// let clock = Clock::virtual_clock();
/// let start = clock.now();
/// clock.advance_to(start + Duration::from_millis(5));
/// assert_eq!(clock.elapsed(), Duration::from_millis(5));
/// assert_eq!(clock.now() - start, Duration::from_millis(5));
/// ```
#[derive(Clone, Debug)]
pub struct Clock(Option<Arc<VirtualClock>>);

impl Clock {
    /// The wall clock: [`Clock::now`] is [`Instant::now`].
    pub fn wall() -> Self {
        Clock(None)
    }

    /// A fresh virtual clock at its origin. Time only moves through
    /// [`Clock::advance_to`].
    pub fn virtual_clock() -> Self {
        Clock(Some(Arc::new(VirtualClock::new())))
    }

    /// `true` for a virtual clock.
    pub fn is_virtual(&self) -> bool {
        self.0.is_some()
    }

    /// The current instant on this clock.
    pub fn now(&self) -> Instant {
        match &self.0 {
            None => Instant::now(),
            Some(clock) => clock.now(),
        }
    }

    /// Time elapsed since the origin of a virtual clock.
    ///
    /// # Panics
    ///
    /// Panics on the wall clock, which has no origin.
    pub fn elapsed(&self) -> Duration {
        let clock = self.0.as_ref().expect("the wall clock has no origin to measure from");
        Duration::from_nanos(clock.offset_nanos.load(Ordering::SeqCst))
    }

    /// Moves a virtual clock forward to `at`. Advancing to an instant that
    /// already passed is a no-op: virtual time never goes backwards.
    ///
    /// # Panics
    ///
    /// Panics on the wall clock, which cannot be steered.
    pub fn advance_to(&self, at: Instant) {
        let clock = self.0.as_ref().expect("the wall clock cannot be advanced");
        let target = at.saturating_duration_since(clock.base).as_nanos() as u64;
        clock.offset_nanos.fetch_max(target, Ordering::SeqCst);
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::wall()
    }
}

impl PartialEq for Clock {
    /// Wall clocks are all equal; virtual clocks are equal when they are
    /// handles on the same time line.
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// The shared state behind a virtual [`Clock`]: an anchor instant plus an
/// explicitly advanced offset, at nanosecond resolution so virtual deadlines
/// (channel delivery instants, crash-suspicion maturities) are hit exactly.
#[derive(Debug)]
struct VirtualClock {
    base: Instant,
    /// Advanced with `fetch_max`, so racing advances (should a scheduler
    /// ever be multi-threaded) still keep time monotonic.
    offset_nanos: AtomicU64,
}

impl VirtualClock {
    fn new() -> Self {
        Self { base: Instant::now(), offset_nanos: AtomicU64::new(0) }
    }

    fn now(&self) -> Instant {
        self.base + Duration::from_nanos(self.offset_nanos.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_only_moves_when_advanced() {
        let clock = Clock::virtual_clock();
        assert!(clock.is_virtual());
        let start = clock.now();
        assert_eq!(clock.elapsed(), Duration::ZERO);
        assert_eq!(clock.now(), start, "virtual time stands still on its own");
        clock.advance_to(start + Duration::from_micros(250));
        assert_eq!(clock.elapsed(), Duration::from_micros(250));
        // Clones share the time line.
        let handle = clock.clone();
        handle.advance_to(start + Duration::from_millis(1));
        assert_eq!(clock.elapsed(), Duration::from_millis(1));
        assert_eq!(clock, handle);
        // Advancing backwards is a no-op.
        clock.advance_to(start);
        assert_eq!(clock.elapsed(), Duration::from_millis(1));
    }

    #[test]
    fn wall_clock_tracks_real_time() {
        let clock = Clock::wall();
        assert!(!clock.is_virtual());
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
        assert_eq!(Clock::wall(), Clock::wall());
        assert_ne!(Clock::wall(), Clock::virtual_clock());
        assert_ne!(Clock::virtual_clock(), Clock::virtual_clock(), "distinct time lines differ");
        assert_eq!(Clock::default(), Clock::wall());
    }

    #[test]
    #[should_panic(expected = "cannot be advanced")]
    fn wall_clock_cannot_be_advanced() {
        let clock = Clock::wall();
        let at = clock.now();
        clock.advance_to(at);
    }
}
