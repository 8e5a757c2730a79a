//! Simulated time.
//!
//! The evaluation replays the paper's LAN / VPN / WAN scenarios (Table 2)
//! over minutes of simulated time. Running them in wall-clock time would take
//! hours; instead a [`Clock`] lets the *real* transport stack
//! ([`channel`](crate::channel)) run on either the wall clock or a virtual
//! clock advanced explicitly by a single-threaded scheduler — the foundation
//! of the deterministic fleet simulation in `pando_core::sim`.
//!
//! [`SimTime`] and [`EventQueue`] are a stand-alone discrete-event core:
//! microsecond simulated time and an event queue that pops in time order,
//! ties in FIFO order. Nothing in the workspace calls them
//! (`docs/PUB_CENSUS.txt` lists them without a caller).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
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
        Duration::from_nanos(clock.offset_nanos.load(AtomicOrdering::SeqCst))
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
        clock.offset_nanos.fetch_max(target, AtomicOrdering::SeqCst);
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
        self.base + Duration::from_nanos(self.offset_nanos.load(AtomicOrdering::SeqCst))
    }
}

/// A point in simulated time, with microsecond resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from microseconds since the origin.
    pub fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates a time from seconds since the origin.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime((secs.max(0.0) * 1e6).round() as u64)
    }

    /// Microseconds since the origin.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the origin.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time advanced by `delay`.
    pub fn after(self, delay: Duration) -> SimTime {
        SimTime(self.0 + delay.as_micros() as u64)
    }

    /// The duration elapsed since `earlier`; zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration::from_micros(self.0.saturating_sub(earlier.0))
    }
}

impl std::ops::Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        self.after(rhs)
    }
}

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the earliest event pops first,
        // breaking ties by insertion order (FIFO).
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic event queue over a virtual clock.
///
/// # Examples
///
/// ```
/// use pando_netsim::sim::{EventQueue, SimTime};
/// use std::time::Duration;
///
/// let mut queue = EventQueue::new();
/// queue.schedule_in(Duration::from_secs(2), "second");
/// queue.schedule_in(Duration::from_secs(1), "first");
/// let (t1, e1) = queue.pop().unwrap();
/// let (t2, e2) = queue.pop().unwrap();
/// assert_eq!((e1, e2), ("first", "second"));
/// assert!(t1 < t2);
/// assert_eq!(queue.now(), t2);
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    next_seq: u64,
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), now: SimTime::ZERO, next_seq: 0 }
    }

    /// The current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulated time: events
    /// cannot be scheduled in the past.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule an event in the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Schedules `event` after `delay` of simulated time.
    pub fn schedule_in(&mut self, delay: Duration, event: E) {
        self.schedule(self.now.after(delay), event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let scheduled = self.heap.pop()?;
        self.now = scheduled.at;
        Some((scheduled.at, scheduled.event))
    }

    /// The timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if no event is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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

    #[test]
    fn sim_time_conversions() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_micros(), 1_500_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-9);
        assert_eq!(SimTime::from_micros(10).as_micros(), 10);
        assert_eq!(SimTime::ZERO.as_micros(), 0);
    }

    #[test]
    fn sim_time_arithmetic() {
        let t = SimTime::ZERO + Duration::from_millis(5);
        assert_eq!(t.as_micros(), 5_000);
        assert_eq!(t.since(SimTime::ZERO), Duration::from_millis(5));
        assert_eq!(SimTime::ZERO.since(t), Duration::ZERO);
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut queue = EventQueue::new();
        queue.schedule(SimTime::from_micros(30), "c");
        queue.schedule(SimTime::from_micros(10), "a");
        queue.schedule(SimTime::from_micros(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| queue.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_in_fifo_order() {
        let mut queue = EventQueue::new();
        let t = SimTime::from_micros(100);
        for i in 0..10 {
            queue.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| queue.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut queue = EventQueue::new();
        queue.schedule_in(Duration::from_secs(1), ());
        assert_eq!(queue.now(), SimTime::ZERO);
        assert_eq!(queue.peek_time(), Some(SimTime::from_micros(1_000_000)));
        queue.pop();
        assert_eq!(queue.now(), SimTime::from_micros(1_000_000));
        assert!(queue.is_empty());
        assert_eq!(queue.len(), 0);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut queue = EventQueue::new();
        queue.schedule_in(Duration::from_secs(1), 1u8);
        queue.pop();
        queue.schedule(SimTime::from_micros(10), 2u8);
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut queue = EventQueue::new();
        queue.schedule_in(Duration::from_secs(1), "first");
        queue.pop();
        queue.schedule_in(Duration::from_secs(1), "second");
        let (t, _) = queue.pop().unwrap();
        assert_eq!(t, SimTime::from_secs_f64(2.0));
    }
}
