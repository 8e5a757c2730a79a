//! Stubborn processing (`pull-stubborn`): resubmission of inputs whose
//! results could not be confirmed.
//!
//! When result data is distributed through an external, failure-prone
//! protocol (paper §4.3: DAT or WebTorrent), a worker may report success while
//! the actual data transfer later fails. The *stubborn* module closes that
//! loop: inputs are produced from an underlying source plus a resubmission
//! queue; the application confirms each result after it has fully downloaded
//! the associated data, and resubmits the input otherwise. An input keeps
//! being resubmitted until it is confirmed or until a configurable retry
//! budget is exhausted.

use crate::error::StreamError;
use crate::protocol::{Answer, Request};
use crate::source::{BoxSource, Source};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

#[derive(Debug)]
struct StubbornState<T> {
    /// Inputs waiting to be (re)submitted, most urgent first.
    pending_retries: VecDeque<(u64, T)>,
    /// Inputs currently submitted and not yet confirmed.
    outstanding: HashMap<u64, (T, u32)>,
    /// Identifier for the next fresh input read from the underlying source.
    next_id: u64,
    /// Number of confirmations received.
    confirmed: u64,
    /// Number of resubmissions performed.
    resubmissions: u64,
    /// Inputs dropped because they exhausted the retry budget.
    abandoned: Vec<T>,
    upstream_done: bool,
    upstream_error: Option<StreamError>,
    closed: bool,
}

/// Shared coordination between the [`StubbornQueue`] source and its
/// [`StubbornHandle`].
#[derive(Debug)]
struct StubbornShared<T> {
    state: Mutex<StubbornState<T>>,
    changed: Condvar,
    max_attempts: u32,
}

/// An input produced by a [`StubbornQueue`], tagged with a tracking
/// identifier to confirm or resubmit it later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tracked<T = ()> {
    /// Identifier used with [`StubbornHandle::confirm`] / [`StubbornHandle::resubmit`].
    pub id: u64,
    /// Attempt number, starting at 1 for the first submission.
    pub attempt: u32,
    /// The input value.
    pub value: T,
}

/// Source of inputs that keeps resubmitting unconfirmed values.
///
/// `StubbornQueue` wraps an underlying source of inputs. Values flow out of
/// it like any other source; the application must eventually call
/// [`StubbornHandle::confirm`] for every produced value or
/// [`StubbornHandle::resubmit`] to schedule it again. The queue terminates
/// only when the underlying source is exhausted **and** every produced value
/// has been confirmed or abandoned — the stubborn part.
///
/// # Examples
///
/// ```
/// use pando_pull_stream::stubborn::StubbornQueue;
/// use pando_pull_stream::source::{from_iter, SourceExt};
/// use pando_pull_stream::{Answer, Request, Source};
///
/// let (mut queue, handle) = StubbornQueue::new(from_iter(["img-1"]), 3);
/// let first = match queue.pull(Request::Ask) {
///     Answer::Value(tracked) => tracked,
///     other => panic!("unexpected {other:?}"),
/// };
/// // The download failed: resubmit, the value comes out again.
/// handle.resubmit(first.id).unwrap();
/// let second = match queue.pull(Request::Ask) {
///     Answer::Value(tracked) => tracked,
///     other => panic!("unexpected {other:?}"),
/// };
/// assert_eq!(second.value, "img-1");
/// assert_eq!(second.attempt, 2);
/// handle.confirm(second.id).unwrap();
/// assert_eq!(queue.pull(Request::Ask), Answer::Done);
/// ```
pub struct StubbornQueue<T> {
    shared: Arc<StubbornShared<T>>,
    upstream: BoxSource<T>,
}

impl<T: std::fmt::Debug> std::fmt::Debug for StubbornQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StubbornQueue").finish_non_exhaustive()
    }
}

/// Handle used to confirm or resubmit values produced by a [`StubbornQueue`].
#[derive(Debug)]
pub struct StubbornHandle<T> {
    shared: Arc<StubbornShared<T>>,
}

impl<T> Clone for StubbornHandle<T> {
    fn clone(&self) -> Self {
        Self { shared: self.shared.clone() }
    }
}

/// Counters observed by a [`StubbornQueue`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StubbornStats {
    /// Number of confirmations received.
    pub confirmed: u64,
    /// Number of resubmissions performed.
    pub resubmissions: u64,
    /// Number of inputs abandoned after exhausting the retry budget.
    pub abandoned: u64,
    /// Number of inputs currently outstanding (submitted, unconfirmed).
    pub outstanding: u64,
}

impl<T: Clone + Send + 'static> StubbornQueue<T> {
    /// Wraps `upstream`, allowing each value at most `max_attempts`
    /// submissions (the first submission counts as one attempt).
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn new(upstream: impl Source<T> + 'static, max_attempts: u32) -> (Self, StubbornHandle<T>) {
        assert!(max_attempts > 0, "max_attempts must be at least 1");
        let shared = Arc::new(StubbornShared {
            state: Mutex::new(StubbornState {
                pending_retries: VecDeque::new(),
                outstanding: HashMap::new(),
                next_id: 0,
                confirmed: 0,
                resubmissions: 0,
                abandoned: Vec::new(),
                upstream_done: false,
                upstream_error: None,
                closed: false,
            }),
            changed: Condvar::new(),
            max_attempts,
        });
        (Self { shared: shared.clone(), upstream: Box::new(upstream) }, StubbornHandle { shared })
    }
}

impl<T: Clone + Send + 'static> Source<Tracked<T>> for StubbornQueue<T> {
    fn pull(&mut self, request: Request) -> Answer<Tracked<T>> {
        if request.is_termination() {
            let mut state = self.shared.state.lock();
            state.closed = true;
            drop(state);
            self.shared.changed.notify_all();
            let _ = self.upstream.pull(request.clone());
            return match request {
                Request::Fail(err) => Answer::Err(err),
                _ => Answer::Done,
            };
        }
        loop {
            // 1. Resubmissions take priority over fresh values.
            {
                let mut state = self.shared.state.lock();
                if state.closed {
                    return Answer::Done;
                }
                if let Some((id, value)) = state.pending_retries.pop_front() {
                    let attempts = state.outstanding.get(&id).map(|(_, a)| *a).unwrap_or(0) + 1;
                    state.outstanding.insert(id, (value.clone(), attempts));
                    return Answer::Value(Tracked { id, attempt: attempts, value });
                }
                if state.upstream_done {
                    if state.outstanding.is_empty() {
                        return match state.upstream_error.clone() {
                            Some(err) => Answer::Err(err),
                            None => Answer::Done,
                        };
                    }
                    // Wait stubbornly: a confirmation or resubmission will
                    // wake us up.
                    self.shared.changed.wait(&mut state);
                    continue;
                }
            }
            // 2. Read a fresh value from the underlying source (outside the
            //    lock so confirmations are never blocked by a slow source).
            match self.upstream.pull(Request::Ask) {
                Answer::Value(value) => {
                    let mut state = self.shared.state.lock();
                    let id = state.next_id;
                    state.next_id += 1;
                    state.outstanding.insert(id, (value.clone(), 1));
                    return Answer::Value(Tracked { id, attempt: 1, value });
                }
                Answer::Done => {
                    let mut state = self.shared.state.lock();
                    state.upstream_done = true;
                }
                Answer::Err(err) => {
                    let mut state = self.shared.state.lock();
                    state.upstream_done = true;
                    state.upstream_error = Some(err);
                }
            }
        }
    }
}

impl<T: Clone + Send + 'static> StubbornHandle<T> {
    /// Confirms that the result for the value identified by `id` was fully
    /// received; the value will never be resubmitted.
    ///
    /// # Errors
    ///
    /// Returns a protocol error if `id` is unknown or already settled.
    pub fn confirm(&self, id: u64) -> Result<(), StreamError> {
        let mut state = self.shared.state.lock();
        if state.outstanding.remove(&id).is_none() {
            return Err(StreamError::protocol(format!("confirm for unknown input {id}")));
        }
        state.confirmed += 1;
        drop(state);
        self.shared.changed.notify_all();
        Ok(())
    }

    /// Schedules the value identified by `id` for resubmission, typically
    /// because the external data transfer failed.
    ///
    /// If the value already used its full retry budget it is abandoned
    /// instead and `Ok(false)` is returned.
    ///
    /// # Errors
    ///
    /// Returns a protocol error if `id` is unknown or already settled.
    pub fn resubmit(&self, id: u64) -> Result<bool, StreamError> {
        let mut state = self.shared.state.lock();
        let Some((value, attempts)) = state.outstanding.get(&id).cloned() else {
            return Err(StreamError::protocol(format!("resubmit for unknown input {id}")));
        };
        if attempts >= self.shared.max_attempts {
            state.outstanding.remove(&id);
            state.abandoned.push(value);
            drop(state);
            self.shared.changed.notify_all();
            return Ok(false);
        }
        state.resubmissions += 1;
        state.pending_retries.push_back((id, value));
        drop(state);
        self.shared.changed.notify_all();
        Ok(true)
    }

    /// A snapshot of the queue's counters.
    pub fn stats(&self) -> StubbornStats {
        let state = self.shared.state.lock();
        StubbornStats {
            confirmed: state.confirmed,
            resubmissions: state.resubmissions,
            abandoned: state.abandoned.len() as u64,
            outstanding: state.outstanding.len() as u64,
        }
    }

    /// The inputs abandoned after exhausting their retry budget.
    pub fn abandoned(&self) -> Vec<T> {
        self.shared.state.lock().abandoned.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{count, values};
    use std::thread;
    use std::time::Duration;

    fn pull_value<T: Clone + Send + 'static>(queue: &mut StubbornQueue<T>) -> Tracked<T> {
        match queue.pull(Request::Ask) {
            Answer::Value(v) => v,
            other => panic!("expected a value, got {:?}", other.is_done()),
        }
    }

    #[test]
    #[should_panic(expected = "max_attempts")]
    fn zero_attempts_panics() {
        let _ = StubbornQueue::new(count(1), 0);
    }

    #[test]
    fn all_confirmed_terminates() {
        let (mut queue, handle) = StubbornQueue::new(count(3), 3);
        for expected in 1..=3u64 {
            let tracked = pull_value(&mut queue);
            assert_eq!(tracked.value, expected);
            assert_eq!(tracked.attempt, 1);
            handle.confirm(tracked.id).unwrap();
        }
        assert_eq!(queue.pull(Request::Ask), Answer::Done);
        assert_eq!(handle.stats().confirmed, 3);
    }

    #[test]
    fn resubmitted_value_comes_back() {
        let (mut queue, handle) = StubbornQueue::new(values(vec!["a", "b"]), 5);
        let a1 = pull_value(&mut queue);
        let b1 = pull_value(&mut queue);
        assert!(handle.resubmit(a1.id).unwrap());
        handle.confirm(b1.id).unwrap();
        let a2 = pull_value(&mut queue);
        assert_eq!(a2.value, "a");
        assert_eq!(a2.attempt, 2);
        assert_eq!(a2.id, a1.id);
        handle.confirm(a2.id).unwrap();
        assert_eq!(queue.pull(Request::Ask), Answer::Done);
        assert_eq!(handle.stats().resubmissions, 1);
    }

    #[test]
    fn retry_budget_abandons_value() {
        let (mut queue, handle) = StubbornQueue::new(values(vec![42u32]), 2);
        let first = pull_value(&mut queue);
        assert!(handle.resubmit(first.id).unwrap());
        let second = pull_value(&mut queue);
        assert_eq!(second.attempt, 2);
        // Budget exhausted: the resubmission is refused and the value abandoned.
        assert!(!handle.resubmit(second.id).unwrap());
        assert_eq!(queue.pull(Request::Ask), Answer::Done);
        assert_eq!(handle.abandoned(), vec![42]);
        assert_eq!(handle.stats().abandoned, 1);
    }

    #[test]
    fn unknown_ids_are_rejected() {
        let (_queue, handle) = StubbornQueue::new(count(1), 2);
        assert!(handle.confirm(7).unwrap_err().is_protocol());
        assert!(handle.resubmit(7).unwrap_err().is_protocol());
    }

    #[test]
    fn double_confirm_is_rejected() {
        let (mut queue, handle) = StubbornQueue::new(count(1), 2);
        let t = pull_value(&mut queue);
        handle.confirm(t.id).unwrap();
        assert!(handle.confirm(t.id).is_err());
    }

    #[test]
    fn waits_for_late_confirmation_before_terminating() {
        let (mut queue, handle) = StubbornQueue::new(count(1), 3);
        let t = pull_value(&mut queue);
        // Confirm from another thread after a delay: the pull below must block
        // stubbornly until then instead of terminating early.
        let confirmer = {
            let handle = handle.clone();
            thread::spawn(move || {
                thread::sleep(Duration::from_millis(50));
                handle.confirm(t.id).unwrap();
            })
        };
        assert_eq!(queue.pull(Request::Ask), Answer::Done);
        confirmer.join().unwrap();
    }

    #[test]
    fn abort_terminates_even_with_outstanding_values() {
        let (mut queue, handle) = StubbornQueue::new(count(10), 3);
        let t = pull_value(&mut queue);
        assert_eq!(queue.pull(Request::Abort), Answer::Done);
        assert_eq!(queue.pull(Request::Ask), Answer::Done);
        // Confirming afterwards is still accepted (the value was outstanding).
        handle.confirm(t.id).unwrap();
    }

    #[test]
    fn upstream_error_is_reported_after_outstanding_settled() {
        let (mut queue, handle) =
            StubbornQueue::new(crate::source::failing::<u32>(StreamError::new("source broke")), 2);
        let answer = queue.pull(Request::Ask);
        assert_eq!(answer, Answer::Err(StreamError::new("source broke")));
        assert_eq!(handle.stats().outstanding, 0);
    }

    #[test]
    fn stats_track_outstanding() {
        let (mut queue, handle) = StubbornQueue::new(count(5), 3);
        let _a = pull_value(&mut queue);
        let _b = pull_value(&mut queue);
        assert_eq!(handle.stats().outstanding, 2);
    }
}
