//! Small synchronization primitives shared by the concurrent stream modules.

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

/// A counting semaphore that can be closed.
///
/// The [`Limiter`](crate::limit::Limiter) uses a semaphore to bound the number
/// of values in flight through a duplex channel. Closing the semaphore wakes
/// every waiter and makes all subsequent acquisitions fail, which is how a
/// stream termination (done, abort or failure) unblocks the sending side.
///
/// # Examples
///
/// ```
/// use pando_pull_stream::sync::Semaphore;
///
/// let sem = Semaphore::new(1);
/// assert!(sem.acquire());
/// sem.release();
/// assert!(sem.acquire());
/// sem.close();
/// assert!(!sem.acquire());
/// ```
#[derive(Debug, Clone)]
pub struct Semaphore {
    inner: Arc<SemaphoreInner>,
}

#[derive(Debug)]
struct SemaphoreInner {
    state: Mutex<SemaphoreState>,
    available: Condvar,
}

#[derive(Debug)]
struct SemaphoreState {
    permits: usize,
    closed: bool,
}

impl Semaphore {
    /// Creates a semaphore with `permits` initial permits.
    pub fn new(permits: usize) -> Self {
        Self {
            inner: Arc::new(SemaphoreInner {
                state: Mutex::new(SemaphoreState { permits, closed: false }),
                available: Condvar::new(),
            }),
        }
    }

    /// Blocks until a permit is available and takes it. Returns `false` if the
    /// semaphore was closed before a permit could be acquired.
    pub fn acquire(&self) -> bool {
        let mut state = self.inner.state.lock();
        loop {
            if state.closed {
                return false;
            }
            if state.permits > 0 {
                state.permits -= 1;
                return true;
            }
            self.inner.available.wait(&mut state);
        }
    }

    /// Returns one permit, waking a waiter if any.
    pub fn release(&self) {
        let mut state = self.inner.state.lock();
        state.permits += 1;
        drop(state);
        self.inner.available.notify_one();
    }

    /// Closes the semaphore: every current and future acquisition fails.
    pub fn close(&self) {
        let mut state = self.inner.state.lock();
        state.closed = true;
        drop(state);
        self.inner.available.notify_all();
    }

    /// The number of permits currently available.
    pub fn available(&self) -> usize {
        self.inner.state.lock().permits
    }
}

/// A single-use signal that can be waited on from several threads.
///
/// Used to propagate "the stream terminated" notifications between the two
/// pump threads of a duplex connection.
#[derive(Debug, Clone)]
pub struct Signal {
    inner: Arc<SignalInner>,
}

#[derive(Debug)]
struct SignalInner {
    fired: Mutex<bool>,
    cond: Condvar,
}

impl Signal {
    /// Creates a signal in the unfired state.
    pub fn new() -> Self {
        Self { inner: Arc::new(SignalInner { fired: Mutex::new(false), cond: Condvar::new() }) }
    }

    /// Fires the signal, waking all waiters.
    pub fn fire(&self) {
        let mut fired = self.inner.fired.lock();
        *fired = true;
        drop(fired);
        self.inner.cond.notify_all();
    }

    /// Returns `true` if the signal has fired.
    pub fn fired(&self) -> bool {
        *self.inner.fired.lock()
    }

    /// Blocks until the signal fires.
    pub fn wait(&self) {
        let mut fired = self.inner.fired.lock();
        while !*fired {
            self.inner.cond.wait(&mut fired);
        }
    }
}

impl Default for Signal {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn semaphore_basic_acquire_release() {
        let sem = Semaphore::new(1);
        assert!(sem.acquire());
        assert_eq!(sem.available(), 0);
        sem.release();
        assert_eq!(sem.available(), 1);
    }

    #[test]
    fn semaphore_close_unblocks_waiters() {
        let sem = Semaphore::new(0);
        let waiter = {
            let sem = sem.clone();
            thread::spawn(move || sem.acquire())
        };
        thread::sleep(Duration::from_millis(20));
        sem.close();
        assert!(!waiter.join().unwrap());
    }

    #[test]
    fn semaphore_release_unblocks_waiter() {
        let sem = Semaphore::new(0);
        let waiter = {
            let sem = sem.clone();
            thread::spawn(move || sem.acquire())
        };
        thread::sleep(Duration::from_millis(20));
        sem.release();
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn semaphore_counts_permits() {
        let sem = Semaphore::new(3);
        assert_eq!(sem.available(), 3);
        sem.acquire();
        sem.acquire();
        assert_eq!(sem.available(), 1);
        sem.release();
        assert_eq!(sem.available(), 2);
    }

    #[test]
    fn signal_wakes_waiters() {
        let signal = Signal::new();
        assert!(!signal.fired());
        let waiter = {
            let signal = signal.clone();
            thread::spawn(move || {
                signal.wait();
                true
            })
        };
        thread::sleep(Duration::from_millis(20));
        signal.fire();
        assert!(waiter.join().unwrap());
        assert!(signal.fired());
    }
}
