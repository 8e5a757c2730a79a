//! Small synchronization primitives shared by the concurrent stream modules.

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

/// A single-use signal that can be waited on from several threads.
///
/// Used to announce that a volunteer's session ended: the reactor fires it
/// when a driver finishes, and a handle's `join` waits on it.
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
