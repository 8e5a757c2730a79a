//! The one way the library starts a thread.
//!
//! Every thread `pando-core` spawns starts in [`spawn`]: the reactor pool,
//! the input pump, the TCP pollers and acceptor, the signalling acceptor, the
//! worker and pool threads and the session redial thread. Each is named (the
//! names are what `/proc` shows, and thread censuses and profiles group by
//! them) and asks the kernel for a timer slack of [`TIMER_SLACK_NS`].
//!
//! Linux may end a timed sleep — a `park_timeout`, a condvar wait, an
//! `epoll_wait` timeout — up to the thread's timer slack past its deadline,
//! 50 µs by default, to batch wake-ups. A library thread that sleeps to a
//! deadline wants it met: the input pump runs the user's source, which may
//! release values on a schedule; a pool thread runs the user's `process`;
//! the reactor's timers re-poll drivers at their transports' deadlines.

use crate::transport::sys;
use std::ffi::c_ulong;
use std::thread::JoinHandle;

/// The timer slack of every library thread: a timed sleep ends at its
/// deadline.
const TIMER_SLACK_NS: c_ulong = 1;

/// Spawns a thread called `name` that runs `body` with on-time timers.
///
/// # Panics
///
/// Panics if the operating system cannot start the thread.
pub(crate) fn spawn<T, F>(name: String, body: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            // A refusal leaves the default slack: the thread still runs
            // correctly, its timed sleeps up to 50 µs late.
            let _ = sys::set_timer_slack(TIMER_SLACK_NS);
            body()
        })
        .expect("spawn a library thread")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_library_thread_is_named_and_wakes_on_time() {
        let probe = spawn("slack-probe".into(), || {
            let name = std::thread::current().name().map(str::to_owned);
            (name, sys::timer_slack().expect("PR_GET_TIMERSLACK"))
        });
        let (name, slack) = probe.join().unwrap();
        assert_eq!(name.as_deref(), Some("slack-probe"));
        assert_eq!(slack, TIMER_SLACK_NS);
    }
}
