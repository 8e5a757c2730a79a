//! What the integration tests share: waiting for a frame on a transport that
//! only polls.

use pando_core::protocol::Message;
use pando_core::transport::Transport;
use pando_netsim::channel::RecvError;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Waits up to `timeout` for `try_recv` to answer anything but `Empty`,
/// parked between polls: the registered waker (which replaces any other)
/// unparks this thread, and `next_ready_at` bounds the park while a frame is
/// in flight or a crash suspicion is pending. `Empty` once the deadline
/// passes.
pub fn recv_within(transport: &dyn Transport, timeout: Duration) -> Result<Message, RecvError> {
    let deadline = Instant::now() + timeout;
    let me = std::thread::current();
    transport.set_waker(Arc::new(move || me.unpark()));
    let received = loop {
        match transport.try_recv() {
            Err(RecvError::Empty) if Instant::now() < deadline => {
                let until = transport.next_ready_at().map_or(deadline, |at| at.min(deadline));
                std::thread::park_timeout(until.saturating_duration_since(Instant::now()));
            }
            received => break received,
        }
    };
    transport.clear_waker();
    received
}
