//! The process-global epoll readiness loop behind [`TcpTransport`].
//!
//! ```text
//!            conns (round-robin over shards)
//!   ┌─────────┬─────────┬─────────┬─────────┬─────────┐
//!   │ conn 0  │ conn 1  │ conn 2  │ conn 3  │ conn N  │   non-blocking
//!   └────┬────┴────┬────┴────┬────┴────┬────┴────┬────┘   sockets
//!        └────┐    └──────┐  └───┐     └──┐      │
//!         ┌───▼───────────▼──┐ ┌─▼────────▼──────▼───┐
//!         │ shard 0 (epoll)  │ │ shard 1 (epoll)     │  … poller_threads
//!         │ thread tcp-poll-0│ │ thread tcp-poll-1   │    shards total
//!         └──────────────────┘ └─────────────────────┘
//! ```
//!
//! Each shard owns one epoll instance and a disjoint subset of the
//! process's connections (assigned round-robin at registration), so shards
//! never contend on each other. Level-triggered interest is maintained as
//! `EPOLLIN | EPOLLRDHUP` while the read half is open, plus `EPOLLOUT`
//! exactly while the outbound queue is non-empty — every interest change
//! happens under the connection's write lock, so an enqueue can never race
//! a drain into a lost wakeup.
//!
//! Fairness: a readable event reads at most a few chunks and a writable
//! event writes at most a bounded burst before moving to the next ready
//! connection; level-triggered epoll re-reports the remainder on the next
//! `epoll_wait`, which is what gives round-robin progress across a fleet
//! with one fire-hose peer. Each `epoll_wait` (bounded at 100ms) is
//! followed by a sweep that runs the same heartbeat-suspicion check the
//! lazy receive path uses, so a silent peer is detected even when nobody is
//! polling its transport.
//!
//! [`TcpTransport`]: super::TcpTransport

use super::super::sys;
use super::{ReadOutcome, Shared, WriteState, READ_CHUNK};
use crate::transport::{TransportError, TransportErrorKind};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, IoSlice, Write};
use std::net::Shutdown;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Interest kept while the read half is open.
const READ_INTEREST: u32 = sys::EPOLLIN | sys::EPOLLRDHUP;
/// Readiness bits that mean "try reading" (errors and hangups surface as
/// a read result, which classifies them precisely).
const READ_EVENTS: u32 = sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR;
/// Most frames drained with a single vectored write...
const MAX_FRAMES_PER_WRITE: usize = 16;
/// ...and most pieces (`IOV_MAX`): a cap only frames of dozens of long payloads meet.
const MAX_PIECES_PER_WRITE: usize = 1024;
/// Byte cap per writable event; the remainder is re-reported by
/// level-triggered epoll so other ready connections get their turn.
const MAX_BYTES_PER_EVENT: usize = 256 * 1024;
/// Chunk-read cap per readable event, for the same fairness reason.
const MAX_CHUNKS_PER_EVENT: usize = 4;
/// Upper bound on `epoll_wait` so the suspicion sweep runs regularly.
const WAIT_TIMEOUT: Duration = Duration::from_millis(100);

/// One epoll instance plus the connections assigned to it.
struct Shard {
    epoll: sys::Epoll,
    conns: Mutex<HashMap<u64, Arc<Shared>>>,
}

/// A connection's membership in a shard; dropped (taken) exactly once at
/// teardown.
pub(crate) struct Registration {
    shard: Arc<Shard>,
    token: u64,
}

static SHARDS: OnceLock<Vec<Arc<Shard>>> = OnceLock::new();
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(0);

fn spawn_shards(threads: usize) -> Vec<Arc<Shard>> {
    (0..threads)
        .map(|i| {
            let shard = Arc::new(Shard {
                epoll: sys::Epoll::new().expect("create epoll instance"),
                conns: Mutex::new(HashMap::new()),
            });
            let runner = shard.clone();
            crate::thread::spawn(format!("tcp-poll-{i}"), move || run(runner));
            shard
        })
        .collect()
}

/// Puts the socket in non-blocking mode and assigns the connection to a
/// shard. The pool is spawned on first use, sized by that connection's
/// [`poller_threads`](super::TcpConfig::poller_threads).
pub(crate) fn register(shared: &Arc<Shared>) {
    let threads = shared.config.poller_threads.clamp(1, 64);
    let shards = SHARDS.get_or_init(|| spawn_shards(threads));
    let shard = shards[NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % shards.len()].clone();
    let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
    shared.stream.set_nonblocking(true).expect("set TCP socket non-blocking");
    shard.conns.lock().insert(token, shared.clone());
    let mut write = shared.write.lock();
    write.armed_interest = READ_INTEREST;
    *shared.registration.lock() = Some(Registration { shard: shard.clone(), token });
    shard
        .epoll
        .add(shared.stream.as_raw_fd(), READ_INTEREST, token)
        .expect("register TCP socket with epoll");
    // The queue is empty at construction, but recompute anyway so any
    // exotic ordering still arms EPOLLOUT.
    update_interest(shared, &mut write);
}

/// Removes the connection from its shard (used by `crash()`; the caller
/// owns the socket shutdown).
pub(crate) fn deregister(shared: &Shared) {
    teardown(shared, false);
}

/// Recomputes the epoll interest mask from the connection's current state
/// and applies it if changed. MUST be called with the write lock held —
/// that is the invariant that makes "queue non-empty ⇒ EPOLLOUT armed"
/// race-free.
pub(crate) fn update_interest(shared: &Shared, write: &mut WriteState) {
    let reg = shared.registration.lock();
    let Some(reg) = reg.as_ref() else { return };
    let mut interest = 0u32;
    if !shared.read_closed.load(Ordering::SeqCst) {
        interest |= READ_INTEREST;
    }
    let pending = !write.aborted
        && !shared.dead.load(Ordering::SeqCst)
        && (!write.queue.is_empty() || (write.closing && !write.shutdown_done));
    if pending {
        interest |= sys::EPOLLOUT;
    }
    if interest != write.armed_interest {
        let _ = reg.shard.epoll.modify(shared.stream.as_raw_fd(), interest, reg.token);
        write.armed_interest = interest;
    }
}

/// Drains the bounded write queue with vectored writes until the socket
/// would block, the per-event byte budget runs out, or the queue empties
/// (then flushes the clean-close shutdown if one is pending). Called with
/// the write lock held.
pub(crate) fn drain_write_locked(shared: &Shared, write: &mut WriteState) {
    if write.aborted || shared.dead.load(Ordering::SeqCst) {
        return;
    }
    let mut budget = MAX_BYTES_PER_EVENT;
    while !write.queue.is_empty() && budget > 0 {
        let result = {
            let mut slices: Vec<IoSlice<'_>> =
                Vec::with_capacity(write.queue.len().min(MAX_PIECES_PER_WRITE));
            let mut frames = 0;
            for piece in write.queue.iter().take(MAX_PIECES_PER_WRITE) {
                let skip = if slices.is_empty() { write.offset } else { 0 };
                slices.push(IoSlice::new(&piece.bytes[skip..]));
                frames += usize::from(piece.ends_frame);
                if frames == MAX_FRAMES_PER_WRITE {
                    break;
                }
            }
            (&shared.stream).write_vectored(&slices)
        };
        match result {
            Ok(0) => {
                shared.fail(TransportError::new(
                    TransportErrorKind::Io,
                    "socket accepted zero bytes",
                ));
                return;
            }
            Ok(n) => {
                write.write_calls += 1;
                write.bytes_written += n as u64;
                write.queued_bytes = write.queued_bytes.saturating_sub(n);
                budget = budget.saturating_sub(n);
                // Advance the partial-write cursor: pop fully-written
                // pieces, remember the offset into the first survivor.
                let mut remaining = n;
                while remaining > 0 {
                    let avail = write.queue[0].bytes.len() - write.offset;
                    if remaining >= avail {
                        let piece = write.queue.pop_front().expect("indexed above");
                        write.offset = 0;
                        write.frames_written += u64::from(piece.ends_frame);
                        remaining -= avail;
                    } else {
                        write.offset += remaining;
                        remaining = 0;
                    }
                }
            }
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
            Err(err) => {
                shared.fail(err.into());
                return;
            }
        }
    }
    if write.queue.is_empty() && write.closing && !write.shutdown_done {
        // The close marker is on the wire: finish the clean close.
        if (&shared.stream).flush().is_ok() {
            let _ = shared.stream.shutdown(Shutdown::Write);
        }
        write.shutdown_done = true;
    }
}

fn handle_writable(shared: &Arc<Shared>) {
    let unblock = {
        let mut write = shared.write.lock();
        drain_write_locked(shared, &mut write);
        let unblock = shared.maybe_unblock(&mut write);
        update_interest(shared, &mut write);
        unblock
    };
    if unblock {
        shared.wake();
    }
}

fn handle_readable(shared: &Arc<Shared>, chunk: &mut [u8]) {
    let mut read = shared.read.lock();
    if read.eof || shared.read_closed.load(Ordering::SeqCst) {
        return;
    }
    for _ in 0..MAX_CHUNKS_PER_EVENT {
        match shared.read_once(&mut read, chunk) {
            ReadOutcome::Progress => {}
            ReadOutcome::WouldBlock | ReadOutcome::Eof => return,
            ReadOutcome::Failed => {
                drop(read);
                teardown(shared, true);
                return;
            }
        }
    }
}

/// Deregisters a connection whose work is done: dead links immediately,
/// cleanly-finished links once both directions are quiet. Otherwise just
/// refreshes interest (e.g. dropping `EPOLLIN` after EOF).
fn maybe_teardown(shared: &Arc<Shared>) {
    if shared.dead.load(Ordering::SeqCst) {
        teardown(shared, true);
        return;
    }
    if !shared.read_closed.load(Ordering::SeqCst) {
        return;
    }
    let mut write = shared.write.lock();
    let idle = write.queue.is_empty() && (write.shutdown_done || !write.closing);
    if idle {
        drop(write);
        teardown(shared, false);
    } else {
        update_interest(shared, &mut write);
    }
}

fn teardown(shared: &Shared, hard: bool) {
    let reg = shared.registration.lock().take();
    if let Some(reg) = reg {
        let _ = reg.shard.epoll.delete(shared.stream.as_raw_fd());
        reg.shard.conns.lock().remove(&reg.token);
    }
    if hard {
        let _ = shared.stream.shutdown(Shutdown::Both);
    }
}

/// Runs the same heartbeat-timeout check the lazy receive path performs,
/// so a silent peer is detected even when nobody polls its transport.
fn sweep(shard: &Shard) {
    let conns: Vec<Arc<Shared>> = shard.conns.lock().values().cloned().collect();
    let now = Instant::now();
    for shared in conns {
        let mut state = shared.state.lock();
        if state.peer_closed || state.crashed || state.failed.is_some() {
            continue;
        }
        if shared.detector.suspects_at(state.last_heard, now) {
            shared.read_closed.store(true, Ordering::SeqCst);
            shared.dead.store(true, Ordering::SeqCst);
            state.failed = Some(TransportError::new(
                TransportErrorKind::PeerFailed,
                "peer silent past the failure timeout",
            ));
            shared.notify(&state);
            drop(state);
            teardown(&shared, true);
        }
    }
}

fn run(shard: Arc<Shard>) {
    let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 128];
    // One read scratch buffer for every connection of the shard.
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        let n = shard.epoll.wait(&mut events, Some(WAIT_TIMEOUT)).unwrap_or(0);
        for event in events.iter().take(n) {
            let event = *event;
            let (token, ready) = (event.data, event.events);
            let conn = shard.conns.lock().get(&token).cloned();
            let Some(shared) = conn else { continue };
            if ready & sys::EPOLLOUT != 0 {
                handle_writable(&shared);
            }
            if ready & READ_EVENTS != 0 {
                handle_readable(&shared, &mut chunk);
            }
            maybe_teardown(&shared);
        }
        sweep(&shard);
    }
}
