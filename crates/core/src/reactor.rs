//! The event-driven volunteer reactor.
//!
//! Two dedicated pump threads per volunteer (dispatcher + receiver) would
//! cap one master at low thousands of volunteers. This module drives them
//! with an epoll-style reactor instead: a small fixed pool of
//! [`ReactorConfig::threads`](crate::config::ReactorConfig::threads) OS
//! threads multiplexes dispatch *and* receive for all volunteers, all
//! borrowing from the master's one lender shard.
//!
//! The moving parts:
//!
//! * **Ready queue** — every volunteer is a driver state machine. An
//!   endpoint waker ([`Endpoint::set_waker`](pando_netsim::channel::Endpoint::set_waker)) enqueues the driver when a
//!   frame arrives or the peer closes/crashes/drops; a wake while the driver
//!   is being polled sets a *dirty* flag so the poll is re-run instead of
//!   lost (no missed wake-ups).
//! * **Timer heap** — frames whose simulated latency has not elapsed, crash
//!   suspicions that mature later ([`Endpoint::next_ready_at`](pando_netsim::channel::Endpoint::next_ready_at)) and heartbeat
//!   deadlines are re-polled via a monotonic timer heap; reactor threads
//!   sleep exactly until the earliest deadline.
//! * **A starved set with credit-sized kicks** — a driver with free window
//!   slots but no lendable value parks in the starved set, recording how
//!   many slots it has free, and the lender's change waker
//!   ([`ShardedLender::add_shard_waker`]) kicks the set only when a value
//!   became lendable (a staged value, a re-lend after a crash) or the lender
//!   can no longer lend. A value kick wakes the longest-parked drivers until
//!   their free slots cover the lendable depth, so a single staged value
//!   does not thunder the whole herd of parked drivers awake, and two values
//!   wake one driver with room for both; a termination kick wakes them all,
//!   since each must see `Done` to close. The set is an ordered map keyed by
//!   park sequence number: a kick pops the longest-parked drivers off its
//!   front, and a driver that exits removes its own key — like the
//!   registration-id map of live drivers, it is never scanned, so a
//!   volunteer leaves in O(log fleet). A kick epoch closes the
//!   register-vs-notify race. A driver left parked by a kick is re-polled
//!   by its own heartbeat timer, which every pending driver books.
//! * **One input pump** — reactor threads never block, but some inputs only
//!   answer blocking pulls (interactive queues, feedback loops). One
//!   dedicated pump thread calls [`ShardedLender::prefetch_shard`] while
//!   starved drivers demand input, staging values for non-blocking asks.
//!   It is the `+ 1` constant thread of the design.
//!
//! Dispatch batches: values are coalesced up to the free window and the
//! [`MAX_FRAME_LEN`] byte budget, window slots bound the in-flight count
//! per volunteer, and heartbeats piggyback on data frames (an endpoint with
//! traffic inside the heartbeat interval suppresses the standalone control
//! frame).
//!
//! # Inline mode (deterministic stepping)
//!
//! All time in the reactor flows through a [`Clock`]
//! ([`RunConfig::clock`](crate::config::RunConfig::clock)). On the wall
//! clock the reactor is the thread pool described above. With a *virtual*
//! clock ([`PandoConfig::deterministic`](crate::config::PandoConfig::deterministic))
//! it spawns **no threads at all**: an external single-threaded scheduler
//! pops one driver at a time with [`Reactor::step`], pumps the input for
//! starved drivers synchronously with [`Reactor::pump_starved`], and
//! advances the virtual clock to [`Reactor::next_timer_at`] when the ready
//! queue runs dry. Both modes share the same poll function, so the inline path exercises exactly
//! the production state machines — which is what lets the fleet simulator
//! ([`crate::sim::simulate_fleet`]) replay 10 000-volunteer runs
//! tick-for-tick reproducibly.
//!
//! # Examples
//!
//! ```
//! use pando_core::config::PandoConfig;
//! use pando_core::reactor::Reactor;
//!
//! // Wall clock: a pool of OS threads drains the ready queue.
//! let pooled = Reactor::new(&PandoConfig::local_test());
//! assert_eq!(pooled.stats().threads, 2);
//!
//! // Virtual clock: nothing spawns; the caller is the scheduler.
//! let inline = Reactor::new(&PandoConfig::deterministic(7));
//! assert_eq!(inline.stats().threads, 0);
//! assert!(!inline.step(), "no driver registered: the ready queue is empty");
//! assert!(inline.next_timer_at().is_none());
//! ```

use crate::config::PandoConfig;
use crate::metrics::{DeviceMeter, ShardMeter, ThroughputMeter};
use crate::protocol::{HeartbeatAction, HeartbeatPacer, Message};
use crate::transport::Transport;
use bytes::Bytes;
use pando_netsim::channel::{RecvError, SendError};
use pando_netsim::codec::{Record, MAX_FRAME_LEN, RECORD_HEADER_LEN};
use pando_netsim::sim::Clock;
use pando_pull_stream::lender::{SubStream, SubStreamEnd};
use pando_pull_stream::shard::ShardedLender;
use pando_pull_stream::sync::Signal;
use pando_pull_stream::{Answer, StreamError};
use parking_lot::{Condvar, Mutex};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

/// Driver scheduling states (see [`wake`]).
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const RUNNING_DIRTY: u8 = 3;

/// Snapshot of the reactor's scheduling counters, the observability
/// counterpart of the per-device rows in [`crate::metrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Number of OS threads in the pool.
    pub threads: usize,
    /// Volunteers registered over the reactor's lifetime.
    pub registered: u64,
    /// Volunteers currently live (not yet terminal).
    pub active: u64,
    /// Wake-ups that enqueued a driver (endpoint events, lender kicks,
    /// timers; coalesced wake-ups of an already-queued driver not counted).
    pub wakeups: u64,
    /// Driver poll loops executed by the pool.
    pub polls: u64,
    /// Timer deadlines fired (delayed frames, crash suspicions, heartbeats).
    pub timer_fires: u64,
    /// High-water mark of the ready queue depth.
    pub max_ready_depth: u64,
    /// Values read ahead by the input pump on behalf of starved drivers.
    pub pump_prefetches: u64,
    /// Driver polls that made no progress: nothing received, nothing
    /// dispatched, no heartbeat sent. The cost of over-waking; bounded kicks
    /// exist to keep this low.
    pub wasted_polls: u64,
    /// Starved drivers actually woken by lender kicks (as many as it takes
    /// for their free window slots to cover the lendable depth per value
    /// kick; every parked driver on a termination kick).
    pub kicks_sent: u64,
    /// Starved drivers left parked by wake-limited kicks (a broadcast
    /// would have woken them for nothing).
    pub kicks_suppressed: u64,
    /// Volunteers whose transport reported a permanent failure, firing the
    /// crash re-lend path (`finish(false)`). A transient disconnect absorbed
    /// by a resumable session within its grace window does *not* count —
    /// only the final crash verdict does.
    pub crash_relends: u64,
}

struct Stats {
    registered: AtomicU64,
    active: AtomicU64,
    wakeups: AtomicU64,
    polls: AtomicU64,
    timer_fires: AtomicU64,
    max_ready_depth: AtomicU64,
    pump_prefetches: AtomicU64,
    wasted_polls: AtomicU64,
    kicks_sent: AtomicU64,
    kicks_suppressed: AtomicU64,
    crash_relends: AtomicU64,
}

/// A timer heap entry: re-poll one driver (delayed frame, crash suspicion,
/// heartbeat). Ordered by deadline through `Reverse` so the `BinaryHeap`
/// pops the earliest first.
struct Timer {
    at: Instant,
    driver: Weak<Driver>,
}

impl PartialEq for Timer {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at
    }
}
impl Eq for Timer {}
impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at)
    }
}

/// The parked drivers, keyed by a park sequence number taken under the
/// set's lock: iteration order is park order, so a kick pops the
/// longest-parked drivers and a driver that exits removes its own key
/// ([`Driver::unpark`]) — neither scans the set.
#[derive(Default)]
struct StarvedSet {
    last_seq: u64,
    parked: BTreeMap<u64, Weak<Driver>>,
}

impl StarvedSet {
    /// Appends `driver` to the line and returns its key (never 0).
    fn park(&mut self, driver: Weak<Driver>) -> u64 {
        self.last_seq += 1;
        self.parked.insert(self.last_seq, driver);
        self.last_seq
    }
}

struct Inner {
    /// The clock every timer deadline, heartbeat decision and failure
    /// suspicion is measured on. Wall for the threaded pool; virtual in
    /// inline mode, advanced by the external scheduler.
    clock: Clock,
    ready: Mutex<VecDeque<Arc<Driver>>>,
    ready_cond: Condvar,
    timers: Mutex<BinaryHeap<Reverse<Timer>>>,
    /// Set once [`Reactor::attach_lender`] ran (it must be idempotent).
    attached: AtomicBool,
    /// Drivers with free window slots and nothing to take.
    starved: Mutex<StarvedSet>,
    /// Bumped by every kick *request*; closes the starve-vs-notify race.
    kick_epoch: AtomicU64,
    /// The lender's waker fired and the kick has not run yet. The waker
    /// contract forbids calling back into the lender, so the waker only sets
    /// this flag ([`Inner::request_kick`]) and scheduler threads execute the
    /// kick ([`Inner::drain_kicks`]) where no lender locks are held.
    pending_kick: AtomicBool,
    /// Set once a prefetch answered `false`: the lender will never receive
    /// another value, so the inline pump stops asking (the threaded
    /// [`pump_loop`] parks until shutdown instead).
    input_ended: AtomicBool,
    /// Signals the input pump that a driver starved. The pump itself
    /// decides whether to read ahead (see [`pump_loop`]); the mutex carries
    /// no data.
    demand: Mutex<()>,
    demand_cond: Condvar,
    /// The deployment's lender, installed by [`Reactor::attach_lender`];
    /// kicks read its lendable depth.
    lender: Mutex<Option<ShardedLender<Bytes, Bytes>>>,
    /// Live drivers by registration id, kept so shutdown can force-finish
    /// them (in registration order).
    registered: Mutex<BTreeMap<u64, Arc<Driver>>>,
    shutdown: AtomicBool,
    stats: Stats,
}

impl Inner {
    fn next_timer_at(&self) -> Option<Instant> {
        self.timers.lock().peek().map(|Reverse(timer)| timer.at)
    }

    /// Pops and fires every timer whose deadline has passed, re-queueing its
    /// driver. An entry fires only if it still holds the driver's booking:
    /// one superseded by an earlier deadline is dropped, uncounted, so it can
    /// neither wake the driver nor clear the booking that replaced it.
    fn fire_due_timers(&self, now: Instant) {
        loop {
            let Timer { at, driver } = {
                let mut timers = self.timers.lock();
                match timers.peek() {
                    Some(Reverse(timer)) if timer.at <= now => {
                        timers.pop().expect("peeked entry present").0
                    }
                    _ => return,
                }
            };
            let Some(driver) = driver.upgrade() else { continue };
            let mut scheduled = driver.scheduled_at.lock();
            if driver.finished.fired() || *scheduled != Some(at) {
                continue;
            }
            *scheduled = None;
            drop(scheduled);
            self.stats.timer_fires.fetch_add(1, Ordering::Relaxed);
            wake(self, &driver);
        }
    }

    /// Wakes one sleeping pool thread after a change it did not see under
    /// the `ready` mutex: a kick flag, a new earliest timer. A pool thread
    /// reads those with `ready` held and then waits on it, so passing
    /// through that mutex before notifying means none can be between its
    /// check and its wait when the notification fires.
    fn wake_sleeper(&self) {
        drop(self.ready.lock());
        self.ready_cond.notify_one();
    }

    /// The lender-waker entry point: records that the lender changed and
    /// needs a kick, without touching it. Wakers fire with lender/splitter
    /// internals locked (and their contract forbids re-entering the lender),
    /// so the depth read of [`Inner::kick_starved`] cannot run here — a
    /// scheduler thread picks the flag up via [`Inner::drain_kicks`]. The
    /// epoch bump happens *now* so a driver racing into the starved set
    /// observes the change and re-polls (see [`poll_driver`]).
    fn request_kick(&self) {
        self.kick_epoch.fetch_add(1, Ordering::SeqCst);
        self.pending_kick.store(true, Ordering::SeqCst);
        // One sleeper, if any, runs the kick.
        self.wake_sleeper();
    }

    /// Executes a requested kick. Called from scheduler context only
    /// (pool-thread loop top and the inline [`Reactor::step`]) where no
    /// lender or splitter lock is held, so [`Inner::kick_starved`] may query
    /// the lendable depth freely.
    fn drain_kicks(&self) {
        if self.pending_kick.swap(false, Ordering::SeqCst) {
            self.kick_starved();
        }
    }

    /// Moves starved drivers back onto the ready queue — as many as the
    /// lender could serve right now. Runs in scheduler context on behalf of
    /// the lender's change waker (see [`Inner::request_kick`]), which fires
    /// only when a value became lendable or the lender can no longer lend.
    ///
    /// A value kick pops drivers until the free window slots they recorded
    /// when they parked cover the lendable depth (at least one value): one
    /// staged value wakes one driver, and so do two staged values when that
    /// driver has room for both. A termination kick — nothing staged,
    /// nothing in flight, or shut down — wakes every parked driver, since
    /// each must see `Done` to close. A driver left parked is re-polled by
    /// the next kick or by its own heartbeat timer. The set is popped from
    /// the front — park order — and a dead `Weak` met there is dropped
    /// without covering anything.
    fn kick_starved(&self) {
        self.kick_epoch.fetch_add(1, Ordering::SeqCst);
        let lendable = match self.lender.lock().as_ref() {
            Some(lender) if lender.shard_needs_help(0) => Some(lender.shard_depth(0).max(1)),
            // Termination, or no lender attached (bare reactor): nothing to
            // bound by.
            _ => None,
        };
        let mut woken: Vec<Arc<Driver>> = Vec::new();
        let suppressed = {
            let mut starved = self.starved.lock();
            let mut covered = 0;
            while lendable.is_none_or(|depth| covered < depth) {
                let Some((_, weak)) = starved.parked.pop_first() else { break };
                if let Some(driver) = weak.upgrade() {
                    driver.park_seq.store(0, Ordering::SeqCst);
                    covered += driver.parked_credits.load(Ordering::Relaxed);
                    woken.push(driver);
                }
            }
            starved.parked.len()
        };
        self.stats.kicks_sent.fetch_add(woken.len() as u64, Ordering::Relaxed);
        self.stats.kicks_suppressed.fetch_add(suppressed as u64, Ordering::Relaxed);
        for driver in &woken {
            wake(self, driver);
        }
    }

    fn signal_pump(&self) {
        drop(self.demand.lock());
        self.demand_cond.notify_one();
    }
}

/// Enqueues `driver` for a poll unless it is already queued; a wake during a
/// running poll flags it dirty so the poll re-runs.
fn wake(inner: &Inner, driver: &Arc<Driver>) {
    if driver.finished.fired() {
        return;
    }
    loop {
        let state = driver.sched.load(Ordering::SeqCst);
        let (target, enqueue) = match state {
            IDLE => (QUEUED, true),
            RUNNING => (RUNNING_DIRTY, false),
            _ => return, // already queued or dirty: the wake is coalesced
        };
        if driver.sched.compare_exchange(state, target, Ordering::SeqCst, Ordering::SeqCst).is_ok()
        {
            if enqueue {
                let mut ready = inner.ready.lock();
                ready.push_back(driver.clone());
                let depth = ready.len() as u64;
                drop(ready);
                inner.stats.wakeups.fetch_add(1, Ordering::Relaxed);
                inner.stats.max_ready_depth.fetch_max(depth, Ordering::Relaxed);
                inner.ready_cond.notify_one();
            }
            return;
        }
    }
}

/// The per-volunteer dispatch/receive state machine, polled by the pool.
struct Driver {
    /// Registration id: this driver's key in [`Inner::registered`].
    id: u64,
    name: String,
    endpoint: Arc<dyn Transport>,
    device: DeviceMeter,
    sched: AtomicU8,
    /// This driver's key in the starved set, 0 while it is not parked. Set
    /// by the park in [`poll_driver`] and cleared by the kick that pops the
    /// entry, both under the set's lock.
    park_seq: AtomicU64,
    /// Free window slots at the last poll that starved: what a kick counts
    /// this driver as able to take.
    parked_credits: AtomicUsize,
    /// Earliest timer currently scheduled for this driver, to avoid flooding
    /// the heap with duplicates; a heap entry for any other instant is
    /// superseded and fires nothing.
    scheduled_at: Mutex<Option<Instant>>,
    io: Mutex<DriverIo>,
    result: Mutex<Option<Result<(), StreamError>>>,
    finished: Signal,
}

struct DriverIo {
    sub: SubStream<Bytes, Bytes>,
    /// The lender's meter cell (borrows and accepted results).
    shard_meter: ShardMeter,
    /// Free in-flight window slots: the paper's `pull-limit` at `batch_size`,
    /// and the only place it is enforced. One is consumed per dispatched
    /// task and released per accepted result.
    credits: usize,
    /// A value pulled for a frame that had no byte budget left; it opens the
    /// next frame (its window slot is already consumed).
    carry: Option<Record>,
    /// A fully-built frame the transport refused with
    /// [`SendError::WouldBlock`] (its wire size and record count ride
    /// along). It must go out before anything newer — the driver parks on
    /// the transport waker and retries it first on the next poll.
    pending: Option<(Message, usize, u64)>,
    /// Set once the task flow ended (lender done, channel closed, or send
    /// failure); receive may still be running.
    dispatch_done: bool,
    /// First dispatch-side error, reported over a clean receive shutdown.
    dispatch_error: Option<StreamError>,
    pacer: HeartbeatPacer,
}

/// What a poll decided about the driver's future.
enum PollOutcome {
    /// Wait for the next waker or the given timer. `progressed` records
    /// whether the poll achieved anything (received, dispatched, or sent a
    /// heartbeat) — a `false` is a wasted poll, the cost bounded kicks
    /// exist to avoid.
    Pending { timer: Option<Instant>, starved: bool, starve_epoch: u64, progressed: bool },
    /// The volunteer session ended; the driver was finished.
    Terminal,
}

impl Driver {
    /// Runs one non-blocking dispatch + receive round.
    fn poll(self: &Arc<Self>, inner: &Inner) -> PollOutcome {
        if self.finished.fired() {
            // A stale wake (timer or lender kick) raced termination.
            return PollOutcome::Terminal;
        }
        let now = inner.clock.now();
        let mut io = self.io.lock();
        let mut progressed = false;

        // Receive: drain every deliverable frame, demultiplex results into
        // the lender and release window slots (send-window readiness is
        // re-checked by the dispatch phase below in the same poll).
        loop {
            match self.endpoint.try_recv() {
                Ok(message @ Message::ResultBatch(_)) => {
                    progressed = true;
                    self.device.record_wire(message.wire_size() as u64);
                    // The frame enters the lender at once: one lock, one
                    // wake-up of the ordered output at most. A late result
                    // for a value this sub-stream no longer borrows is
                    // dropped (conservative property): no window slot is
                    // released for it.
                    let accepted = io.sub.push_batch(message.into_results());
                    if accepted > 0 {
                        self.device.record(accepted as u64);
                        io.credits += accepted;
                        io.shard_meter.record_results(accepted as u64);
                    }
                }
                Ok(Message::TaskError { seq, message }) => {
                    // An application error marks the volunteer faulty; its
                    // values are re-lent elsewhere (crash-stop model).
                    io.sub.end(SubStreamEnd::Crashed);
                    self.endpoint.close();
                    let text = String::from_utf8_lossy(&message).into_owned();
                    let name = &self.name;
                    return self.finish(
                        inner,
                        io,
                        Err(StreamError::new(format!(
                            "volunteer {name} failed on value {seq}: {text}"
                        ))),
                    );
                }
                Ok(Message::Heartbeat) | Ok(Message::Ack { .. }) => {
                    // Session-layer acks are normally absorbed inside the
                    // transport; one surfacing here is harmless control
                    // traffic, like a heartbeat.
                    progressed = true;
                    continue;
                }
                Ok(Message::Goodbye) | Ok(Message::TaskBatch(_)) => {
                    io.sub.end(SubStreamEnd::Completed);
                    return self.finish(inner, io, Ok(()));
                }
                Err(RecvError::Closed) => {
                    io.sub.end(SubStreamEnd::Completed);
                    return self.finish(inner, io, Ok(()));
                }
                Err(RecvError::PeerFailed) => {
                    io.sub.end(SubStreamEnd::Crashed);
                    inner.stats.crash_relends.fetch_add(1, Ordering::Relaxed);
                    let name = &self.name;
                    let err = StreamError::transport(format!(
                        "volunteer {name} disconnected (heartbeat timeout)"
                    ));
                    return self.finish(inner, io, Err(err));
                }
                Err(RecvError::Empty) => break,
            }
        }

        // Dispatch: coalesce whatever the lender can hand out *right now*
        // into frames, within the window and the byte budget.
        let mut starved = false;
        let mut starve_epoch = 0;
        while !io.dispatch_done {
            // A frame parked on a previous send-would-block goes out first:
            // per-connection FIFO, and its records are already pulled. The
            // clone is cheap (`Message` wraps refcounted `Bytes`).
            if let Some((message, size, count)) = io.pending.take() {
                match self.endpoint.send_records_with_size(message.clone(), size, count) {
                    Ok(()) => {
                        progressed = true;
                        self.device.record_wire(size as u64);
                        io.shard_meter.record_borrows(count);
                        io.pacer.on_traffic_at(now);
                        continue;
                    }
                    Err(SendError::WouldBlock) => {
                        // Bounded write queue is full: park the frame and
                        // wait for the transport waker instead of buffering
                        // unboundedly or spinning.
                        io.pending = Some((message, size, count));
                        break;
                    }
                    Err(SendError::Closed) => {
                        io.dispatch_done = true;
                        progressed = true;
                        continue;
                    }
                    Err(SendError::PeerFailed) => {
                        io.dispatch_error =
                            Some(StreamError::transport("volunteer failed while sending tasks"));
                        io.dispatch_done = true;
                        progressed = true;
                        continue;
                    }
                }
            }
            let first = match io.carry.take() {
                Some(record) => record,
                None => {
                    if io.credits == 0 {
                        break;
                    }
                    let epoch = inner.kick_epoch.load(Ordering::SeqCst);
                    match io.sub.poll_task() {
                        None => {
                            starved = true;
                            starve_epoch = epoch;
                            self.parked_credits.store(io.credits, Ordering::Relaxed);
                            break;
                        }
                        Some(Answer::Value(lend)) => {
                            io.credits -= 1;
                            Record::new(lend.seq, lend.value)
                        }
                        Some(Answer::Done) | Some(Answer::Err(_)) => {
                            // The lender will never lend again: the task flow
                            // is over; the channel half-closes and receive
                            // drains the remaining results.
                            self.endpoint.close();
                            io.dispatch_done = true;
                            progressed = true;
                            break;
                        }
                    }
                }
            };
            let mut body = 4 + RECORD_HEADER_LEN + first.payload.len();
            let mut records = vec![first];
            while body < MAX_FRAME_LEN && io.credits > 0 {
                match io.sub.try_next_task() {
                    Some(lend) => {
                        let add = RECORD_HEADER_LEN + lend.value.len();
                        if body + add > MAX_FRAME_LEN {
                            io.credits -= 1;
                            io.carry = Some(Record::new(lend.seq, lend.value));
                            break;
                        }
                        io.credits -= 1;
                        body += add;
                        records.push(Record::new(lend.seq, lend.value));
                    }
                    None => break,
                }
            }
            let message = Message::task_frame(records);
            let size = message.wire_size();
            let count = message.record_count();
            // Route every frame through the pending slot; the loop head owns
            // the single send site and its would-block parking.
            io.pending = Some((message, size, count));
        }

        // Heartbeat pacing: data traffic above suppressed the control frame;
        // a fully idle interval emits a standalone heartbeat.
        match io.pacer.poll_at(now) {
            HeartbeatAction::NotDue => {}
            HeartbeatAction::Send => {
                progressed = true;
                self.device.record_heartbeat(false);
                let _ = self.endpoint.send(Message::Heartbeat);
            }
            HeartbeatAction::Suppressed => {
                self.device.record_heartbeat(true);
            }
        }

        let timer = match self.endpoint.next_ready_at() {
            Some(ready_at) => Some(ready_at.min(io.pacer.next_due())),
            None => Some(io.pacer.next_due()),
        };
        PollOutcome::Pending { timer, starved, starve_epoch, progressed }
    }

    /// Marks the driver terminal: books the result (dispatch errors win over
    /// a clean receive end), deregisters it and fires the completion signal.
    fn finish(
        self: &Arc<Self>,
        inner: &Inner,
        mut io: parking_lot::MutexGuard<'_, DriverIo>,
        result: Result<(), StreamError>,
    ) -> PollOutcome {
        io.dispatch_done = true;
        let result = match io.dispatch_error.take() {
            Some(err) => Err(err),
            None => result,
        };
        drop(io);
        self.endpoint.clear_waker();
        *self.result.lock() = Some(result);
        inner.stats.active.fetch_sub(1, Ordering::Relaxed);
        inner.registered.lock().remove(&self.id);
        // Leave the starved set too: a stale entry would make the input pump
        // read ahead with no real demand, breaking its laziness guarantee.
        self.unpark(inner);
        self.finished.fire();
        PollOutcome::Terminal
    }

    /// Takes this driver's own entry, if it has one, out of the starved set.
    /// Called by the poll that ends the session.
    fn unpark(&self, inner: &Inner) {
        let seq = self.park_seq.swap(0, Ordering::SeqCst);
        if seq != 0 {
            inner.starved.lock().parked.remove(&seq);
        }
    }
}

/// Handle on one volunteer registered with a [`Reactor`].
pub struct DriverHandle {
    driver: Arc<Driver>,
}

impl std::fmt::Debug for DriverHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DriverHandle")
            .field("name", &self.driver.name)
            .field("finished", &self.driver.finished.fired())
            .finish()
    }
}

impl DriverHandle {
    /// Waits until the volunteer session ends and returns its outcome.
    ///
    /// # Errors
    ///
    /// Returns the first stream error observed on either the dispatch or the
    /// receive side.
    pub fn join(self) -> Result<(), StreamError> {
        self.driver.finished.wait();
        self.driver.result.lock().clone().expect("result set before the signal fires")
    }

    /// Returns `true` once the volunteer session has ended.
    #[cfg(test)]
    fn is_finished(&self) -> bool {
        self.driver.finished.fired()
    }
}

/// A fixed pool of reactor threads multiplexing every volunteer of one Pando
/// deployment. Created by the master when it wires its first volunteer.
pub struct Reactor {
    inner: Arc<Inner>,
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// The input pump, spawned by [`Reactor::attach_lender`].
    pump: Mutex<Option<JoinHandle<()>>>,
    thread_count: usize,
    /// Inline mode: no threads at all. An external single-threaded scheduler
    /// steps the ready queue ([`Reactor::step`]), fires timers by advancing
    /// the virtual clock, and pumps the input for starved drivers
    /// synchronously ([`Reactor::pump_starved`]). Selected by a virtual
    /// [`PandoConfig::clock`]; the basis of the deterministic fleet
    /// simulator in [`crate::sim`].
    inline: bool,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("threads", &self.thread_count)
            .field("active", &self.inner.stats.active.load(Ordering::Relaxed))
            .finish()
    }
}

impl Reactor {
    /// Starts a reactor: a pool of `config.reactor.threads` OS threads on
    /// the wall clock, or — when [`RunConfig::clock`](crate::config::RunConfig::clock) is virtual — an *inline*
    /// reactor with no threads at all, stepped externally through
    /// [`Reactor::step`].
    pub fn new(config: &PandoConfig) -> Self {
        let inline = config.run.clock.is_virtual();
        let inner = Arc::new(Inner {
            clock: config.run.clock.clone(),
            ready: Mutex::new(VecDeque::new()),
            ready_cond: Condvar::new(),
            timers: Mutex::new(BinaryHeap::new()),
            attached: AtomicBool::new(false),
            starved: Mutex::new(StarvedSet::default()),
            kick_epoch: AtomicU64::new(0),
            pending_kick: AtomicBool::new(false),
            input_ended: AtomicBool::new(false),
            demand: Mutex::new(()),
            demand_cond: Condvar::new(),
            lender: Mutex::new(None),
            registered: Mutex::new(BTreeMap::new()),
            shutdown: AtomicBool::new(false),
            stats: Stats {
                registered: AtomicU64::new(0),
                active: AtomicU64::new(0),
                wakeups: AtomicU64::new(0),
                polls: AtomicU64::new(0),
                timer_fires: AtomicU64::new(0),
                max_ready_depth: AtomicU64::new(0),
                pump_prefetches: AtomicU64::new(0),
                wasted_polls: AtomicU64::new(0),
                kicks_sent: AtomicU64::new(0),
                kicks_suppressed: AtomicU64::new(0),
                crash_relends: AtomicU64::new(0),
            },
        });
        let thread_count = if inline { 0 } else { config.reactor.threads.max(1) };
        let threads = (0..thread_count)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("pando-reactor-{i}"))
                    .spawn(move || reactor_loop(&inner))
                    .expect("spawn reactor thread")
            })
            .collect();
        Self { inner, threads: Mutex::new(threads), pump: Mutex::new(None), thread_count, inline }
    }

    /// Connects the reactor to the deployment's lender: registers its change
    /// waker (kicking the starved drivers) and starts the input-pump thread.
    /// Called once when the input stream is attached.
    ///
    /// # Panics
    ///
    /// Panics if the lender has more than one shard.
    pub fn attach_lender(&self, lender: &ShardedLender<Bytes, Bytes>) {
        assert_eq!(lender.shard_count(), 1, "the reactor serves one lender shard");
        let mut pump = self.pump.lock();
        if self.inner.attached.swap(true, Ordering::SeqCst) {
            return;
        }
        *self.inner.lender.lock() = Some(lender.clone());
        let waker_inner = Arc::downgrade(&self.inner);
        lender.add_shard_waker(
            0,
            Arc::new(move || {
                if let Some(inner) = waker_inner.upgrade() {
                    inner.request_kick();
                }
            }),
        );
        if self.inline {
            // Inline mode pumps synchronously: the scheduler calls
            // [`Reactor::pump_starved`] between steps.
            return;
        }
        let inner = self.inner.clone();
        let lender = lender.clone();
        *pump = Some(
            std::thread::Builder::new()
                .name("pando-input-pump".into())
                .spawn(move || pump_loop(&inner, &lender))
                .expect("spawn input pump thread"),
        );
    }

    /// Registers one volunteer transport with its sub-stream of the lender:
    /// the event-driven replacement of the dispatcher/receiver thread pair.
    /// Any [`Transport`] works — a simulated channel endpoint or a live TCP
    /// connection drive the identical state machine.
    pub fn register(
        &self,
        name: &str,
        endpoint: Arc<dyn Transport>,
        sub: SubStream<Bytes, Bytes>,
        config: &PandoConfig,
        meter: &ThroughputMeter,
    ) -> DriverHandle {
        let driver = Arc::new(Driver {
            id: self.inner.stats.registered.fetch_add(1, Ordering::Relaxed),
            name: name.to_string(),
            endpoint: endpoint.clone(),
            device: meter.device(name),
            sched: AtomicU8::new(IDLE),
            park_seq: AtomicU64::new(0),
            parked_credits: AtomicUsize::new(0),
            scheduled_at: Mutex::new(None),
            io: Mutex::new(DriverIo {
                sub,
                shard_meter: meter.shard(0),
                credits: config.batch_size,
                carry: None,
                pending: None,
                dispatch_done: false,
                dispatch_error: None,
                pacer: HeartbeatPacer::new_at(
                    endpoint.heartbeat_interval(),
                    self.inner.clock.now(),
                ),
            }),
            result: Mutex::new(None),
            finished: Signal::new(),
        });
        let weak_driver = Arc::downgrade(&driver);
        let weak_inner = Arc::downgrade(&self.inner);
        endpoint.set_waker(Arc::new(move || {
            if let (Some(driver), Some(inner)) = (weak_driver.upgrade(), weak_inner.upgrade()) {
                wake(&inner, &driver);
            }
        }));
        self.inner.stats.active.fetch_add(1, Ordering::Relaxed);
        self.inner.registered.lock().insert(driver.id, driver.clone());
        wake(&self.inner, &driver);
        DriverHandle { driver }
    }

    /// Inline mode only: runs one scheduling step — fires every timer due at
    /// the current (virtual) clock reading, then polls the driver at the
    /// head of the ready queue. Returns `false` when the ready queue was
    /// empty (the scheduler should then pump the input or advance the clock
    /// to [`Reactor::next_timer_at`]).
    ///
    /// Stepping a threaded reactor is harmless but pointless: the pool
    /// threads race the caller for the same queue.
    pub fn step(&self) -> bool {
        self.inner.drain_kicks();
        self.inner.fire_due_timers(self.inner.clock.now());
        let driver = self.inner.ready.lock().pop_front();
        match driver {
            Some(driver) => {
                poll_driver(&self.inner, driver);
                true
            }
            None => false,
        }
    }

    /// The earliest pending timer deadline (delayed frames, crash
    /// suspicions, heartbeats), if any — the instant an inline scheduler
    /// should advance the virtual clock to when the ready queue runs dry.
    pub fn next_timer_at(&self) -> Option<Instant> {
        self.inner.next_timer_at()
    }

    /// Inline mode only: one synchronous pass of the input pump — with
    /// starved drivers parked and nothing awaiting re-lend, reads one value
    /// ahead (the staged value fires the lender's waker, which re-queues
    /// starved drivers). Returns `true` if it staged a value, i.e. the
    /// scheduler should step again before advancing the clock. Once a
    /// prefetch answered `false` the lender will never receive another
    /// value, and the pump is latched: no later pass asks again.
    ///
    /// The deterministic simulator requires inputs that answer immediately
    /// (in-memory iterators); an input that truly blocks would block the
    /// scheduler itself.
    pub fn pump_starved(&self) -> bool {
        let inner = &self.inner;
        // Held, not cloned: the scheduler comes through here every turn, and
        // nothing `prefetch_shard` reaches takes this lock (the input is
        // pulled, the waker only raises the kick flag).
        let lender = inner.lender.lock();
        let Some(lender) = lender.as_ref() else {
            return false;
        };
        if inner.input_ended.load(Ordering::Relaxed)
            || inner.starved.lock().parked.is_empty()
            || lender.shard_failed_pending(0) > 0
        {
            return false;
        }
        if lender.prefetch_shard(0) {
            inner.stats.pump_prefetches.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            inner.input_ended.store(true, Ordering::Relaxed);
            false
        }
    }

    /// A snapshot of the scheduling counters.
    pub fn stats(&self) -> ReactorStats {
        let stats = &self.inner.stats;
        ReactorStats {
            threads: self.thread_count,
            registered: stats.registered.load(Ordering::Relaxed),
            active: stats.active.load(Ordering::Relaxed),
            wakeups: stats.wakeups.load(Ordering::Relaxed),
            polls: stats.polls.load(Ordering::Relaxed),
            timer_fires: stats.timer_fires.load(Ordering::Relaxed),
            max_ready_depth: stats.max_ready_depth.load(Ordering::Relaxed),
            pump_prefetches: stats.pump_prefetches.load(Ordering::Relaxed),
            wasted_polls: stats.wasted_polls.load(Ordering::Relaxed),
            kicks_sent: stats.kicks_sent.load(Ordering::Relaxed),
            kicks_suppressed: stats.kicks_suppressed.load(Ordering::Relaxed),
            crash_relends: stats.crash_relends.load(Ordering::Relaxed),
        }
    }

    /// Stops the pool: wakes every thread, joins them, and force-finishes any
    /// driver still live (its sub-stream ends with crash semantics so
    /// borrowed values are re-lent — relevant only when tearing down
    /// mid-run).
    fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Each waiter checks the flag under its mutex and then waits on it;
        // passing through that mutex before notifying means none can be
        // between its check and its wait when the notification fires.
        drop(self.inner.ready.lock());
        self.inner.ready_cond.notify_all();
        drop(self.inner.demand.lock());
        self.inner.demand_cond.notify_all();
        for handle in self.threads.lock().drain(..) {
            let _ = handle.join();
        }
        if let Some(pump) = self.pump.lock().take() {
            let _ = pump.join();
        }
        let leftover = std::mem::take(&mut *self.inner.registered.lock());
        for driver in leftover.into_values() {
            driver.endpoint.clear_waker();
            driver.endpoint.close();
            driver.io.lock().sub.end(SubStreamEnd::Crashed);
            *driver.result.lock() = Some(Err(StreamError::transport("reactor shut down")));
            self.inner.stats.active.fetch_sub(1, Ordering::Relaxed);
            driver.finished.fire();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Body of one reactor pool thread.
fn reactor_loop(inner: &Inner) {
    'schedule: loop {
        // Requested kicks run here, outside the ready lock and outside any
        // lender lock (see [`Inner::request_kick`] for why wakers defer).
        inner.drain_kicks();
        inner.fire_due_timers(inner.clock.now());
        let driver = {
            let mut ready = inner.ready.lock();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(driver) = ready.pop_front() {
                    break driver;
                }
                if inner.pending_kick.load(Ordering::SeqCst) {
                    // A waker fired while we idled: restart the cycle so the
                    // kick executes without the ready lock held.
                    continue 'schedule;
                }
                match inner.next_timer_at() {
                    Some(at) => {
                        if at <= inner.clock.now() {
                            drop(ready);
                            inner.fire_due_timers(inner.clock.now());
                            ready = inner.ready.lock();
                            continue;
                        }
                        inner.ready_cond.wait_until(&mut ready, at);
                    }
                    None => inner.ready_cond.wait(&mut ready),
                }
            }
        };
        poll_driver(inner, driver);
    }
}

/// Polls one driver popped off the ready queue and books the outcome:
/// timers are (de-duplicated and) scheduled, starved drivers park in the
/// starved set, and a wake observed mid-poll re-queues the driver.
/// Shared verbatim between the pool threads and the inline [`Reactor::step`]
/// path, so the two modes cannot diverge behaviourally.
fn poll_driver(inner: &Inner, driver: Arc<Driver>) {
    driver.sched.store(RUNNING, Ordering::SeqCst);
    inner.stats.polls.fetch_add(1, Ordering::Relaxed);
    let outcome = driver.poll(inner);
    match outcome {
        PollOutcome::Terminal => {
            driver.sched.store(IDLE, Ordering::SeqCst);
        }
        PollOutcome::Pending { timer, starved, starve_epoch, progressed } => {
            if !progressed {
                inner.stats.wasted_polls.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(at) = timer {
                let mut scheduled = driver.scheduled_at.lock();
                let stale = scheduled.map(|existing| at < existing).unwrap_or(true);
                if stale {
                    *scheduled = Some(at);
                    drop(scheduled);
                    inner
                        .timers
                        .lock()
                        .push(Reverse(Timer { at, driver: Arc::downgrade(&driver) }));
                    // A sleeping sibling may need to shorten its wait.
                    inner.wake_sleeper();
                }
            }
            if starved && driver.park_seq.load(Ordering::SeqCst) == 0 {
                let mut set = inner.starved.lock();
                driver.park_seq.store(set.park(Arc::downgrade(&driver)), Ordering::SeqCst);
                drop(set);
                inner.signal_pump();
            }
            // Transition out of RUNNING; a wake observed mid-poll means
            // the poll must re-run.
            if driver
                .sched
                .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                driver.sched.store(QUEUED, Ordering::SeqCst);
                inner.ready.lock().push_back(driver.clone());
                inner.ready_cond.notify_one();
            } else if starved && inner.kick_epoch.load(Ordering::SeqCst) != starve_epoch {
                // A lender kick raced our starve registration: re-poll.
                wake(inner, &driver);
            }
        }
    }
}

/// Body of the input pump thread.
///
/// The pump preserves the lender's *laziness*: it reads ahead only while at
/// least one driver is parked starved **and** the staged pool is empty, so
/// the read-ahead never exceeds one value beyond actual consumption — the
/// per-ask rhythm of the blocking dispatcher it replaces. (An eager pump
/// would let feedback-loop inputs like the mining monitor race millions of
/// values ahead of the workers.)
fn pump_loop(inner: &Inner, lender: &ShardedLender<Bytes, Bytes>) {
    loop {
        {
            let mut demand = inner.demand.lock();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if !inner.starved.lock().parked.is_empty() && lender.shard_failed_pending(0) == 0 {
                    break;
                }
                inner.demand_cond.wait(&mut demand);
            }
        }
        if lender.prefetch_shard(0) {
            inner.stats.pump_prefetches.fetch_add(1, Ordering::Relaxed);
            // The staged value triggered the lender's waker, which requests
            // a kick of the starved drivers (executed by a pool thread); they
            // will re-signal if they starve again.
        } else {
            // The lender will never receive another value: the input is
            // exhausted (or the output closed). Starved drivers terminate
            // through their own Done observations; park until shut down.
            let mut demand = inner.demand.lock();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                inner.demand_cond.wait(&mut demand);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pando_netsim::channel::{pair_with_clock, ChannelConfig, Endpoint};
    use pando_pull_stream::Request;
    use std::collections::HashSet;

    /// An inline reactor over an *interactive* input (every non-blocking ask
    /// answers "would block"): a polled driver always parks, and a value
    /// reaches the lender only when the test calls `pump_starved`. The virtual
    /// clock never moves, so no timer fires unless a test says so.
    struct Rig {
        reactor: Reactor,
        lender: ShardedLender<Bytes, Bytes>,
        config: PandoConfig,
        meter: ThroughputMeter,
    }

    impl Rig {
        fn new(values: u64) -> Self {
            let config = PandoConfig::deterministic(1);
            let mut next = 0;
            let input = move |request: Request| match request {
                Request::Ask if next < values => {
                    next += 1;
                    Answer::Value(Bytes::copy_from_slice(&next.to_le_bytes()))
                }
                _ => Answer::Done,
            };
            let lender = ShardedLender::new(input, 1, 1);
            let reactor = Reactor::new(&config);
            reactor.attach_lender(&lender);
            Self { reactor, lender, config, meter: ThroughputMeter::new() }
        }

        /// Registers a volunteer with a window of `window` tasks and returns
        /// its handle and the volunteer's end of the channel.
        fn join(&self, name: &str, window: usize) -> (DriverHandle, Endpoint<Message>) {
            let (master_side, volunteer_side) =
                pair_with_clock::<Message>(ChannelConfig::instant(), self.config.run.clock.clone());
            let handle = self.reactor.register(
                name,
                Arc::new(master_side),
                self.lender.lend_on(0),
                &self.config.clone().with_batch_size(window),
                &self.meter,
            );
            (handle, volunteer_side)
        }

        /// Steps until the ready queue is dry.
        fn drain(&self) {
            while self.reactor.step() {}
        }

        /// Names in the starved set in kick order, space-separated; a dead
        /// entry reads as "<dead>".
        fn parked(&self) -> String {
            let set = self.reactor.inner.starved.lock();
            let names = set.parked.values().map(|weak| match weak.upgrade() {
                Some(driver) => driver.name.clone(),
                None => "<dead>".into(),
            });
            names.collect::<Vec<_>>().join(" ")
        }

        /// `ReactorStats::active` is the registered set's length.
        fn assert_active_counts_the_registered(&self) {
            let registered = self.reactor.inner.registered.lock().len() as u64;
            assert_eq!(self.reactor.stats().active, registered);
        }
    }

    /// The seq of the one-record task frame waiting at a volunteer's
    /// endpoint.
    fn task_seq(volunteer: &Endpoint<Message>) -> u64 {
        match volunteer.try_recv() {
            Ok(Message::TaskBatch(records)) if records.len() == 1 => records[0].seq,
            other => panic!("expected a one-record task frame, got {other:?}"),
        }
    }

    /// A result frame of one empty record for `seq`.
    fn result(seq: u64) -> Message {
        Message::ResultBatch(vec![Record::new(seq, Bytes::new())])
    }

    /// The seqs of every task frame waiting at a volunteer's endpoint.
    fn task_seqs(volunteer: &Endpoint<Message>) -> Vec<u64> {
        let mut seqs = Vec::new();
        loop {
            match volunteer.try_recv() {
                Ok(Message::TaskBatch(records)) => seqs.extend(records.iter().map(|r| r.seq)),
                Err(RecvError::Empty) => return seqs,
                other => panic!("expected task frames, got {other:?}"),
            }
        }
    }

    #[test]
    fn stats_snapshot_starts_clean() {
        let reactor = Reactor::new(&PandoConfig::local_test());
        let stats = reactor.stats();
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.registered, 0);
        assert_eq!(stats.active, 0);
    }

    #[test]
    fn drop_joins_the_pool() {
        let reactor = Reactor::new(&PandoConfig::local_test().with_reactor_threads(3));
        assert_eq!(reactor.stats().threads, 3);
        drop(reactor); // must not hang
    }

    #[test]
    fn kick_order_is_park_order_across_interleaved_parks_and_exits() {
        let rig = Rig::new(1);
        let (_a, a_end) = rig.join("a", 2);
        let (b, b_end) = rig.join("b", 2);
        let (_c, _c_end) = rig.join("c", 2);
        rig.drain();
        assert_eq!(rig.parked(), "a b c");

        // `b` leaves from the middle. Its sub-stream held nothing, so its
        // end re-lends nothing and kicks nobody: the line closes up. The
        // sub-stream `d` joins with is no news either; `d` parks at the back.
        b_end.close();
        rig.drain();
        assert!(b.is_finished());
        assert_eq!(rig.parked(), "a c");
        let (_d, _d_end) = rig.join("d", 2);
        rig.drain();
        assert_eq!(rig.parked(), "a c d");

        // One staged value is covered by the longest-parked driver's window:
        // which starves again for its second window slot and parks at the
        // back (lending the value kicks nobody).
        assert!(rig.reactor.pump_starved());
        rig.drain();
        assert_eq!(task_seq(&a_end), 0);
        assert_eq!(rig.parked(), "c d a");
        rig.assert_active_counts_the_registered();
    }

    #[test]
    fn a_dead_entry_at_the_front_costs_no_budget_and_is_not_suppressed() {
        let rig = Rig::new(1);
        let (ghost, _ghost_end) = rig.join("ghost", 1);
        let (_b, _b_end) = rig.join("b", 1);
        let (_c, _c_end) = rig.join("c", 1);
        rig.drain();
        // Drop the driver without letting it finish: its entry stays behind.
        rig.reactor.inner.registered.lock().remove(&ghost.driver.id);
        drop(ghost);
        assert_eq!(rig.parked(), "<dead> b c");

        // One staged value: a value kick that one free slot covers.
        assert!(rig.lender.prefetch_shard(0));
        let before = rig.reactor.stats();
        rig.reactor.inner.kick_starved();
        let after = rig.reactor.stats();
        assert_eq!(after.kicks_sent - before.kicks_sent, 1, "`b`'s one slot covers the value");
        assert_eq!(after.kicks_suppressed - before.kicks_suppressed, 1, "only `c` stayed parked");
        assert_eq!(rig.parked(), "c");
    }

    /// A value kick pops drivers until the free window slots they parked
    /// with cover the lendable depth: two staged values wake one driver
    /// with room for both, and two drivers with room for one each.
    #[test]
    fn a_value_kick_wakes_drivers_until_their_credits_cover_the_depth() {
        for (window, woken) in [(2, 1), (1, 2)] {
            let rig = Rig::new(2);
            let (_a, _a_end) = rig.join("a", window);
            let (_b, _b_end) = rig.join("b", window);
            rig.drain();
            assert_eq!(rig.parked(), "a b");
            assert!(rig.lender.prefetch_shard(0) && rig.lender.prefetch_shard(0));
            let before = rig.reactor.stats();
            rig.reactor.inner.kick_starved();
            let after = rig.reactor.stats();
            assert_eq!(after.kicks_sent - before.kicks_sent, woken, "window {window}");
            assert_eq!(after.kicks_suppressed - before.kicks_suppressed, 2 - woken);
        }
    }

    #[test]
    fn finish_of_a_parked_driver_removes_only_its_own_entry() {
        let rig = Rig::new(0);
        let (a, a_end) = rig.join("a", 1);
        let (_b, _b_end) = rig.join("b", 1);
        let (_c, _c_end) = rig.join("c", 1);
        rig.drain();
        assert_eq!(rig.parked(), "a b c");
        rig.assert_active_counts_the_registered();

        a_end.close();
        assert!(rig.reactor.step(), "`a` is polled and finishes");
        assert!(a.is_finished());
        assert_eq!(rig.parked(), "b c");
        rig.assert_active_counts_the_registered();
    }

    #[test]
    fn registration_ids_are_unique_under_concurrent_register() {
        let rig = Rig::new(0);
        let barrier = std::sync::Barrier::new(8);
        let ids: Vec<u64> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..8)
                .map(|t| {
                    let (rig, barrier) = (&rig, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        (0..50)
                            .map(|i| rig.join(&format!("v{t}-{i}"), 1).0.driver.id)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            threads.into_iter().flat_map(|thread| thread.join().expect("no panic")).collect()
        });
        assert_eq!(ids.iter().collect::<HashSet<_>>().len(), 400);
        assert_eq!(rig.reactor.inner.registered.lock().len(), 400, "no driver displaced another");
        assert_eq!(rig.reactor.stats().registered, 400);
    }

    /// The credits are the paper's `pull-limit`: a driver hands its
    /// volunteer at most `batch_size` values, however many the lender could
    /// lend, and one more per result that comes back.
    #[test]
    fn a_driver_holds_at_most_its_window() {
        let rig = Rig::new(5);
        let (_v, v_end) = rig.join("v", 3);
        let quiesce = || {
            rig.drain();
            while rig.reactor.pump_starved() {
                rig.drain();
            }
        };
        quiesce();
        assert_eq!(task_seqs(&v_end), [0, 1, 2]);

        v_end.send(result(1)).unwrap();
        quiesce();
        assert_eq!(task_seqs(&v_end), [3]);
    }

    /// A driver's timer entry superseded by an earlier deadline fires
    /// nothing: when the old instant passes, the driver is polled once and
    /// one timer fire is counted, for the booking that replaced the entry.
    #[test]
    fn a_superseded_timer_entry_never_wakes_its_driver() {
        let rig = Rig::new(0);
        let clock = rig.config.run.clock.clone();
        let ms = std::time::Duration::from_millis;
        let link = ChannelConfig { latency: ms(2), ..ChannelConfig::instant() };
        let (master_side, v_end) = pair_with_clock::<Message>(link, clock.clone());
        let sub = rig.lender.lend_on(0);
        let _v = rig.reactor.register("v", Arc::new(master_side), sub, &rig.config, &rig.meter);
        rig.drain();
        let heartbeat_due = clock.now() + ms(5);
        assert_eq!(rig.reactor.next_timer_at(), Some(heartbeat_due));

        // A frame in flight books an earlier deadline: the heartbeat's entry
        // is superseded, and the poll at the frame's arrival books the
        // heartbeat again.
        v_end.send(Message::Heartbeat).unwrap();
        rig.drain();
        assert_eq!(rig.reactor.next_timer_at(), Some(clock.now() + ms(2)));
        clock.advance_to(clock.now() + ms(2));
        rig.drain();
        let before = rig.reactor.stats();
        clock.advance_to(heartbeat_due);
        rig.drain();
        let after = rig.reactor.stats();
        assert_eq!(after.polls - before.polls, 1, "one poll at the old instant");
        assert_eq!(
            after.timer_fires - before.timer_fires,
            1,
            "the superseded entry is not counted"
        );
    }
}
