//! The volunteer side: one worker core and the threads that drive it.
//!
//! A worker is the code that runs inside a volunteer's browser tab: it
//! receives task batches over its channel, applies the processing function
//! (the `AsyncMap(f)` module of paper Figure 7) to each record, and answers
//! each batch with coalesced [`Message::ResultBatch`] frames. Payloads are
//! opaque bytes; [`WorkerBuilder::spawn_typed`] layers a [`TaskCodec`] on
//! top for processing functions with native types. A worker may crash at a
//! scripted point (fault injection) to reproduce the failure scenarios of
//! the evaluation, and a *panicking* processing function is reported as a
//! crash of that one volunteer instead of poisoning the joiner.
//!
//! That behaviour is written once, in a sans-IO `WorkerCore` per volunteer,
//! and driven twice: by the pool threads behind every [`WorkerBuilder`]
//! spawn — a single [`spawn`](WorkerBuilder::spawn) is a pool of one — over
//! a simulated [`Endpoint`](pando_netsim::channel::Endpoint) or a live
//! [`TcpTransport`](crate::transport::tcp::TcpTransport), and by the
//! virtual-clock volunteers of [`simulate_fleet`](crate::sim::simulate_fleet).

use crate::protocol::{HeartbeatAction, HeartbeatPacer, Message};
use crate::transport::Transport;
use bytes::Bytes;
use pando_netsim::channel::{RecvError, SendError};
use pando_netsim::codec::{record_body_len, Record, MAX_FRAME_LEN, RECORD_HEADER_LEN};
use pando_netsim::fault::{ArmedFaultPlan, FaultPlan};
use pando_pull_stream::codec::{Payload, TaskCodec};
use pando_pull_stream::StreamError;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Options controlling one worker.
#[derive(Debug, Clone, Default)]
pub struct WorkerOptions {
    /// Scripted crash behaviour (crash-stop fault injection).
    pub fault: FaultPlan,
    /// Name used in logs and reports.
    pub name: String,
    /// Emit periodic [`Message::Heartbeat`] frames while idle, piggybacked
    /// on result traffic: an interval that saw a data frame suppresses the
    /// standalone control frame. Off by default — unit tests asserting exact
    /// frame sequences stay deterministic — and enabled by deployments that
    /// model real channel chatter (the scale examples, the TCP fleets).
    pub heartbeats: bool,
}

/// One fluent entry point for running volunteer workers: one transport on
/// its own thread ([`spawn`](WorkerBuilder::spawn)), typed through a codec
/// ([`spawn_typed`](WorkerBuilder::spawn_typed)), or many transports over a
/// few threads ([`spawn_pool`](WorkerBuilder::spawn_pool)). `spawn` is a pool
/// of one, so scripted faults, heartbeat pacing, backpressure and panic
/// containment behave alike on every path. Transport-generic: pass a
/// simulated [`Endpoint`](pando_netsim::channel::Endpoint) or a live
/// [`TcpTransport`](crate::transport::tcp::TcpTransport).
///
/// # Examples
///
/// ```
/// use pando_core::worker::WorkerBuilder;
/// use pando_core::protocol::Message;
/// use pando_netsim::channel::{pair, ChannelConfig};
/// use bytes::Bytes;
///
/// let (master, volunteer) = pair::<Message>(ChannelConfig::instant());
/// let worker = WorkerBuilder::new()
///     .name("tablet")
///     .heartbeats(false)
///     .spawn(volunteer, |payload: &Bytes| Ok(payload.clone()));
/// master.close();
/// assert_eq!(worker.join().name, "tablet");
/// ```
#[derive(Debug, Clone)]
pub struct WorkerBuilder {
    options: WorkerOptions,
    pool_threads: usize,
}

impl Default for WorkerBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerBuilder {
    /// A builder with default options: no name, no scripted fault, no
    /// standalone heartbeats, one pool thread.
    pub fn new() -> Self {
        Self { options: WorkerOptions::default(), pool_threads: 1 }
    }

    /// Wraps pre-assembled [`WorkerOptions`] (the volunteer-lifecycle API
    /// hands these through).
    pub fn from_options(options: WorkerOptions) -> Self {
        Self { options, pool_threads: 1 }
    }

    /// Name used in logs, thread names and reports.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.options.name = name.into();
        self
    }

    /// Scripted crash behaviour (crash-stop fault injection).
    pub fn fault(mut self, fault: FaultPlan) -> Self {
        self.options.fault = fault;
        self
    }

    /// Whether to emit standalone [`Message::Heartbeat`] frames while idle
    /// (see [`WorkerOptions::heartbeats`]).
    pub fn heartbeats(mut self, heartbeats: bool) -> Self {
        self.options.heartbeats = heartbeats;
        self
    }

    /// Number of threads a [`spawn_pool`](WorkerBuilder::spawn_pool) call
    /// spreads its transports over.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn pool_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "a worker pool needs at least one thread");
        self.pool_threads = threads;
        self
    }

    /// Spawns a worker thread processing binary task payloads from
    /// `transport` with `process` — the Rust equivalent of the function
    /// exported under `'/pando/1.0.0'` (paper Figure 2), over the binary
    /// wire form: it receives a task payload (a zero-copy slice of the
    /// received frame) and returns either the result payload or an error.
    /// The thread is a pool of one transport, so `process` need not be
    /// `Sync`.
    pub fn spawn<T, F>(self, transport: T, process: F) -> WorkerHandle
    where
        T: Transport + 'static,
        F: Fn(&Payload) -> Result<Bytes, StreamError> + Send + 'static,
    {
        let name = self.options.name.clone();
        let handle = crate::thread::spawn(format!("pando-worker-{name}"), move || {
            let transports = vec![Arc::new(transport) as Arc<dyn Transport>];
            let options = &self.options;
            let mut reports =
                run_worker_slice(transports, |_| options.name.clone(), options, &process);
            reports.pop().expect("one transport, one report")
        });
        WorkerHandle { handle, name }
    }

    /// Spawns a worker whose processing function works on the native task
    /// and result types of `codec`; payloads are decoded and encoded at the
    /// transport boundary.
    pub fn spawn_typed<T, C, F>(self, transport: T, codec: C, process: F) -> WorkerHandle
    where
        T: Transport + 'static,
        C: TaskCodec,
        F: Fn(&C::Task) -> Result<C::Result, StreamError> + Send + 'static,
    {
        self.spawn(transport, move |payload: &Payload| {
            let task = codec.decode_task(payload)?;
            let result = process(&task)?;
            Ok(codec.encode_result(&result))
        })
    }

    /// Spawns [`pool_threads`](WorkerBuilder::pool_threads) threads that
    /// together serve every transport in `transports` — the volunteer-side
    /// mirror of the master's reactor, used to run fleets of thousands of
    /// devices without a thread per device.
    ///
    /// Each pool thread owns a disjoint slice of the transports and drives
    /// them through a per-thread ready queue mirroring the master reactor:
    /// a transport's waker enqueues it when a frame arrives, so a wake costs
    /// one slot visit instead of a scan over the whole slice. `process` is
    /// shared. Heartbeat pacing follows the builder's
    /// [`heartbeats`](WorkerBuilder::heartbeats) setting; each transport
    /// gets its own copy of the builder's [`fault`](WorkerBuilder::fault)
    /// plan, and a panic in `process` crashes only the transport whose task
    /// raised it.
    pub fn spawn_pool<T, F>(self, transports: Vec<T>, process: F) -> WorkerPoolHandle
    where
        T: Transport + 'static,
        F: Fn(&Payload) -> Result<Bytes, StreamError> + Send + Sync + 'static,
    {
        let per_thread = transports.len().div_ceil(self.pool_threads).max(1);
        let process = Arc::new(process);
        let mut transports = transports.into_iter().map(|t| Arc::new(t) as Arc<dyn Transport>);
        let mut handles = Vec::new();
        for index in 0..self.pool_threads {
            let chunk: Vec<Arc<dyn Transport>> = transports.by_ref().take(per_thread).collect();
            if chunk.is_empty() {
                break;
            }
            let (process, options) = (process.clone(), self.options.clone());
            handles.push(crate::thread::spawn(format!("pando-worker-pool-{index}"), move || {
                let name = |i| match options.name.as_str() {
                    "" => format!("pool-{index}-{i}"),
                    prefix => format!("{prefix}-pool-{index}-{i}"),
                };
                run_worker_slice(chunk, name, &options, &*process)
            }));
        }
        WorkerPoolHandle { threads: handles }
    }
}

/// What a worker did during its lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerReport {
    /// Name of the worker.
    pub name: String,
    /// Number of tasks processed successfully.
    pub processed: u64,
    /// Number of tasks whose processing function returned an error.
    pub errors: u64,
    /// `true` if the worker crashed (fault injection or a panicking
    /// processing function), `false` if it left cleanly after the master
    /// closed the stream.
    pub crashed: bool,
    /// Standalone heartbeat frames sent (only with
    /// [`WorkerOptions::heartbeats`]).
    pub heartbeats_sent: u64,
    /// Heartbeats suppressed because result traffic inside the interval
    /// already proved liveness.
    pub heartbeats_suppressed: u64,
}

impl WorkerReport {
    fn new(name: String) -> Self {
        Self {
            name,
            processed: 0,
            errors: 0,
            crashed: false,
            heartbeats_sent: 0,
            heartbeats_suppressed: 0,
        }
    }
}

/// Handle on a running worker thread.
#[derive(Debug)]
pub struct WorkerHandle {
    handle: JoinHandle<WorkerReport>,
    name: String,
}

impl WorkerHandle {
    /// Waits for the worker to finish and returns its report.
    ///
    /// A worker whose processing function panicked is reported as `crashed`
    /// — the panic is contained inside the worker thread and never poisons
    /// the joining thread.
    pub fn join(self) -> WorkerReport {
        let fallback = WorkerReport { crashed: true, ..WorkerReport::new(self.name.clone()) };
        self.handle.join().unwrap_or(fallback)
    }
}

/// Handle on a pool of threads multiplexing many volunteer transports.
#[derive(Debug)]
pub struct WorkerPoolHandle {
    threads: Vec<JoinHandle<Vec<WorkerReport>>>,
}

impl WorkerPoolHandle {
    /// Waits for every transport to finish and returns one report per
    /// volunteer, in registration order within each pool thread.
    pub fn join(self) -> Vec<WorkerReport> {
        self.threads.into_iter().flat_map(|handle| handle.join().unwrap_or_default()).collect()
    }
}

/// One volunteer's worker, free of I/O: its report, armed fault plan and
/// optional heartbeat pacer. A driver — a pool slot on wall-clock time, the
/// fleet simulator on virtual time — hands it what the transport returned
/// and does what it answers.
pub(crate) struct WorkerCore {
    report: WorkerReport,
    fault: ArmedFaultPlan,
    pacer: Option<HeartbeatPacer>,
}

/// What one receive asks of the driver.
#[derive(Debug, PartialEq)]
pub(crate) enum Step {
    /// A task frame of `records` records was computed: send `replies`.
    Reply { records: usize, replies: Vec<Message> },
    /// The volunteer crashed mid-frame (its fault plan, or a panicking
    /// `process`) before any result left: crash the link, send nothing.
    Crash,
    /// Nothing to answer (a heartbeat or an ack): receive again.
    Skip,
    /// Nothing deliverable yet.
    Idle,
    /// The master closed the stream: say goodbye, close, leave.
    Goodbye,
    /// Leave without a goodbye, closing the link unless the peer failed.
    Leave { close: bool },
}

/// What falls due on a visit, before receiving.
#[derive(Debug, PartialEq)]
pub(crate) enum Due {
    /// The fault plan crashes the volunteer now.
    Crash,
    /// A scripted link flap, not a crash: sever the link and carry on.
    DropLink,
    /// The link was silent for a heartbeat interval: send a heartbeat.
    Heartbeat,
}

impl WorkerCore {
    pub(crate) fn new(name: String, fault: ArmedFaultPlan, pacer: Option<HeartbeatPacer>) -> Self {
        Self { report: WorkerReport::new(name), fault, pacer }
    }

    /// Turns what one `try_recv` returned into a step, applying `process`
    /// to a task frame's records and building its replies on the way.
    pub(crate) fn on_recv<F>(&mut self, received: Result<Message, RecvError>, process: &F) -> Step
    where
        F: Fn(&Payload) -> Result<Bytes, StreamError>,
    {
        let mut records = match received {
            Ok(Message::TaskBatch(records)) => records,
            Ok(Message::Heartbeat | Message::Ack { .. }) => return Step::Skip,
            // Unexpected on the worker side; treat as end of stream.
            Ok(Message::Goodbye | Message::ResultBatch(_) | Message::TaskError { .. }) => {
                return Step::Leave { close: true }
            }
            Err(RecvError::Closed) => return Step::Goodbye,
            Err(RecvError::PeerFailed) => return Step::Leave { close: false },
            Err(RecvError::Empty) => return Step::Idle,
        };
        let (frame_len, mut done, mut error) = (records.len(), 0, None);
        // A panic is indistinguishable from a browser tab dying mid-task: it
        // crashes this volunteer instead of unwinding its driver.
        let finished = std::panic::catch_unwind(AssertUnwindSafe(|| {
            for record in &mut records {
                match process(&record.payload) {
                    Ok(payload) => {
                        self.report.processed += 1;
                        // The result takes its task's place in the frame's
                        // own records: no second vector per frame.
                        record.payload = payload;
                        done += 1;
                    }
                    Err(err) => {
                        self.report.errors += 1;
                        let message = Bytes::copy_from_slice(err.message().as_bytes());
                        error = Some(Message::TaskError { seq: record.seq, message });
                    }
                }
                // Errored tasks count towards the fault plan like successful
                // ones: the plan scripts "after N tasks handled".
                self.fault.record_task();
                if self.fault.should_crash() {
                    return false;
                }
                // The master treats an erroring volunteer as faulty anyway.
                if error.is_some() {
                    break;
                }
            }
            true
        }));
        if !finished.unwrap_or(false) {
            self.report.crashed = true;
            return Step::Crash;
        }
        // The computed prefix is answered; an application error follows it.
        records.truncate(done);
        let frames = usize::from(done > 0) + usize::from(error.is_some());
        let mut replies = Vec::with_capacity(frames);
        if done > 0 {
            push_result_batches(&mut replies, records);
        }
        replies.extend(error);
        Step::Reply { records: frame_len, replies }
    }

    /// Records that a reply frame left: it proves liveness for the
    /// heartbeat interval.
    pub(crate) fn on_sent(&mut self) {
        if let Some(pacer) = &mut self.pacer {
            pacer.on_traffic();
        }
    }

    /// What the driver must do on this visit before it receives.
    pub(crate) fn due(&mut self) -> Option<Due> {
        if self.fault.should_crash() {
            self.report.crashed = true;
            return Some(Due::Crash);
        }
        if self.fault.pending_disconnect().is_some() {
            return Some(Due::DropLink);
        }
        match self.pacer.as_mut()?.poll() {
            HeartbeatAction::NotDue => None,
            HeartbeatAction::Send => {
                self.report.heartbeats_sent += 1;
                Some(Due::Heartbeat)
            }
            HeartbeatAction::Suppressed => {
                self.report.heartbeats_suppressed += 1;
                None
            }
        }
    }
}

/// Pushes `records` as result batches whose encoded bodies stay within
/// [`MAX_FRAME_LEN`], so a worker answering a large batch (for example
/// rendered frames) never produces an unencodable reply frame.
fn push_result_batches(replies: &mut Vec<Message>, records: Vec<Record>) {
    if record_body_len(&records) <= MAX_FRAME_LEN {
        replies.push(Message::ResultBatch(records));
        return;
    }
    let mut chunk = Vec::new();
    let mut body = 4usize;
    for record in records {
        let add = RECORD_HEADER_LEN + record.payload.len();
        if !chunk.is_empty() && body + add > MAX_FRAME_LEN {
            replies.push(Message::ResultBatch(std::mem::take(&mut chunk)));
            body = 4;
        }
        body += add;
        chunk.push(record);
    }
    replies.push(Message::ResultBatch(chunk));
}

/// One pooled transport and the core that serves it.
struct PoolSlot {
    endpoint: Arc<dyn Transport>,
    core: WorkerCore,
    /// Replies refused with [`SendError::WouldBlock`] by a bounded
    /// transport, waiting for its write queue to drain. While non-empty the
    /// slot takes no new input, so transport backpressure propagates to the
    /// task stream instead of ballooning in process memory.
    pending: VecDeque<Message>,
    done: bool,
}

impl PoolSlot {
    /// Sends the parked replies until they are gone or the transport pushes
    /// back again. A terminal send error ends the slot.
    fn flush(&mut self) {
        while let Some(reply) = self.pending.front() {
            let size = reply.wire_size();
            let count = reply.record_count();
            match self.endpoint.send_records_with_size(reply.clone(), size, count) {
                Ok(()) => {
                    self.pending.pop_front();
                    self.core.on_sent();
                }
                Err(SendError::WouldBlock) => return,
                Err(SendError::Closed) | Err(SendError::PeerFailed) => {
                    self.done = true;
                    return;
                }
            }
        }
    }

    /// One visit: act on what is due, flush parked replies — new input
    /// waits behind them, or backpressure would break and sends reorder —
    /// then drain at most eight frames, so one chatty endpoint cannot starve
    /// its siblings. Answers whether input may still be waiting.
    fn visit<F>(&mut self, process: &F) -> bool
    where
        F: Fn(&Payload) -> Result<Bytes, StreamError>,
    {
        match self.core.due() {
            Some(Due::Crash) => {
                self.endpoint.crash();
                self.done = true;
                return false;
            }
            // A resumable transport redials on its own; on a plain one
            // `drop_link` is a crash, which the receive path observes.
            Some(Due::DropLink) => self.endpoint.drop_link(),
            Some(Due::Heartbeat) => {
                let _ = self.endpoint.send(Message::Heartbeat);
            }
            None => {}
        }
        for _ in 0..8 {
            self.flush();
            if self.done || !self.pending.is_empty() {
                return false;
            }
            match self.core.on_recv(self.endpoint.try_recv(), process) {
                Step::Reply { replies, .. } => self.pending.extend(replies),
                Step::Skip => {}
                Step::Idle => return false,
                Step::Crash => {
                    self.endpoint.crash();
                    self.done = true;
                }
                Step::Goodbye => {
                    let _ = self.endpoint.send(Message::Goodbye);
                    self.endpoint.close();
                    self.done = true;
                }
                Step::Leave { close } => {
                    if close {
                        self.endpoint.close();
                    }
                    self.done = true;
                }
            }
        }
        self.flush();
        !self.done && self.pending.is_empty()
    }
}

/// Serves a slice of transports from one pool thread until all of them end,
/// one [`WorkerCore`] per transport (named by `name(index)`), each with its
/// own copy of the options' fault plan.
///
/// Readiness is queue-driven, mirroring the master reactor: each transport's
/// waker ([`Transport::set_waker`]) enqueues that slot's index on a
/// per-thread ready queue (an [`AtomicBool`] per slot coalesces duplicate
/// wakes), and the loop services only queued slots instead of scanning the
/// whole slice per wake. With the queue empty the thread parks on a condvar,
/// capped by the earliest known readiness instant
/// ([`Transport::next_ready_at`]), the next heartbeat deadline, and a coarse
/// 50 ms safety timeout; a timed-out wait requeues every live slot once so
/// paced heartbeats, time-scripted faults and matured simulated-latency
/// frames are never missed.
fn run_worker_slice<F>(
    transports: Vec<Arc<dyn Transport>>,
    name: impl Fn(usize) -> String,
    options: &WorkerOptions,
    process: &F,
) -> Vec<WorkerReport>
where
    F: Fn(&Payload) -> Result<Bytes, StreamError>,
{
    use parking_lot::{Condvar, Mutex};
    let fault = options.fault.clone().arm();
    let ready: Arc<(Mutex<VecDeque<usize>>, Condvar)> =
        Arc::new((Mutex::new(VecDeque::new()), Condvar::new()));
    let queued: Vec<Arc<AtomicBool>> =
        (0..transports.len()).map(|_| Arc::new(AtomicBool::new(false))).collect();
    let mut slots: Vec<PoolSlot> = transports
        .into_iter()
        .enumerate()
        .map(|(i, endpoint)| {
            let ready = ready.clone();
            let flag = queued[i].clone();
            endpoint.set_waker(Arc::new(move || {
                // Coalesce: a slot already sitting in the queue absorbs any
                // number of further wakes until it is serviced.
                if !flag.swap(true, Ordering::SeqCst) {
                    let (queue, cond) = &*ready;
                    queue.lock().push_back(i);
                    cond.notify_one();
                }
            }));
            let interval = endpoint.heartbeat_interval();
            let pacer = options.heartbeats.then(|| HeartbeatPacer::new(interval));
            let core = WorkerCore::new(name(i), fault.clone(), pacer);
            PoolSlot { endpoint, core, pending: VecDeque::new(), done: false }
        })
        .collect();
    let mut live = slots.len();
    // Seed every slot once: frames may already be waiting from before the
    // wakers were registered.
    queued.iter().for_each(|flag| flag.store(true, Ordering::SeqCst));
    ready.0.lock().extend(0..slots.len());
    while live > 0 {
        let next = ready.0.lock().pop_front();
        let Some(index) = next else {
            // Queue drained: park until a waker enqueues a slot, but never
            // past the earliest moment something is known to become
            // deliverable (simulated latency) or a heartbeat falls due.
            let mut deadline = Instant::now() + std::time::Duration::from_millis(50);
            for slot in slots.iter().filter(|slot| !slot.done) {
                let heartbeat = slot.core.pacer.as_ref().map(HeartbeatPacer::next_due);
                for at in [slot.endpoint.next_ready_at(), heartbeat].into_iter().flatten() {
                    deadline = deadline.min(at);
                }
            }
            let (queue, cond) = &*ready;
            let mut queue = queue.lock();
            if queue.is_empty() {
                cond.wait_until(&mut queue, deadline);
            }
            if queue.is_empty() {
                // Timed out with nothing queued: requeue every live slot
                // once so due heartbeats and matured latency frames are
                // serviced even without a waker event.
                for (i, slot) in slots.iter().enumerate() {
                    if !slot.done {
                        queued[i].store(true, Ordering::SeqCst);
                        queue.push_back(i);
                    }
                }
            }
            continue;
        };
        // Clear the coalescing flag *before* draining: an event arriving
        // mid-drain re-enqueues the slot instead of being lost.
        queued[index].store(false, Ordering::SeqCst);
        let slot = &mut slots[index];
        if slot.done {
            continue;
        }
        let more = slot.visit(process);
        if slot.done {
            live -= 1;
            slot.endpoint.clear_waker();
        } else if more && !queued[index].swap(true, Ordering::SeqCst) {
            // The frame-drain bound was hit with input still pending: yield
            // the queue to siblings and come back.
            ready.0.lock().push_back(index);
        }
    }
    slots.into_iter().map(|slot| slot.core.report).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PandoConfig;
    use crate::master::Pando;
    use pando_netsim::channel::{pair, ChannelConfig};
    use pando_pull_stream::codec::StringCodec;
    use pando_pull_stream::source::{count, SourceExt};
    use std::time::Duration;

    const PATIENCE: Duration = Duration::from_secs(10);

    /// Waits up to `timeout` for `try_recv` to answer anything but `Empty`,
    /// parked between polls: the waker unparks this thread, and
    /// `next_ready_at` bounds the park while a frame is in flight or a crash
    /// suspicion is pending. `Empty` once the deadline passes.
    fn recv_within(transport: &dyn Transport, timeout: Duration) -> Result<Message, RecvError> {
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

    #[allow(clippy::ptr_arg)] // must match Fn(&C::Task) with C::Task = String
    fn upper(input: &String) -> Result<String, StreamError> {
        Ok(input.to_uppercase())
    }

    fn record(seq: u64, payload: &[u8]) -> Record {
        Record::new(seq, Bytes::copy_from_slice(payload))
    }

    /// A task frame of one record.
    fn task(seq: u64, payload: &[u8]) -> Message {
        Message::TaskBatch(vec![record(seq, payload)])
    }

    /// A result frame of one record.
    fn result(seq: u64, payload: &[u8]) -> Message {
        Message::ResultBatch(vec![record(seq, payload)])
    }

    fn batch(payloads: &[&[u8]]) -> Result<Message, RecvError> {
        Ok(Message::TaskBatch(payloads.iter().zip(0..).map(|(p, seq)| record(seq, p)).collect()))
    }

    fn core(fault: FaultPlan) -> WorkerCore {
        WorkerCore::new("core".into(), fault.arm(), None)
    }

    fn echo(input: &Bytes) -> Result<Bytes, StreamError> {
        Ok(input.clone())
    }

    fn reverse(payload: &Bytes) -> Result<Bytes, StreamError> {
        let mut out = payload.to_vec();
        out.reverse();
        Ok(Bytes::from(out))
    }

    /// Runs `1..=tasks` through `pando` and checks the output is `reverse`
    /// of each input's decimal form, complete and in order.
    fn run_reversed(pando: &Pando, tasks: u64) {
        let output = pando
            .run(count(tasks).map_values(|v| Bytes::from(v.to_string().into_bytes())))
            .collect_values()
            .unwrap();
        let expected: Vec<Bytes> = (1..=tasks)
            .map(|v| reverse(&Bytes::from(v.to_string().into_bytes())).unwrap())
            .collect();
        assert_eq!(output, expected, "per-volunteer results stay demultiplexed in order");
    }

    #[test]
    fn the_core_turns_each_receive_into_one_step() {
        let mut core = core(FaultPlan::None);
        assert_eq!(
            core.on_recv(Ok(task(1, b"x")), &echo),
            Step::Reply { records: 1, replies: vec![result(1, b"x")] }
        );
        assert_eq!(
            core.on_recv(batch(&[b"a", b"b"]), &echo),
            Step::Reply {
                records: 2,
                replies: vec![Message::ResultBatch(vec![record(0, b"a"), record(1, b"b")])],
            }
        );
        for control in [Message::Heartbeat, Message::Ack { count: 4 }] {
            assert_eq!(core.on_recv(Ok(control), &echo), Step::Skip);
        }
        let results = [
            Message::Goodbye,
            result(0, b"r"),
            Message::TaskError { seq: 0, message: Bytes::new() },
        ];
        for unexpected in results {
            assert_eq!(core.on_recv(Ok(unexpected), &echo), Step::Leave { close: true });
        }
        assert_eq!(core.on_recv(Err(RecvError::Closed), &echo), Step::Goodbye);
        assert_eq!(core.on_recv(Err(RecvError::PeerFailed), &echo), Step::Leave { close: false });
        assert_eq!(core.on_recv(Err(RecvError::Empty), &echo), Step::Idle);
        assert_eq!(core.report.processed, 3, "only task frames are computed");
    }

    #[test]
    fn a_crash_mid_batch_sends_no_reply() {
        let mut core = core(FaultPlan::AfterTasks(2));
        assert_eq!(core.on_recv(batch(&[b"a", b"b", b"c"]), &echo), Step::Crash);
        assert!(core.report.crashed);
        assert_eq!(core.report.processed, 2, "the third record is never reached");
    }

    #[test]
    fn a_panicking_process_is_a_crash_that_sends_no_reply() {
        let mut core = core(FaultPlan::None);
        let explode = |_: &Bytes| -> Result<Bytes, StreamError> { panic!("worker code exploded") };
        assert_eq!(core.on_recv(batch(&[b"boom"]), &explode), Step::Crash);
        assert!(core.report.crashed);
    }

    #[test]
    fn batch_error_still_delivers_earlier_results() {
        let mut core = core(FaultPlan::None);
        let picky = |input: &Bytes| {
            if &input[..] == b"bad" {
                Err(StreamError::new("nope"))
            } else {
                Ok(input.clone())
            }
        };
        let step = core.on_recv(batch(&[b"ok", b"bad", b"never-reached"]), &picky);
        // The successful prefix comes first, then the error.
        let replies = vec![
            Message::ResultBatch(vec![record(0, b"ok")]),
            Message::TaskError { seq: 1, message: Bytes::copy_from_slice(b"nope") },
        ];
        assert_eq!(step, Step::Reply { records: 3, replies });
        assert_eq!((core.report.processed, core.report.errors), (1, 1));
    }

    #[test]
    fn errored_tasks_count_towards_the_fault_plan() {
        // Every task errors; the plan still crashes after three *handled*
        // tasks.
        let mut core = core(FaultPlan::AfterTasks(3));
        let fail = |_: &Bytes| Err(StreamError::new("always fails"));
        let answered =
            (0..5).take_while(|&seq| core.on_recv(Ok(task(seq, b"x")), &fail) != Step::Crash);
        assert_eq!(answered.count(), 2, "the third handled task crashes the worker unanswered");
        assert!(core.report.crashed, "errored tasks must advance the fault plan");
        assert_eq!(core.report.errors, 3);
    }

    #[test]
    fn oversized_result_batches_are_split_at_the_frame_limit() {
        let nine_mb = Bytes::from(vec![7u8; 9 * 1024 * 1024]);
        let records: Vec<Record> = (0..3).map(|seq| Record::new(seq, nine_mb.clone())).collect();
        let step = core(FaultPlan::None).on_recv(Ok(Message::TaskBatch(records.clone())), &echo);
        let Step::Reply { replies, .. } = step else { panic!("a task frame is answered") };
        assert!(replies.len() > 1, "27MB of results cannot travel in one frame");
        let mut rejoined = Vec::new();
        for reply in replies {
            let Message::ResultBatch(chunk) = reply else {
                panic!("a batch is answered with result batches");
            };
            assert!(record_body_len(&chunk) <= MAX_FRAME_LEN);
            rejoined.extend(chunk);
        }
        assert_eq!(rejoined, records, "splitting preserves order and content");
        // Small batches stay in one frame.
        let mut small = Vec::new();
        push_result_batches(&mut small, vec![record(0, b"x")]);
        assert_eq!(small, vec![Message::ResultBatch(vec![record(0, b"x")])]);
    }

    #[test]
    fn the_core_reports_scripted_faults_and_heartbeats_as_due() {
        assert_eq!(core(FaultPlan::AfterTasks(0)).due(), Some(Due::Crash));
        let mut flapping =
            core(FaultPlan::Disconnect { at: Duration::ZERO, down_for: Duration::ZERO });
        assert_eq!(flapping.due(), Some(Due::DropLink));
        assert_eq!(flapping.due(), None, "a flap is one link event");
        assert!(!flapping.report.crashed);
        // A pacer whose first heartbeat fell due in the past.
        let interval = Duration::from_millis(50);
        let overdue = || HeartbeatPacer::new_at(interval, Instant::now() - 2 * interval);
        let mut idle = WorkerCore::new(String::new(), FaultPlan::None.arm(), Some(overdue()));
        assert_eq!(idle.due(), Some(Due::Heartbeat));
        assert_eq!(idle.report.heartbeats_sent, 1);
        let mut busy = WorkerCore::new(String::new(), FaultPlan::None.arm(), Some(overdue()));
        busy.on_sent();
        assert_eq!(busy.due(), None, "a reply inside the interval proves liveness");
        assert_eq!(busy.report.heartbeats_suppressed, 1);
    }

    #[test]
    fn worker_processes_tasks_and_leaves_cleanly() {
        let (master, volunteer) = pair::<Message>(ChannelConfig::instant());
        let worker = WorkerBuilder::new().spawn_typed(volunteer, StringCodec, upper);
        master.send(task(0, b"hello")).unwrap();
        master.send(task(1, b"world")).unwrap();
        assert_eq!(recv_within(&master, PATIENCE).unwrap(), result(0, b"HELLO"));
        assert_eq!(recv_within(&master, PATIENCE).unwrap(), result(1, b"WORLD"));
        master.close();
        let report = worker.join();
        assert_eq!(report.processed, 2);
        assert_eq!(report.errors, 0);
        assert!(!report.crashed);
        // The worker said goodbye before leaving.
        assert_eq!(recv_within(&master, PATIENCE).unwrap(), Message::Goodbye);
    }

    #[test]
    fn task_batches_come_back_as_one_result_batch() {
        let (master, volunteer) = pair::<Message>(ChannelConfig::instant());
        let worker = WorkerBuilder::new().spawn_typed(volunteer, StringCodec, upper);
        master
            .send(Message::TaskBatch(vec![record(4, b"a"), record(5, b"b"), record(6, b"c")]))
            .unwrap();
        assert_eq!(
            recv_within(&master, PATIENCE).unwrap(),
            Message::ResultBatch(vec![record(4, b"A"), record(5, b"B"), record(6, b"C")])
        );
        master.close();
        let report = worker.join();
        assert_eq!(report.processed, 3);
        assert!(!report.crashed);
    }

    #[test]
    fn worker_reports_application_errors() {
        let (master, volunteer) = pair::<Message>(ChannelConfig::instant());
        let worker = WorkerBuilder::new()
            .spawn(volunteer, |_input: &Bytes| Err(StreamError::new("cannot render")));
        master.send(task(5, b"x")).unwrap();
        assert_eq!(
            recv_within(&master, PATIENCE).unwrap(),
            Message::TaskError { seq: 5, message: Bytes::copy_from_slice(b"cannot render") }
        );
        master.close();
        let report = worker.join();
        assert_eq!(report.errors, 1);
        assert_eq!(report.processed, 0);
    }

    /// Waits, through the failure detector, for `master` to see its peer
    /// crash.
    fn sees_the_crash(master: &pando_netsim::channel::Endpoint<Message>) -> bool {
        (0..10).any(|_| matches!(recv_within(master, PATIENCE), Err(RecvError::PeerFailed)))
    }

    #[test]
    fn fault_plan_crashes_the_worker() {
        let (master, volunteer) = pair::<Message>(ChannelConfig {
            failure_timeout: Duration::from_millis(40),
            ..ChannelConfig::instant()
        });
        let worker = WorkerBuilder::new()
            .fault(FaultPlan::AfterTasks(1))
            .name("tablet")
            .spawn_typed(volunteer, StringCodec, upper);
        master.send(task(0, b"only")).unwrap();
        // The worker may already be gone: this send is allowed to fail.
        let _ = master.send(task(1, b"never answered"));
        let report = worker.join();
        assert!(report.crashed);
        assert_eq!(report.name, "tablet");
        assert!(sees_the_crash(&master), "the crash must be detected through the failure detector");
    }

    #[test]
    fn panicking_process_function_is_reported_as_a_crash() {
        let (master, volunteer) = pair::<Message>(ChannelConfig {
            failure_timeout: Duration::from_millis(40),
            ..ChannelConfig::instant()
        });
        let worker = WorkerBuilder::new()
            .name("flaky")
            .spawn(volunteer, |_input: &Bytes| panic!("worker code exploded"));
        master.send(task(0, b"boom")).unwrap();
        // Joining must not propagate the panic.
        let report = worker.join();
        assert!(report.crashed);
        assert_eq!(report.name, "flaky");
        assert!(sees_the_crash(&master), "a panicked worker must look crashed to its peer");
    }

    #[test]
    fn worker_pool_serves_many_endpoints_with_few_threads() {
        let pando = Pando::new(PandoConfig::local_test().with_batch_size(4));
        let endpoints: Vec<_> = (0..20).map(|_| pando.open_volunteer_channel()).collect();
        let pool = WorkerBuilder::new().pool_threads(3).spawn_pool(endpoints, reverse);
        run_reversed(&pando, 200);
        let reports = pool.join();
        assert_eq!(reports.len(), 20);
        let total: u64 = reports.iter().map(|r| r.processed).sum();
        assert_eq!(total, 200);
        assert!(reports.iter().all(|r| !r.crashed));
        pando.join_volunteers();
    }

    #[test]
    fn the_pool_arms_the_builders_fault_plan_on_every_slot() {
        let pando = Pando::new(PandoConfig::local_test());
        let doomed: Vec<_> = (0..4).map(|_| pando.open_volunteer_channel()).collect();
        let pool = WorkerBuilder::new().fault(FaultPlan::AfterTasks(3)).spawn_pool(doomed, reverse);
        let steady = WorkerBuilder::new().spawn(pando.open_volunteer_channel(), reverse);
        // Enough input that the steady worker cannot finish it before every
        // doomed slot has been lent its third task.
        run_reversed(&pando, 1000);
        let reports = pool.join();
        assert_eq!(reports.len(), 4);
        assert!(reports.iter().all(|r| r.crashed && r.processed == 3), "{reports:?}");
        assert!(!steady.join().crashed);
        pando.join_volunteers();
    }

    #[test]
    fn a_panic_in_the_pool_crashes_only_its_own_slot() {
        let pando = Pando::new(PandoConfig::local_test());
        let endpoints: Vec<_> = (0..4).map(|_| pando.open_volunteer_channel()).collect();
        let panicked = Arc::new(AtomicBool::new(false));
        let once = panicked.clone();
        let pool =
            WorkerBuilder::new().pool_threads(1).spawn_pool(endpoints, move |payload: &Bytes| {
                // Only the pool's first task explodes: its re-lend succeeds.
                if !once.swap(true, Ordering::SeqCst) {
                    panic!("worker code exploded");
                }
                reverse(payload)
            });
        let steady = WorkerBuilder::new().spawn(pando.open_volunteer_channel(), reverse);
        run_reversed(&pando, 100);
        assert!(panicked.load(Ordering::SeqCst));
        let reports = pool.join();
        assert_eq!(reports.len(), 4, "one report per transport");
        assert_eq!(reports.iter().filter(|r| r.crashed).count(), 1, "{reports:?}");
        assert!(!steady.join().crashed);
        pando.join_volunteers();
    }

    #[test]
    fn idle_worker_emits_heartbeats_and_traffic_suppresses_them() {
        let (master, volunteer) = pair::<Message>(ChannelConfig {
            heartbeat_interval: Duration::from_millis(10),
            failure_timeout: Duration::from_millis(200),
            ..ChannelConfig::instant()
        });
        let worker =
            WorkerBuilder::new().heartbeats(true).spawn_typed(volunteer, StringCodec, upper);
        // Idle for several intervals: standalone heartbeats flow.
        let mut beats = 0;
        let deadline = Instant::now() + Duration::from_millis(200);
        while beats < 2 && Instant::now() < deadline {
            if let Ok(Message::Heartbeat) = recv_within(&master, Duration::from_millis(50)) {
                beats += 1;
            }
        }
        assert!(beats >= 2, "an idle worker must keep signalling liveness");
        // Steady result traffic for a few intervals suppresses the beats.
        for seq in 0..8u64 {
            master.send(task(seq, b"x")).unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        master.close();
        let report = worker.join();
        assert_eq!(report.processed, 8);
        assert!(report.heartbeats_sent >= 2);
        assert!(
            report.heartbeats_suppressed >= 1,
            "result traffic within the interval must suppress standalone beats \
             (sent={}, suppressed={})",
            report.heartbeats_sent,
            report.heartbeats_suppressed
        );
    }
}
