//! The Pando master process.
//!
//! The master (paper Figure 7) owns the StreamLender that coordinates the
//! distributed map. Each volunteer is wired to a fresh sub-stream through
//! one of two backends ([`ReactorConfig::backend`](crate::config::ReactorConfig::backend)):
//!
//! * **Reactor** (default): the volunteer becomes a registration on the
//!   shared [`reactor`](crate::reactor) pool — a fixed number of threads
//!   multiplexes dispatch and receive for *all* volunteers, so one master
//!   scales to tens of thousands of endpoints.
//! * **Threads** (legacy, kept for A/B comparison): two dedicated pump
//!   threads per volunteer. The *dispatcher* borrows values from the
//!   sub-stream — bounded by the batch-size window — and coalesces whatever
//!   is immediately available into a single [`Message::TaskBatch`] frame, so
//!   a whole window pays the channel round-trip once. The *receiver*
//!   demultiplexes [`Message::ResultBatch`] frames back into the lender and
//!   releases window slots.
//!
//! Either way, results are emitted on a single ordered output stream.
//! Payloads are opaque [`Bytes`] end to end; [`Pando::run_typed`] layers a
//! [`TaskCodec`] on top for applications with native task/result types.

use crate::config::{PandoConfig, VolunteerBackend};
use crate::metrics::{DeviceMeter, ShardMeter, ThroughputMeter};
use crate::protocol::Message;
use crate::reactor::{DriverHandle, Reactor, ReactorStats};
use crate::transport::Transport;
use bytes::Bytes;
use pando_netsim::channel::{pair_with_clock, ChannelConfig, Endpoint, RecvError, SendError};
use pando_netsim::codec::{Record, MAX_FRAME_LEN, RECORD_HEADER_LEN};
use pando_pull_stream::codec::TaskCodec;
use pando_pull_stream::lender::{LenderStats, SubStreamSink, SubStreamSource};
use pando_pull_stream::shard::{ShardedLender, ShardedOutput};
use pando_pull_stream::source::Source;
use pando_pull_stream::sync::Semaphore;
use pando_pull_stream::{Answer, Request, StreamError};
use parking_lot::Mutex;
use std::sync::Arc;
use std::thread::JoinHandle;

/// The Pando master: accepts volunteers and distributes a stream of values to
/// them. See the [crate documentation](crate) for a complete example.
pub struct Pando {
    config: PandoConfig,
    meter: ThroughputMeter,
    state: Arc<Mutex<MasterState>>,
}

struct MasterState {
    lender: Option<ShardedLender<Bytes, Bytes>>,
    /// The reactor pool, created lazily on the first reactor-backed wiring.
    /// Dropping the last Pando handle joins its threads.
    reactor: Option<Arc<Reactor>>,
    /// Volunteer transports accepted before the input stream was attached.
    pending: Vec<(String, Arc<dyn Transport>)>,
    links: Vec<VolunteerLink>,
    next_volunteer: u64,
    volunteers_connected: u64,
}

impl Clone for Pando {
    /// Cloning a `Pando` yields another handle on the *same* deployment:
    /// volunteers registered through any handle feed the same StreamLender.
    fn clone(&self) -> Self {
        Self { config: self.config.clone(), meter: self.meter.clone(), state: self.state.clone() }
    }
}

impl std::fmt::Debug for Pando {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("Pando")
            .field("batch_size", &self.config.batching.batch_size)
            .field("volunteers_connected", &state.volunteers_connected)
            .field("running", &state.lender.is_some())
            .finish()
    }
}

impl Pando {
    /// Creates a master with the given configuration.
    pub fn new(config: PandoConfig) -> Self {
        Self {
            config,
            meter: ThroughputMeter::new(),
            state: Arc::new(Mutex::new(MasterState {
                lender: None,
                reactor: None,
                pending: Vec::new(),
                links: Vec::new(),
                next_volunteer: 0,
                volunteers_connected: 0,
            })),
        }
    }

    /// The configuration of this deployment.
    pub fn config(&self) -> &PandoConfig {
        &self.config
    }

    /// The throughput meter fed by this deployment (one row per volunteer).
    pub fn meter(&self) -> &ThroughputMeter {
        &self.meter
    }

    /// Creates a channel pair using the deployment's network profile (and
    /// clock), registers the master side, and returns the volunteer side —
    /// the in-process equivalent of a device opening the volunteer URL on
    /// the same LAN. Each channel's jitter generator is seeded from the
    /// deployment seed plus the volunteer's join index, so a whole fleet is
    /// reproducible from one [`PandoConfig::deterministic`] seed.
    pub fn open_volunteer_channel(&self) -> Endpoint<Message> {
        let channel = self.config.transport.channel.clone();
        let seed = channel.seed.wrapping_add(self.state.lock().next_volunteer);
        self.open_volunteer_channel_with(channel.with_seed(seed))
    }

    /// Like [`Pando::open_volunteer_channel`] but with an explicit channel
    /// configuration (including its jitter seed) instead of the deployment's
    /// network profile — how a scenario script gives each volunteer its own
    /// link: a phone on lossy WAN next to a laptop on the office LAN. The
    /// channel still runs on the deployment clock, so scenario links stay
    /// deterministic under [`PandoConfig::deterministic`].
    pub fn open_volunteer_channel_with(&self, channel: ChannelConfig) -> Endpoint<Message> {
        let index = self.state.lock().next_volunteer;
        let (master_side, volunteer_side) =
            pair_with_clock::<Message>(channel, self.config.run.clock.clone());
        self.add_volunteer_endpoint(format!("volunteer-{index}"), master_side);
        volunteer_side
    }

    /// Registers the master side of a simulated volunteer connection, for
    /// example one delivered by a
    /// [`PublicServer`](pando_netsim::signaling::PublicServer). Shorthand
    /// for [`Pando::add_volunteer_transport`] with a netsim endpoint.
    pub fn add_volunteer_endpoint(&self, name: String, endpoint: Endpoint<Message>) {
        self.add_volunteer_transport(name, Arc::new(endpoint));
    }

    /// Registers the master side of a volunteer connection over any
    /// [`Transport`] — a simulated channel or a live
    /// [`TcpTransport`](crate::transport::tcp::TcpTransport) accepted from
    /// another process. Volunteers may be added at any time, before or while
    /// the input stream is processed (dynamic property).
    pub fn add_volunteer_transport(&self, name: String, endpoint: Arc<dyn Transport>) {
        let mut state = self.state.lock();
        state.next_volunteer += 1;
        state.volunteers_connected += 1;
        match state.lender.clone() {
            Some(lender) => {
                let reactor = self.reactor_for(&mut state, &lender);
                let link = wire_volunteer(
                    &lender,
                    reactor.as_deref(),
                    &name,
                    endpoint,
                    &self.config,
                    &self.meter,
                );
                state.links.push(link);
            }
            None => state.pending.push((name, endpoint)),
        }
    }

    /// Returns the shared reactor when the reactor backend is active,
    /// creating the pool (and attaching it to the lender) on first use.
    fn reactor_for(
        &self,
        state: &mut MasterState,
        lender: &ShardedLender<Bytes, Bytes>,
    ) -> Option<Arc<Reactor>> {
        match self.config.reactor.backend {
            VolunteerBackend::Threads => None,
            VolunteerBackend::Reactor => Some(
                state
                    .reactor
                    .get_or_insert_with(|| {
                        let reactor = Arc::new(Reactor::new(&self.config));
                        reactor.attach_lender(lender);
                        reactor
                    })
                    .clone(),
            ),
        }
    }

    /// Scheduling counters of the reactor pool, if the reactor backend is
    /// active and at least one volunteer was wired.
    pub fn reactor_stats(&self) -> Option<ReactorStats> {
        self.state.lock().reactor.as_ref().map(|reactor| reactor.stats())
    }

    /// The shared reactor, once the first volunteer was wired on the reactor
    /// backend. The deterministic fleet simulator uses this to single-step
    /// an inline reactor.
    pub(crate) fn reactor_handle(&self) -> Option<Arc<Reactor>> {
        self.state.lock().reactor.clone()
    }

    /// The claim log of the underlying sharded lender (chunk index → owning
    /// shard, in claim order), if the run has started. Under the
    /// deterministic simulator this sequence is identical across same-seed
    /// runs; see [`ShardedLender::claim_log`].
    pub fn claim_log(&self) -> Option<Vec<usize>> {
        self.state.lock().lender.as_ref().map(ShardedLender::claim_log)
    }

    /// Number of volunteers that have connected so far (including ones that
    /// have since left or crashed).
    pub fn volunteers_connected(&self) -> u64 {
        self.state.lock().volunteers_connected
    }

    /// Aggregated statistics of the underlying lender shards, if the run has
    /// started.
    pub fn lender_stats(&self) -> Option<LenderStats> {
        self.state.lock().lender.as_ref().map(ShardedLender::stats)
    }

    /// Per-shard lender statistics, if the run has started. Index `i` is
    /// shard `i`; a single-shard deployment reports one row.
    pub fn shard_stats(&self) -> Option<Vec<LenderStats>> {
        self.state.lock().lender.as_ref().map(ShardedLender::shard_stats)
    }

    /// Samples every shard's queue gauges (staged depth, in-flight count)
    /// and the reactor's wake-discipline counters into the
    /// [`ThroughputMeter`], so the next [`ThroughputMeter::report`] carries
    /// fresh per-shard rows and a scheduler row alongside the borrow/result
    /// counters the dispatch path accumulates.
    pub fn observe_shards(&self) {
        let state = self.state.lock();
        if let Some(lender) = state.lender.as_ref() {
            for shard in 0..lender.shard_count() {
                self.meter.shard(shard).observe(
                    lender.shard_depth(shard) as u64,
                    lender.shard_in_flight(shard) as u64,
                );
            }
        }
        if let Some(reactor) = state.reactor.as_ref() {
            let stats = reactor.stats();
            self.meter.observe_scheduler(crate::metrics::SchedulerCounters {
                polls: stats.polls,
                wasted_polls: stats.wasted_polls,
                kicks_sent: stats.kicks_sent,
                kicks_suppressed: stats.kicks_suppressed,
            });
        }
    }

    /// Attaches the binary input stream and returns the ordered output
    /// stream. Payloads are opaque [`Bytes`]; use [`Pando::run_typed`] to
    /// work with an application's native types through a [`TaskCodec`].
    ///
    /// Volunteers registered earlier are wired immediately; others may join
    /// later. The output terminates once the input is exhausted and every
    /// value has produced a result.
    ///
    /// # Panics
    ///
    /// Panics if `run` was already called: a Pando deployment processes a
    /// single stream during its lifetime (design principle DP1).
    pub fn run(&self, input: impl Source<Bytes> + 'static) -> ShardedOutput<Bytes, Bytes> {
        let mut state = self.state.lock();
        assert!(state.lender.is_none(), "a Pando deployment runs a single stream");
        let lender = ShardedLender::new(
            input,
            self.config.effective_lender_shards(),
            self.config.effective_tasks_per_frame(),
        );
        let pending: Vec<(String, Arc<dyn Transport>)> = state.pending.drain(..).collect();
        for (name, endpoint) in pending {
            let reactor = self.reactor_for(&mut state, &lender);
            let link = wire_volunteer(
                &lender,
                reactor.as_deref(),
                &name,
                endpoint,
                &self.config,
                &self.meter,
            );
            state.links.push(link);
        }
        let output = lender.output();
        state.lender = Some(lender);
        output
    }

    /// Attaches a *typed* input stream through `codec` and returns the
    /// ordered stream of decoded results.
    ///
    /// Tasks are encoded to their binary wire form as the lender reads them
    /// (lazily), and results are decoded as the output is pulled; the hot
    /// path in between carries only [`Bytes`]. A result that fails to decode
    /// terminates the output with its protocol error.
    ///
    /// # Panics
    ///
    /// Panics if a stream was already attached, like [`Pando::run`].
    pub fn run_typed<C>(
        &self,
        codec: C,
        input: impl Source<C::Task> + 'static,
    ) -> impl Source<C::Result> + 'static
    where
        C: TaskCodec,
    {
        use pando_pull_stream::source::SourceExt;
        let codec = Arc::new(codec);
        let encoder = codec.clone();
        let output = self.run(input.map_values(move |task| encoder.encode_task(&task)));
        output.try_map(move |payload: Bytes| codec.decode_result(&payload))
    }

    /// Waits for every volunteer pump thread spawned so far to finish.
    /// Useful in tests to assert on final statistics.
    pub fn join_volunteers(&self) {
        let links: Vec<VolunteerLink> = {
            let mut state = self.state.lock();
            state.links.drain(..).collect()
        };
        for link in links {
            // Transport errors here reflect volunteer crashes, which are an
            // expected part of operation; the lender already re-lent the
            // affected values.
            let _ = link.join();
        }
    }
}

/// Handle on the machinery driving one volunteer: either the dispatcher and
/// receiver pump threads (legacy backend) or a registration on the shared
/// reactor pool.
#[derive(Debug)]
pub enum VolunteerLink {
    /// Thread-per-volunteer pumps.
    Threads {
        /// The dispatcher pump thread.
        dispatcher: JoinHandle<Result<(), StreamError>>,
        /// The receiver pump thread.
        receiver: JoinHandle<Result<(), StreamError>>,
    },
    /// A driver registered on the reactor pool.
    Reactor(DriverHandle),
}

impl VolunteerLink {
    /// Waits for the volunteer session to end and reports the first error.
    ///
    /// # Errors
    ///
    /// Returns the first stream error reported by either direction.
    pub fn join(self) -> Result<(), StreamError> {
        match self {
            VolunteerLink::Threads { dispatcher, receiver } => {
                let dispatcher = dispatcher
                    .join()
                    .map_err(|_| StreamError::protocol("volunteer dispatcher panicked"))?;
                let receiver = receiver
                    .join()
                    .map_err(|_| StreamError::protocol("volunteer receiver panicked"))?;
                dispatcher.and(receiver)
            }
            VolunteerLink::Reactor(handle) => handle.join(),
        }
    }

    /// Returns `true` once the volunteer session has ended.
    pub fn is_finished(&self) -> bool {
        match self {
            VolunteerLink::Threads { dispatcher, receiver } => {
                dispatcher.is_finished() && receiver.is_finished()
            }
            VolunteerLink::Reactor(handle) => handle.is_finished(),
        }
    }
}

/// Picks the lender shard a joining volunteer is pinned to: the hash of its
/// id spreads a fleet uniformly, but a shard left without any device (none
/// hashed there yet, or its devices crashed away while it still holds
/// values) takes priority — deepest backlog first — so no shard's work ever
/// waits for the hash to land on it.
fn shard_for_volunteer(lender: &ShardedLender<Bytes, Bytes>, name: &str) -> usize {
    let shards = lender.shard_count();
    if shards == 1 {
        return 0;
    }
    let mut rescue: Option<(usize, usize)> = None;
    for shard in 0..shards {
        if lender.shard_active_substreams(shard) == 0 {
            let backlog = lender.shard_depth(shard);
            if rescue.map(|(_, deepest)| backlog > deepest).unwrap_or(true) {
                rescue = Some((shard, backlog));
            }
        }
    }
    if let Some((shard, _)) = rescue {
        return shard;
    }
    use std::hash::{Hash, Hasher};
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut hasher);
    (hasher.finish() % shards as u64) as usize
}

/// Wires one volunteer endpoint to a fresh sub-stream on one lender shard
/// (volunteer id hash → shard; see [`shard_for_volunteer`]). On the reactor
/// backend this is a registration on the shared pool; on the legacy backend
/// it spawns a dispatcher thread that batches borrowed values into task
/// frames and a receiver thread that demultiplexes result frames (paper
/// Figures 7 and 9, with protocol-level batching on top).
fn wire_volunteer(
    lender: &ShardedLender<Bytes, Bytes>,
    reactor: Option<&Reactor>,
    name: &str,
    endpoint: Arc<dyn Transport>,
    config: &PandoConfig,
    meter: &ThroughputMeter,
) -> VolunteerLink {
    let shard = shard_for_volunteer(lender, name);
    let duplex = lender.lend_on(shard).into_duplex();
    if let Some(reactor) = reactor {
        return VolunteerLink::Reactor(
            reactor.register(name, shard, endpoint, duplex, config, meter),
        );
    }
    let (source, sink) = duplex;
    // The in-flight window: `batch_size` slots, one per borrowed value that
    // has not produced a result yet (the Limiter of the original pipeline,
    // here driving batch coalescing as well).
    let window = Semaphore::new(config.batching.batch_size);
    let tasks_per_frame = config.effective_tasks_per_frame();

    // Both pumps feed the volunteer's and the shard's meter cell.
    let cells = (meter.device(name), meter.shard(shard));
    let dispatcher = {
        let endpoint = endpoint.clone();
        let window = window.clone();
        let cells = cells.clone();
        std::thread::Builder::new()
            .name(format!("pando-dispatch-{name}"))
            .spawn(move || run_dispatcher(source, endpoint, window, tasks_per_frame, cells))
            .expect("spawn volunteer dispatcher thread")
    };
    let receiver = {
        let name = name.to_string();
        std::thread::Builder::new()
            .name(format!("pando-receive-{name}"))
            .spawn(move || run_receiver(sink, endpoint, window, cells, name))
            .expect("spawn volunteer receiver thread")
    };
    VolunteerLink::Threads { dispatcher, receiver }
}

/// Dispatcher pump: borrows values from the sub-stream within the in-flight
/// window and coalesces whatever is immediately available — up to
/// `tasks_per_frame` — into one frame.
fn run_dispatcher(
    mut source: SubStreamSource<Bytes, Bytes>,
    endpoint: Arc<dyn Transport>,
    window: Semaphore,
    tasks_per_frame: usize,
    (device, shard): (DeviceMeter, ShardMeter),
) -> Result<(), StreamError> {
    // A value pulled for a frame that had no byte budget left; it opens the
    // next frame (its window slot is already held).
    let mut carry: Option<Record> = None;
    loop {
        let first = match carry.take() {
            Some(record) => record,
            None => {
                // One window slot per task; the receiver releases slots as
                // results return and closes the window when the channel ends.
                if !window.acquire() {
                    let _ = source.pull(Request::Abort);
                    return Ok(());
                }
                match source.pull(Request::Ask) {
                    Answer::Value(lend) => Record::new(lend.seq, lend.value),
                    Answer::Done => {
                        endpoint.close();
                        return Ok(());
                    }
                    Answer::Err(err) => {
                        endpoint.close();
                        return Err(err);
                    }
                }
            }
        };
        // Frame byte budget: batching must never assemble a frame the codec
        // would reject (its u32 length field caps at MAX_FRAME_LEN).
        let mut body = 4 + RECORD_HEADER_LEN + first.payload.len();
        let mut records = vec![first];
        // Coalesce without blocking: take only values that are ready *now*,
        // only while window slots remain and only within the byte budget.
        while records.len() < tasks_per_frame && body < MAX_FRAME_LEN && window.try_acquire() {
            match source.try_pull() {
                Some(lend) => {
                    let add = RECORD_HEADER_LEN + lend.value.len();
                    if body + add > MAX_FRAME_LEN {
                        // Keep the value (and its window slot) for the next
                        // frame instead of overflowing this one.
                        carry = Some(Record::new(lend.seq, lend.value));
                        break;
                    }
                    body += add;
                    records.push(Record::new(lend.seq, lend.value));
                }
                None => {
                    window.release();
                    break;
                }
            }
        }
        let message = Message::task_frame(records);
        let size = message.wire_size();
        let count = message.record_count();
        loop {
            match endpoint.send_records_with_size(message.clone(), size, count) {
                Ok(()) => {
                    device.record_wire(size as u64);
                    shard.record_borrows(count);
                    break;
                }
                Err(SendError::WouldBlock) => {
                    // Bounded write queue full: this dedicated dispatcher
                    // thread blocks until the transport drains, bailing out
                    // only if the volunteer dies while we wait.
                    if !endpoint.is_peer_alive() {
                        let err = StreamError::transport("volunteer failed while sending tasks");
                        let _ = source.pull(Request::Fail(err.clone()));
                        return Err(err);
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err(SendError::Closed) => {
                    let _ = source.pull(Request::Abort);
                    return Ok(());
                }
                Err(SendError::PeerFailed) => {
                    let err = StreamError::transport("volunteer failed while sending tasks");
                    let _ = source.pull(Request::Fail(err.clone()));
                    return Err(err);
                }
            }
        }
    }
}

/// Receiver pump: demultiplexes result frames back into the lender, releases
/// window slots, and decides how the sub-stream ends.
fn run_receiver(
    sink: SubStreamSink<Bytes, Bytes>,
    endpoint: Arc<dyn Transport>,
    window: Semaphore,
    (device, shard): (DeviceMeter, ShardMeter),
    name: String,
) -> Result<(), StreamError> {
    let mut accept = |seq: u64, payload: Bytes| {
        // A late or duplicate result for a value this sub-stream no longer
        // borrows is dropped (the conservative property makes the other copy
        // authoritative) — and it neither frees a window slot nor counts as
        // a completed task, since no in-flight borrow corresponds to it.
        if sink.push(seq, payload).is_ok() {
            device.record(1, 1.0);
            shard.record_results(1);
            window.release();
        }
    };
    loop {
        match endpoint.recv() {
            Ok(message @ Message::TaskResult { .. }) | Ok(message @ Message::ResultBatch(_)) => {
                device.record_wire(message.wire_size() as u64);
                message.demux_results(&mut accept);
            }
            Ok(Message::TaskError { seq, message }) => {
                // The processing function reported an error for this value;
                // the volunteer is treated as faulty so its values are
                // re-lent to other devices (crash-stop model).
                sink.finish(false);
                endpoint.close();
                window.close();
                let text = String::from_utf8_lossy(&message).into_owned();
                return Err(StreamError::new(format!(
                    "volunteer {name} failed on value {seq}: {text}"
                )));
            }
            Ok(Message::Heartbeat) | Ok(Message::Ack { .. }) => continue,
            Ok(Message::Goodbye) | Ok(Message::Task { .. }) | Ok(Message::TaskBatch(_)) => {
                // A clean goodbye (or nonsense we treat as end of stream).
                sink.finish(true);
                window.close();
                return Ok(());
            }
            Err(RecvError::Closed) => {
                sink.finish(true);
                window.close();
                return Ok(());
            }
            Err(RecvError::PeerFailed) => {
                sink.finish(false);
                window.close();
                return Err(StreamError::transport(format!(
                    "volunteer {name} disconnected (heartbeat timeout)"
                )));
            }
            Err(RecvError::Timeout) | Err(RecvError::Empty) => continue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::WorkerBuilder;
    use pando_netsim::fault::FaultPlan;
    use pando_pull_stream::codec::StringCodec;
    use pando_pull_stream::source::{count, SourceExt};

    #[allow(clippy::ptr_arg)] // must match Fn(&C::Task) with C::Task = String
    fn square(input: &String) -> Result<String, StreamError> {
        let n: u64 = input.parse().map_err(|_| StreamError::new("not a number"))?;
        Ok((n * n).to_string())
    }

    fn number_source(n: u64) -> impl Source<String> + 'static {
        count(n).map_values(|v| v.to_string())
    }

    #[test]
    fn single_volunteer_end_to_end() {
        let pando = Pando::new(PandoConfig::local_test());
        let endpoint = pando.open_volunteer_channel();
        let worker = WorkerBuilder::new().spawn_typed(endpoint, StringCodec, square);
        let output = pando.run_typed(StringCodec, number_source(30)).collect_values().unwrap();
        assert_eq!(output, (1..=30u64).map(|v| (v * v).to_string()).collect::<Vec<_>>());
        let report = worker.join();
        assert_eq!(report.processed, 30);
        assert!(!report.crashed);
        pando.join_volunteers();
        let stats = pando.lender_stats().unwrap();
        assert_eq!(stats.results_emitted, 30);
        assert_eq!(stats.substreams_crashed, 0);
    }

    #[test]
    fn multiple_volunteers_share_work_and_order_is_kept() {
        let pando = Pando::new(PandoConfig::local_test());
        let workers: Vec<_> = (0..4)
            .map(|_| {
                WorkerBuilder::new().spawn_typed(
                    pando.open_volunteer_channel(),
                    StringCodec,
                    square,
                )
            })
            .collect();
        let output = pando.run_typed(StringCodec, number_source(200)).collect_values().unwrap();
        assert_eq!(output.len(), 200);
        assert_eq!(output[99], (100u64 * 100).to_string());
        let total: u64 = workers.into_iter().map(|w| w.join().processed).sum();
        assert_eq!(total, 200, "each value processed exactly once");
        assert_eq!(pando.volunteers_connected(), 4);
    }

    #[test]
    fn volunteer_joining_mid_run_is_used() {
        let pando = Pando::new(PandoConfig::local_test());
        let first =
            WorkerBuilder::new().spawn_typed(pando.open_volunteer_channel(), StringCodec, square);
        let output_source = pando.run_typed(StringCodec, number_source(100));
        let collector =
            std::thread::spawn(move || pando_pull_stream::sink::collect(output_source).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(10));
        let second =
            WorkerBuilder::new().spawn_typed(pando.open_volunteer_channel(), StringCodec, square);
        let output = collector.join().unwrap();
        assert_eq!(output.len(), 100);
        let (a, b) = (first.join().processed, second.join().processed);
        assert_eq!(a + b, 100);
    }

    #[test]
    fn crashed_volunteer_work_is_recovered() {
        let pando = Pando::new(PandoConfig::local_test());
        // A volunteer that crashes after 3 tasks, plus a reliable one.
        let crashing = WorkerBuilder::new().fault(FaultPlan::AfterTasks(3)).spawn_typed(
            pando.open_volunteer_channel(),
            StringCodec,
            square,
        );
        let reliable =
            WorkerBuilder::new().spawn_typed(pando.open_volunteer_channel(), StringCodec, square);
        let output = pando.run_typed(StringCodec, number_source(50)).collect_values().unwrap();
        assert_eq!(output, (1..=50u64).map(|v| (v * v).to_string()).collect::<Vec<_>>());
        assert!(crashing.join().crashed);
        assert!(!reliable.join().crashed);
        pando.join_volunteers();
        let stats = pando.lender_stats().unwrap();
        assert_eq!(stats.substreams_crashed, 1);
        assert!(stats.relends >= 1, "values held by the crashed volunteer are re-lent");
    }

    #[test]
    fn application_errors_do_not_lose_values() {
        let pando = Pando::new(PandoConfig::local_test());
        // The first worker fails on every odd value; a healthy worker joins
        // afterwards and completes the stream.
        let flaky = |input: &String| -> Result<String, StreamError> {
            let n: u64 = input.parse().unwrap();
            if n % 2 == 1 {
                Err(StreamError::new("odd values unsupported"))
            } else {
                Ok(n.to_string())
            }
        };
        let flaky_worker =
            WorkerBuilder::new().spawn_typed(pando.open_volunteer_channel(), StringCodec, flaky);
        let output_source = pando.run_typed(StringCodec, number_source(10));
        let collector =
            std::thread::spawn(move || pando_pull_stream::sink::collect(output_source).unwrap());
        std::thread::sleep(std::time::Duration::from_millis(50));
        let healthy = WorkerBuilder::new().spawn_typed(
            pando.open_volunteer_channel(),
            StringCodec,
            |s: &String| Ok(s.clone()),
        );
        let output = collector.join().unwrap();
        assert_eq!(output, (1..=10u64).map(|v| v.to_string()).collect::<Vec<_>>());
        let _ = flaky_worker.join();
        let _ = healthy.join();
    }

    #[test]
    #[should_panic(expected = "single stream")]
    fn run_twice_is_rejected() {
        let pando = Pando::new(PandoConfig::local_test());
        let _ = pando.run_typed(StringCodec, number_source(1));
        let _ = pando.run_typed(StringCodec, number_source(1));
    }

    #[test]
    fn meter_records_volunteer_activity() {
        let pando = Pando::new(PandoConfig::local_test());
        let worker =
            WorkerBuilder::new().spawn_typed(pando.open_volunteer_channel(), StringCodec, square);
        let _ = pando.run_typed(StringCodec, number_source(10)).collect_values().unwrap();
        worker.join();
        let report = pando.meter().report();
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].tasks, 10);
        assert!(report.rows[0].wire_bytes > 0, "wire traffic is accounted");
    }

    #[test]
    fn batched_dispatch_coalesces_frames() {
        // A wide window and one worker: the dispatcher should pack several
        // tasks per frame, so far fewer frames than tasks cross the wire.
        let config = PandoConfig::local_test().with_batch_size(16);
        let pando = Pando::new(config);
        let worker =
            WorkerBuilder::new().spawn_typed(pando.open_volunteer_channel(), StringCodec, square);
        let output = pando.run_typed(StringCodec, number_source(200)).collect_values().unwrap();
        assert_eq!(output.len(), 200);
        worker.join();
        pando.join_volunteers();
        let report = pando.meter().report();
        let row = &report.rows[0];
        assert_eq!(row.tasks, 200);
        assert!(
            row.wire_frames < 2 * row.tasks,
            "batching must send fewer frames ({}) than the two-per-task unbatched protocol",
            row.wire_frames
        );
    }

    #[test]
    fn tasks_per_frame_one_reproduces_the_unbatched_protocol() {
        let config = PandoConfig::local_test().with_batch_size(8).with_tasks_per_frame(1);
        let pando = Pando::new(config);
        let worker =
            WorkerBuilder::new().spawn_typed(pando.open_volunteer_channel(), StringCodec, square);
        let output = pando.run_typed(StringCodec, number_source(40)).collect_values().unwrap();
        assert_eq!(output.len(), 40);
        worker.join();
        pando.join_volunteers();
        let report = pando.meter().report();
        // One task frame out and one result frame back per value.
        assert_eq!(report.rows[0].wire_frames, 80);
    }

    #[test]
    fn raw_bytes_run_carries_binary_payloads() {
        let pando = Pando::new(PandoConfig::local_test());
        let worker = WorkerBuilder::new().spawn(pando.open_volunteer_channel(), |input: &Bytes| {
            let mut out = input.to_vec();
            out.reverse();
            Ok(Bytes::from(out))
        });
        use pando_pull_stream::source::from_iter;
        let inputs: Vec<Bytes> = vec![
            Bytes::copy_from_slice(&[0, 1, 2, b'\n', 255]),
            Bytes::new(),
            Bytes::copy_from_slice(b"abc"),
        ];
        let output = pando.run(from_iter(inputs)).collect_values().unwrap();
        assert_eq!(
            output,
            vec![
                Bytes::copy_from_slice(&[255, b'\n', 2, 1, 0]),
                Bytes::new(),
                Bytes::copy_from_slice(b"cba"),
            ]
        );
        worker.join();
    }
}
