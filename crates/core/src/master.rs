//! The Pando master process.
//!
//! The master (paper Figure 7) owns the StreamLender that coordinates the
//! distributed map. Each volunteer is wired to a fresh sub-stream and
//! becomes a registration on the shared [`reactor`](crate::reactor) pool — a
//! fixed number of threads multiplexes dispatch and receive for *all*
//! volunteers, so one master scales to tens of thousands of endpoints.
//! Results are emitted on a single ordered output stream. Payloads are
//! opaque [`Bytes`] end to end; [`Pando::run_typed`] layers a [`TaskCodec`]
//! on top for applications with native task/result types.

use crate::config::PandoConfig;
use crate::metrics::ThroughputMeter;
use crate::protocol::Message;
use crate::reactor::{DriverHandle, Reactor, ReactorStats};
use crate::transport::Transport;
use bytes::Bytes;
use pando_netsim::channel::{pair_with_clock, ChannelConfig, Endpoint};
use pando_pull_stream::codec::TaskCodec;
use pando_pull_stream::lender::LenderStats;
use pando_pull_stream::shard::{ShardedLender, ShardedOutput};
use pando_pull_stream::source::Source;
use parking_lot::Mutex;
use std::sync::Arc;

/// The Pando master: accepts volunteers and distributes a stream of values to
/// them. See the [crate documentation](crate) for a complete example.
pub struct Pando {
    config: PandoConfig,
    meter: ThroughputMeter,
    state: Arc<Mutex<MasterState>>,
}

struct MasterState {
    lender: Option<ShardedLender<Bytes, Bytes>>,
    /// The reactor pool, created lazily when the first volunteer is wired.
    /// Dropping the last Pando handle joins its threads.
    reactor: Option<Arc<Reactor>>,
    /// Volunteer transports accepted before the input stream was attached.
    pending: Vec<(String, Arc<dyn Transport>)>,
    links: Vec<DriverHandle>,
    /// Volunteers registered so far; also the next join index.
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
            .field("batch_size", &self.config.batch_size)
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
        let channel = &self.config.transport.channel;
        self.open_channel(|index| channel.clone().with_seed(channel.seed.wrapping_add(index)))
    }

    /// Like [`Pando::open_volunteer_channel`] but with an explicit channel
    /// configuration (including its jitter seed) instead of the deployment's
    /// network profile — how a scenario script gives each volunteer its own
    /// link: a phone on lossy WAN next to a laptop on the office LAN. The
    /// channel still runs on the deployment clock, so scenario links stay
    /// deterministic under [`PandoConfig::deterministic`].
    pub fn open_volunteer_channel_with(&self, channel: ChannelConfig) -> Endpoint<Message> {
        self.open_channel(|_| channel)
    }

    /// Takes the next join index and registers `volunteer-{index}` under one
    /// hold of the state lock, so clones of one deployment opening channels
    /// concurrently never share a name (one meter row) or a jitter seed.
    fn open_channel(&self, channel: impl FnOnce(u64) -> ChannelConfig) -> Endpoint<Message> {
        let mut state = self.state.lock();
        let index = state.volunteers_connected;
        let (master_side, volunteer_side) =
            pair_with_clock::<Message>(channel(index), self.config.run.clock.clone());
        self.register(&mut state, format!("volunteer-{index}"), Arc::new(master_side));
        volunteer_side
    }

    /// Registers the master side of a volunteer connection over any
    /// [`Transport`] — a simulated channel (for example one delivered by a
    /// [`PublicServer`](pando_netsim::signaling::PublicServer)) or a live
    /// [`TcpTransport`](crate::transport::tcp::TcpTransport) accepted from
    /// another process. Volunteers may be added at any time, before or while
    /// the input stream is processed (dynamic property).
    pub fn add_volunteer_transport(&self, name: String, endpoint: Arc<dyn Transport>) {
        self.register(&mut self.state.lock(), name, endpoint);
    }

    fn register(&self, state: &mut MasterState, name: String, endpoint: Arc<dyn Transport>) {
        state.volunteers_connected += 1;
        match state.lender.clone() {
            Some(lender) => self.wire_volunteer(state, &lender, &name, endpoint),
            None => state.pending.push((name, endpoint)),
        }
    }

    /// Wires one volunteer endpoint to a fresh sub-stream of the lender and
    /// registers the pair on the shared reactor, creating the pool (and
    /// attaching it to the lender) on first use (paper Figures 7 and 9, with
    /// protocol-level batching on top).
    fn wire_volunteer(
        &self,
        state: &mut MasterState,
        lender: &ShardedLender<Bytes, Bytes>,
        name: &str,
        endpoint: Arc<dyn Transport>,
    ) {
        let reactor = state.reactor.get_or_insert_with(|| {
            let reactor = Arc::new(Reactor::new(&self.config));
            reactor.attach_lender(lender);
            reactor
        });
        let link = reactor.register(name, endpoint, lender.lend_on(0), &self.config, &self.meter);
        state.links.push(link);
    }

    /// Scheduling counters of the reactor pool, once at least one volunteer
    /// was wired.
    pub fn reactor_stats(&self) -> Option<ReactorStats> {
        self.state.lock().reactor.as_ref().map(|reactor| reactor.stats())
    }

    /// The shared reactor, once the first volunteer was wired. The
    /// deterministic fleet simulator uses this to single-step an inline
    /// reactor.
    pub(crate) fn reactor_handle(&self) -> Option<Arc<Reactor>> {
        self.state.lock().reactor.clone()
    }

    /// Number of volunteers that have connected so far (including ones that
    /// have since left or crashed).
    #[cfg(test)]
    pub fn volunteers_connected(&self) -> u64 {
        self.state.lock().volunteers_connected
    }

    /// Statistics of the lender, if the run has started.
    pub fn lender_stats(&self) -> Option<LenderStats> {
        self.state.lock().lender.as_ref().map(ShardedLender::stats)
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
        // One shard: the paper's single StreamLender. The sharded type stays
        // until the benchmark's shard row moves off it (ROADMAP item 12).
        let lender = ShardedLender::new(input, 1, self.config.batch_size);
        let pending: Vec<(String, Arc<dyn Transport>)> = state.pending.drain(..).collect();
        for (name, endpoint) in pending {
            self.wire_volunteer(&mut state, &lender, &name, endpoint);
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

    /// Waits for every volunteer session wired so far to end. Useful in
    /// tests to assert on final statistics.
    pub fn join_volunteers(&self) {
        let links: Vec<DriverHandle> = {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::WorkerBuilder;
    use pando_netsim::fault::FaultPlan;
    use pando_pull_stream::codec::StringCodec;
    use pando_pull_stream::source::{count, SourceExt};
    use pando_pull_stream::StreamError;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

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
        // The first volunteer says when it has begun, then holds its first
        // value until the late one has processed a value of its own.
        let (started, first_began) = mpsc::channel();
        let (second_did_one, late_one_worked) = mpsc::channel();
        let held = AtomicBool::new(true);
        let first = WorkerBuilder::new().spawn_typed(
            pando.open_volunteer_channel(),
            StringCodec,
            move |input: &String| {
                if held.swap(false, Ordering::SeqCst) {
                    let _ = started.send(());
                    let _ = late_one_worked.recv_timeout(Duration::from_secs(10));
                }
                square(input)
            },
        );
        let output_source = pando.run_typed(StringCodec, number_source(100));
        let collector =
            std::thread::spawn(move || pando_pull_stream::sink::collect(output_source).unwrap());
        first_began.recv_timeout(Duration::from_secs(10)).expect("the first volunteer starts");
        let second = WorkerBuilder::new().spawn_typed(
            pando.open_volunteer_channel(),
            StringCodec,
            move |input: &String| {
                let _ = second_did_one.send(());
                square(input)
            },
        );
        let output = collector.join().unwrap();
        assert_eq!(output.len(), 100);
        let (a, b) = (first.join().processed, second.join().processed);
        assert_eq!(a + b, 100);
        assert!(a > 0 && b > 0, "both volunteers processed values: {a} and {b}");
    }

    #[test]
    fn crashed_volunteer_work_is_recovered() {
        let pando = Pando::new(PandoConfig::local_test());
        // A volunteer that crashes after 3 tasks, plus a reliable one that
        // holds its first task until the crasher has handled three: left
        // alone it could finish all 50 values before the crasher is lent its
        // third.
        let (handled, crasher_handled) = mpsc::channel();
        let crashing = WorkerBuilder::new().fault(FaultPlan::AfterTasks(3)).spawn_typed(
            pando.open_volunteer_channel(),
            StringCodec,
            move |input: &String| {
                let _ = handled.send(());
                square(input)
            },
        );
        let held = AtomicBool::new(true);
        let reliable = WorkerBuilder::new().spawn_typed(
            pando.open_volunteer_channel(),
            StringCodec,
            move |input: &String| {
                if held.swap(false, Ordering::SeqCst) {
                    for _ in 0..3 {
                        let _ = crasher_handled.recv_timeout(Duration::from_secs(10));
                    }
                }
                square(input)
            },
        );
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
        // The flaky volunteer's first error ends its sub-stream; only then
        // does the healthy one join, so the erred values must be re-lent.
        let deadline = Instant::now() + Duration::from_secs(10);
        while pando.lender_stats().map_or(0, |stats| stats.substreams_crashed) < 1 {
            assert!(Instant::now() < deadline, "the flaky volunteer never failed");
            std::thread::yield_now();
        }
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
    fn concurrent_channel_opens_never_share_a_volunteer_index() {
        let pando = Pando::new(PandoConfig::local_test());
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let (pando, start) = (pando.clone(), &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..100 {
                        drop(pando.open_volunteer_channel());
                    }
                });
            }
        });
        assert_eq!(pando.volunteers_connected(), 800);
        let state = pando.state.lock();
        let names: std::collections::HashSet<&str> =
            state.pending.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names.len(), 800, "two devices must never share a meter row");
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
