//! The virtual-clock **fleet simulator**: the real reactor, deterministically.
//!
//! [`simulate_fleet`] runs the *actual* stack — the
//! [`ShardedLender`](pando_pull_stream::shard::ShardedLender), the
//! [reactor](crate::reactor) drivers, the wire protocol over
//! [`pando_netsim::channel`] endpoints, each volunteer's
//! [worker core](crate::worker) — on a virtual
//! [`Clock`](pando_netsim::sim::Clock), driven by one single-threaded loop:
//! step the ready queue, pump the input for starved drivers, poll volunteers,
//! advance time to the earliest deadline (delivery, crash suspicion,
//! heartbeat). Every run from the same seed — crash schedule, heartbeat
//! suppressions, output order — is identical byte for byte, so fault scenarios are replayable
//! artefacts. The paper's evaluation runs on it too: `make paper` writes
//! `docs/REPRODUCTION.md`.
//!
//! # Examples
//!
//! Two same-seed runs produce identical canonical traces, and the run keeps
//! the contract [`oracle`] checks — every input once, in order:
//!
//! ```
//! use pando_core::sim::{oracle, FleetParams};
//!
//! let report = oracle::run(&FleetParams::new(7, 4, 24)).unwrap();
//! assert!(report.canonical_trace().starts_with("params name=fleet seed=7 volunteers=4 tasks=24 "));
//! ```

use crate::config::PandoConfig;
use crate::master::Pando;
use crate::protocol::Message;
use crate::trace::{write_lines, Event, Trace};
use crate::worker::{Step, WorkerCore};
use bytes::Bytes;
use pando_netsim::channel::{ChannelConfig, Endpoint};
use pando_netsim::fault::FaultPlan;
use pando_pull_stream::source::{from_iter, Source};
use pando_pull_stream::{Answer, Request, StreamError};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod oracle;

/// Parameters of one deterministic fleet run: one [`VolunteerSpec`] per
/// device plus the partitions that pause some of their links. Every link
/// carries its own jitter seed, so the parameters fully determine the trace.
/// [`FleetParams::seeded`] draws a fleet from a seed; a scenario file
/// compiles to the same shape ([`crate::scenario`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetParams {
    /// Fleet name, the first field of the canonical trace's `params` line.
    pub name: String,
    /// Seed of the deployment; it names the run in the trace (each
    /// volunteer's channel carries its own jitter seed).
    pub seed: u64,
    /// Number of input values to process.
    pub tasks: u64,
    /// One spec per volunteer; the index in this vector is the volunteer id
    /// used by the trace and by `partitions`.
    pub volunteers: Vec<VolunteerSpec>,
    /// Partition events: `(members, starts_at, heals_at)` pauses every
    /// member's link in both directions from `starts_at` until `heals_at`
    /// (offsets from the run origin). Frames are delayed, never lost, and
    /// the failure detector never fires — the twin of a transient network
    /// split that heals within the session grace window. A link flap is a
    /// partition of one volunteer.
    pub partitions: Vec<(Vec<usize>, Duration, Duration)>,
    /// Run the input through a source whose non-blocking asks always report
    /// "would block" (the blocking pull still answers immediately): the
    /// deterministic stand-in for interactive stdin. Drivers' fast-path asks
    /// fail and the reactor's input pump must deliver — exactly the path
    /// whose kick/ask busy loop the `wasted_polls` budget guards.
    pub interactive_input: bool,
    /// Values in flight per volunteer ([`PandoConfig::batch_size`]): the
    /// paper's 2 on LAN and VPN, 4 on WAN. Scenario files use the default, 2.
    pub batch_size: usize,
}

/// One volunteer of a [`FleetParams`]: which link it sits on, how fast it
/// computes, and when it joins, leaves or crashes.
#[derive(Debug, Clone, PartialEq)]
pub struct VolunteerSpec {
    /// Group this volunteer belongs to (named in the trace; carries no
    /// behaviour of its own).
    pub group: String,
    /// Virtual compute time per task record.
    pub service: Duration,
    /// The volunteer's own link profile, including its jitter seed and the
    /// [`ChannelConfig::loss`] knob — a phone on lossy WAN can sit next to a
    /// laptop on the office LAN.
    pub channel: ChannelConfig,
    /// When the volunteer opens its channel, measured from the run origin.
    /// [`Duration::ZERO`] joins before the input stream starts.
    pub joins_at: Duration,
    /// When the volunteer leaves cleanly (goodbye + close: the master
    /// re-lends its outstanding tasks without waiting for a failure
    /// timeout), if ever.
    pub leaves_at: Option<Duration>,
    /// When the volunteer crash-stops (the failure detector fires after the
    /// channel's failure timeout, then the crash re-lend path runs), if
    /// ever.
    pub crash_at: Option<Duration>,
}

impl FleetParams {
    /// A seed-derived fleet of `volunteers` with 15 % of them crashing
    /// ([`FleetParams::seeded`]).
    pub fn new(seed: u64, volunteers: usize, tasks: u64) -> Self {
        Self::seeded(seed, volunteers, tasks, 0.15)
    }

    /// A fleet of `volunteers` LAN devices drawn from `seed`: volunteer `v`
    /// computes for 0.3–3 ms per task, sits on
    /// `ChannelConfig::lan().with_seed(seed + v)`, and crash-stops with
    /// probability `crash_share` at an instant inside the expected run.
    /// Volunteer 0 never crashes, so the stream always completes.
    ///
    /// # Panics
    ///
    /// Panics if `crash_share` is outside `[0, 1]`.
    pub fn seeded(seed: u64, volunteers: usize, tasks: u64, crash_share: f64) -> Self {
        assert!((0.0..=1.0).contains(&crash_share), "crash share must be within [0, 1]");
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Crash instants are drawn from a window scaled to the expected run
        // length (mean service 1.65 ms, `volunteers` devices in parallel),
        // so the fault schedule actually lands mid-run instead of after the
        // last result.
        let expected_run_us = (tasks.saturating_mul(1_650) / volunteers.max(1) as u64).max(5_000);
        let volunteers = (0..volunteers)
            .map(|v| {
                let service = Duration::from_micros(rng.gen_range(300..3_000));
                let crash_at = (v != 0 && rng.gen_bool(crash_share))
                    .then(|| Duration::from_micros(rng.gen_range(1_000u64..expected_run_us)));
                VolunteerSpec {
                    group: "fleet".into(),
                    service,
                    channel: ChannelConfig::lan().with_seed(seed.wrapping_add(v as u64)),
                    joins_at: Duration::ZERO,
                    leaves_at: None,
                    crash_at,
                }
            })
            .collect();
        Self {
            name: "fleet".into(),
            seed,
            tasks,
            volunteers,
            partitions: Vec::new(),
            interactive_input: false,
            batch_size: PandoConfig::default().batch_size,
        }
    }
}

/// Outcome of one deterministic fleet run. All fields except
/// [`FleetReport::wall_elapsed`] are pure functions of the
/// [`FleetParams`]; [`FleetReport::canonical_trace`] renders exactly those,
/// so two same-seed runs compare byte for byte.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The parameters the run was built from.
    pub params: FleetParams,
    /// The deployment's [`Trace`]: the master's joins and session ends,
    /// and the simulator's volunteer joins, task frames received, replies,
    /// crashes, leaves, goodbyes, partitions and the output completion, each
    /// stamped with its virtual time in microseconds.
    pub trace: Vec<(u64, Event)>,
    /// The decoded task index of every output value, in emission order.
    /// Always `0..tasks`: crashes re-lend, the merge stage restores order.
    pub output_order: Vec<u64>,
    /// FNV-1a digest over the raw output payload bytes, in order.
    pub output_digest: u64,
    /// Canonical per-device rows of the
    /// [`ThroughputMeter`](crate::metrics::ThroughputMeter): tasks, wire
    /// bytes, wire frames, heartbeats. The scheduler's counters are the
    /// canonical trace's `reactor` line ([`FleetReport::reactor`]).
    pub meter_rows: Vec<String>,
    /// The canonical dispatch row of the lender's one shard (borrows and
    /// accepted results).
    pub shard_rows: Vec<String>,
    /// The reactor's final scheduling counters. Deterministic under the
    /// single-threaded scheduler, so they participate in the canonical
    /// trace: a diverging poll or wake-up count pinpoints scheduler
    /// nondeterminism even when the output still matches.
    pub reactor: crate::reactor::ReactorStats,
    /// Values the lender re-lent ([`LenderStats::relends`]): what ended
    /// sessions handed back, each lent again. Not part of the canonical
    /// trace, whose `master relent` lines add up to it.
    ///
    /// [`LenderStats::relends`]: pando_pull_stream::lender::LenderStats::relends
    pub relends: u64,
    /// Number of volunteers that actually crashed during the run (scheduled
    /// crash instants landing after a volunteer finished do not fire).
    pub crashed: u64,
    /// Total lost-and-re-sent frame transmissions across every volunteer
    /// link, both directions ([`ChannelConfig::loss`]).
    pub retransmits: u64,
    /// Virtual time the run spanned.
    pub virtual_elapsed: Duration,
    /// Real time the simulation took (not part of the canonical trace).
    pub wall_elapsed: Duration,
}

impl FleetReport {
    /// Renders every deterministic artefact of the run — the parameters,
    /// the event trace, the output order and digest, the meter and shard
    /// rows — into one string. Two runs with equal [`FleetParams`]
    /// produce byte-identical canonical traces; a mismatch pinpoints the
    /// first nondeterministic event.
    pub fn canonical_trace(&self) -> String {
        let mut out = String::new();
        let params = &self.params;
        let _ = writeln!(
            out,
            "params name={} seed={} volunteers={} tasks={} batch_size={} interactive={}",
            params.name,
            params.seed,
            params.volunteers.len(),
            params.tasks,
            params.batch_size,
            params.interactive_input
        );
        let opt_us = |at: Option<Duration>| at.map_or("never".into(), |at| micros(at).to_string());
        for (v, spec) in params.volunteers.iter().enumerate() {
            let _ = writeln!(
                out,
                "setup v{v} group={} service_us={} latency_us={} jitter_us={} loss={} \
                 joins_at_us={} leaves_at_us={} crash_at_us={}",
                spec.group,
                micros(spec.service),
                micros(spec.channel.latency),
                micros(spec.channel.jitter),
                spec.channel.loss,
                micros(spec.joins_at),
                opt_us(spec.leaves_at),
                opt_us(spec.crash_at),
            );
        }
        let _ = write_lines(&mut out, &self.trace);
        out.push_str(&format!(
            "output n={} digest={:016x}\n",
            self.output_order.len(),
            self.output_digest
        ));
        let order: Vec<String> = self.output_order.iter().map(u64::to_string).collect();
        out.push_str(&format!("output_order {}\n", order.join(",")));
        for row in &self.meter_rows {
            out.push_str(row);
            out.push('\n');
        }
        for row in &self.shard_rows {
            out.push_str(row);
            out.push('\n');
        }
        out.push_str(&format!("loss retransmits={}\n", self.retransmits));
        out.push_str(&format!(
            "reactor registered={} polls={} wakeups={} timer_fires={} prefetches={} \
             max_ready_depth={} wasted_polls={} kicks_sent={} kicks_suppressed={} \
             crash_relends={}\n",
            self.reactor.registered,
            self.reactor.polls,
            self.reactor.wakeups,
            self.reactor.timer_fires,
            self.reactor.pump_prefetches,
            self.reactor.max_ready_depth,
            self.reactor.wasted_polls,
            self.reactor.kicks_sent,
            self.reactor.kicks_suppressed,
            self.reactor.crash_relends
        ));
        out.push_str(&format!(
            "crashed={} virtual_elapsed_us={}\n",
            self.crashed,
            micros(self.virtual_elapsed)
        ));
        out
    }
}

/// A simulated volunteer: the engine drives the same `WorkerCore` as a
/// worker-pool slot does (see [`crate::worker`]) — it classifies
/// frames, applies the processing function and builds the replies — but
/// computation *time* is virtual: the replies are delivered
/// `service × records` after the device becomes free.
struct SimVolunteer {
    /// `None` until the volunteer joins (a volunteer may join mid-run).
    endpoint: Option<Endpoint<Message>>,
    core: WorkerCore,
    service: Duration,
    busy_until: Instant,
    /// Earliest scheduled re-poll for a frame still in (virtual) flight.
    repoll_at: Option<Instant>,
    /// Reply events scheduled but not yet delivered. A real worker replies
    /// before it can observe the master's close, so the simulated volunteer
    /// defers its goodbye until this drains.
    pending_replies: usize,
    done: bool,
}

impl SimVolunteer {
    fn new(endpoint: Option<Endpoint<Message>>, service: Duration, origin: Instant) -> Self {
        Self {
            endpoint,
            // Crashes are engine events on virtual time, not a fault plan.
            core: WorkerCore::new(String::new(), FaultPlan::None.arm(), None),
            service,
            busy_until: origin,
            repoll_at: None,
            pending_replies: 0,
            done: false,
        }
    }

    /// The endpoint of a volunteer that joined and has not left.
    fn live(&self) -> Option<&Endpoint<Message>> {
        self.endpoint.as_ref().filter(|_| !self.done)
    }
}

/// An engine event at a virtual instant; `seq` breaks ties FIFO so the
/// schedule order is total.
struct Timed {
    at: Instant,
    seq: u64,
    ev: Ev,
}

enum Ev {
    /// Deliver the prepared reply frames of volunteer `v` (its virtual
    /// compute finished).
    Reply { v: usize, frames: Vec<Message> },
    /// Crash volunteer `v` (crash-stop; scripted by the fault schedule).
    Crash { v: usize },
    /// Re-poll volunteer `v`: a frame buffered on its endpoint matures now.
    Repoll { v: usize },
    /// Volunteer `v` joins mid-run: open its scripted channel and register
    /// it with the master (which starts lending it tasks immediately).
    Join { v: usize },
    /// Volunteer `v` leaves cleanly: goodbye + close, outstanding tasks are
    /// re-lent without a failure timeout.
    Leave { v: usize },
    /// Pause every member's link in both directions until `until` (a
    /// scripted partition, or a flap when it has one member; it heals
    /// without tripping the failure detector).
    Partition { members: Vec<usize>, until: Instant },
}

impl PartialEq for Timed {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Timed {}
impl PartialOrd for Timed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then_with(|| self.seq.cmp(&other.seq))
    }
}

/// The engine's event heap, the wake list volunteers' endpoint wakers feed,
/// and the deployment's trace the volunteers' events go to.
struct Engine {
    trace: Trace,
    queue: BinaryHeap<Reverse<Timed>>,
    next_seq: u64,
    /// Volunteers whose endpoint waker fired since they were last polled.
    woken: Arc<Mutex<VecDeque<usize>>>,
    /// Coalescing flags: a volunteer already on the wake list is not pushed
    /// again.
    queued: Arc<Vec<AtomicBool>>,
}

impl Engine {
    fn schedule(&mut self, at: Instant, ev: Ev) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse(Timed { at, seq, ev }));
    }

    fn pop_due(&mut self, now: Instant) -> Option<Ev> {
        match self.queue.peek() {
            Some(Reverse(timed)) if timed.at <= now => {
                Some(self.queue.pop().expect("peeked entry present").0.ev)
            }
            _ => None,
        }
    }

    fn next_at(&self) -> Option<Instant> {
        self.queue.peek().map(|Reverse(timed)| timed.at)
    }

    fn pop_woken(&self) -> Option<usize> {
        let v = self.woken.lock().pop_front()?;
        self.queued[v].store(false, Ordering::SeqCst);
        Some(v)
    }
}

/// The processing function every simulated volunteer applies: `3x + 1` over
/// the task's little-endian `u64` payload. Trivial on purpose — the engine
/// simulates *coordination*, and compute cost is modelled by the service
/// time, not by burning host cycles.
fn process_payload(payload: &Bytes) -> Result<Bytes, StreamError> {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&payload[..8]);
    let x = u64::from_le_bytes(buf);
    Ok(Bytes::copy_from_slice(&(x.wrapping_mul(3).wrapping_add(1)).to_le_bytes()))
}

/// Decodes the task index a result payload answers (inverts
/// [`process_payload`]).
fn decode_result(payload: &Bytes) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&payload[..8]);
    (u64::from_le_bytes(buf).wrapping_sub(1)) / 3
}

/// Wraps a source so every non-blocking ask reports "would block" while the
/// blocking pull still answers immediately: the deterministic stand-in for
/// an interactive input (a user typing lines). Drivers' fast-path asks fail
/// and the reactor's input pump must deliver — the exact path whose kick/ask
/// busy loop the `wasted_polls` counter guards
/// ([`FleetParams::interactive_input`]).
struct InteractiveSource<S> {
    inner: S,
}

impl<T, S: Source<T>> Source<T> for InteractiveSource<S> {
    fn pull(&mut self, request: Request) -> Answer<T> {
        self.inner.pull(request)
    }
    // No `try_pull` override: the trait default answers `None`, "would
    // block", which is the whole point of the wrapper.
}

/// Runs one deterministic fleet deployment: the real master — lender,
/// inline reactor, wire protocol, heartbeat pacing, crash recovery —
/// over a virtual clock, single-stepped by one scheduler loop. See the
/// [module documentation](self) for the determinism contract.
///
/// # Panics
///
/// Panics if `params.volunteers` is empty, if a partition names a volunteer
/// outside the fleet, if the run deadlocks (no pending work and no pending
/// timers — a scheduler bug by construction), or if the virtual horizon of
/// ten simulated minutes is exceeded.
pub fn simulate_fleet(params: &FleetParams) -> FleetReport {
    let n = params.volunteers.len();
    assert!(n > 0, "a fleet needs at least one volunteer");
    for (members, _, _) in &params.partitions {
        for m in members {
            assert!(*m < n, "partition names volunteer {m} outside the fleet");
        }
    }
    let wall_start = Instant::now();
    let config = PandoConfig::deterministic(params.seed).with_batch_size(params.batch_size);
    let clock = config.run.clock.clone();
    let origin = clock.now();
    let pando = Pando::new(config);

    // --- The fleet: each volunteer's link, churn and crash schedule. -----
    let woken = Arc::new(Mutex::new(VecDeque::new()));
    let queued = Arc::new((0..n).map(|_| AtomicBool::new(false)).collect::<Vec<_>>());
    let mut engine = Engine {
        trace: pando.trace().clone(),
        queue: BinaryHeap::new(),
        next_seq: 0,
        woken: woken.clone(),
        queued: queued.clone(),
    };
    let mut volunteers: Vec<SimVolunteer> = Vec::with_capacity(n);
    // One coalescing waker per volunteer, shared between up-front channels
    // and mid-run joins.
    let make_waker = {
        let woken = woken.clone();
        let queued = queued.clone();
        move |v: usize| -> pando_netsim::channel::Waker {
            let woken = woken.clone();
            let queued = queued.clone();
            Arc::new(move || {
                if !queued[v].swap(true, Ordering::SeqCst) {
                    woken.lock().push_back(v);
                }
            })
        }
    };
    for (v, spec) in params.volunteers.iter().enumerate() {
        let endpoint = if spec.joins_at.is_zero() {
            let endpoint = pando.open_volunteer_channel_with(spec.channel.clone());
            endpoint.set_waker(make_waker(v));
            Some(endpoint)
        } else {
            engine.schedule(origin + spec.joins_at, Ev::Join { v });
            None
        };
        if let Some(at) = spec.crash_at {
            engine.schedule(origin + at, Ev::Crash { v });
        }
        if let Some(at) = spec.leaves_at {
            engine.schedule(origin + at, Ev::Leave { v });
        }
        volunteers.push(SimVolunteer::new(endpoint, spec.service, origin));
    }
    for (members, at, heal) in &params.partitions {
        engine.schedule(
            origin + *at,
            Ev::Partition { members: members.clone(), until: origin + *heal },
        );
    }

    // --- The input stream: task index i as a little-endian u64 payload. --
    let inputs: Vec<Bytes> =
        (0..params.tasks).map(|i| Bytes::copy_from_slice(&i.to_le_bytes())).collect();
    let mut output = if params.interactive_input {
        pando.run(InteractiveSource { inner: from_iter(inputs) })
    } else {
        pando.run(from_iter(inputs))
    };
    let reactor = pando.reactor_handle().expect("run() wired the fleet onto the reactor");

    // --- The scheduler loop. ---------------------------------------------
    let horizon = origin + Duration::from_secs(600);
    let mut output_order: Vec<u64> = Vec::with_capacity(params.tasks as usize);
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325; // FNV-1a offset basis
    let mut finished = false;
    let mut crashed_fired = 0u64;
    // The lender and the starved set change only inside `Reactor::step` (a
    // poll, a kick, a timer) and inside a pump, so the pump and the output
    // drain run again only after one of those: a call skipped in between
    // would have found nothing.
    let (mut pump_due, mut drain_due) = (true, true);
    loop {
        let mut progress = false;
        // 1. Drain the reactor's ready queue (fires due timers first).
        while reactor.step() {
            progress = true;
        }
        if progress {
            (pump_due, drain_due) = (true, true);
        }
        // 2. Pump the input for starved drivers synchronously; a staged
        //    value re-queues drivers, so go around for more steps before
        //    anything else. A pump that ends the input can complete the
        //    output: drain after every pump call.
        if pump_due {
            (pump_due, drain_due) = (false, true);
            if reactor.pump_starved() {
                pump_due = true;
                continue;
            }
        }
        // 3. Poll volunteers whose endpoints signalled readiness. The waker
        //    fires when a frame is sent; one still in flight cannot be
        //    received yet, so its re-poll is booked without polling (the
        //    master's side never crash-stops, so a volunteer's
        //    `next_ready_at` is its head frame's delivery).
        while let Some(v) = engine.pop_woken() {
            let vol = &mut volunteers[v];
            match vol.live().and_then(Endpoint::next_ready_at) {
                Some(at) if at > clock.now() => book_repoll(v, vol, at, &mut engine),
                _ => poll_volunteer(v, vol, &mut engine, &clock),
            }
            progress = true;
        }
        // 4. Fire engine events due at the current virtual instant.
        while let Some(ev) = engine.pop_due(clock.now()) {
            progress = true;
            match ev {
                Ev::Crash { v } => {
                    // Crashing a volunteer that never joined is a no-op
                    // (scenario loading rejects such schedules).
                    let Some(endpoint) = volunteers[v].live() else { continue };
                    endpoint.crash();
                    volunteers[v].done = true;
                    crashed_fired += 1;
                    engine.trace.record(Event::Crash { v });
                }
                Ev::Reply { v, frames } => {
                    volunteers[v].pending_replies -= 1;
                    let Some(endpoint) = volunteers[v].live() else { continue };
                    for frame in frames {
                        let size = frame.wire_size();
                        let count = frame.record_count();
                        if endpoint.send_records_with_size(frame, size, count).is_ok() {
                            engine.trace.record(Event::Reply { v, records: count });
                        }
                    }
                }
                Ev::Join { v } => {
                    let spec = &params.volunteers[v];
                    let vol = &mut volunteers[v];
                    if vol.done || vol.endpoint.is_some() {
                        continue;
                    }
                    engine.trace.record(Event::Join { v, group: spec.group.clone() });
                    // Registering with the master wires a driver at once:
                    // the lender starts dispatching to the newcomer on the
                    // next reactor step (the dynamic-join property).
                    let endpoint = pando.open_volunteer_channel_with(spec.channel.clone());
                    endpoint.set_waker(make_waker(v));
                    vol.endpoint = Some(endpoint);
                }
                Ev::Leave { v } => {
                    let Some(endpoint) = volunteers[v].live() else { continue };
                    // A clean departure: goodbye then close. The master
                    // re-lends whatever the volunteer still held without
                    // waiting for a failure timeout, and `crash_relends`
                    // stays untouched. Tasks mid-compute are abandoned (the
                    // user shut the tab; the re-lend covers them).
                    let _ = endpoint.send(Message::Goodbye);
                    endpoint.close();
                    volunteers[v].done = true;
                    engine.trace.record(Event::Leave { v });
                }
                Ev::Partition { members, until } => {
                    // In-flight frames keep their delivery instants, later
                    // ones mature no earlier than the heal instant.
                    for endpoint in members.iter().filter_map(|&v| volunteers[v].live()) {
                        endpoint.pause_link_until(until);
                    }
                    let heal_us = micros(until.saturating_duration_since(origin));
                    engine.trace.record(Event::Partition { members, heal_us });
                }
                Ev::Repoll { v } => {
                    volunteers[v].repoll_at = None;
                    poll_volunteer(v, &mut volunteers[v], &mut engine, &clock);
                }
            }
        }
        // 5. Drain the merged output without blocking.
        if drain_due && !finished {
            drain_due = false;
            while let Some(answer) = output.next_timeout(Duration::ZERO) {
                progress = true;
                match answer {
                    Answer::Value(payload) => {
                        for byte in payload.iter() {
                            digest = (digest ^ u64::from(*byte)).wrapping_mul(0x100_0000_01b3);
                        }
                        output_order.push(decode_result(&payload));
                    }
                    Answer::Done => {
                        engine.trace.record(Event::OutputDone);
                        finished = true;
                        break;
                    }
                    Answer::Err(err) => {
                        panic!("the merged output failed under the simulator: {err}");
                    }
                }
            }
        }
        if progress {
            continue;
        }
        if finished && reactor.stats().active == 0 {
            break;
        }
        // 6. Quiescent: advance virtual time to the earliest deadline.
        let next = match (reactor.next_timer_at(), engine.next_at()) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => panic!(
                "deterministic sim wedged: no pending work, no pending timers \
                 (finished={finished}, active={})",
                reactor.stats().active
            ),
        };
        assert!(next <= horizon, "deterministic sim exceeded the 600s virtual horizon");
        clock.advance_to(next);
    }

    // --- Canonical artefacts. --------------------------------------------
    assert_eq!(
        output_order.len() as u64,
        params.tasks,
        "every input value must produce exactly one output"
    );
    let reactor_stats = reactor.stats();
    let relends = pando.lender_stats().expect("the input is attached").relends;
    let report = pando.meter().report();
    let meter_rows: Vec<String> = report
        .rows
        .iter()
        .map(|row| {
            format!(
                "meter {} tasks={} wire_bytes={} wire_frames={} hb_sent={} hb_suppressed={}",
                row.device,
                row.tasks,
                row.wire_bytes,
                row.wire_frames,
                row.heartbeats_sent,
                row.heartbeats_suppressed
            )
        })
        .collect();
    let shard_rows: Vec<String> = report
        .shards
        .iter()
        .map(|s| format!("shard {} borrows={} results={}", s.shard, s.borrows, s.results))
        .collect();
    // Both sides of each pair share the counter, so the volunteer handle
    // sees master-side retransmissions too.
    let retransmits: u64 = volunteers
        .iter()
        .map(|vol| vol.endpoint.as_ref().map(Endpoint::link_retransmits).unwrap_or(0))
        .sum();
    pando.join_volunteers();
    FleetReport {
        params: params.clone(),
        trace: engine.trace.take(),
        output_order,
        output_digest: digest,
        meter_rows,
        shard_rows,
        reactor: reactor_stats,
        relends,
        crashed: crashed_fired,
        retransmits,
        virtual_elapsed: clock.elapsed(),
        wall_elapsed: wall_start.elapsed(),
    }
}

/// A trace field in whole microseconds. A `u64` formats for a fraction of
/// what `Duration::as_micros`' `u128` costs, and no run comes near its range.
fn micros(duration: Duration) -> u64 {
    duration.as_micros() as u64
}

/// Schedules a re-poll of volunteer `v` at `at`, unless one is already
/// booked no later.
fn book_repoll(v: usize, vol: &mut SimVolunteer, at: Instant, engine: &mut Engine) {
    if vol.repoll_at.map(|existing| at < existing).unwrap_or(true) {
        vol.repoll_at = Some(at);
        engine.schedule(at, Ev::Repoll { v });
    }
}

/// Drains every deliverable frame of one simulated volunteer through its
/// worker core. What stays here is what the simulation adds: replies leave
/// after virtual compute time, a clean close is answered only once they
/// are out, and a frame still in virtual flight schedules a re-poll.
fn poll_volunteer(
    v: usize,
    vol: &mut SimVolunteer,
    engine: &mut Engine,
    clock: &pando_netsim::sim::Clock,
) {
    // `vol.live()` would borrow all of `vol`; the core is borrowed mutably
    // below.
    let Some(endpoint) = vol.endpoint.as_ref().filter(|_| !vol.done) else {
        return;
    };
    loop {
        match vol.core.on_recv(endpoint.try_recv(), &process_payload) {
            Step::Reply { records, replies } => {
                let now = clock.now();
                engine.trace.record(Event::Recv { v, records: records as u64 });
                // The device computes for `service × records` of virtual
                // time, serialised after whatever it was already chewing on.
                vol.busy_until = vol.busy_until.max(now) + vol.service * records as u32;
                vol.pending_replies += 1;
                engine.schedule(vol.busy_until, Ev::Reply { v, frames: replies });
            }
            Step::Skip => {}
            Step::Idle => {
                // A frame may still be in virtual flight: re-poll when it
                // matures.
                if let Some(at) = endpoint.next_ready_at() {
                    book_repoll(v, vol, at, engine);
                }
                return;
            }
            Step::Goodbye if vol.pending_replies > 0 => {
                // Still computing: a worker thread would flush those replies
                // before its next receive observed the close. Re-poll once
                // the device goes idle (reply events at the same instant
                // were scheduled earlier, so they fire first).
                engine.schedule(vol.busy_until.max(clock.now()), Ev::Repoll { v });
                return;
            }
            Step::Goodbye => {
                let _ = endpoint.send(Message::Goodbye);
                endpoint.close();
                vol.done = true;
                engine.trace.record(Event::Goodbye { v });
                return;
            }
            Step::Leave { close } => {
                if close {
                    endpoint.close();
                }
                vol.done = true;
                return;
            }
            Step::Crash => unreachable!("a simulated volunteer crashes only by engine event"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built fleet of `volunteers` over `tasks`, nothing partitioned.
    fn fleet(name: &str, seed: u64, volunteers: Vec<VolunteerSpec>, tasks: u64) -> FleetParams {
        FleetParams {
            name: name.into(),
            seed,
            tasks,
            volunteers,
            partitions: Vec::new(),
            interactive_input: false,
            batch_size: 2,
        }
    }

    /// A hand-built fleet of `volunteers` at `batch_size` over `tasks`, run.
    fn run_script(volunteers: Vec<VolunteerSpec>, batch_size: usize, tasks: u64) -> FleetReport {
        simulate_fleet(&FleetParams { batch_size, ..fleet("unit", 1, volunteers, tasks) })
    }

    /// A volunteer on a zero-latency link, so only compute takes time.
    fn instant(service_us: u64) -> VolunteerSpec {
        VolunteerSpec { channel: ChannelConfig::instant(), ..spec("lan", service_us, 0) }
    }

    /// Results the master took from volunteer `v` (its meter row).
    fn tasks_of(report: &FleetReport, v: usize) -> u64 {
        let prefix = format!("meter volunteer-{v} tasks=");
        let row = report.meter_rows.iter().find_map(|row| row.strip_prefix(&prefix));
        row.and_then(|rest| rest.split(' ').next()?.parse().ok()).expect("one row per volunteer")
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_is_rejected() {
        run_script(vec![instant(800)], 0, 4);
    }

    #[test]
    fn single_device_throughput_matches_service_rate() {
        // 10 ms per task and no latency: ~100 tasks/s.
        let report = run_script(vec![instant(10_000)], 2, 200);
        let throughput = 200.0 / report.virtual_elapsed.as_secs_f64();
        assert!((throughput - 100.0).abs() < 2.0, "throughput {throughput} should be ~100/s");
    }

    #[test]
    fn batch_of_one_wastes_time_on_latency() {
        // An iPhone SE rendering frames over the WAN: at batch 1 every frame
        // pays a round trip of idle time, at batch 4 one round trip per four.
        let phone =
            VolunteerSpec { channel: ChannelConfig::wan().with_seed(3), ..spec("wan", 344_827, 3) };
        let run = |batch_size| run_script(vec![phone.clone()], batch_size, 24);
        let (one, four) = (run(1), run(4));
        for (report, batch) in [(&one, 1), (&four, 4)] {
            let records = report.trace.iter().filter_map(|(_, event)| match event {
                Event::Recv { records, .. } => Some(*records),
                _ => None,
            });
            assert_eq!(records.max(), Some(batch), "frames never exceed the window");
        }
        let header =
            "params name=unit seed=1 volunteers=1 tasks=24 batch_size=4 interactive=false\n";
        assert!(four.canonical_trace().starts_with(header), "{}", four.canonical_trace());
        let (one, four) = (one.virtual_elapsed, four.virtual_elapsed);
        assert!(one > four.mul_f64(1.1), "batch 1 took {one:?}, batch 4 {four:?}");
    }

    #[test]
    fn faster_devices_complete_more_tasks() {
        let report = run_script(vec![instant(5_000), instant(20_000)], 2, 400);
        let (fast, slow) = (tasks_of(&report, 0), tasks_of(&report, 1));
        assert!(fast > 3 * slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn late_join_contributes_less() {
        let late = VolunteerSpec { joins_at: Duration::from_secs(1), ..instant(10_000) };
        let report = run_script(vec![instant(10_000), late], 2, 300);
        let (early, late) = (tasks_of(&report, 0), tasks_of(&report, 1));
        assert!(early > late && late > 0, "early {early} vs late {late}");
    }

    #[test]
    fn crashed_device_stops_contributing() {
        let doomed =
            VolunteerSpec { crash_at: Some(Duration::from_millis(200)), ..instant(10_000) };
        let report = run_script(vec![instant(10_000), doomed], 2, 300);
        let (survivor, doomed) = (tasks_of(&report, 0), tasks_of(&report, 1));
        assert_eq!(report.crashed, 1);
        assert!(doomed < survivor / 4, "survivor {survivor} vs doomed {doomed}");
        oracle::check(&report).unwrap();
    }

    #[test]
    fn fleet_sim_different_seeds_diverge() {
        // Not a hard guarantee for every seed pair, but these two must not
        // collide — jitter, service times and the fault schedule all change.
        let a = simulate_fleet(&FleetParams::new(1, 6, 48));
        let b = simulate_fleet(&FleetParams::new(2, 6, 48));
        assert_ne!(a.canonical_trace(), b.canonical_trace());
        oracle::check(&a).unwrap();
        oracle::check(&b).unwrap();
    }

    #[test]
    fn fleet_sim_recovers_from_crashes() {
        // Force a heavy fault schedule: half the fleet crashes, the stream
        // still completes in order because values are re-lent.
        let params = FleetParams::seeded(99, 8, 64, 0.9);
        let report = simulate_fleet(&params);
        assert!(report.crashed >= 1, "the schedule must actually crash volunteers");
        oracle::check(&report).unwrap();
        assert!(
            report.trace.iter().any(|(_, event)| matches!(event, Event::Crash { .. })),
            "crash events appear in the trace"
        );
        // Crash recovery costs virtual time (the 500 ms failure timeout),
        // not wall time.
        assert!(report.virtual_elapsed >= Duration::from_millis(500));
    }

    #[test]
    fn fleet_sim_runs_entirely_on_virtual_time() {
        let report = simulate_fleet(&FleetParams::new(5, 4, 32));
        assert!(
            report.wall_elapsed < Duration::from_secs(30),
            "a 32-task fleet must not take wall-clock minutes ({:?})",
            report.wall_elapsed
        );
        assert!(report.virtual_elapsed > Duration::ZERO);
        let rows = report.meter_rows.join("\n");
        assert!(rows.contains("volunteer-0"), "meter rows carry per-device counters: {rows}");
    }

    #[test]
    #[should_panic(expected = "at least one volunteer")]
    fn fleet_sim_rejects_an_empty_fleet() {
        let _ = simulate_fleet(&FleetParams::new(0, 0, 1));
    }

    #[test]
    fn link_flaps_delay_but_never_crash_or_reorder() {
        // Same seed, no scripted crashes; one run flap-free, one with two
        // mid-run flaps (partitions of one volunteer). The flapped run must
        // produce the same output order and digest — a transient disconnect
        // loses nothing — and must not fire the crash re-lend path (the
        // oracle's rules b and c).
        let calm = FleetParams::seeded(4242, 6, 60, 0.0);
        let ms = Duration::from_millis;
        let partitions = vec![(vec![1], ms(2), ms(10)), (vec![3], ms(5), ms(25))];
        let flapped = simulate_fleet(&FleetParams { partitions, ..calm.clone() });
        let calm = simulate_fleet(&calm);
        assert_eq!(flapped.output_order, calm.output_order);
        assert_eq!(flapped.output_digest, calm.output_digest);
        oracle::check(&flapped).unwrap();
        let pauses = [
            (2_000, Event::Partition { members: vec![1], heal_us: 10_000 }),
            (5_000, Event::Partition { members: vec![3], heal_us: 25_000 }),
        ];
        for pause in pauses {
            assert!(flapped.trace.contains(&pause), "{pause:?} is traced");
        }
    }

    #[test]
    #[should_panic(expected = "partition names volunteer 2 outside the fleet")]
    fn a_partition_outside_the_fleet_is_rejected() {
        let mut params = FleetParams::seeded(1, 2, 8, 0.0);
        params.partitions =
            vec![(vec![0, 2], Duration::from_micros(100), Duration::from_micros(200))];
        let _ = simulate_fleet(&params);
    }

    #[test]
    #[should_panic(expected = "partition names volunteer 2 outside the fleet")]
    fn flap_on_an_unknown_volunteer_is_rejected() {
        // A flap is a partition of one volunteer; naming volunteer 2 of a
        // two-volunteer fleet must not be silently ignored.
        let mut params = FleetParams::new(1, 2, 8);
        params.partitions = vec![(vec![2], Duration::from_micros(100), Duration::from_micros(200))];
        let _ = simulate_fleet(&params);
    }

    #[test]
    #[should_panic(expected = "partition names volunteer 2 outside the fleet")]
    fn struct_literal_flap_outside_the_fleet_is_rejected_at_run_time() {
        // `FleetParams` has public fields: a struct literal must not smuggle
        // an out-of-range flap past the run-time check.
        let fleet = FleetParams::seeded(1, 2, 8, 0.0);
        let params = FleetParams {
            name: fleet.name,
            seed: 1,
            tasks: 8,
            volunteers: fleet.volunteers,
            partitions: vec![(vec![2], Duration::from_micros(100), Duration::from_micros(100))],
            interactive_input: false,
            batch_size: fleet.batch_size,
        };
        let _ = simulate_fleet(&params);
    }

    fn spec(group: &str, service_us: u64, seed: u64) -> VolunteerSpec {
        VolunteerSpec {
            group: group.into(),
            service: Duration::from_micros(service_us),
            channel: ChannelConfig::lan().with_seed(seed),
            joins_at: Duration::ZERO,
            leaves_at: None,
            crash_at: None,
        }
    }

    #[test]
    fn scripted_fleet_is_deterministic_across_churn_loss_and_partitions() {
        // A hand-built script exercising every scripted event kind at once:
        // a lossy WAN phone, a mid-run join, a clean leave, a crash and a
        // partition that heals. Two runs are byte-identical and keep the
        // contract.
        let mut phone = spec("wan", 2_500, 11);
        phone.channel = ChannelConfig::wan().with_seed(11).with_loss(0.2);
        let mut latecomer = spec("lan", 900, 12);
        latecomer.joins_at = Duration::from_millis(8);
        let mut quitter = spec("lan", 1_100, 13);
        quitter.leaves_at = Some(Duration::from_millis(20));
        let mut doomed = spec("lan", 700, 14);
        doomed.crash_at = Some(Duration::from_millis(15));
        let volunteers = vec![spec("lan", 800, 10), phone, latecomer, quitter, doomed];
        let params = FleetParams {
            partitions: vec![(vec![0, 1], Duration::from_millis(10), Duration::from_millis(14))],
            ..fleet("unit_mixed", 77, volunteers, 96)
        };
        let a = oracle::run(&params).unwrap();
        assert_eq!(a.crashed, 1);
        assert!(a.retransmits > 0, "a 20% lossy link must retransmit");
        let header =
            "params name=unit_mixed seed=77 volunteers=5 tasks=96 batch_size=2 interactive=false\n";
        assert!(a.canonical_trace().starts_with(header));
        let traced = |pick: fn(&Event) -> bool| a.trace.iter().any(|(_, event)| pick(event));
        assert!(traced(|event| matches!(event, Event::Join { group, .. } if group == "lan")));
        assert!(traced(|event| matches!(event, Event::Leave { .. })));
        assert!(traced(
            |event| matches!(event, Event::Partition { members, .. } if members == &[0, 1])
        ));
        assert!(a.canonical_trace().contains(&format!("loss retransmits={}", a.retransmits)));
    }
}
