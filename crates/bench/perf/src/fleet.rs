//! One master and sixteen session volunteers over loopback TCP, in this
//! process: bringing the deployment up, timing bring-up to first result,
//! and running one timed window of a workload through it.
//!
//! The stack is driven only through its public functions; every stamp and
//! counter here is taken on the benchmark's side of those calls.

use crate::procfs::{process_cpu_us, CpuSnapshot};
use crate::source::{now_ns, SourceLog, TaskSource};
use crate::spin::Spinners;
use crate::workload::{index_of, Load, ProcessFn, TcpWorkload};
use crate::{affinity, alloc, stats};
use bytes::Bytes;
use pando_core::config::PandoConfig;
use pando_core::master::Pando;
use pando_core::metrics::ThroughputReport;
use pando_core::reactor::ReactorStats;
use pando_core::transport::tcp::session::{ReconnectPolicy, ReconnectingTcpTransport};
use pando_core::transport::tcp::{TcpAcceptor, TcpConfig, TcpServerHandle};
use pando_core::worker::{WorkerBuilder, WorkerPoolHandle, WorkerReport};
use pando_pull_stream::lender::LenderStats;
use pando_pull_stream::Answer;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The paper's personal-device scale.
pub const VOLUNTEERS: usize = 16;
/// Cold bring-ups timed before the window; `setup_s` is their median.
const SETUP_CYCLES: usize = 41;
/// Tasks streamed through each set-up deployment (one full fleet window).
const SETUP_TASKS: u64 = 32;
/// Every `SPAN_EVERY`-th task of a traced run records its spans.
pub const SPAN_EVERY: u64 = 16;
/// The ordered output is cut into blocks this long: two hundred of them in
/// a window of 20 s, for [`stats::calm_tenth`] to rank.
const BLOCK_NS: u64 = 100_000_000;
/// No single result of any workload takes this long; past it the run is
/// hung and the process exits rather than sit out the driver's timeout.
const RESULT_TIMEOUT: Duration = Duration::from_secs(60);

/// Liveness windows wide enough that a loaded two-core host never trips the
/// failure detector mid-measurement, and one poller thread: with one
/// reactor thread and one pool thread that is four busy threads (output,
/// reactor, poller, pool) on two cores, the least this architecture runs on.
pub fn tcp_config() -> TcpConfig {
    TcpConfig {
        heartbeat_interval: Duration::from_millis(500),
        failure_timeout: Duration::from_secs(30),
        poller_threads: 1,
        ..TcpConfig::default()
    }
}

/// Paper defaults (batch size 2) with a single reactor thread, which also
/// derives a single lender shard.
fn pando_config() -> PandoConfig {
    PandoConfig::default().with_reactor_threads(1).with_tcp(tcp_config())
}

/// A wired deployment: master listening, every volunteer's session
/// handshaken and served by the worker pool, no input attached yet.
struct Fleet {
    pando: Pando,
    server: TcpServerHandle,
    pool: WorkerPoolHandle,
    /// Wall time of each `ReconnectingTcpTransport::connect` call, ms.
    connect_ms: Vec<f64>,
}

impl Fleet {
    /// # Errors
    ///
    /// The kernel refused to pin a thread (see [`affinity`]).
    fn bring_up(process: ProcessFn, pool_threads: usize) -> Result<Fleet, String> {
        let pando = Pando::new(pando_config());
        let acceptor = TcpAcceptor::bind("127.0.0.1:0", tcp_config()).expect("bind loopback");
        let addr = acceptor.local_addr();
        let server = acceptor.serve(&pando);
        let mut connect_ms = Vec::with_capacity(VOLUNTEERS);
        let transports: Vec<ReconnectingTcpTransport> = (0..VOLUNTEERS)
            .map(|i| {
                let before = now_ns();
                let transport = ReconnectingTcpTransport::connect(
                    addr,
                    &format!("vol-{i}"),
                    tcp_config(),
                    ReconnectPolicy::default(),
                )
                .expect("connect a session over loopback");
                connect_ms.push((now_ns() - before) as f64 / 1e6);
                transport
            })
            .collect();
        assert!(
            server.wait_for_volunteers(VOLUNTEERS, Duration::from_secs(30)),
            "only {} of {VOLUNTEERS} volunteers handshook",
            server.accepted()
        );
        let pool = WorkerBuilder::new()
            .heartbeats(true)
            .pool_threads(pool_threads)
            .spawn_pool(transports, move |payload: &Bytes| process(payload));
        affinity::pin_busy_threads()?;
        Ok(Fleet { pando, server, pool, connect_ms })
    }

    /// The normal end-of-stream path: the master closed every link when the
    /// output finished, so the pool drains and every thread is joined.
    fn tear_down(self) -> (Pando, Vec<WorkerReport>) {
        let reports = self.pool.join();
        self.server.join();
        self.pando.join_volunteers();
        (self.pando, reports)
    }
}

/// Where one block of the ordered output ends and the next begins: taken
/// by the main thread at the first result to arrive [`BLOCK_NS`] or more
/// after the tick before.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    pub at_ns: u64,
    /// Process CPU so far.
    pub cpu_us: f64,
    /// Results emitted so far, the one that caused the tick included.
    pub results: u64,
}

/// What the main thread recorded while it pulled the ordered output.
#[derive(Default)]
struct Drained {
    /// Stamp at which result `k` was emitted.
    emit_ns: Vec<u64>,
    /// The first result is a tick; a stretch without results makes the
    /// block it falls in longer, it does not go uncounted.
    ticks: Vec<Tick>,
    /// Results that failed their check.
    wrong: u64,
}

/// Pulls the ordered output to its end, stamping and checking each result.
fn drain_output(
    pando: &Pando,
    source: TaskSource,
    check: &dyn Fn(u64, &[u8]) -> bool,
    mut on_first: impl FnMut(),
) -> Drained {
    let mut output = pando.run(source);
    let mut drained = Drained::default();
    loop {
        match output.next_timeout(RESULT_TIMEOUT) {
            Some(Answer::Value(result)) => {
                let (k, now) = (drained.emit_ns.len() as u64, now_ns());
                if k == 0 {
                    on_first();
                }
                drained.emit_ns.push(now);
                if drained.ticks.last().is_none_or(|tick| now - tick.at_ns >= BLOCK_NS) {
                    drained.ticks.push(Tick {
                        at_ns: now,
                        cpu_us: process_cpu_us(),
                        results: k + 1,
                    });
                }
                drained.wrong += u64::from(!check(k, &result));
            }
            Some(Answer::Done) => return drained,
            Some(Answer::Err(err)) => {
                eprintln!("perf: output failed after {} results: {err}", drained.emit_ns.len());
                std::process::exit(2);
            }
            None => {
                let seen = drained.emit_ns.len();
                eprintln!("perf: no result for {RESULT_TIMEOUT:?} after {seen}");
                std::process::exit(2);
            }
        }
    }
}

/// What the set-up phase measured.
pub struct Setup {
    /// Median over the cycles of: `Pando::new` → bind → connect 16 sessions
    /// → quorum → spawn pool → stream → first result.
    pub setup_s: f64,
    pub connect_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs the cold bring-up cycles. One sample of a bring-up is sixteen
/// acceptor poll sleeps of scheduler noise; the median of 41 repeats.
///
/// # Errors
///
/// As [`Fleet::bring_up`].
pub fn measure_setup(workload: &TcpWorkload) -> Result<Setup, String> {
    let mut first_result_s = Vec::with_capacity(SETUP_CYCLES);
    let mut setup = Setup { setup_s: 0.0, connect_ms: Vec::new(), attempted: 0, failed: 0 };
    for _ in 0..SETUP_CYCLES {
        let begun = now_ns();
        let fleet = Fleet::bring_up(workload.process.clone(), workload.pool_threads)?;
        let (source, _log) = TaskSource::counted(workload.task.clone(), SETUP_TASKS);
        let drained = drain_output(&fleet.pando, source, &workload.check, || {
            first_result_s.push((now_ns() - begun) as f64 / 1e9)
        });
        setup.attempted += SETUP_TASKS;
        setup.failed += drained.wrong + SETUP_TASKS.abs_diff(drained.emit_ns.len() as u64);
        setup.connect_ms.extend_from_slice(&fleet.connect_ms);
        fleet.tear_down();
    }
    setup.setup_s = stats::median(&mut first_result_s);
    Ok(setup)
}

/// One sampled task of a traced run, stamped inside the volunteer closure.
#[derive(Debug, Clone, Copy)]
pub struct ComputeSpan {
    pub task: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Everything one timed window produced, raw.
pub struct Window {
    pub attempted: u64,
    /// Results missing, surplus or failing their check — or, open loop
    /// only, every task of the window when the fleet did not carry the
    /// offered load: its latencies are then those of an overloaded system,
    /// not of the rate the workload names.
    pub failed: u64,
    /// First input pull → `Done` seen on the output.
    pub wall_s: f64,
    pub first_pull_ns: u64,
    pub handout_ns: Vec<u64>,
    pub emit_ns: Vec<u64>,
    pub ticks: Vec<Tick>,
    /// CPU accounting when the window opened and when the input ended.
    pub cpu_before: CpuSnapshot,
    pub cpu_after: CpuSnapshot,
    pub lender: LenderStats,
    pub reactor: ReactorStats,
    pub meter: ThroughputReport,
    pub workers: Vec<WorkerReport>,
    pub connect_ms: Vec<f64>,
    /// Traced runs only: time inside the volunteer closure, all tasks.
    pub compute_ns: u64,
    pub compute_spans: Vec<ComputeSpan>,
    /// Traced runs only: allocations and bytes requested during the window.
    pub allocs: (u64, u64),
}

/// Brings a fresh fleet up and streams one window of `load` through it.
/// With `traced`, the volunteer closure is wrapped to time itself and the
/// allocation counter runs for the length of the window. An open loop, which
/// leaves the CPUs idle most of the time, runs over [`Spinners`].
///
/// # Errors
///
/// As [`Fleet::bring_up`] and [`Spinners::start`].
pub fn run_window(workload: &TcpWorkload, load: Load, traced: bool) -> Result<Window, String> {
    let compute_ns = Arc::new(AtomicU64::new(0));
    let spans = Arc::new(Mutex::new(Vec::new()));
    let process: ProcessFn = if traced {
        let inner = workload.process.clone();
        let (compute_ns, spans) = (compute_ns.clone(), spans.clone());
        Arc::new(move |payload: &Bytes| {
            let start_ns = now_ns();
            let result = inner(payload);
            let end_ns = now_ns();
            // A statistic that publishes no other data.
            compute_ns.fetch_add(end_ns - start_ns, Ordering::Relaxed);
            if let Some(task) = index_of(payload).filter(|k| k % SPAN_EVERY == 0) {
                spans.lock().expect("span lock is never poisoned").push(ComputeSpan {
                    task,
                    start_ns,
                    end_ns,
                });
            }
            result
        })
    } else {
        workload.process.clone()
    };

    let fleet = Fleet::bring_up(process, workload.pool_threads)?;
    let spinners = match load {
        Load::Paced { .. } => Some(Spinners::start()?),
        Load::Closed { .. } => None,
    };
    let (source, log) = TaskSource::new(workload.task.clone(), load);
    let cpu_before = CpuSnapshot::take();
    let allocs_before = alloc::counts();
    alloc::set_counting(traced);
    let Drained { emit_ns, ticks, wrong } =
        drain_output(&fleet.pando, source, &workload.check, || ());
    let done_ns = now_ns();
    alloc::set_counting(false);
    let allocs_after = alloc::counts();
    if let Some(spinners) = spinners {
        spinners.stop();
    }

    let connect_ms = fleet.connect_ms.clone();
    let (pando, workers) = fleet.tear_down();
    let SourceLog { first_pull_ns, handout_ns, cpu_at_done } =
        std::mem::take(&mut *log.lock().expect("log lock is never poisoned"));
    let first_pull_ns = first_pull_ns.expect("the lender pulled its input");
    let cpu_after = cpu_at_done.expect("the input ended before the output did");
    let attempted = handout_ns.len() as u64;
    let load_missed = match load {
        Load::Paced { rate, .. } => !paced_load_was_met(rate, first_pull_ns, &handout_ns),
        Load::Closed { .. } => false,
    };

    let compute_spans = std::mem::take(&mut *spans.lock().expect("span lock is never poisoned"));
    Ok(Window {
        attempted,
        failed: if load_missed {
            attempted
        } else {
            wrong + attempted.abs_diff(emit_ns.len() as u64)
        },
        wall_s: (done_ns - first_pull_ns) as f64 / 1e9,
        first_pull_ns,
        handout_ns,
        emit_ns,
        ticks,
        cpu_before,
        cpu_after,
        lender: pando.lender_stats().expect("the run started"),
        reactor: pando.reactor_stats().expect("volunteers were wired on the reactor"),
        meter: pando.meter().report(),
        workers,
        connect_ms,
        compute_ns: compute_ns.load(Ordering::Relaxed),
        compute_spans,
        allocs: (allocs_after.0 - allocs_before.0, allocs_after.1 - allocs_before.1),
    })
}

/// An open-loop run only means something if the offered load was carried:
/// the source must have handed its tasks out at 99 % of the offered rate or
/// better, and must not have fallen further behind its schedule at the end
/// of the run than at the start (a growing backlog).
fn paced_load_was_met(rate: f64, first_pull_ns: u64, handout_ns: &[u64]) -> bool {
    let Some(&last_ns) = handout_ns.last() else { return false };
    let period_ns = 1e9 / rate;
    // Task `n - 1` is due `n - 1` periods after the first pull.
    let offered_s = (handout_ns.len() - 1) as f64 * period_ns / 1e9;
    let taken_s = (last_ns - first_pull_ns) as f64 / 1e9;
    let achieved = rate * offered_s / taken_s.max(offered_s);
    let lateness = |range: std::ops::Range<usize>| {
        let mut late: Vec<f64> = range
            .map(|k| {
                let due = TaskSource::due_ns(first_pull_ns, period_ns, k as u64);
                handout_ns[k].saturating_sub(due) as f64
            })
            .collect();
        stats::median(&mut late)
    };
    let tenth = (handout_ns.len() / 10).max(1);
    let (early, late) = (lateness(0..tenth), lateness(handout_ns.len() - tenth..handout_ns.len()));
    // 5 ms is 25 tasks of backlog at 5 000/s — most of a fleet window of 32,
    // and two orders of magnitude above the source's usual lateness.
    let backlog_grew = late > early + 5e6;
    if achieved < 0.99 * rate || backlog_grew {
        eprintln!(
            "perf: offered load not met: {achieved:.1}/s of {rate}/s, median lateness \
             {:.0} µs in the first tenth, {:.0} µs in the last",
            early / 1e3,
            late / 1e3
        );
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Task `k` handed out `late_ns(k)` after it was due, at 1 000 tasks/s.
    fn handouts(n: u64, late_ns: impl Fn(u64) -> u64) -> Vec<u64> {
        (0..n).map(|k| TaskSource::due_ns(1_000, 1e6, k) + late_ns(k)).collect()
    }

    #[test]
    fn a_load_on_schedule_is_met_and_a_falling_behind_one_is_not() {
        assert!(paced_load_was_met(1_000.0, 1_000, &handouts(2_000, |_| 40_000)));
        // One 100 ms stall mid-run that the source catches up from.
        let stall = |k| if (1_000..1_100).contains(&k) { (1_100 - k) * 1_000_000 } else { 0 };
        assert!(paced_load_was_met(1_000.0, 1_000, &handouts(2_000, stall)));
        // Every task 10 µs later than the one before: the backlog grows to 20 ms.
        assert!(!paced_load_was_met(1_000.0, 1_000, &handouts(2_000, |k| k * 10_000)));
        // On schedule until the last task, which leaves 30 ms late: under 99 %.
        let tail = |k| if k == 1_999 { 30_000_000 } else { 0 };
        assert!(!paced_load_was_met(1_000.0, 1_000, &handouts(2_000, tail)));
        assert!(!paced_load_was_met(1_000.0, 1_000, &[]));
    }
}
