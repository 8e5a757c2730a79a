//! One workload run: build the workload from the seed, measure set-up, run
//! the timed window, turn what was recorded into named metrics.

use crate::fleet::{self, Window, SPAN_EVERY, VOLUNTEERS};
use crate::metrics::Report;
use crate::procfs::{self, Layer};
use crate::source::TaskSource;
use crate::stats::{Block, Figures};
use crate::workload::{self, Load, TcpWorkload};
use crate::{micro, sim, spans, stats};
use pando_core::reactor::ReactorStats;
use std::path::Path;
use std::time::Duration;

/// Published workload names, in the order `perf all` runs them.
pub const WORKLOADS: [&str; 5] =
    ["tcp_small", "tcp_bulk", "tcp_paced", "tcp_raytrace", "sim_churn"];

/// Offered rate of `tcp_paced`, tasks per second: under a tenth of what
/// `tcp_small` sustains, so the fleet is never the bottleneck.
const PACED_RATE: f64 = 5_000.0;
/// The master's `batch_size`: tasks in flight per volunteer.
const BATCH_SIZE: usize = 2;

pub struct RunArgs<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Where a traced run writes its span file.
    pub out_dir: &'a Path,
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload name, or a thread the kernel refused to pin.
pub fn run(args: &RunArgs) -> Result<Report, String> {
    let closed = Load::Closed { window: Duration::from_secs(args.seconds) };
    let tcp = match args.workload {
        "tcp_small" => workload::small(args.seed, closed),
        "tcp_bulk" => workload::bulk(args.seed, closed),
        "tcp_paced" => {
            let total = (PACED_RATE * args.seconds as f64) as u64;
            workload::small(args.seed, Load::Paced { rate: PACED_RATE, total })
        }
        "tcp_raytrace" => workload::raytrace(args.seed, closed),
        "sim_churn" => return Ok(run_sim(args)),
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    };
    run_tcp(args, &tcp)
}

/// The instant each task of `window` was due (open loop) or left the source
/// (closed loop): where its latency and its spans start.
fn origins(load: Load, window: &Window) -> Vec<u64> {
    match load {
        Load::Paced { rate, .. } => (0..window.handout_ns.len() as u64)
            .map(|k| TaskSource::due_ns(window.first_pull_ns, 1e9 / rate, k))
            .collect(),
        Load::Closed { .. } => window.handout_ns.clone(),
    }
}

/// `stamps[k]` minus `origin_ns[k]`, in µs.
fn since_us(stamps: &[u64], origin_ns: &[u64]) -> Vec<f64> {
    stamps.iter().zip(origin_ns).map(|(at, from)| at.saturating_sub(*from) as f64 / 1e3).collect()
}

/// The window's blocks: what the ordered output delivered between each tick
/// and the next. What precedes the first result (the fleet's window filling)
/// and follows the last tick (it draining) is in no block; nor is a block
/// with results no task accounts for, which the run reports as failed.
fn blocks(window: &Window, latency_us: &[f64]) -> Vec<Block> {
    window
        .ticks
        .windows(2)
        .filter_map(|pair| {
            let (from, to) = (pair[0], pair[1]);
            let mut latencies =
                latency_us.get(from.results as usize..to.results as usize)?.to_vec();
            Some(Block {
                tasks: to.results - from.results,
                wall_s: (to.at_ns - from.at_ns) as f64 / 1e9,
                cpu_us: to.cpu_us - from.cpu_us,
                latency_p50_us: stats::median(&mut latencies),
            })
        })
        .collect()
}

/// The end-to-end figures of an untraced run, or the traced run's own
/// reading of the same (`trace.*`) beside the whole-window figures the calm
/// tenth is drawn from (`window.*`).
fn set_end_to_end(report: &mut Report, traced: bool, calm: Figures, whole: Figures, setup_s: f64) {
    if traced {
        report.set("trace.tasks_per_s", calm.tasks_per_s);
        report.set("window.tasks_per_s", whole.tasks_per_s);
        report.set("window.latency_p50_us", whole.latency_p50_us);
        report.set("window.cpu_us_per_task", whole.cpu_us_per_task);
    } else {
        report.set("tasks_per_s", calm.tasks_per_s);
        report.set("latency_p50_us", calm.latency_p50_us);
        report.set("cpu_us_per_task", calm.cpu_us_per_task);
        report.set("setup_s", setup_s);
    }
}

fn run_tcp(args: &RunArgs, workload: &TcpWorkload) -> Result<Report, String> {
    let mut report = Report::default();
    if args.traced {
        for (name, value) in micro::run(workload.task_bytes, workload.result_bytes) {
            report.set(name, value);
        }
    }
    let local_frames_per_s =
        (args.traced && args.workload == "tcp_raytrace").then(micro::raytrace_local_frames_per_s);

    let setup = fleet::measure_setup(workload)?;
    let window = fleet::run_window(workload, workload.load, args.traced)?;
    let origin_ns = origins(workload.load, &window);
    let latency_us_by_task = since_us(&window.emit_ns, &origin_ns);
    let mut latency_us = latency_us_by_task.clone();
    report.attempted = setup.attempted + window.attempted;
    report.failed = setup.failed + window.failed;
    let n = window.attempted as f64;
    let cpu_us = window.cpu_after.process_us - window.cpu_before.process_us;
    let whole = Figures {
        tasks_per_s: n / window.wall_s,
        latency_p50_us: stats::percentile(&mut latency_us, 50.0),
        cpu_us_per_task: cpu_us / n,
    };
    let blocks = blocks(&window, &latency_us_by_task);
    if blocks.is_empty() {
        return Err("the window delivered no full block of results".to_string());
    }
    let mut calm = stats::calm_tenth(&blocks);
    if let Load::Paced { .. } = workload.load {
        // The rate is the source's, not the fleet's: what is reported is how
        // much of it was carried, over the whole window.
        calm.tasks_per_s = whole.tasks_per_s;
    }
    set_end_to_end(&mut report, args.traced, calm, whole, setup.setup_s);
    if !args.traced {
        return Ok(report);
    }
    let tasks_per_s = whole.tasks_per_s;

    let cpu = |layer: Layer| -> f64 {
        (window.cpu_after.layer_us(layer) - window.cpu_before.layer_us(layer)) / n
    };
    report.set("pull_stream.lends_per_task", window.lender.lends as f64 / n);
    report.set("pull_stream.relends", window.lender.relends as f64);
    report.set("pull_stream.substreams_crashed", window.lender.substreams_crashed as f64);
    report.set("protocol.wire_bytes_per_task", window.meter.total_wire_bytes() as f64 / n);
    // Every task crosses the wire twice, as a task record and a result record.
    let frames = window.meter.total_wire_frames() as f64;
    report.set("protocol.records_per_frame", 2.0 * n / frames.max(1.0));
    report.set("protocol.heartbeats_sent", window.meter.total_heartbeats_sent() as f64);
    report.set("protocol.heartbeats_suppressed", window.meter.total_heartbeats_suppressed() as f64);
    set_reactor(&mut report, &window.reactor, n);
    report.set("reactor.cpu_us_per_task", cpu(Layer::Reactor));
    report.set("tcp.cpu_us_per_task", cpu(Layer::TcpPoller));
    let mut connect_ms: Vec<f64> =
        setup.connect_ms.iter().chain(&window.connect_ms).copied().collect();
    report.set("tcp.connect_ms_p50", stats::median(&mut connect_ms));
    report.set("worker.compute_us_per_task", window.compute_ns as f64 / 1e3 / n);
    report.set("worker.cpu_us_per_task", cpu(Layer::Worker));
    report.set(
        "worker.heartbeats_sent",
        window.workers.iter().map(|worker| worker.heartbeats_sent as f64).sum(),
    );
    report.set("output.cpu_us_per_task", cpu(Layer::Output));
    if let Some(local) = local_frames_per_s {
        report.set("workloads.raytrace.local_frames_per_s", local);
        report.set("workloads.raytrace.speedup_vs_local", tasks_per_s / local);
    }

    let task_spans = spans::assemble(&origin_ns, &window.compute_spans, &window.emit_ns);
    for (leg, mut values) in spans::legs_us(&task_spans) {
        report.set(leg.p50, stats::percentile(&mut values, 50.0));
        report.set(leg.p99, stats::percentile(&mut values, 99.0));
    }
    let span_file = args.out_dir.join(format!("trace-{}.jsonl", args.workload));
    match spans::write_jsonl(&span_file, &task_spans) {
        Ok(()) => eprintln!(
            "perf: {} spans of every {SPAN_EVERY}th task in {}",
            task_spans.len(),
            span_file.display()
        ),
        Err(err) => eprintln!("perf: could not write {}: {err}", span_file.display()),
    }

    report.set("proc.peak_rss_mib", procfs::peak_rss_mib());
    report.set("proc.allocs_per_task", window.allocs.0 as f64 / n);
    report.set("proc.alloc_bytes_per_task", window.allocs.1 as f64 / n);
    let switches = window.cpu_after.ctx_switches - window.cpu_before.ctx_switches;
    report.set("proc.ctx_switches_per_task", switches / n);
    report.set("proc.cpu_util", cpu_us / 1e6 / window.wall_s / host_nproc() as f64);
    report.set("proc.threads", window.cpu_after.threads as f64);
    report.set("latency_p99_us", stats::percentile(&mut latency_us, 99.0));
    report.set("latency_max_us", stats::percentile(&mut latency_us, 100.0));
    let mut lateness_us = since_us(&window.handout_ns, &origin_ns);
    report.set("gen.lateness_p99_us", stats::percentile(&mut lateness_us, 99.0));
    Ok(report)
}

/// The reactor's scheduling counters of one run.
fn set_reactor(report: &mut Report, reactor: &ReactorStats, n: f64) {
    report.set("reactor.polls_per_task", reactor.polls as f64 / n);
    report.set(
        "reactor.wasted_poll_ratio",
        reactor.wasted_polls as f64 / (reactor.polls as f64).max(1.0),
    );
    report.set("reactor.wakeups_per_task", reactor.wakeups as f64 / n);
    report.set("reactor.timer_fires", reactor.timer_fires as f64);
    report.set("reactor.max_ready_depth", reactor.max_ready_depth as f64);
    report.set("reactor.kicks_sent", reactor.kicks_sent as f64);
    report.set("reactor.kicks_suppressed", reactor.kicks_suppressed as f64);
    report.set("reactor.pump_prefetches", reactor.pump_prefetches as f64);
}

fn run_sim(args: &RunArgs) -> Report {
    let mut report = Report::default();
    if args.traced {
        // The simulator's own tasks and results are 8-byte indices.
        for (name, value) in micro::run(8, 8) {
            report.set(name, value);
        }
    }
    let mut run = sim::run(args.seed, args.seconds, args.traced);
    report.attempted = run.attempted;
    report.failed = run.failed;
    report.notes.push(("sim.output_digest", format!("{:016x}", run.report.output_digest)));
    report.notes.push(("sim.trace_digest", format!("{:016x}", run.trace_digest)));

    let n = run.tasks as f64;
    let wall_s: f64 = run.calls.iter().map(|call| call.wall_s).sum();
    let cpu_us = run.cpu_after.process_us - run.cpu_before.process_us;
    let mut call_us: Vec<f64> = run.calls.iter().map(|call| call.latency_p50_us).collect();
    let whole = Figures {
        tasks_per_s: n / wall_s,
        latency_p50_us: stats::median(&mut call_us),
        cpu_us_per_task: cpu_us / n,
    };
    set_end_to_end(&mut report, args.traced, stats::calm_tenth(&run.calls), whole, run.setup_s);
    if !args.traced {
        return report;
    }

    // Counters are those of one call; every call's are the same.
    let n_call = run.report.params.tasks as f64;
    let fleet = &run.report;
    let lends = sim::sum_field(&fleet.shard_rows, "shard", "borrows");
    report.set("pull_stream.lends_per_task", lends / n_call);
    report.set("pull_stream.relends", lends - n_call);
    report.set("pull_stream.substreams_crashed", fleet.crashed as f64);
    let wire = |key| sim::sum_field(&fleet.meter_rows, "meter", key);
    report.set("protocol.wire_bytes_per_task", wire("wire_bytes") / n_call);
    report.set("protocol.records_per_frame", 2.0 * n_call / wire("wire_frames").max(1.0));
    report.set("protocol.heartbeats_sent", wire("hb_sent"));
    report.set("protocol.heartbeats_suppressed", wire("hb_suppressed"));
    set_reactor(&mut report, &fleet.reactor, n_call);
    report.set("sim.virtual_makespan_ms", fleet.virtual_elapsed.as_secs_f64() * 1e3);
    report.set("sim.trace_lines", run.trace_lines as f64);
    report.set("sim.canonical_trace_bytes", run.trace_bytes as f64);
    report.set("sim.crashed", fleet.crashed as f64);
    report.set("sim.canonical_trace_ms", stats::median(&mut run.canonical_trace_ms));
    report.set("sim.run_ms", fleet.wall_elapsed.as_secs_f64() * 1e3);
    report.set("proc.peak_rss_mib", procfs::peak_rss_mib());
    report.set("proc.allocs_per_task", run.allocs.0 as f64 / n);
    report.set("proc.alloc_bytes_per_task", run.allocs.1 as f64 / n);
    let switches = run.cpu_after.ctx_switches - run.cpu_before.ctx_switches;
    report.set("proc.ctx_switches_per_task", switches / n);
    report.set("proc.cpu_util", cpu_us / 1e6 / wall_s / host_nproc() as f64);
    report.set("proc.threads", run.cpu_after.threads as f64);
    report
}

/// CPUs the host offers this process.
pub fn host_nproc() -> usize {
    crate::affinity::allowed_cpus().len()
}

/// The fleet the TCP workloads run on, for the output header.
pub fn fleet_description() -> String {
    format!(
        "{VOLUNTEERS} session volunteers, batch size {BATCH_SIZE}, one reactor/poller thread, \
         busy threads pinned by layer over cpus {:?}",
        crate::affinity::allowed_cpus()
    )
}
