//! Scale smoke test: one master drives a large fleet of simulated
//! volunteers through the event-driven reactor with a *constant* number of
//! OS threads — no thread pair per volunteer.
//!
//! Run with: `cargo run --release --example scale_smoke`
//!
//! Environment knobs:
//!
//! * `SCALE_VOLUNTEERS` — fleet size (default 1000; `make scale` runs 10000)
//! * `SCALE_TASKS` — number of values to stream (default 5 × volunteers)
//! * `SCALE_SHARDS` — lender shards (default 1 = the single global lender;
//!   `make scale-sharded` runs 4, spreading dispatch over four locks)
//! * `SCALE_BUDGET_SECS` — wall-clock guard; the process exits non-zero if
//!   the run exceeds it (default 120), which is how CI detects a scheduling
//!   regression in the reactor.
//!
//! The run asserts the interesting properties, not just survival: results
//! arrive complete, in input order and correctly demultiplexed (value `v`
//! must produce `f(v)`), and the master-side thread budget stays at
//! `reactor_threads + const` regardless of the fleet size.

use bytes::Bytes;
use pando_core::config::PandoConfig;
use pando_core::master::Pando;
use pando_core::worker::WorkerBuilder;
use pando_netsim::channel::ChannelConfig;
use pando_pull_stream::source::{count, SourceExt};
use std::time::{Duration, Instant};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Threads currently alive in this process (Linux; `None` elsewhere).
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| line.strip_prefix("Threads:")?.trim().parse().ok())
}

fn main() {
    let volunteers = env_usize("SCALE_VOLUNTEERS", 1_000);
    let tasks = env_usize("SCALE_TASKS", volunteers * 5) as u64;
    let shards = env_usize("SCALE_SHARDS", 1).max(1);
    let budget = Duration::from_secs(env_usize("SCALE_BUDGET_SECS", 120) as u64);
    let reactor_threads = 4;
    let worker_pool_threads = 8;

    // A relaxed channel profile: no simulated latency (the point here is
    // scheduling scale, not network realism) and a failure timeout generous
    // enough that slow CI machines never mistake queueing for a crash.
    let channel = ChannelConfig {
        heartbeat_interval: Duration::from_millis(500),
        failure_timeout: Duration::from_secs(30),
        ..ChannelConfig::instant()
    };
    let config = PandoConfig::local_test()
        .with_batch_size(4)
        .with_reactor_threads(reactor_threads)
        .with_lender_shards(shards)
        .with_channel(channel);

    let started = Instant::now();
    let baseline_threads = thread_count();
    let pando = Pando::new(config);
    let endpoints: Vec<_> = (0..volunteers).map(|_| pando.open_volunteer_channel()).collect();
    let pool = WorkerBuilder::new().heartbeats(true).pool_threads(worker_pool_threads).spawn_pool(
        endpoints,
        |payload: &Bytes| {
            // A trivial but checkable function: f(v) = v * 3 + 1.
            let v: u64 = std::str::from_utf8(payload)
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| pando_pull_stream::StreamError::new("not a number"))?;
            Ok(Bytes::from((v * 3 + 1).to_string().into_bytes()))
        },
    );
    println!("{volunteers} volunteers wired in {:?}", started.elapsed());

    // Attaching the input wires every pending volunteer onto the reactor;
    // the thread census taken *here* is the scaling claim of this example.
    let output = pando.run(count(tasks).map_values(|v| Bytes::from(v.to_string().into_bytes())));
    if let (Some(before), Some(after)) = (baseline_threads, thread_count()) {
        let added = after.saturating_sub(before);
        // reactor pool + worker pool + one input pump per shard + slack for
        // the runtime.
        let budgeted = reactor_threads + worker_pool_threads + shards + 1;
        println!("threads: {before} before, {after} with the fleet running (+{added})");
        assert!(
            added <= budgeted,
            "thread budget exceeded: +{added} threads for {volunteers} volunteers \
             (expected at most {budgeted}; no per-volunteer threads allowed)"
        );
    }
    let output = pando_pull_stream::sink::collect(output).expect("stream completes");
    let elapsed = started.elapsed();

    // Seq check: ordered and correctly demultiplexed.
    assert_eq!(output.len() as u64, tasks);
    for (i, payload) in output.iter().enumerate() {
        let v = (i + 1) as u64;
        let expected = (v * 3 + 1).to_string();
        assert_eq!(payload.as_ref(), expected.as_bytes(), "result {i} demultiplexed incorrectly");
    }

    let reports = pool.join();
    pando.join_volunteers();
    let served: u64 = reports.iter().map(|r| r.processed).sum();
    let stats = pando.reactor_stats().expect("reactor backend");
    let meter = pando.meter().report();
    println!(
        "{tasks} tasks over {volunteers} volunteers ({shards} lender shards) in {elapsed:?} \
         ({:.0} tasks/s)",
        tasks as f64 / elapsed.as_secs_f64()
    );
    println!(
        "reactor: {} threads, {} polls, {} wakeups, {} timer fires, max ready depth {}, \
         {} input prefetches, {} shard hops",
        stats.threads,
        stats.polls,
        stats.wakeups,
        stats.timer_fires,
        stats.max_ready_depth,
        stats.pump_prefetches,
        stats.shard_hops
    );
    println!(
        "wake discipline: {} wasted polls, {} kicks sent, {} kicks suppressed",
        stats.wasted_polls, stats.kicks_sent, stats.kicks_suppressed
    );
    for row in pando.meter().report().shards {
        println!("shard {}: {} borrows, {} results", row.shard, row.borrows, row.results);
    }
    println!(
        "heartbeats: {} standalone sent, {} piggybacked/suppressed (master side)",
        meter.total_heartbeats_sent(),
        meter.total_heartbeats_suppressed()
    );
    assert_eq!(served, tasks, "every task served exactly once across the fleet");
    assert!(
        elapsed <= budget,
        "wall-clock guard exceeded: {elapsed:?} > {budget:?} — reactor scheduling regressed"
    );
    println!("scale smoke OK");
}
