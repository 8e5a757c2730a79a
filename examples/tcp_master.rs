//! TCP demo, master half: one OS process that listens for volunteer
//! connections on localhost TCP, streams a checkable workload through
//! whatever fleet shows up, and asserts the output is complete and in input
//! order — including across a volunteer *process* crash mid-run.
//!
//! Run the two halves in separate terminals (or use `make tcp-demo`):
//!
//! ```text
//! PANDO_TCP_ADDR_FILE=/tmp/pando.addr cargo run --release --example tcp_master
//! PANDO_TCP_ADDR_FILE=/tmp/pando.addr cargo run --release --example tcp_volunteer
//! ```
//!
//! Environment knobs:
//!
//! * `PANDO_TCP_ADDR` — listen address (default `127.0.0.1:0`, an
//!   OS-assigned port)
//! * `PANDO_TCP_ADDR_FILE` — if set, the resolved address is written here so
//!   volunteer processes can discover the port
//! * `TCP_TASKS` — number of values to stream (default 2000)
//! * `TCP_MIN_VOLUNTEERS` — wait until this many volunteers handshake
//!   before streaming (default 1), so fast workloads do not finish before
//!   the whole fleet joins
//! * `TCP_BUDGET_SECS` — wall-clock guard; the process exits non-zero if the
//!   run exceeds it (default 120)
//! * `TCP_EXPECT_CRASHED` — if set, assert that exactly this many
//!   sub-streams crashed. The flap demo passes 0: a volunteer that drops its
//!   socket but resumes inside `reconnect_grace` must never reach the crash
//!   re-lend path.
//! * `TCP_MIN_RESUMED` — if set, assert at least this many sessions resumed,
//!   proving the scripted link drops actually exercised the resume path
//!   rather than finishing before the flap landed.
//!
//! A failed run leaves a post-mortem: a panic hook prints the master's
//! trace ([`Pando::trace`]) to stderr after the panic message — every
//! volunteer registered (`master joined NAME`), every session ended with
//! its verdict (`master ended NAME goodbye|crash|failed|shutdown`) and the
//! values each end handed back (`master relent NAME values=N`), stamped in
//! microseconds since the master started, the newest
//! [`RING`](pando_core::trace::RING) events of the run.
//!
//! Linux only, like `tcp_volunteer`: the TCP transport sits on epoll.

use bytes::Bytes;
use pando_core::config::PandoConfig;
use pando_core::master::Pando;
use pando_core::trace::{write_lines, RING};
use pando_core::transport::tcp::{TcpAcceptor, TcpConfig};
use pando_pull_stream::source::{count, SourceExt};
use std::time::{Duration, Instant};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Liveness windows for the localhost demo: heartbeats five times a second,
/// crash suspicion after three silent seconds. An abrupt process death is
/// detected much faster through the socket EOF; the timeout only backstops
/// wedged-but-open connections.
fn demo_tcp_config() -> TcpConfig {
    TcpConfig {
        heartbeat_interval: Duration::from_millis(200),
        failure_timeout: Duration::from_secs(3),
        ..TcpConfig::default()
    }
}

fn main() {
    let addr = std::env::var("PANDO_TCP_ADDR").unwrap_or_else(|_| "127.0.0.1:0".to_string());
    let tasks = env_u64("TCP_TASKS", 2_000);
    let budget = Duration::from_secs(env_u64("TCP_BUDGET_SECS", 120));

    let config = PandoConfig::local_test()
        .with_batch_size(8)
        .with_reactor_threads(4)
        .with_tcp(demo_tcp_config());
    let tcp = config.transport.tcp.clone();
    let pando = Pando::new(config);
    let trace = pando.trace().clone();
    let report_panic = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        report_panic(info);
        let mut lines = String::new();
        let _ = write_lines(&mut lines, &trace.take());
        eprint!("master trace (the newest {RING} events):\n{lines}");
    }));

    let acceptor = TcpAcceptor::bind(&addr, tcp.clone()).expect("bind TCP listener");
    let local = acceptor.local_addr();
    println!("pando master listening on {local}");
    if let Ok(path) = std::env::var("PANDO_TCP_ADDR_FILE") {
        // Write via a temp file + rename so readers never see a partial line.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, local.to_string()).expect("write address file");
        std::fs::rename(&tmp, &path).expect("publish address file");
        println!("address published to {path}");
    }
    let server = acceptor.serve(&pando);

    let min_volunteers = env_u64("TCP_MIN_VOLUNTEERS", 1) as usize;
    assert!(
        server.wait_for_volunteers(min_volunteers, Duration::from_secs(30)),
        "only {} of {min_volunteers} volunteers joined within 30s",
        server.accepted()
    );
    println!("{} volunteers joined; streaming {tasks} tasks", server.accepted());

    // The workload: f(v) = 3v + 1 over v = 1..=tasks, checkable per index.
    let started = Instant::now();
    let output = pando
        .run(count(tasks).map_values(|v| Bytes::from(v.to_string().into_bytes())))
        .collect_values()
        .expect("stream completes");
    let elapsed = started.elapsed();

    assert_eq!(output.len() as u64, tasks, "every value must produce a result");
    for (i, payload) in output.iter().enumerate() {
        let v = (i + 1) as u64;
        let expected = (v * 3 + 1).to_string();
        assert_eq!(
            payload.as_ref(),
            expected.as_bytes(),
            "result {i} out of order or demultiplexed incorrectly"
        );
    }

    // With the readiness poller, the master's transport side must run a
    // fixed number of threads no matter how many volunteers connected:
    // `poller_threads` epoll shards plus the acceptor. The per-connection
    // pump backend would show ~2 threads per volunteer here instead.
    if std::env::var("TCP_THREAD_CENSUS").ok().as_deref() == Some("1") {
        let census = pando_core::transport::tcp::transport_thread_census()
            .expect("/proc thread census available on Linux");
        let ceiling = tcp.poller_threads + 1;
        println!("transport thread census: {census} (ceiling {ceiling})");
        assert!(
            census <= ceiling,
            "transport layer runs {census} threads, more than poller_threads + acceptor \
             ({ceiling}) — per-connection threads are back"
        );
    }

    let (resumed, rejected, expired) = (server.resumed(), server.rejected(), server.expired());
    let accepted = server.join();
    pando.join_volunteers();
    let stats = pando.lender_stats().expect("the run started");
    println!(
        "{tasks} tasks over {accepted} TCP volunteers in {elapsed:?} ({:.0} tasks/s)",
        tasks as f64 / elapsed.as_secs_f64()
    );
    println!(
        "lender: {} values read, {} results emitted, {} re-lent, {} sub-streams crashed, \
         {resumed} sessions resumed, {rejected} connections rejected ({expired} at the \
         handshake deadline)",
        stats.values_read, stats.results_emitted, stats.relends, stats.substreams_crashed
    );
    if let Ok(expected) = std::env::var("TCP_EXPECT_CRASHED") {
        let expected: u64 = expected.parse().expect("TCP_EXPECT_CRASHED must be a number");
        assert_eq!(
            stats.substreams_crashed, expected,
            "crash verdicts diverged from the scripted fault plan \
             (a grace-window resume must not count as a crash)"
        );
    }
    if let Ok(min) = std::env::var("TCP_MIN_RESUMED") {
        let min: usize = min.parse().expect("TCP_MIN_RESUMED must be a number");
        assert!(
            resumed >= min,
            "only {resumed} sessions resumed, expected at least {min} — the scripted link \
             drops never exercised the resume path"
        );
    }
    assert!(
        elapsed <= budget,
        "wall-clock guard exceeded: {elapsed:?} > {budget:?} — the TCP path regressed"
    );
    println!("tcp master OK: output complete and in order");
}
