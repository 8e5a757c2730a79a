//! TCP demo, volunteer half: a separate OS process that connects a fleet of
//! volunteers to a running `tcp_master` over localhost TCP, serves them all
//! from one worker pool and processes tasks until the master closes the
//! stream — or, with `TCP_CRASH_AFTER` set, kills itself abruptly mid-run to
//! exercise crash detection and re-lend across a real process boundary.
//!
//! See `examples/tcp_master.rs` for the two-terminal walkthrough and
//! `make tcp-demo` for the scripted version.
//!
//! Environment knobs:
//!
//! * `PANDO_TCP_ADDR` — master address (`host:port`)
//! * `PANDO_TCP_ADDR_FILE` — file to read the address from (written by the
//!   master; polled until it appears)
//! * `TCP_WORKERS` — number of volunteer connections to open (default 32)
//! * `TCP_NAME_PREFIX` — volunteer name prefix (default `vol`)
//! * `TCP_CRASH_AFTER` — if set, the whole process calls
//!   `std::process::exit(2)` once this many tasks were processed across the
//!   fleet: no close markers, no goodbyes, sockets torn down by the OS —
//!   exactly the "volunteer device dies" scenario of the paper.
//! * `TCP_DROP_AFTER` — if set, the fleet joins through resumable sessions
//!   ([`ReconnectingTcpTransport`]) and every connection severs its socket
//!   abruptly once this many tasks were processed across the fleet, then
//!   redials with backoff and resumes under its old session token. The
//!   master must ride the flap out inside its `reconnect_grace` window:
//!   zero crash re-lends, output still complete and in order.

use bytes::Bytes;
use pando_core::transport::tcp::session::{ReconnectPolicy, ReconnectingTcpTransport};
use pando_core::transport::tcp::{TcpConfig, TcpTransport};
use pando_core::transport::Transport;
use pando_core::worker::WorkerBuilder;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Must mirror the master's liveness windows (see `tcp_master.rs`).
fn demo_tcp_config() -> TcpConfig {
    TcpConfig {
        heartbeat_interval: Duration::from_millis(200),
        failure_timeout: Duration::from_secs(3),
        ..TcpConfig::default()
    }
}

/// Resolves the master address from `PANDO_TCP_ADDR`, or polls
/// `PANDO_TCP_ADDR_FILE` until the master publishes it.
fn master_addr() -> String {
    if let Ok(addr) = std::env::var("PANDO_TCP_ADDR") {
        return addr;
    }
    let path =
        std::env::var("PANDO_TCP_ADDR_FILE").expect("set PANDO_TCP_ADDR or PANDO_TCP_ADDR_FILE");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match std::fs::read_to_string(&path) {
            Ok(addr) if !addr.trim().is_empty() => return addr.trim().to_string(),
            _ if Instant::now() > deadline => panic!("no master address in {path} after 30s"),
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// The demo workload: f(v) = 3v + 1 over the decimal payload.
fn parse_task(payload: &Bytes) -> Result<u64, pando_pull_stream::StreamError> {
    std::str::from_utf8(payload)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| pando_pull_stream::StreamError::new("not a number"))
}

fn main() {
    let addr = master_addr();
    let workers = env_u64("TCP_WORKERS", 32) as usize;
    let prefix = std::env::var("TCP_NAME_PREFIX").unwrap_or_else(|_| "vol".to_string());
    let crash_after = std::env::var("TCP_CRASH_AFTER").ok().and_then(|v| v.parse::<u64>().ok());
    let drop_after = std::env::var("TCP_DROP_AFTER").ok().and_then(|v| v.parse::<u64>().ok());
    let processed = AtomicU64::new(0);

    println!(
        "joining master at {addr} with {workers} workers{}{}",
        crash_after.map(|n| format!(", crashing the process after {n} tasks")).unwrap_or_default(),
        drop_after.map(|n| format!(", dropping every link after {n} tasks")).unwrap_or_default()
    );
    // The whole fleet is served by one worker pool — the path the benchmark
    // runs — with a thread per CPU instead of a thread per connection.
    let builder = WorkerBuilder::new()
        .name(prefix.clone())
        .heartbeats(true)
        .pool_threads(std::thread::available_parallelism().map_or(1, usize::from));
    let mut observers: Vec<TcpTransport> = Vec::new();
    let pool = if let Some(drop_at) = drop_after {
        // Resumable-session mode: every connection joins through a
        // redialing session transport, and the first task past the
        // threshold severs the whole fleet's sockets at once (one-shot).
        // Each link redials with backoff, presents its old token, and
        // resumes mid-stream.
        let links: Vec<ReconnectingTcpTransport> = (0..workers)
            .map(|i| {
                ReconnectingTcpTransport::connect(
                    addr.as_str(),
                    &format!("{prefix}-{i}"),
                    demo_tcp_config(),
                    ReconnectPolicy::default(),
                )
                .expect("connect session to master")
            })
            .collect();
        let fleet = links.clone();
        let dropped = AtomicBool::new(false);
        builder.spawn_pool(fleet, move |payload: &Bytes| {
            let v = parse_task(payload)?;
            let done = processed.fetch_add(1, Ordering::SeqCst) + 1;
            if done >= drop_at && !dropped.swap(true, Ordering::SeqCst) {
                // Sever every socket abruptly — no goodbyes, no close
                // markers — then let the redial loops resume the sessions
                // inside the master's grace window. Nothing may be lost or
                // re-lent.
                for link in links.iter() {
                    link.drop_link();
                }
                println!("dropped all {} links after {done} tasks; redialing", links.len());
            }
            Ok(Bytes::from((v * 3 + 1).to_string().into_bytes()))
        })
    } else {
        let fleet: Vec<TcpTransport> = (0..workers)
            .map(|i| {
                TcpTransport::connect(&addr, &format!("{prefix}-{i}"), demo_tcp_config())
                    .expect("connect to master")
            })
            .collect();
        // Cheap clones observe the write-path counters after the pool
        // consumed the originals.
        observers = fleet.clone();
        builder.spawn_pool(fleet, move |payload: &Bytes| {
            let v = parse_task(payload)?;
            let done = processed.fetch_add(1, Ordering::SeqCst) + 1;
            if crash_after.is_some_and(|limit| done >= limit) {
                // Abrupt process death: no unwinding, no close markers. The
                // master must detect the crash and re-lend every value this
                // fleet held.
                std::process::exit(2);
            }
            Ok(Bytes::from((v * 3 + 1).to_string().into_bytes()))
        })
    };

    let total: u64 = pool.join().iter().map(|report| report.processed).sum();
    if !observers.is_empty() {
        let (mut frames, mut calls, mut bytes) = (0u64, 0u64, 0u64);
        for observer in &observers {
            let stats = observer.stats();
            frames += stats.frames_written;
            calls += stats.write_calls;
            bytes += stats.bytes_written;
        }
        let per_write = if calls == 0 { 0.0 } else { frames as f64 / calls as f64 };
        println!(
            "transport: {frames} frames in {calls} write calls ({per_write:.2} frames/write), \
             {bytes} bytes"
        );
    }
    println!("volunteer process done: {total} tasks processed across {workers} workers");
}
