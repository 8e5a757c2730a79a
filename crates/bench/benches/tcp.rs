//! Criterion bench A/B-ing the two real-socket TCP backends over loopback:
//! the legacy two-threads-per-connection pumps against the shared epoll
//! readiness poller, at fleet sizes where the thread-pair model is
//! respectively comfortable and strained. The measured quantity is the
//! wall-clock of a complete run (handshake the fleet, stream the input,
//! collect every result in order, tear down); alongside each configuration
//! the bench prints the transport thread census (`/proc/self/task` names
//! starting `tcp-`) so the "O(1) vs O(connections) threads" claim is
//! observable, not inferred.
//!
//! Run with: `cargo bench --bench tcp` (Linux only: the master's acceptor
//! sits on epoll; elsewhere the bench builds to nothing).

#![cfg_attr(not(target_os = "linux"), allow(unused))]

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pando_core::config::PandoConfig;
use pando_core::master::Pando;
#[cfg(target_os = "linux")]
use pando_core::transport::tcp::TcpAcceptor;
use pando_core::transport::tcp::{transport_thread_census, TcpConfig, TcpTransport};
use pando_core::worker::WorkerBuilder;
use pando_pull_stream::source::{count, SourceExt};
use std::time::Duration;

/// Liveness windows wide enough that a loaded bench machine never trips the
/// failure detector mid-measurement.
fn tcp_config(pump: bool) -> TcpConfig {
    #[allow(deprecated)]
    TcpConfig {
        heartbeat_interval: Duration::from_millis(500),
        failure_timeout: Duration::from_secs(30),
        pump_threads_backend: pump,
        ..TcpConfig::default()
    }
}

/// One full deployment over real loopback sockets: `volunteers` connections
/// served by a worker pool in the same process, a stream of `tasks` trivial
/// values, results collected and seq-checked. Returns the transport thread
/// census observed while the fleet was fully wired.
#[cfg(target_os = "linux")]
fn run_fleet(pump: bool, volunteers: usize, tasks: u64) -> usize {
    let tcp = tcp_config(pump);
    let config =
        PandoConfig::local_test().with_batch_size(4).with_reactor_threads(4).with_tcp(tcp.clone());
    let pando = Pando::new(config);
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", tcp.clone()).expect("bind loopback");
    let addr = acceptor.local_addr();
    let server = acceptor.serve(&pando);

    let transports: Vec<TcpTransport> = (0..volunteers)
        .map(|i| TcpTransport::connect(addr, &format!("bench-{i}"), tcp.clone()).expect("connect"))
        .collect();
    let pool = WorkerBuilder::new()
        .heartbeats(true)
        .pool_threads(4)
        .spawn_pool(transports, |payload: &Bytes| Ok(payload.clone()));
    let census = transport_thread_census().unwrap_or(0);

    let output = pando
        .run(count(tasks).map_values(|v| Bytes::from(v.to_string().into_bytes())))
        .collect_values()
        .expect("stream completes");
    assert_eq!(output.len() as u64, tasks);
    assert_eq!(output[0].as_ref(), b"1", "results stay ordered");
    pool.join();
    server.stop();
    server.join();
    pando.join_volunteers();
    census
}

#[cfg(target_os = "linux")]
fn bench_tcp_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("tcp_backend");
    group.sample_size(10);
    // 8 volunteers: both backends are comfortable. 64: the pump backend
    // already runs ~256 transport threads for the two in-process sides.
    // 256: ~1024 pump threads against a fixed handful of poller threads.
    for volunteers in [8usize, 64, 256] {
        let tasks = (volunteers as u64) * 8;
        group.throughput(Throughput::Elements(tasks));
        for (label, pump) in [("pump", true), ("poller", false)] {
            let census = run_fleet(pump, volunteers, tasks);
            eprintln!("tcp_backend/{label}/{volunteers}: transport thread census {census}");
            group.bench_with_input(BenchmarkId::new(label, volunteers), &pump, |b, &pump| {
                b.iter(|| run_fleet(pump, volunteers, tasks))
            });
        }
    }
    group.finish();
}

#[cfg(target_os = "linux")]
criterion_group!(benches, bench_tcp_backends);
#[cfg(target_os = "linux")]
criterion_main!(benches);

#[cfg(not(target_os = "linux"))]
fn main() {}
