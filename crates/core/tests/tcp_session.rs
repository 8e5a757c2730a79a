//! End-to-end coverage of resumable TCP sessions: a volunteer that drops
//! its socket mid-run and redials within the grace window rejoins its old
//! session (replayed frames, no crash re-lend, no duplicate or lost
//! results), while one that stays away past the grace window is reclassified
//! as crashed and its values re-lent — the existing crash path, unchanged.
//!
//! Linux only: the master's acceptor sits on epoll.

#![cfg(target_os = "linux")]

mod common;

use bytes::Bytes;
use pando_core::config::PandoConfig;
use pando_core::master::Pando;
use pando_core::protocol::Message;
use pando_core::transport::tcp::session::{ReconnectPolicy, ReconnectingTcpTransport};
use pando_core::transport::tcp::{SessionEvent, TcpAcceptor, TcpConfig};
use pando_core::transport::Transport;
use pando_core::worker::WorkerBuilder;
use pando_netsim::channel::{RecvError, SendError};
use pando_netsim::codec::Record;
use pando_netsim::fault::FaultPlan;
use pando_pull_stream::source::{count, SourceExt};
use pando_pull_stream::StreamError;
use std::time::Duration;

/// A processing function slow enough that a scripted mid-run flap actually
/// lands mid-run.
fn slow_echo(payload: &Bytes) -> Result<Bytes, StreamError> {
    std::thread::sleep(Duration::from_millis(2));
    Ok(payload.clone())
}

#[test]
fn volunteer_dropping_mid_run_resumes_within_grace_without_a_crash() {
    let tcp = TcpConfig::local_test();
    let pando = Pando::new(PandoConfig::local_test().with_batch_size(4));
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", tcp.clone()).unwrap();
    let addr = acceptor.local_addr();
    let server = acceptor.serve(&pando);

    // The flapping volunteer: a session transport whose link is severed by
    // the scripted Disconnect fault 80 ms in; the redial loop brings it
    // back well inside the 2 s grace window.
    let flappy_transport = ReconnectingTcpTransport::connect(
        addr,
        "flappy",
        tcp.clone(),
        ReconnectPolicy::local_test(),
    )
    .unwrap();
    let flappy = WorkerBuilder::new()
        .name("flappy")
        .heartbeats(true)
        .fault(FaultPlan::Disconnect {
            at: Duration::from_millis(80),
            down_for: Duration::from_millis(100),
        })
        .spawn(flappy_transport, slow_echo);
    let steady = WorkerBuilder::new().name("steady").heartbeats(true).spawn(
        ReconnectingTcpTransport::connect(addr, "steady", tcp, ReconnectPolicy::local_test())
            .unwrap(),
        slow_echo,
    );
    assert!(server.wait_for_volunteers(2, Duration::from_secs(10)), "both volunteers join");

    let tasks = 160u64;
    let output = pando
        .run(count(tasks).map_values(|v| Bytes::from(v.to_string().into_bytes())))
        .collect_values()
        .unwrap();

    // Exactly one output per input, in order: nothing lost to the flap and
    // nothing delivered twice (a duplicate would displace its successor).
    assert_eq!(output.len() as u64, tasks);
    for (i, payload) in output.iter().enumerate() {
        assert_eq!(payload.as_ref(), (i + 1).to_string().as_bytes(), "order survives the flap");
    }
    assert!(!flappy.join().crashed, "a resumed volunteer never reads as crashed");
    assert!(!steady.join().crashed);
    assert!(server.resumed() >= 1, "the flap must actually exercise the resume path");
    server.stop();
    server.join();
    pando.join_volunteers();
    let stats = pando.lender_stats().unwrap();
    assert_eq!(stats.results_emitted, tasks);
    assert_eq!(
        stats.substreams_crashed, 0,
        "a disconnect resumed within the grace window must not fire the crash re-lend path"
    );
}

#[test]
fn volunteer_away_past_grace_is_reclassified_as_crashed_and_relent() {
    // A short grace window and a redial policy whose first attempt lands
    // long after it: the disconnect must expire into the crash verdict.
    let tcp = TcpConfig { reconnect_grace: Duration::from_millis(250), ..TcpConfig::local_test() };
    let lazy_redial = ReconnectPolicy {
        base: Duration::from_secs(2),
        cap: Duration::from_secs(2),
        max_attempts: 3,
        seed: 7,
    };
    let pando = Pando::new(PandoConfig::local_test().with_batch_size(4));
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", tcp.clone()).unwrap();
    let addr = acceptor.local_addr();
    let server = acceptor.serve(&pando);

    let gone = WorkerBuilder::new()
        .name("gone")
        .heartbeats(true)
        .fault(FaultPlan::Disconnect {
            at: Duration::from_millis(60),
            down_for: Duration::from_secs(2),
        })
        .spawn(
            ReconnectingTcpTransport::connect(addr, "gone", tcp.clone(), lazy_redial).unwrap(),
            slow_echo,
        );
    let steady = WorkerBuilder::new().name("steady").heartbeats(true).spawn(
        ReconnectingTcpTransport::connect(addr, "steady", tcp, ReconnectPolicy::local_test())
            .unwrap(),
        slow_echo,
    );
    assert!(server.wait_for_volunteers(2, Duration::from_secs(10)), "both volunteers join");

    let tasks = 120u64;
    let output = pando
        .run(count(tasks).map_values(|v| Bytes::from(v.to_string().into_bytes())))
        .collect_values()
        .unwrap();
    assert_eq!(output.len() as u64, tasks);
    for (i, payload) in output.iter().enumerate() {
        assert_eq!(payload.as_ref(), (i + 1).to_string().as_bytes(), "order survives the crash");
    }
    assert!(!steady.join().crashed);
    drop(gone); // its redial budget plays out in the background
    server.stop();
    server.join();
    pando.join_volunteers();
    let stats = pando.lender_stats().unwrap();
    assert_eq!(stats.results_emitted, tasks);
    assert_eq!(
        stats.substreams_crashed, 1,
        "a volunteer away past reconnect_grace must fire the crash re-lend path"
    );
    assert!(stats.relends >= 1, "values held by the expired session are re-lent");
}

#[test]
fn drop_link_on_a_session_transport_redials_and_resumes() {
    // Transport-level check without a fleet: sever the link, watch the
    // redial loop resume the same session token.
    let tcp = TcpConfig::local_test();
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", tcp.clone()).unwrap();
    let addr = acceptor.local_addr();
    let acceptor = std::sync::Arc::new(acceptor);
    let accept_side = acceptor.clone();
    let pump = std::thread::spawn(move || {
        // Accept the initial join and then the resume; accept_session parks
        // resumes into the session table for us.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut joined = 0;
        let mut resumed = 0;
        let mut keep = Vec::new();
        while std::time::Instant::now() < deadline && (joined < 1 || resumed < 1) {
            match accept_side.accept_session() {
                Ok(Some(SessionEvent::Joined { transport, .. })) => {
                    joined += 1;
                    keep.push(transport);
                }
                Ok(Some(SessionEvent::Resumed { .. })) => resumed += 1,
                Ok(Some(SessionEvent::Plain { .. })) => {}
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(err) => panic!("handshake failed: {err}"),
            }
        }
        (joined, resumed, keep)
    });

    let client =
        ReconnectingTcpTransport::connect(addr, "yo-yo", tcp, ReconnectPolicy::local_test())
            .unwrap();
    let token_before = client.token();
    client.drop_link();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while client.is_reconnecting() {
        assert!(std::time::Instant::now() < deadline, "redial never completed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let (joined, resumed, keep) = pump.join().unwrap();
    assert_eq!(joined, 1);
    assert_eq!(resumed, 1, "the redial presents the old token and resumes");
    assert_eq!(client.token(), token_before, "a resume keeps the session token");
    // The master-side session is live again: a frame reaches the client.
    let task = Message::TaskBatch(vec![Record::new(0, Bytes::new())]);
    keep[0].send(task.clone()).unwrap();
    assert_eq!(common::recv_within(&client, Duration::from_secs(10)).unwrap(), task);
    client.close();
}

/// Payload size of the two tests below: a few such frames fill the default
/// 1 MiB redelivery bound long before eight of them are due an ack by count.
const LARGE: usize = 300 * 1024;

#[test]
fn large_results_are_acknowledged_before_they_fill_the_redelivery_buffer() {
    // Acks used to be counted in frames (one per eight) while the redelivery
    // buffer is bounded in bytes: the fourth 300 KiB result blocked on an ack
    // the master was not yet due to send, forever. The ack now rides on the
    // next task frame.
    let tcp = TcpConfig::local_test();
    let pando = Pando::new(PandoConfig::local_test().with_batch_size(1));
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", tcp.clone()).unwrap();
    let addr = acceptor.local_addr();
    let server = acceptor.serve(&pando);
    let worker = WorkerBuilder::new().name("bulky").heartbeats(true).spawn(
        ReconnectingTcpTransport::connect(addr, "bulky", tcp, ReconnectPolicy::local_test())
            .unwrap(),
        |payload: &Bytes| Ok(Bytes::from(vec![payload[0]; LARGE])),
    );
    assert!(server.wait_for_volunteers(1, Duration::from_secs(10)), "the volunteer joins");

    let tasks = 40u64;
    let (done, finished) = std::sync::mpsc::channel();
    let runner = pando.clone();
    std::thread::spawn(move || {
        let output =
            runner.run(count(tasks).map_values(|v| Bytes::from(vec![v as u8]))).collect_values();
        let _ = done.send(output);
    });
    let output = finished
        .recv_timeout(Duration::from_secs(60))
        .expect("the session wedged: a sender waits for an ack nobody is due to send")
        .unwrap();
    assert_eq!(output.len() as u64, tasks);
    for (i, payload) in output.iter().enumerate() {
        assert!(payload.len() == LARGE && payload[0] == (i + 1) as u8, "result {i} in order");
    }
    assert!(!worker.join().crashed);
    server.stop();
    server.join();
    pando.join_volunteers();
    assert_eq!(pando.lender_stats().unwrap().substreams_crashed, 0);
}

#[test]
fn large_tasks_to_a_silent_worker_are_acknowledged_by_bytes_not_by_count() {
    // The mirror case, on a bound that holds one 300 KiB task but not two: a
    // worker busy 50 ms per task sends nothing back for an ack to ride on,
    // so without the byte rule the master could send task n+1 only after
    // result n — one task in flight. With it the worker acknowledges each
    // task on its own as it arrives and the master keeps two in flight.
    let tcp = TcpConfig {
        write_buffer_max: 512 * 1024,
        heartbeat_interval: Duration::from_secs(2),
        failure_timeout: Duration::from_secs(30),
        ..TcpConfig::default()
    };
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", tcp.clone()).unwrap();
    let addr = acceptor.local_addr();
    let tasks = 10u64;
    let worker = std::thread::spawn(move || {
        let link =
            ReconnectingTcpTransport::connect(addr, "slow", tcp, ReconnectPolicy::local_test())
                .unwrap();
        for _ in 0..tasks {
            let task = common::recv_within(&link, Duration::from_secs(20)).expect("a task arrives");
            let Message::TaskBatch(records) = task else {
                panic!("expected a task, got {task:?}");
            };
            let [Record { seq, payload }] = &records[..] else {
                panic!("expected one record, got {}", records.len());
            };
            assert_eq!(payload.len(), LARGE);
            std::thread::sleep(Duration::from_millis(50));
            link.send(Message::ResultBatch(vec![Record::new(*seq, Bytes::new())])).unwrap();
        }
        link
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let master = loop {
        match acceptor.accept_session().expect("handshake") {
            Some(SessionEvent::Joined { transport, .. }) => break transport,
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
        assert!(std::time::Instant::now() < deadline, "the worker never joined");
    };

    let payload = Bytes::from(vec![0x5Au8; LARGE]);
    let (mut sent, mut done, mut overlapped) = (0u64, 0u64, 0u64);
    while done < tasks {
        assert!(std::time::Instant::now() < deadline, "{done} of {tasks} results after 30 s");
        while sent < tasks && sent - done < 2 {
            let task = Message::TaskBatch(vec![Record::new(sent, payload.clone())]);
            match master.send(task) {
                Ok(()) => {
                    sent += 1;
                    overlapped += u64::from(sent - done == 2);
                }
                Err(SendError::WouldBlock) => break,
                Err(err) => panic!("send failed: {err:?}"),
            }
        }
        match master.try_recv() {
            Ok(Message::ResultBatch(records)) if records.len() == 1 => {
                assert_eq!(records[0].seq, done, "results in order");
                done += 1;
            }
            Ok(other) => panic!("unexpected {other:?}"),
            Err(RecvError::Empty) => {
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(err) => panic!("link lost: {err}"),
        }
    }
    // Every task but the first went out while its predecessor was still
    // being worked on.
    assert_eq!(overlapped, tasks - 1, "tasks sent with one already in flight");
    worker.join().unwrap().close();
}
