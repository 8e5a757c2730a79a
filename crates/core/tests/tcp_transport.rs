//! End-to-end coverage of the real-socket TCP transport: handshake accept
//! and rejection, frame codec round-trips over a live socket pair, oversized
//! and truncated frames, frames of every size sliced every way, hellos that
//! stall or arrive a byte at a time, crash detection feeding re-lend, and a
//! loopback 32-volunteer fleet driven by one master over localhost TCP.
//!
//! Linux only: the master's acceptor sits on epoll.

#![cfg(target_os = "linux")]

mod common;

use bytes::Bytes;
use pando_core::config::PandoConfig;
use pando_core::master::Pando;
use pando_core::protocol::Message;
use pando_core::transport::tcp::{
    SessionEvent, TcpAcceptor, TcpConfig, TcpTransport, TCP_PROTOCOL_VERSION,
};
use pando_core::transport::{Transport, TransportErrorKind};
use pando_core::worker::WorkerBuilder;
use pando_netsim::channel::RecvError;
use pando_netsim::codec::{Record, FRAME_HEADER_LEN, MAX_FRAME_LEN};
use pando_netsim::fault::FaultPlan;
use pando_pull_stream::source::{count, SourceExt};
use pando_pull_stream::StreamError;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Generous liveness windows: these tests assert explicit events, not
/// timeout-based suspicion, so the timeout must never fire spuriously on a
/// loaded CI machine.
fn lenient() -> TcpConfig {
    TcpConfig {
        heartbeat_interval: Duration::from_secs(2),
        failure_timeout: Duration::from_secs(30),
        ..TcpConfig::default()
    }
}

/// Accepts exactly one handshaken connection, polling the non-blocking
/// acceptor until it shows up.
fn accept_one(acceptor: &TcpAcceptor) -> (String, TcpTransport) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match acceptor.accept() {
            Ok(Some(pair)) => return pair,
            Ok(None) => {
                assert!(Instant::now() < deadline, "no connection within 10s");
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(err) => panic!("handshake failed: {err}"),
        }
    }
}

/// Like [`accept_one`] but expects the handshake to be rejected.
fn accept_expect_error(acceptor: &TcpAcceptor) -> pando_core::TransportError {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match acceptor.accept() {
            Ok(Some((name, _))) => panic!("handshake unexpectedly succeeded for {name}"),
            Ok(None) => {
                assert!(Instant::now() < deadline, "no connection within 10s");
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(err) => return err,
        }
    }
}

fn recv_one(transport: &dyn Transport) -> Message {
    common::recv_within(transport, Duration::from_secs(10)).expect("message arrives")
}

/// A task frame of one record.
fn task(seq: u64, payload: Bytes) -> Message {
    Message::TaskBatch(vec![Record::new(seq, payload)])
}

/// A result frame of one record.
fn result(seq: u64, payload: Bytes) -> Message {
    Message::ResultBatch(vec![Record::new(seq, payload)])
}

#[test]
fn handshake_exchanges_names_and_all_message_kinds_round_trip() {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", lenient()).unwrap();
    let addr = acceptor.local_addr();
    let client = std::thread::spawn(move || {
        TcpTransport::connect(addr, "tablet-7", lenient()).expect("connect")
    });
    let (name, master_side) = accept_one(&acceptor);
    let volunteer_side = client.join().unwrap();
    assert_eq!(name, "tablet-7", "the hello carries the volunteer's self-declared name");
    assert_eq!(master_side.peer_name(), "tablet-7");

    // Every protocol message survives a real socket round-trip, in order.
    let batch = vec![
        Record::new(4, Bytes::copy_from_slice(b"first")),
        Record::new(5, Bytes::copy_from_slice(b"")),
        Record::new(6, Bytes::from(vec![0xAB; 4096])),
    ];
    let outbound = vec![
        task(1, Bytes::copy_from_slice(b"value-1")),
        Message::TaskBatch(batch.clone()),
        Message::Heartbeat,
        Message::Goodbye,
    ];
    for message in &outbound {
        master_side.send(message.clone()).expect("send succeeds");
    }
    for expected in &outbound {
        assert_eq!(&recv_one(&volunteer_side), expected, "FIFO delivery over the socket");
    }

    let inbound = vec![
        result(1, Bytes::copy_from_slice(b"result-1")),
        Message::ResultBatch(batch),
        Message::TaskError { seq: 9, message: Bytes::copy_from_slice(b"boom") },
    ];
    for message in &inbound {
        volunteer_side.send(message.clone()).expect("send succeeds");
    }
    for expected in &inbound {
        assert_eq!(&recv_one(&master_side), expected);
    }

    // Clean close: the marker is distinguishable from a crash on both ends.
    volunteer_side.close();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match master_side.try_recv() {
            Err(RecvError::Closed) => break,
            Err(RecvError::Empty) => {
                assert!(Instant::now() < deadline, "close marker never arrived");
                std::thread::sleep(Duration::from_millis(2));
            }
            other => panic!("expected a clean close, got {other:?}"),
        }
    }
}

#[test]
fn wrong_magic_and_wrong_version_are_rejected() {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", lenient()).unwrap();
    let addr = acceptor.local_addr();

    // Not a Pando client at all.
    let bogus = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let _ = stream.read(&mut [0u8; 16]); // wait for the rejection
    });
    let err = accept_expect_error(&acceptor);
    assert!(err.to_string().contains("magic"), "got: {err}");
    bogus.join().unwrap();

    // Right magic, incompatible version byte.
    let future = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut hello = Vec::new();
        hello.extend_from_slice(b"PNDO");
        hello.push(TCP_PROTOCOL_VERSION + 1);
        hello.extend_from_slice(&2u16.to_be_bytes());
        hello.extend_from_slice(b"v2");
        stream.write_all(&hello).unwrap();
        let _ = stream.read(&mut [0u8; 16]);
    });
    let err = accept_expect_error(&acceptor);
    assert!(err.to_string().contains("version"), "got: {err}");
    future.join().unwrap();
}

#[test]
fn a_stalled_hello_does_not_delay_the_next_join_and_bad_hellos_are_counted() {
    let pando = Pando::new(PandoConfig::local_test());
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", lenient()).unwrap();
    let addr = acceptor.local_addr();
    let server = acceptor.serve(&pando);

    // Three bytes of a hello, then silence: at the 5 s handshake deadline
    // this used to hold up every join behind it.
    let mut staller = TcpStream::connect(addr).unwrap();
    staller.write_all(b"PND").unwrap();
    let started = Instant::now();
    let legit = TcpTransport::connect(addr, "legit", lenient()).expect("connect");
    let took = started.elapsed();
    assert!(took < Duration::from_millis(100), "join behind a stalled hello took {took:?}");
    assert!(server.wait_for_volunteers(1, Duration::from_secs(10)));
    assert_eq!(server.rejected(), 0, "a hello in progress is not a rejection");

    // The staller hangs up mid-hello and a stranger speaks HTTP: both are
    // counted, neither expired (that is the deadline's own counter).
    drop(staller);
    let mut stranger = TcpStream::connect(addr).unwrap();
    stranger.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let _ = stranger.read(&mut [0u8; 16]); // wait for the rejection
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.rejected() < 2 {
        assert!(Instant::now() < deadline, "rejections never counted: {}", server.rejected());
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(server.expired(), 0);
    drop(legit);
    assert_eq!(server.join(), 1);
    pando.join_volunteers();
}

#[test]
fn a_hello_dribbled_one_byte_per_write_handshakes_in_every_mode() {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", lenient()).unwrap();
    let addr = acceptor.local_addr();
    // (mode byte, name) — the resume presents a token nobody issued, which
    // downgrades to a fresh session.
    for (mode, name) in [(0u8, "plain-drip"), (1, "new-drip"), (2, "resume-drip")] {
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            let mut hello = b"PNDO".to_vec();
            hello.extend_from_slice(&[TCP_PROTOCOL_VERSION, mode]);
            if mode == 2 {
                hello.extend_from_slice(&[0xAB; 16]);
            }
            hello.extend_from_slice(&(name.len() as u16).to_be_bytes());
            hello.extend_from_slice(name.as_bytes());
            for byte in hello {
                stream.write_all(&[byte]).unwrap();
            }
            let mut reply = [0u8; 22];
            stream.read_exact(&mut reply).unwrap();
            reply
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        let event = loop {
            match acceptor.accept_session().expect("a dribbled hello is a valid hello") {
                Some(event) => break event,
                None => {
                    assert!(Instant::now() < deadline, "hello never completed");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        let reply = client.join().unwrap();
        assert_eq!(&reply[..4], b"PNDO");
        assert_eq!(reply[5], 0, "nothing to resume: every mode joins fresh");
        let token = u64::from_be_bytes(reply[6..14].try_into().unwrap());
        match event {
            SessionEvent::Plain { name: got, .. } => {
                assert_eq!((mode, got.as_str(), token), (0, name, 0));
            }
            SessionEvent::Joined { name: got, transport } => {
                assert_ne!(mode, 0);
                assert_eq!((got.as_str(), token), (name, transport.token()));
            }
            SessionEvent::Resumed { .. } => panic!("no session exists to resume"),
        }
    }
}

#[test]
fn server_handle_join_wakes_an_idle_acceptor_promptly() {
    let pando = Pando::new(PandoConfig::local_test());
    // Best of three: the wake is a byte on a socket, the rest is scheduling.
    let quickest = (0..3)
        .map(|_| {
            let server = TcpAcceptor::bind("127.0.0.1:0", lenient()).unwrap().serve(&pando);
            std::thread::sleep(Duration::from_millis(20)); // let it block in its wait
            let started = Instant::now();
            assert_eq!(server.join(), 0);
            started.elapsed()
        })
        .min()
        .unwrap();
    assert!(quickest < Duration::from_millis(20), "join of an idle acceptor took {quickest:?}");
}

/// Performs a valid client-side handshake (current version, plain mode) on a raw socket
/// so the test can then inject arbitrary bytes at the frame layer.
fn raw_handshake(addr: std::net::SocketAddr, name: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut hello = Vec::new();
    hello.extend_from_slice(b"PNDO");
    hello.push(TCP_PROTOCOL_VERSION);
    hello.push(0); // mode: plain (sessionless)
    hello.extend_from_slice(&(name.len() as u16).to_be_bytes());
    hello.extend_from_slice(name.as_bytes());
    stream.write_all(&hello).unwrap();
    // Reply: magic, version, status, token, received-count — 22 bytes.
    let mut reply = [0u8; 22];
    stream.read_exact(&mut reply).unwrap();
    assert_eq!(&reply[..4], b"PNDO");
    assert_eq!(reply[5], 0, "a plain hello is never a resume");
    stream
}

#[test]
fn oversized_incoming_frame_fails_the_link() {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", lenient()).unwrap();
    let addr = acceptor.local_addr();
    let client = std::thread::spawn(move || {
        let mut stream = raw_handshake(addr, "hostile");
        // A header announcing a frame over the wire limit, and not one
        // payload byte: the link must be poisoned from the header alone,
        // before anything is sized from it.
        let mut header = vec![6u8]; // a task batch
        header.extend_from_slice(&((MAX_FRAME_LEN + 1) as u32).to_be_bytes());
        stream.write_all(&header).unwrap();
        let _ = stream.read(&mut [0u8; 16]); // wait for the shutdown
    });
    let (_, master_side) = accept_one(&acceptor);
    let err = common::recv_within(&master_side, Duration::from_secs(10)).unwrap_err();
    assert_eq!(err, RecvError::PeerFailed, "an oversized frame is a protocol failure");
    assert_eq!(master_side.try_recv().unwrap_err(), RecvError::PeerFailed, "the verdict stays");
    let failure = master_side.failure().expect("the link records why it failed");
    assert_eq!(failure.kind(), TransportErrorKind::Protocol, "{failure}");
    client.join().unwrap();
}

#[test]
fn a_frame_with_a_retired_tag_fails_the_link() {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", lenient()).unwrap();
    let addr = acceptor.local_addr();
    let client = std::thread::spawn(move || {
        let mut stream = raw_handshake(addr, "stale");
        // A well-formed frame of the retired one-record task shape (tag 1,
        // `u64` seq, payload): its header passes, its decode must not.
        let mut frame = vec![1u8];
        frame.extend_from_slice(&11u32.to_be_bytes());
        frame.extend_from_slice(&7u64.to_be_bytes());
        frame.extend_from_slice(b"abc");
        stream.write_all(&frame).unwrap();
        let _ = stream.read(&mut [0u8; 16]); // wait for the shutdown
    });
    let (_, master_side) = accept_one(&acceptor);
    let err = common::recv_within(&master_side, Duration::from_secs(10)).unwrap_err();
    assert_eq!(err, RecvError::PeerFailed, "a retired tag is a protocol failure");
    let failure = master_side.failure().expect("the link records why it failed");
    assert_eq!(failure.kind(), TransportErrorKind::Protocol, "{failure}");
    assert!(failure.message().contains("tag 1"), "{failure}");
    client.join().unwrap();
}

#[test]
fn mixed_frame_sizes_reassemble_from_any_slicing_on_both_backends() {
    let small = Bytes::copy_from_slice(&[7u8; 8]);
    let bulk = Bytes::from((0..32 * 1024).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let huge = Bytes::from((0..1024 * 1024).map(|i| (i % 241) as u8).collect::<Vec<u8>>());
    let messages = vec![
        task(1, small.clone()),
        Message::TaskBatch(vec![Record::new(2, bulk.clone()), Record::new(3, bulk.clone())]),
        Message::Heartbeat,
        result(4, huge.clone()),
        task(5, small.clone()),
        Message::ResultBatch(vec![Record::new(6, small.clone()), Record::new(7, bulk)]),
        result(8, huge),
        Message::Ack { count: 9 },
        task(10, small),
    ];
    let stream: Vec<u8> =
        messages.iter().flat_map(|message| message.encode().unwrap().to_vec()).collect();
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", lenient()).unwrap();
    let addr = acceptor.local_addr();
    for slice in [1, 7, 16 * 1024 + 1] {
        let bytes = stream.clone();
        let client = std::thread::spawn(move || {
            let mut socket = raw_handshake(addr, "slicer");
            for part in bytes.chunks(slice) {
                socket.write_all(part).unwrap();
            }
            socket
        });
        let (_, master_side) = accept_one(&acceptor);
        for (i, expected) in messages.iter().enumerate() {
            let got = recv_one(&master_side);
            assert!(got == *expected, "{slice} B slices: frame {i} altered");
        }
        assert_eq!(master_side.try_recv().unwrap_err(), RecvError::Empty, "nothing extra");
        assert!(master_side.failure().is_none());
        drop(client.join().unwrap());
    }
}

#[test]
fn a_slow_reader_gets_every_piece_of_200_mixed_frames_in_order_on_both_backends() {
    use pando_netsim::channel::SendError;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    // Frames of one piece (all head), of two (head, long payload) and of
    // many (a batch alternating long and short records), sent as pieces
    // against a socket that takes them a few kilobytes at a time: the
    // partial-write cursor stops inside heads and payloads alike and has to
    // resume there.
    let bound = 256 * 1024;
    let bulk = Bytes::from((0..32 * 1024).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
    let big = Bytes::from((0..200 * 1024).map(|i| (i % 241) as u8).collect::<Vec<u8>>());
    let small = Bytes::copy_from_slice(&[7u8; 8]);
    let messages: Vec<Message> = (0..200u64)
        .map(|seq| match seq % 5 {
            0 => task(seq, small.clone()),
            1 => result(seq, bulk.slice(..2048)),
            2 => task(seq, bulk.clone()),
            3 => Message::ResultBatch(vec![
                Record::new(seq, bulk.clone()),
                Record::new(seq, small.clone()),
                Record::new(seq, bulk.slice(1..)),
                Record::new(seq, bulk.clone()),
            ]),
            _ => result(seq, big.clone()),
        })
        .collect();
    let stream: Vec<u8> =
        messages.iter().flat_map(|message| message.encode().unwrap().to_vec()).collect();
    let tcp = TcpConfig { write_buffer_max: bound, ..lenient() };
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", tcp).unwrap();
    let addr = acceptor.local_addr();
    // The reader holds off until the sender has met backpressure, so the
    // kernel's buffers are full when the first partial writes resume.
    let pushed_back = Arc::new(AtomicBool::new(false));
    let (go, total) = (pushed_back.clone(), stream.len());
    let reader = std::thread::spawn(move || {
        let mut socket = raw_handshake(addr, "sipper");
        while !go.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut got = Vec::with_capacity(total);
        let mut sip = vec![0u8; 48 * 1024];
        while got.len() < total {
            let n = socket.read(&mut sip).expect("the link stays up");
            assert!(n > 0, "EOF after {} of {total} bytes", got.len());
            got.extend_from_slice(&sip[..n]);
            std::thread::sleep(Duration::from_micros(300));
        }
        (got, socket)
    });
    let (_, sender) = accept_one(&acceptor);
    let deadline = Instant::now() + Duration::from_secs(60);
    for message in &messages {
        loop {
            let sent = sender.send(message.clone());
            let queued = sender.stats().queued_bytes;
            assert!(queued <= bound, "{queued} B queued, bound {bound}");
            match sent {
                Ok(()) => break,
                Err(SendError::WouldBlock) => {
                    pushed_back.store(true, Ordering::SeqCst);
                    assert!(Instant::now() < deadline, "never drained");
                    std::thread::sleep(Duration::from_micros(500));
                }
                Err(err) => panic!("send failed: {err:?}"),
            }
        }
    }
    assert!(pushed_back.load(Ordering::SeqCst), "13 MB never filled the socket's buffers");
    let (got, socket) = reader.join().unwrap();
    assert!(got == stream, "the byte stream arrived altered");
    while sender.stats().frames_written < 200 {
        assert!(Instant::now() < deadline, "{:?}", sender.stats());
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = sender.stats();
    assert_eq!((stats.frames_written, stats.queued_bytes), (200, 0), "frames, not pieces");
    assert_eq!(stats.bytes_written, stream.len() as u64);
    drop(socket);
}

#[test]
fn mid_frame_disconnect_is_detected_as_a_crash() {
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", lenient()).unwrap();
    let addr = acceptor.local_addr();
    let client = std::thread::spawn(move || {
        let mut stream = raw_handshake(addr, "flaky");
        // A valid header promising 100 payload bytes, then only 10 of them,
        // then the socket dies: EOF mid-frame, no close marker.
        let mut partial = vec![1u8];
        partial.extend_from_slice(&100u32.to_be_bytes());
        partial.extend_from_slice(&[0u8; 10]);
        stream.write_all(&partial).unwrap();
        drop(stream);
    });
    let (_, master_side) = accept_one(&acceptor);
    client.join().unwrap();
    let err = common::recv_within(&master_side, Duration::from_secs(10)).unwrap_err();
    assert_eq!(err, RecvError::PeerFailed, "mid-frame EOF must read as a crash, never a close");
    assert_eq!(master_side.try_recv().unwrap_err(), RecvError::PeerFailed);
    assert!(link_is_terminal(&master_side));
}

/// A failed link reports no future readiness deadline.
fn link_is_terminal(transport: &dyn Transport) -> bool {
    transport.next_ready_at().is_none()
}

#[test]
fn tcp_volunteer_crash_triggers_re_lend() {
    let pando = Pando::new(PandoConfig::local_test().with_batch_size(4));
    // Crash detection in this test rides the EOF fast path, so the lenient
    // windows are safe and keep loaded CI machines from false suspicions.
    let tcp = lenient();
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", tcp.clone()).unwrap();
    let addr = acceptor.local_addr();
    let server = acceptor.serve(&pando);

    let echo = |payload: &Bytes| -> Result<Bytes, StreamError> { Ok(payload.clone()) };
    let crashing = WorkerBuilder::new()
        .name("doomed")
        .fault(FaultPlan::AfterTasks(3))
        .heartbeats(true)
        .spawn(TcpTransport::connect(addr, "doomed", tcp.clone()).unwrap(), echo);
    let reliable = WorkerBuilder::new()
        .name("steady")
        .heartbeats(true)
        .spawn(TcpTransport::connect(addr, "steady", tcp).unwrap(), echo);

    let output = pando
        .run(count(60).map_values(|v| Bytes::from(v.to_string().into_bytes())))
        .collect_values()
        .unwrap();
    assert_eq!(output.len(), 60);
    for (i, payload) in output.iter().enumerate() {
        assert_eq!(payload.as_ref(), (i + 1).to_string().as_bytes(), "order survives the crash");
    }
    assert!(crashing.join().crashed);
    assert!(!reliable.join().crashed);
    server.join();
    pando.join_volunteers();
    let stats = pando.lender_stats().unwrap();
    assert_eq!(stats.results_emitted, 60);
    assert_eq!(stats.substreams_crashed, 1, "the TCP crash reaches the lender as a crash");
    assert!(stats.relends >= 1, "values held by the crashed volunteer are re-lent");
}

#[test]
fn loopback_fleet_of_32_tcp_volunteers_completes_in_order() {
    let tasks = 480u64;
    let pando = Pando::new(PandoConfig::local_test().with_batch_size(4).with_reactor_threads(4));
    let tcp = lenient();
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", tcp.clone()).unwrap();
    let addr = acceptor.local_addr();
    let server = acceptor.serve(&pando);

    // 32 real socket connections served by an 8-thread worker pool: the
    // volunteer-side mirror of a real multi-process fleet, in one test.
    let transports: Vec<TcpTransport> = (0..32)
        .map(|i| TcpTransport::connect(addr, &format!("fleet-{i}"), tcp.clone()).unwrap())
        .collect();
    let pool = WorkerBuilder::new().heartbeats(true).pool_threads(8).spawn_pool(
        transports,
        |payload: &Bytes| {
            let v: u64 = std::str::from_utf8(payload)
                .ok()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| StreamError::new("not a number"))?;
            Ok(Bytes::from((v * 3 + 1).to_string().into_bytes()))
        },
    );

    let output = pando
        .run(count(tasks).map_values(|v| Bytes::from(v.to_string().into_bytes())))
        .collect_values()
        .unwrap();
    assert_eq!(output.len() as u64, tasks);
    for (i, payload) in output.iter().enumerate() {
        let expected = ((i as u64 + 1) * 3 + 1).to_string();
        assert_eq!(payload.as_ref(), expected.as_bytes(), "result {i} complete and in order");
    }

    let reports = pool.join();
    server.join();
    pando.join_volunteers();
    assert_eq!(
        reports.iter().map(|r| r.processed).sum::<u64>(),
        tasks,
        "every task processed exactly once across the TCP fleet"
    );
    let stats = pando.lender_stats().unwrap();
    assert_eq!(stats.results_emitted, tasks);
    assert_eq!(stats.substreams_crashed, 0, "a healthy fleet ends cleanly");
}

#[test]
fn slow_reader_bounds_the_write_queue_and_send_resumes_after_drain() {
    use pando_netsim::channel::SendError;

    // A tight byte bound so the test fills it quickly once the kernel socket
    // buffers are saturated by a peer that stops reading.
    let bound = 64 * 1024usize;
    let config = TcpConfig { write_buffer_max: bound, ..lenient() };
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", config.clone()).unwrap();
    let addr = acceptor.local_addr();
    let stalled = std::thread::Builder::new()
        .name("stalled-reader".into())
        .spawn(move || raw_handshake(addr, "molasses"))
        .unwrap();
    let (_, master_side) = accept_one(&acceptor);
    let stream = stalled.join().unwrap();

    // Push 32 KiB frames at a peer that never reads. The kernel buffers
    // absorb the first burst; after that the transport's own queue fills to
    // its byte bound and `send` must push back instead of buffering forever.
    let payload = Bytes::from(vec![0x5A_u8; 32 * 1024]);
    let frame = task(1, payload.clone());
    let mut sent = 0u64;
    let deadline = Instant::now() + Duration::from_secs(30);
    let blocked = loop {
        match master_side.send(frame.clone()) {
            Ok(()) => {
                sent += 1;
                let queued = master_side.stats().queued_bytes;
                assert!(
                    queued <= bound,
                    "write queue exceeded its bound: {queued} > {bound} after {sent} frames"
                );
            }
            Err(SendError::WouldBlock) => break true,
            Err(other) => panic!("expected backpressure, got {other:?}"),
        }
        if Instant::now() > deadline {
            break false;
        }
    };
    assert!(blocked, "a stalled reader must surface WouldBlock, not unbounded buffering");
    assert!(sent > 0, "some frames must be accepted before the queue fills");
    assert_eq!(
        master_side.try_recv().unwrap_err(),
        RecvError::Empty,
        "backpressure is transient: the peer is slow, not dead"
    );

    // The reader wakes up and drains the socket: the queue empties and the
    // same link accepts new frames again — WouldBlock was not terminal.
    let drainer = std::thread::spawn(move || {
        let mut stream = stream;
        let mut sink = [0u8; 16 * 1024];
        stream.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        let idle_since = Instant::now() + Duration::from_secs(30);
        loop {
            match stream.read(&mut sink) {
                Ok(0) => break,
                Ok(_) => {}
                Err(_) if Instant::now() > idle_since => break,
                Err(_) => {}
            }
        }
    });
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        match master_side.send(frame.clone()) {
            Ok(()) => break,
            Err(SendError::WouldBlock) => {
                assert!(Instant::now() < deadline, "send never resumed after the reader drained");
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(other) => panic!("link died while draining: {other:?}"),
        }
    }
    master_side.crash(); // tear the link down so the drainer sees EOF
    drainer.join().unwrap();
}

#[test]
fn stalled_volunteer_is_crashed_by_timeout_and_its_tasks_re_lent() {
    // Short liveness windows: the stalled peer sends nothing after the
    // handshake, so the failure timeout is the only thing that can end it.
    let tcp = TcpConfig {
        heartbeat_interval: Duration::from_millis(100),
        failure_timeout: Duration::from_secs(1),
        ..TcpConfig::default()
    };
    let pando = Pando::new(PandoConfig::local_test().with_batch_size(4));
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", tcp.clone()).unwrap();
    let addr = acceptor.local_addr();
    let server = acceptor.serve(&pando);

    // One healthy worker and one volunteer that handshakes, then goes silent
    // and never reads: tasks lent to it can only complete through re-lend.
    let steady = WorkerBuilder::new().name("steady").heartbeats(true).spawn(
        TcpTransport::connect(addr, "steady", tcp).unwrap(),
        |payload: &Bytes| -> Result<Bytes, StreamError> { Ok(payload.clone()) },
    );
    let stalled = raw_handshake(addr, "wedged");
    assert!(server.wait_for_volunteers(2, Duration::from_secs(10)), "both volunteers join");

    let output = pando
        .run(count(200).map_values(|v| Bytes::from(v.to_string().into_bytes())))
        .collect_values()
        .unwrap();
    assert_eq!(output.len(), 200);
    for (i, payload) in output.iter().enumerate() {
        assert_eq!(payload.as_ref(), (i + 1).to_string().as_bytes(), "order survives the stall");
    }
    drop(stalled);
    assert!(!steady.join().crashed);
    server.stop();
    server.join();
    pando.join_volunteers();
    let stats = pando.lender_stats().unwrap();
    assert_eq!(stats.results_emitted, 200);
    assert_eq!(stats.substreams_crashed, 1, "silence past the failure timeout reads as a crash");
    assert!(stats.relends >= 1, "values held by the wedged volunteer are re-lent");
}

#[test]
fn idle_link_with_keepalive_survives_past_three_heartbeat_intervals() {
    // Liveness split: sub-second application heartbeats, a failure timeout
    // that the test's idle window must never reach, and kernel keepalive on
    // the socket underneath (satellite check: actually enabled, not just
    // configured).
    let tcp = TcpConfig {
        heartbeat_interval: Duration::from_millis(100),
        failure_timeout: Duration::from_secs(30),
        ..TcpConfig::default()
    };
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", tcp.clone()).unwrap();
    let addr = acceptor.local_addr();
    let tcp_client = tcp.clone();
    let client = std::thread::spawn(move || {
        TcpTransport::connect(addr, "dormant", tcp_client).expect("connect")
    });
    let (_, master_side) = accept_one(&acceptor);
    let volunteer_side = client.join().unwrap();
    assert_eq!(master_side.keepalive_enabled(), Some(true), "keepalive set on accept side");
    assert_eq!(volunteer_side.keepalive_enabled(), Some(true), "keepalive set on connect side");

    // No worker, no heartbeats, no traffic: an idle-but-open link past three
    // heartbeat intervals must not be suspected — only the failure timeout
    // (or the kernel's keepalive probes, on real dead links) may end it.
    std::thread::sleep(tcp.heartbeat_interval * 4);
    assert_eq!(master_side.try_recv().unwrap_err(), RecvError::Empty, "idle is not dead");
    assert_eq!(volunteer_side.try_recv().unwrap_err(), RecvError::Empty, "idle is not dead");

    // And the link still works after the idle spell.
    volunteer_side.send(Message::Heartbeat).unwrap();
    assert_eq!(recv_one(&master_side), Message::Heartbeat);
}

#[test]
fn frame_header_constant_matches_the_wire() {
    // The TCP reader parses headers by hand; pin the layout it assumes.
    let message = task(42, Bytes::copy_from_slice(b"xyz"));
    let frame = message.encode().unwrap();
    let len = u32::from_be_bytes([frame[1], frame[2], frame[3], frame[4]]) as usize;
    assert_eq!(frame.len(), FRAME_HEADER_LEN + len);
    assert_ne!(frame[0], 0, "protocol tags must never collide with the close marker");
}
