//! A flash crowd on the join path, alone in its test binary so the
//! process-wide thread census counts only this fleet: 64 volunteers dialing
//! at the same instant, plain and resumable mixed, all handshaken by the one
//! `tcp-accept` thread, and each joined and ended once in the master's
//! trace.
//!
//! Linux only: the master's acceptor sits on epoll.

#![cfg(target_os = "linux")]

use bytes::Bytes;
use pando_core::config::PandoConfig;
use pando_core::master::Pando;
use pando_core::trace::{End, Event};
use pando_core::transport::tcp::session::{ReconnectPolicy, ReconnectingTcpTransport};
use pando_core::transport::tcp::{transport_thread_census, TcpAcceptor, TcpConfig, TcpTransport};
use pando_core::transport::Transport;
use pando_pull_stream::source::{from_iter, SourceExt};
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::time::Duration;

#[test]
fn sixty_four_volunteers_dialing_at_once_all_join_on_one_acceptor_thread() {
    const CROWD: usize = 64;
    let tcp = TcpConfig { failure_timeout: Duration::from_secs(30), ..TcpConfig::default() };
    let pando = Pando::new(PandoConfig::local_test());
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", tcp.clone()).unwrap();
    let addr = acceptor.local_addr();
    let server = acceptor.serve(&pando);

    let start = Arc::new(Barrier::new(CROWD));
    let dialers: Vec<_> = (0..CROWD)
        .map(|i| {
            let (start, tcp) = (start.clone(), tcp.clone());
            std::thread::spawn(move || -> Box<dyn Transport> {
                let name = format!("crowd-{i}");
                start.wait();
                if i % 2 == 0 {
                    Box::new(TcpTransport::connect(addr, &name, tcp).expect("plain join"))
                } else {
                    let policy = ReconnectPolicy::local_test();
                    Box::new(
                        ReconnectingTcpTransport::connect(addr, &name, tcp, policy)
                            .expect("session join"),
                    )
                }
            })
        })
        .collect();
    let links: Vec<_> = dialers.into_iter().map(|dialer| dialer.join().unwrap()).collect();

    assert!(server.wait_for_volunteers(CROWD, Duration::from_secs(30)), "the whole crowd joins");
    assert_eq!(server.accepted(), CROWD);
    assert_eq!((server.rejected(), server.resumed()), (0, 0));
    let census = transport_thread_census().expect("/proc thread census available on Linux");
    assert!(census <= tcp.poller_threads + 1, "{census} transport threads for {CROWD} joins");

    // An empty stream wires every session to the reactor; each ends when
    // its volunteer closes.
    assert!(pando.run(from_iter(Vec::<Bytes>::new())).collect_values().unwrap().is_empty());
    for link in &links {
        link.close();
    }
    assert_eq!(server.join(), CROWD);
    pando.join_volunteers();

    // The master's own trace of a real run: one join and one goodbye per
    // volunteer, the join first.
    let mut sessions: BTreeMap<String, Vec<Event>> = BTreeMap::new();
    for (_, event) in pando.trace().take() {
        let name = match &event {
            Event::Joined { name } | Event::Ended { name, .. } => name.clone(),
            other => panic!("a real run traces only the master's events: {other}"),
        };
        sessions.entry(name).or_default().push(event);
    }
    assert_eq!(sessions.len(), CROWD);
    for (name, events) in sessions {
        let joined = Event::Joined { name: name.clone() };
        assert_eq!(events, [joined, Event::Ended { name, how: End::Goodbye }]);
    }
}
