//! The master's join path: a readiness-driven handshake state machine.
//!
//! The listener, every accepted-but-not-yet-handshaken socket and a wake
//! socket sit in one acceptor-owned epoll set, so any number of joins and
//! resumes progress concurrently on the one `tcp-accept` thread:
//!
//! ```text
//!  listener readable ─▶ accepted ─▶ reading hello ─▶ replied ─┬▶ live     (Plain / Joined)
//!                          │            │  ▲                  └▶ resumed  (reattach + replay)
//!                          │            └──┘ partial hello: wait for EPOLLIN
//!                          └── bad hello, EOF, or deadline passed ─▶ dropped, counted
//! ```
//!
//! A connection costs one map entry until its own deadline (5 s after the
//! accept), never another volunteer's join latency. The reply is written by
//! this thread *before* the socket goes to the poller or to
//! `SessionTransport::reattach`, so a resume's replayed frames are the
//! first bytes the client sees after it. [`TcpAcceptor::accept`],
//! [`TcpAcceptor::accept_session`] and [`TcpAcceptor::serve`] are all turns
//! of this one machine; `docs/ARCHITECTURE.md` ("Joining") has the rest.
//!
//! Linux only, like the poller: built on the `transport::sys` epoll shim.

use super::handshake::{
    encode_server_reply, parse_client_hello, ClientHello, HelloMode, HelloParse, HANDSHAKE_TIMEOUT,
};
use super::session::SessionTransport;
use super::{TcpConfig, TcpTransport};
use crate::master::Pando;
use crate::transport::{sys, Transport, TransportError, TransportErrorKind};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread;
use std::time::{Duration, Instant};

/// Epoll token of the listening socket.
const LISTENER: u64 = 0;
/// Epoll token of the wake socket's read end.
const WAKE: u64 = 1;
/// First token handed to an accepted connection.
const FIRST_CONN: u64 = 2;
/// Connections accepted per listener event; level-triggered epoll re-reports
/// the rest of the backlog, so handshakes in progress get their turn during
/// a flash crowd.
const MAX_ACCEPTS_PER_EVENT: usize = 64;
/// How long the listener stays out of the epoll set after `accept` failed
/// with something that does not go away by itself (`EMFILE`, `ENFILE`,
/// `ENOBUFS`): the level-triggered listener would otherwise re-report at
/// once and spin the thread.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);
/// A session table smaller than this is never swept.
const MIN_PRUNE_LEN: usize = 64;

/// One handshaken inbound connection, classified by its hello mode.
pub enum SessionEvent {
    /// A sessionless (mode `PLAIN`) volunteer: the raw link, exactly as v1
    /// handed it out. A dropped socket is a crash.
    Plain {
        /// The volunteer's self-declared name.
        name: String,
        /// The live link.
        transport: TcpTransport,
    },
    /// A new resumable session was issued (mode `NEW`, or a resume whose
    /// token had expired). Register the transport as a fresh volunteer; it
    /// survives transient disconnects within
    /// [`TcpConfig::reconnect_grace`].
    Joined {
        /// The volunteer's self-declared name.
        name: String,
        /// The session-wrapped link.
        transport: Arc<SessionTransport>,
    },
    /// A parked session was resumed (mode `RESUME` with a live token): the
    /// existing [`SessionTransport`] swallowed the new socket and replayed
    /// unacked frames. There is nothing to register — the volunteer never
    /// left the master's books.
    Resumed {
        /// The volunteer's self-declared name.
        name: String,
    },
}

/// An accepted socket whose hello has not fully arrived.
struct Pending {
    stream: TcpStream,
    /// Hello bytes received so far; never read past the hello's end.
    hello: Vec<u8>,
    /// Dropped, and counted as expired, if the hello is not whole by then.
    deadline: Instant,
}

/// Parked and live resumable sessions by token. Weak: a session the master
/// dropped (driver finished, crash re-lend fired) cannot be resumed — the
/// returning client is downgraded to a fresh join. Dead entries are swept
/// when the table has doubled since the last sweep, so a flash crowd of
/// joins costs amortised O(1) each.
struct SessionTable {
    by_token: HashMap<u64, Weak<SessionTransport>>,
    next_token: u64,
    prune_at: usize,
}

impl SessionTable {
    fn new() -> Self {
        Self { by_token: HashMap::new(), next_token: 1, prune_at: MIN_PRUNE_LEN }
    }

    fn insert(&mut self, token: u64, session: Weak<SessionTransport>) {
        if self.by_token.len() >= self.prune_at {
            self.by_token.retain(|_, weak| weak.strong_count() > 0);
            self.prune_at = (self.by_token.len() * 2).max(MIN_PRUNE_LEN);
        }
        self.by_token.insert(token, session);
    }

    /// The live session behind `token`; a dead entry found is dropped.
    fn lookup(&mut self, token: u64) -> Option<Arc<SessionTransport>> {
        let session = self.by_token.get(&token)?.upgrade();
        if session.is_none() {
            self.by_token.remove(&token);
        }
        session
    }
}

/// Everything a turn of the machine mutates.
struct Machine {
    /// Keyed by epoll token. Tokens and deadlines both grow with accept
    /// order, so the first entry always holds the earliest deadline.
    pending: BTreeMap<u64, Pending>,
    next_conn: u64,
    /// Finished handshakes (either way) not yet returned by a turn.
    done: VecDeque<Result<SessionEvent, TransportError>>,
    /// The listener is out of the epoll set until this instant.
    accepts_paused_until: Option<Instant>,
    sessions: SessionTable,
}

/// The join path's counters, behind [`TcpServerHandle`]'s getters.
#[derive(Default)]
struct Tally {
    /// Volunteers `serve` registered with the master.
    accepted: usize,
    resumed: usize,
    /// Connections the machine turned away, `expired` of them at the deadline.
    rejected: usize,
    expired: usize,
}

/// What the serve thread and its [`TcpServerHandle`] share.
struct ServerShared {
    /// Write end of the wake socket; one byte interrupts a blocking turn.
    wake: UnixStream,
    stop: AtomicBool,
    tally: Mutex<Tally>,
    /// Signalled on every `tally.accepted` change.
    joined: Condvar,
}

/// Listening socket that accepts volunteer connections and performs the
/// handshake; see the [module docs](self) for the state machine.
pub struct TcpAcceptor {
    listener: TcpListener,
    config: TcpConfig,
    epoll: sys::Epoll,
    /// Read end of the wake socket, registered under [`WAKE`].
    wake: UnixStream,
    handshake_timeout: Duration,
    machine: Mutex<Machine>,
    shared: Arc<ServerShared>,
}

impl TcpAcceptor {
    /// Binds a listener on `addr` (use port 0 for an OS-assigned port).
    ///
    /// # Errors
    ///
    /// [`TransportErrorKind::Io`] if the address cannot be bound.
    pub fn bind(addr: impl ToSocketAddrs, config: TcpConfig) -> Result<Self, TransportError> {
        Self::bind_with_deadline(addr, config, HANDSHAKE_TIMEOUT)
    }

    /// [`bind`](Self::bind) with a per-connection handshake deadline other
    /// than [`HANDSHAKE_TIMEOUT`], so tests need not wait five seconds.
    pub(crate) fn bind_with_deadline(
        addr: impl ToSocketAddrs,
        config: TcpConfig,
        handshake_timeout: Duration,
    ) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let (wake, wake_tx) = UnixStream::pair()?;
        wake.set_nonblocking(true)?;
        wake_tx.set_nonblocking(true)?;
        let epoll = sys::Epoll::new()?;
        epoll.add(listener.as_raw_fd(), sys::EPOLLIN, LISTENER)?;
        epoll.add(wake.as_raw_fd(), sys::EPOLLIN, WAKE)?;
        Ok(Self {
            listener,
            config,
            epoll,
            wake,
            handshake_timeout,
            machine: Mutex::new(Machine {
                pending: BTreeMap::new(),
                next_conn: FIRST_CONN,
                done: VecDeque::new(),
                accepts_paused_until: None,
                sessions: SessionTable::new(),
            }),
            shared: Arc::new(ServerShared {
                wake: wake_tx,
                stop: AtomicBool::new(false),
                tally: Mutex::default(),
                joined: Condvar::new(),
            }),
        })
    }

    /// The bound address, including the resolved port.
    ///
    /// # Panics
    ///
    /// Panics if the socket has no local address (never on a bound socket).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has a local address")
    }

    /// Returns one handshaken *plain-mode* connection if a non-blocking turn
    /// of the machine has one finished, `Ok(None)` otherwise. A session-mode
    /// client (hello mode `NEW`/`RESUME`) is rejected through this API — use
    /// [`TcpAcceptor::accept_session`] (or [`TcpAcceptor::serve`], which
    /// routes all three modes) when resumable volunteers are expected.
    ///
    /// # Errors
    ///
    /// Handshake failures ([`TransportErrorKind::Protocol`]), handshakes
    /// dropped at their deadline ([`TransportErrorKind::PeerFailed`]) and
    /// accept errors ([`TransportErrorKind::Io`]); all leave the acceptor
    /// usable.
    pub fn accept(&self) -> Result<Option<(String, TcpTransport)>, TransportError> {
        match self.accept_session()? {
            None => Ok(None),
            Some(SessionEvent::Plain { name, transport }) => Ok(Some((name, transport))),
            Some(SessionEvent::Joined { name, .. }) | Some(SessionEvent::Resumed { name }) => {
                Err(TransportError::new(
                    TransportErrorKind::Protocol,
                    format!("session-mode client {name} on the plain accept API"),
                ))
            }
        }
    }

    /// Runs one non-blocking turn of the machine — accept what is waiting,
    /// advance every handshake that has bytes, drop the overdue — and returns
    /// at most one finished connection classified by hello mode: a plain
    /// link, a freshly-issued session, or a resume absorbed by an existing
    /// parked [`SessionTransport`]. `Ok(None)` when none has finished yet;
    /// further finished ones are returned by the following calls.
    ///
    /// # Errors
    ///
    /// As for [`TcpAcceptor::accept`].
    pub fn accept_session(&self) -> Result<Option<SessionEvent>, TransportError> {
        self.turn(false).transpose()
    }

    /// One turn: returns a finished handshake if one is queued, otherwise
    /// waits for readiness (not at all unless `blocking`; else until an
    /// event, a wake byte or the nearest deadline), services it and returns
    /// the first handshake that finished, if any.
    fn turn(&self, blocking: bool) -> Option<Result<SessionEvent, TransportError>> {
        let mut machine = self.machine.lock();
        if let Some(done) = machine.done.pop_front() {
            return Some(done);
        }
        let now = Instant::now();
        if machine.accepts_paused_until.is_some_and(|until| now >= until) {
            let rearmed = self.epoll.add(self.listener.as_raw_fd(), sys::EPOLLIN, LISTENER);
            machine.accepts_paused_until = rearmed.err().map(|_| now + ACCEPT_BACKOFF);
        }
        let timeout = if blocking {
            let nearest = machine.pending.values().next().map(|pending| pending.deadline);
            let wake_at = nearest.into_iter().chain(machine.accepts_paused_until).min();
            wake_at.map(|at| at.saturating_duration_since(now))
        } else {
            Some(Duration::ZERO)
        };
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 64];
        let ready = match self.epoll.wait(&mut events, timeout) {
            Ok(ready) => ready,
            Err(err) => return Some(Err(err.into())),
        };
        for event in &events[..ready] {
            let token = event.data;
            match token {
                LISTENER => self.accept_ready(&mut machine),
                WAKE => while matches!((&self.wake).read(&mut [0u8; 64]), Ok(n) if n > 0) {},
                conn => {
                    if let Some(pending) = machine.pending.remove(&conn) {
                        self.advance(&mut machine, conn, pending, true);
                    }
                }
            }
        }
        self.expire(&mut machine, Instant::now());
        machine.done.pop_front()
    }

    /// Drains the accept backlog, giving each new socket its first read at
    /// once: a client's hello is usually in the buffer before `accept`
    /// returns it, so the common join never enters the epoll set at all.
    fn accept_ready(&self, machine: &mut Machine) {
        for _ in 0..MAX_ACCEPTS_PER_EVENT {
            match self.listener.accept() {
                Ok((stream, _addr)) => {
                    let setup =
                        stream.set_nonblocking(true).and_then(|()| stream.set_nodelay(true));
                    if let Err(err) = setup {
                        self.finish(machine, Err(err.into()));
                        continue;
                    }
                    let conn = machine.next_conn;
                    machine.next_conn += 1;
                    let deadline = Instant::now() + self.handshake_timeout;
                    let pending = Pending { stream, hello: Vec::new(), deadline };
                    self.advance(machine, conn, pending, false);
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return,
                Err(err) => {
                    // A client that gave up while queued is gone and the
                    // next one unaffected; anything else persists.
                    let persists = err.kind() != io::ErrorKind::ConnectionAborted;
                    self.finish(machine, Err(err.into()));
                    if persists {
                        self.pause_accepts(machine);
                        return;
                    }
                }
            }
        }
    }

    /// Queues a finished handshake for a turn to return, counting the failed.
    fn finish(&self, machine: &mut Machine, outcome: Result<SessionEvent, TransportError>) {
        if outcome.is_err() {
            self.shared.tally.lock().rejected += 1;
        }
        machine.done.push_back(outcome);
    }

    /// Takes the listener out of the epoll set for [`ACCEPT_BACKOFF`].
    fn pause_accepts(&self, machine: &mut Machine) {
        let _ = self.epoll.delete(self.listener.as_raw_fd());
        machine.accepts_paused_until = Some(Instant::now() + ACCEPT_BACKOFF);
    }

    /// Reads what the socket has of the hello and moves the connection on:
    /// back into `pending` (entering the epoll set unless `registered`
    /// already) while bytes are missing, into `done` once the handshake
    /// finished or failed.
    fn advance(&self, machine: &mut Machine, conn: u64, mut pending: Pending, registered: bool) {
        let fd = pending.stream.as_raw_fd();
        let outcome = match read_hello(&mut pending) {
            Ok(None) => {
                let armed =
                    registered || self.epoll.add(fd, sys::EPOLLIN | sys::EPOLLRDHUP, conn).is_ok();
                if armed {
                    machine.pending.insert(conn, pending);
                    return;
                }
                Err(TransportError::new(TransportErrorKind::Io, "epoll refused the new socket"))
            }
            Ok(Some(hello)) => Ok(hello),
            Err(err) => Err(err),
        };
        if registered {
            // Out of this set before the poller's set takes the socket over
            // (or the drop closes it).
            let _ = self.epoll.delete(fd);
        }
        let finished = outcome.and_then(|hello| self.complete(machine, pending.stream, hello));
        self.finish(machine, finished);
    }

    /// Answers a validated hello and builds the matching transport. The
    /// socket is fresh and its send buffer empty, so the 22-byte reply always
    /// fits; a kernel that says otherwise fails the handshake rather than
    /// parking this thread.
    fn complete(
        &self,
        machine: &mut Machine,
        stream: TcpStream,
        hello: ClientHello,
    ) -> Result<SessionEvent, TransportError> {
        let ClientHello { mode, name } = hello;
        let link = |stream| TcpTransport::from_stream(stream, name.clone(), self.config.clone());
        let reply = |resumed, token, recvd| {
            (&stream).write_all(&encode_server_reply(resumed, token, recvd))
        };
        if let HelloMode::Resume { token, recvd } = mode {
            let parked = machine.sessions.lookup(token);
            if let Some(session) = parked.filter(|s| s.resumable() && s.volunteer_name() == name) {
                reply(true, token, session.recvd())?;
                session.reattach(link(stream), recvd);
                return Ok(SessionEvent::Resumed { name });
            }
            // Unknown, expired or mismatched token: the volunteer rejoins as
            // a new device instead of being turned away (its stale results
            // will be dropped as late duplicates).
        }
        if mode == HelloMode::Plain {
            reply(false, 0, 0)?;
            return Ok(SessionEvent::Plain { transport: link(stream), name });
        }
        let token = machine.sessions.next_token;
        machine.sessions.next_token += 1;
        reply(false, token, 0)?;
        let transport =
            SessionTransport::new(token, name.clone(), link(stream), self.config.clone());
        machine.sessions.insert(token, Arc::downgrade(&transport));
        Ok(SessionEvent::Joined { name, transport })
    }

    /// Drops every connection whose hello is overdue.
    fn expire(&self, machine: &mut Machine, now: Instant) {
        while let Some(entry) = machine.pending.first_entry() {
            if entry.get().deadline > now {
                return;
            }
            let pending = entry.remove();
            let _ = self.epoll.delete(pending.stream.as_raw_fd());
            self.shared.tally.lock().expired += 1;
            let (got, timeout) = (pending.hello.len(), self.handshake_timeout);
            let message = format!("handshake abandoned: {got} hello bytes in {timeout:?}");
            self.finish(machine, Err(TransportError::new(TransportErrorKind::PeerFailed, message)));
        }
    }

    /// Spawns the `tcp-accept` thread: blocking turns of the machine that
    /// register every handshaken volunteer with `pando` under its
    /// self-declared name — plain links as-is, session links behind their
    /// [`SessionTransport`], resumes absorbed silently. Failed handshakes
    /// and accept errors are skipped (the machine counted them, see
    /// [`TcpServerHandle::rejected`]) — one bad client must not take the
    /// fleet down.
    pub fn serve(self, pando: &Pando) -> TcpServerHandle {
        let shared = self.shared.clone();
        let pando = pando.clone();
        let handle = crate::thread::spawn("tcp-accept".into(), move || {
            let shared = &self.shared;
            while !shared.stop.load(Ordering::SeqCst) {
                let (name, transport): (String, Arc<dyn Transport>) = match self.turn(true) {
                    Some(Ok(SessionEvent::Plain { name, transport })) => {
                        (name, Arc::new(transport))
                    }
                    Some(Ok(SessionEvent::Joined { name, transport })) => (name, transport),
                    Some(Ok(SessionEvent::Resumed { .. })) => {
                        shared.tally.lock().resumed += 1;
                        continue;
                    }
                    Some(Err(_)) | None => continue,
                };
                pando.add_volunteer_transport(name, transport);
                shared.tally.lock().accepted += 1;
                shared.joined.notify_all();
            }
        });
        TcpServerHandle { shared, handle }
    }
}

/// Reads as much of the hello as the socket holds, never past its end.
/// `Ok(None)`: bytes are still missing and the socket would block.
fn read_hello(pending: &mut Pending) -> Result<Option<ClientHello>, TransportError> {
    loop {
        let missing = match parse_client_hello(&pending.hello)? {
            HelloParse::Done(hello) => return Ok(Some(hello)),
            HelloParse::Need(total) => total - pending.hello.len(),
        };
        match (&pending.stream).take(missing as u64).read_to_end(&mut pending.hello) {
            Ok(read) if read == missing => {}
            Ok(_) => return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into()),
            // What did arrive is in `hello`; the rest is an EPOLLIN away.
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => return Ok(None),
            Err(err) => return Err(err.into()),
        }
    }
}

/// Handle to a running [`TcpAcceptor::serve`] loop.
pub struct TcpServerHandle {
    shared: Arc<ServerShared>,
    handle: thread::JoinHandle<()>,
}

impl TcpServerHandle {
    /// Asks the accept loop to stop; it is woken at once and exits after the
    /// turn in progress.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // A full wake socket already holds the byte that does the job.
        let _ = (&self.shared.wake).write(&[1]);
    }

    /// How many volunteers have handshaken so far. Live — callers can gate
    /// the start of a run on a minimum fleet size. Resumes of parked
    /// sessions are *not* counted here (the volunteer never left); see
    /// [`TcpServerHandle::resumed`].
    pub fn accepted(&self) -> usize {
        self.shared.tally.lock().accepted
    }

    /// How many parked sessions have been resumed by returning volunteers.
    pub fn resumed(&self) -> usize {
        self.shared.tally.lock().resumed
    }

    /// How many connections were turned away: malformed or truncated hellos,
    /// handshakes dropped at their deadline, and failed `accept` calls.
    pub fn rejected(&self) -> usize {
        self.shared.tally.lock().rejected
    }

    /// How many handshakes were dropped at their deadline (the stalled
    /// clients among [`TcpServerHandle::rejected`]).
    pub fn expired(&self) -> usize {
        self.shared.tally.lock().expired
    }

    /// Blocks until at least `count` volunteers have handshaken or `timeout`
    /// elapses; returns whether the quorum was reached.
    pub fn wait_for_volunteers(&self, count: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut tally = self.shared.tally.lock();
        while tally.accepted < count {
            if self.shared.joined.wait_until(&mut tally, deadline).timed_out() {
                break;
            }
        }
        tally.accepted >= count
    }

    /// Stops the loop and returns how many volunteers were accepted.
    pub fn join(self) -> usize {
        self.stop();
        let _ = self.handle.join();
        self.shared.tally.lock().accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PandoConfig;

    const SHORT_DEADLINE: Duration = Duration::from_millis(150);

    fn bind_short() -> TcpAcceptor {
        TcpAcceptor::bind_with_deadline("127.0.0.1:0", TcpConfig::default(), SHORT_DEADLINE)
            .unwrap()
    }

    /// A client that opens a hello and never finishes it.
    fn stall(addr: SocketAddr) -> TcpStream {
        let mut staller = TcpStream::connect(addr).unwrap();
        staller.write_all(b"PND").unwrap();
        staller.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        staller
    }

    #[test]
    fn a_stalled_hello_delays_nobody_and_is_dropped_at_its_deadline() {
        let acceptor = bind_short();
        let addr = acceptor.local_addr();
        let mut staller = stall(addr);
        let accepted_at = Instant::now();
        while acceptor.machine.lock().pending.is_empty() {
            assert!(acceptor.turn(true).is_none(), "three bytes finish no handshake");
        }

        // A legitimate volunteer joining behind it is served at once.
        let legit = thread::spawn(move || {
            let started = Instant::now();
            let transport = TcpTransport::connect(addr, "legit", TcpConfig::default()).unwrap();
            (started.elapsed(), transport)
        });
        let joined = loop {
            match acceptor.turn(true) {
                Some(Ok(SessionEvent::Plain { name, .. })) => break name,
                Some(Ok(_)) => panic!("a plain hello joins as a plain link"),
                Some(Err(err)) => panic!("the staller expired before the join: {err}"),
                None => {}
            }
        };
        let (join_took, _legit) = legit.join().unwrap();
        assert_eq!(joined, "legit");
        assert!(join_took < Duration::from_millis(100), "join took {join_took:?}");
        assert_eq!(acceptor.machine.lock().pending.len(), 1, "the staller costs one map entry");

        // The staller is dropped at its own deadline, not before.
        let err = loop {
            match acceptor.turn(true) {
                Some(Err(err)) => break err,
                Some(Ok(_)) => panic!("nobody else is dialing"),
                None => {}
            }
        };
        assert!(accepted_at.elapsed() >= SHORT_DEADLINE);
        assert_eq!(err.kind(), TransportErrorKind::PeerFailed);
        assert!(err.message().contains("3 hello bytes"), "got: {err}");
        assert_eq!(acceptor.shared.tally.lock().expired, 1);
        assert!(acceptor.machine.lock().pending.is_empty(), "no map entry left behind");
        assert_eq!(staller.read(&mut [0u8; 8]).unwrap(), 0, "its socket was closed");
    }

    #[test]
    fn serve_counts_an_expired_handshake_as_rejected() {
        let pando = Pando::new(PandoConfig::local_test());
        let acceptor = bind_short();
        let mut staller = stall(acceptor.local_addr());
        let server = acceptor.serve(&pando);
        assert_eq!(staller.read(&mut [0u8; 8]).unwrap(), 0, "dropped at the deadline");
        // The turn that dropped it is counted before the loop sees the stop.
        let shared = server.shared.clone();
        assert_eq!(server.join(), 0);
        let tally = shared.tally.lock();
        assert_eq!((tally.rejected, tally.expired), (1, 1));
    }

    #[test]
    fn a_failing_listener_backs_off_on_a_timer_instead_of_spinning() {
        let acceptor = bind_short();
        let addr = acceptor.local_addr();
        acceptor.pause_accepts(&mut acceptor.machine.lock());
        let paused_at = Instant::now();
        let client =
            thread::spawn(move || TcpTransport::connect(addr, "late", TcpConfig::default()));

        // With the listener out of the set, a blocking turn has nothing to
        // wake it but the backoff timer: it returns once, after the pause.
        let mut turns = 0;
        let name = loop {
            turns += 1;
            match acceptor.turn(true) {
                Some(Ok(SessionEvent::Plain { name, .. })) => break name,
                Some(_) => panic!("one plain client is dialing"),
                None => {}
            }
        };
        assert_eq!(name, "late");
        assert!(paused_at.elapsed() >= ACCEPT_BACKOFF, "accepted during the backoff");
        assert!(turns <= 4, "{turns} turns: the paused listener kept waking the loop");
        client.join().unwrap().unwrap();
    }

    #[test]
    fn session_table_sweeps_dead_entries_amortised_and_on_lookup() {
        let mut table = SessionTable::new();
        for token in 0..10_000 {
            table.insert(token, Weak::new());
            assert!(table.by_token.len() <= MIN_PRUNE_LEN, "dead sessions pile up");
        }
        let before = table.by_token.len();
        let stale = *table.by_token.keys().next().unwrap();
        assert!(table.lookup(stale).is_none());
        assert_eq!(table.by_token.len(), before - 1, "a dead entry found is dropped");
    }
}
