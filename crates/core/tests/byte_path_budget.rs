//! The byte path's allocation budget, counted — not timed — so CI can gate
//! on it (ROADMAP aim 1): how many bytes the libraries allocate to move a
//! `tcp_bulk`-shaped frame (two 32 KiB records) through encode, decode and a
//! loopback `TcpTransport` pair, and how large a block a hostile length field
//! can make them allocate — and that the throughput meter, called several
//! times per task on the reactor thread, allocates nothing for a device it
//! has already seen.
//!
//! Alone in its binary, as one `#[test]`: the counting `#[global_allocator]`
//! sees every thread of the process, so nothing else may run beside it.

#![cfg(target_os = "linux")]

mod common;

use bytes::Bytes;
use pando_core::metrics::ThroughputMeter;
use pando_core::protocol::Message;
use pando_core::transport::tcp::{TcpAcceptor, TcpConfig, TcpTransport, TCP_PROTOCOL_VERSION};
use pando_core::transport::{Transport, TransportErrorKind};
use pando_netsim::channel::{RecvError, SendError};
use pando_netsim::codec::{Record, MAX_FRAME_LEN};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Bytes requested (a reallocation counts its new size, as in the `perf`
/// harness's ledger) and the largest single request, since the last
/// [`reset`]. Statistics that publish no other data: `Relaxed`.
static BYTES: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Bytes the current thread alone has requested, ever: what an exact
    /// "allocates nothing" check reads, since the test harness's own thread
    /// allocates beside the test whenever it likes. Constant-initialised and
    /// without a destructor, so touching it from the allocator neither
    /// allocates nor can find it torn down.
    static OWN_BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note(size: usize) {
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    LARGEST.fetch_max(size as u64, Ordering::Relaxed);
    OWN_BYTES.with(|own| own.set(own.get() + size as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and a
// plain thread-local cell, and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are exactly `System::alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, which only ever hands out
        // `System` blocks, and the caller passes the layout it was given.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn reset() {
    BYTES.store(0, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
}

/// `(bytes, largest block)` requested since the last [`reset`].
fn counted() -> (u64, u64) {
    (BYTES.load(Ordering::Relaxed), LARGEST.load(Ordering::Relaxed))
}

const RECORD_BYTES: usize = 32 * 1024;
const FRAMES: u64 = 1_000;

fn lenient() -> TcpConfig {
    TcpConfig {
        heartbeat_interval: Duration::from_secs(2),
        failure_timeout: Duration::from_secs(30),
        ..TcpConfig::default()
    }
}

fn accept_one(acceptor: &TcpAcceptor) -> TcpTransport {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some((_, transport)) = acceptor.accept().expect("handshake succeeds") {
            return transport;
        }
        assert!(Instant::now() < deadline, "no connection within 10s");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn the_byte_path_stays_within_its_allocation_budget() {
    let payload = Bytes::from(vec![0xA5u8; RECORD_BYTES]);
    let message =
        Message::TaskBatch(vec![Record::new(0, payload.clone()), Record::new(1, payload)]);
    let wire = message.wire_size() as u64;

    // The contiguous encode (simulator, tools): one buffer of the frame's
    // size, written once.
    reset();
    let frame = message.encode().expect("within the frame limit");
    let (bytes, _) = counted();
    assert!(bytes * 10 <= wire * 11, "encoding a {wire} B frame allocated {bytes} B (budget 1.1x)");

    // The piece form the socket path sends: a head of a few dozen bytes, the
    // payloads borrowed. Nothing payload-sized is allocated or copied, with
    // or without an ack riding in the head.
    let before = OWN_BYTES.get();
    let mut pieces = 0;
    for ack in [None, Some(7)] {
        message.pieces(ack).expect("within the frame limit").for_each(|piece| {
            pieces += 1;
            std::hint::black_box(piece);
        });
    }
    let bytes = OWN_BYTES.get() - before;
    assert_eq!(pieces, 8, "head, payload, head, payload - twice");
    assert!(bytes < 1024, "two piece encodes of a {wire} B frame allocated {bytes} B");

    // Decode of a frame the caller owns: records slice it, nothing
    // payload-sized is allocated.
    reset();
    let decoded = Message::decode_bytes(frame.clone()).expect("own frame decodes");
    let (_, largest) = counted();
    assert_eq!(decoded, message);
    assert!(largest < RECORD_BYTES as u64 / 8, "decode_bytes allocated a {largest} B block");
    drop(decoded);

    // The meter: a device's cell is looked up (and allocated) once, where
    // it joins; recording through the handle allocates nothing. (A block has
    // at least one byte, so zero bytes requested is zero blocks.)
    let meter = ThroughputMeter::new();
    let (device, shard) = (meter.device("budget"), meter.shard(0));
    let before = OWN_BYTES.get();
    for _ in 0..1_000 {
        device.record(2);
        device.record_wire(wire);
        device.record_heartbeat(false);
        device.record_heartbeat(true);
        shard.record_borrows(2);
        shard.record_results(2);
    }
    let bytes = OWN_BYTES.get() - before;
    assert_eq!(bytes, 0, "the meter allocated {bytes} B recording through held handles");
    assert_eq!((meter.report().rows[0].tasks, meter.report().shards[0].results), (2_000, 2_000));

    // A thousand frames over a real loopback link, both ends in this
    // process: the sender's encode, its write queue, the receiver's
    // reassembly buffer and decode all count. Measured 0.7x — the receiver's
    // frame buffer, two times in three; the sender allocates heads only —
    // where sending one contiguous copy per frame measured 1.6x, and the
    // pipeline before that 8.9x (4.0x of it in encode alone).
    // The producer is paced by the consumer through a two-frame credit
    // window — how the stack uses a link (`batch_size` credits per
    // volunteer). A free-running producer measures something else: once it
    // outruns the consumer, frames pile up in the receive buffer, the
    // buffer's spare allocation is never free to reuse, and the same code
    // reads 3.4-4.2x.
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", lenient()).expect("bind");
    let addr = acceptor.local_addr();
    let dialer = std::thread::spawn(move || {
        TcpTransport::connect(addr, "budget", lenient()).expect("connect")
    });
    let receiver = accept_one(&acceptor);
    let sender = dialer.join().expect("dialer finishes");
    // A credit is a slot of this channel: the producer fills one per frame
    // and the consumer frees one per frame it takes.
    let (credits, window) = std::sync::mpsc::sync_channel::<()>(2);
    reset();
    let outbound = message.clone();
    let producer = std::thread::spawn(move || {
        for _ in 0..FRAMES {
            credits.send(()).expect("the consumer closed the window");
            loop {
                match sender.send(outbound.clone()) {
                    Ok(()) => break,
                    Err(SendError::WouldBlock) => std::thread::sleep(Duration::from_micros(200)),
                    Err(err) => panic!("send failed: {err:?}"),
                }
            }
        }
        sender
    });
    for n in 0..FRAMES {
        let got = common::recv_within(&receiver, Duration::from_secs(30)).expect("frame arrives");
        assert!(got == message, "frame {n} arrived altered");
        window.recv().expect("the producer took a credit for this frame");
    }
    let sender = producer.join().expect("producer finishes");
    let (bytes, _) = counted();
    let moved = FRAMES * wire;
    assert!(
        bytes <= 2 * moved,
        "moving {moved} wire bytes allocated {bytes} B ({:.2}x, budget 2x)",
        bytes as f64 / moved as f64
    );
    drop((sender, receiver));

    // A hostile header: the advertised length is refused from its five
    // bytes, before anything is sized from it.
    reset();
    let mut hostile = TcpStream::connect(addr).expect("connect");
    let mut hello = b"PNDO".to_vec();
    hello.extend_from_slice(&[TCP_PROTOCOL_VERSION, 0, 0, 1, b'h']);
    hostile.write_all(&hello).expect("hello");
    let victim = accept_one(&acceptor);
    hostile.read_exact(&mut [0u8; 22]).expect("reply");
    let mut header = vec![1u8];
    header.extend_from_slice(&((MAX_FRAME_LEN + 1) as u32).to_be_bytes());
    hostile.write_all(&header).expect("header");
    assert_eq!(common::recv_within(&victim, Duration::from_secs(10)), Err(RecvError::PeerFailed));
    assert_eq!(
        victim.failure().expect("the link recorded why").kind(),
        TransportErrorKind::Protocol
    );
    let (_, largest) = counted();
    assert!(largest < 1024 * 1024, "a {largest} B block on a length field's say-so");
}
