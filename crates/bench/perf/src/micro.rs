//! Per-layer micro-timings of a traced run: each layer driven on its own,
//! through its public API, on one thread (the TCP pair needs a second for
//! the far end), at the record sizes of the workload being traced. They run
//! before the timed window and say what one operation of a layer costs when
//! nothing else is going on — the baseline the window's per-task CPU
//! figures are read against.

use crate::fleet::tcp_config;
use crate::source::now_ns;
use bytes::Bytes;
use pando_core::protocol::Message;
use pando_core::transport::tcp::{TcpAcceptor, TcpTransport};
use pando_core::transport::Transport;
use pando_netsim::channel::{pair_with_clock, ChannelConfig, RecvError, SendError};
use pando_netsim::codec::Record;
use pando_netsim::sim::Clock;
use pando_pull_stream::lender::{StreamLender, SubStream};
use pando_pull_stream::shard::ShardedLender;
use pando_pull_stream::source::count;
use pando_pull_stream::{Request, Source};
use pando_workloads::app::{PandoApp, RaytraceApp};
use std::hint::black_box;
use std::time::Duration;

/// Values streamed through each lender.
const LENDER_VALUES: u64 = 1_000_000;
/// Records per frame of the codec timings: the fleet's batch size.
const RECORDS_PER_FRAME: usize = 2;
/// Payload bytes each of the codec and transport loops moves, so a timing
/// takes a fraction of a second at 8 B and at 32 KiB alike.
const BYTES_BUDGET: usize = 64 << 20;
const MAX_FRAMES: usize = 100_000;

/// `(name, value)` pairs; names are per-layer metric names.
pub type Timings = Vec<(&'static str, f64)>;

fn per_op_ns(started_ns: u64, ops: u64) -> f64 {
    (now_ns() - started_ns) as f64 / ops as f64
}

/// One value's trip through a lender on one thread — `next_task` →
/// `push_result` → output pull — averaged over `LENDER_VALUES` values.
fn trip_ns_per_task(mut sub: SubStream<u64, u64>, mut output: impl Source<u64>) -> f64 {
    let started = now_ns();
    while let Some(task) = sub.next_task() {
        sub.push_result(task.seq, task.value).expect("a borrowed value is answerable");
        black_box(output.pull(Request::Ask));
    }
    let ns = per_op_ns(started, LENDER_VALUES);
    sub.complete();
    assert!(output.pull(Request::Ask).is_done(), "every value was lent and answered");
    ns
}

fn lender_ns_per_task() -> f64 {
    let lender: StreamLender<u64, u64> = StreamLender::new(count(LENDER_VALUES));
    trip_ns_per_task(lender.lend(), lender.output())
}

/// The sharded lender as the master configures it: one shard, chunks of the
/// batch size.
fn shard_ns_per_task() -> f64 {
    let lender: ShardedLender<u64, u64> =
        ShardedLender::new(count(LENDER_VALUES), 1, RECORDS_PER_FRAME);
    trip_ns_per_task(lender.lend_on(0), lender.output())
}

fn frames_for(record_bytes: usize) -> usize {
    (BYTES_BUDGET / (record_bytes * RECORDS_PER_FRAME)).clamp(1_000, MAX_FRAMES)
}

fn task_frame(record_bytes: usize, seq: u64) -> Message {
    let payload = Bytes::from(vec![0xA5u8; record_bytes]);
    Message::task_frame(
        (0..RECORDS_PER_FRAME as u64).map(|i| Record::new(seq + i, payload.clone())).collect(),
    )
}

/// `Message::encode` and `Message::decode` of a task frame, per record.
fn codec_ns_per_record(record_bytes: usize) -> (f64, f64) {
    let frames = frames_for(record_bytes);
    let records = (frames * RECORDS_PER_FRAME) as u64;
    let message = task_frame(record_bytes, 0);
    let started = now_ns();
    for _ in 0..frames {
        black_box(black_box(&message).encode().expect("frame within the size limit"));
    }
    let encode = per_op_ns(started, records);
    let frame = message.encode().expect("frame within the size limit");
    let started = now_ns();
    for _ in 0..frames {
        black_box(Message::decode(black_box(&frame)).expect("own frame decodes"));
    }
    (encode, per_op_ns(started, records))
}

/// `send` + `try_recv` of one frame over an instant simulated channel.
fn channel_ns_per_frame(record_bytes: usize) -> f64 {
    let frames = frames_for(record_bytes);
    let (near, far) = pair_with_clock::<Message>(ChannelConfig::instant(), Clock::wall());
    let message = task_frame(record_bytes, 0);
    let started = now_ns();
    for _ in 0..frames {
        near.send(message.clone()).expect("peer is alive");
        black_box(far.try_recv().expect("an instant channel delivers at once"));
    }
    per_op_ns(started, frames as u64)
}

/// One plain loopback connection streaming task frames one way: wall time
/// per frame from first send to last receive, and how the write path
/// batched them.
fn tcp_stream(record_bytes: usize) -> Timings {
    let frames = frames_for(record_bytes);
    let acceptor = TcpAcceptor::bind("127.0.0.1:0", tcp_config()).expect("bind loopback");
    let addr = acceptor.local_addr();
    let parker = std::thread::current();
    let receiver = std::thread::spawn(move || {
        let far = loop {
            match acceptor.accept().expect("handshake") {
                Some((_name, transport)) => break transport,
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        let me = std::thread::current();
        far.set_waker(std::sync::Arc::new(move || me.unpark()));
        let mut received = 0usize;
        while received < frames {
            match far.try_recv() {
                Ok(_) => received += 1,
                Err(RecvError::Empty) => std::thread::park_timeout(Duration::from_millis(50)),
                Err(err) => panic!("receiver lost the link after {received} frames: {err}"),
            }
        }
        far
    });
    let near = TcpTransport::connect(addr, "micro", tcp_config()).expect("connect loopback");
    near.set_waker(std::sync::Arc::new(move || parker.unpark()));
    let message = task_frame(record_bytes, 0);
    let size = message.wire_size();
    let started = now_ns();
    for _ in 0..frames {
        loop {
            match near.send_records_with_size(message.clone(), size, RECORDS_PER_FRAME as u64) {
                Ok(()) => break,
                // The bounded write queue is full: wait for it to drain.
                Err(SendError::WouldBlock) => std::thread::park_timeout(Duration::from_millis(50)),
                Err(err) => panic!("sender lost the link: {err}"),
            }
        }
    }
    let far = receiver.join().expect("receiver thread");
    let ns_per_frame = per_op_ns(started, frames as u64);
    let stats = near.stats();
    near.close();
    far.close();
    vec![
        ("tcp.send_recv_ns_per_frame", ns_per_frame),
        ("tcp.frames_per_write", stats.frames_per_write()),
        (
            "tcp.write_calls_per_frame",
            stats.write_calls as f64 / stats.frames_written.max(1) as f64,
        ),
    ]
}

/// Frames per second of the ray tracer on one thread, outside Pando.
pub fn raytrace_local_frames_per_s() -> f64 {
    const FRAMES: u64 = 2_000;
    let app = RaytraceApp::default();
    let inputs: Vec<Bytes> = (0..app.frames as u64).map(|i| app.input(i)).collect();
    let started = now_ns();
    for i in 0..FRAMES as usize {
        black_box(app.process(&inputs[i % inputs.len()]).expect("frame renders"));
    }
    1e9 / per_op_ns(started, FRAMES)
}

/// Every micro-timing that applies to any workload, at the given task and
/// result payload sizes.
pub fn run(task_bytes: usize, result_bytes: usize) -> Timings {
    // Frames carry tasks one way and results the other; time the codec and
    // the transports at the larger of the two, the one that moves the bytes.
    let record_bytes = task_bytes.max(result_bytes);
    let (encode, decode) = codec_ns_per_record(record_bytes);
    let mut timings = vec![
        ("pull_stream.lender.ns_per_task", lender_ns_per_task()),
        ("pull_stream.shard.ns_per_task", shard_ns_per_task()),
        ("protocol.encode_ns_per_record", encode),
        ("protocol.decode_ns_per_record", decode),
        ("netsim.channel.ns_per_frame", channel_ns_per_frame(record_bytes)),
    ];
    timings.extend(tcp_stream(record_bytes));
    timings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_counts_respect_the_byte_budget() {
        assert_eq!(frames_for(8), MAX_FRAMES);
        assert_eq!(frames_for(32 * 1024), BYTES_BUDGET / (64 * 1024));
        assert_eq!(frames_for(64 << 20), 1_000);
    }

    #[test]
    fn a_task_frame_of_two_records_is_a_batch() {
        assert!(matches!(task_frame(8, 5), Message::TaskBatch(records) if records.len() == 2));
    }
}
