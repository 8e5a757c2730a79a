//! Criterion benches comparing the seed's string wire path with the typed
//! `Bytes` pipeline, on both the pure encode/decode cost and the end-to-end
//! master→worker→master dispatch throughput.
//!
//! The *legacy* path reconstructs what the seed did per task: base64-encode
//! binary payloads into a `String` (+33% bytes, paper §2.1.1), format the
//! sequence number as text with a `\n` separator, frame, then parse it all
//! back on the other side — one frame per task. The *bytes* path is the
//! current protocol: raw payloads behind a fixed 8-byte header, many records
//! per frame.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pando_core::config::PandoConfig;
use pando_core::master::Pando;
use pando_core::protocol::Message;
use pando_core::worker::WorkerBuilder;
use pando_netsim::codec::{base64_decode, base64_encode, Record};
use pando_pull_stream::source::from_iter;
use pando_pull_stream::source::SourceExt;

/// One frame of the seed's string protocol: tag, length, then
/// `"{seq}\n{base64(payload)}"`.
fn legacy_encode(seq: u64, payload: &[u8]) -> Vec<u8> {
    let body = format!("{seq}\n{}", base64_encode(payload));
    let mut out = Vec::with_capacity(5 + body.len());
    out.push(1u8);
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body.as_bytes());
    out
}

fn legacy_decode(frame: &[u8]) -> (u64, Vec<u8>) {
    let body = std::str::from_utf8(&frame[5..]).expect("legacy frames are UTF-8");
    let (seq, rest) = body.split_once('\n').expect("legacy separator present");
    (seq.parse().expect("legacy seq parses"), base64_decode(rest).expect("valid base64"))
}

fn bench_encode_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_round_trip");
    // A raytraced frame of the paper's evaluation size: 96x72 RGB.
    let pixels: Vec<u8> = (0..96 * 72 * 3).map(|i| (i % 251) as u8).collect();
    group.throughput(Throughput::Bytes(pixels.len() as u64));

    group.bench_function("legacy_string_base64", |b| {
        b.iter(|| {
            let frame = legacy_encode(7, &pixels);
            let (seq, decoded) = legacy_decode(&frame);
            assert_eq!((seq, decoded.len()), (7, pixels.len()));
        })
    });

    // The bytes path as the transports run it: `encode` builds the frame in
    // one pass, and the frame the reader reassembled is handed to
    // `decode_bytes` whole, so payloads are slices of it.
    let payload = Bytes::from(pixels.clone());
    group.bench_function("bytes_single", |b| {
        b.iter(|| {
            let message = Message::Task { seq: 7, payload: payload.clone() };
            let frame = message.encode().expect("within frame limit");
            let decoded = Message::decode_bytes(frame).expect("round trip");
            assert_eq!(decoded.record_count(), 1);
        })
    });

    // 16 records in one frame: the batched path the dispatcher actually uses.
    // Then the `perf` benchmark's `tcp_bulk` shape, two 32 KiB records per
    // frame — what its `protocol.encode_ns_per_record` row times.
    for (label, count, record_bytes) in
        [("bytes_batch_16", 16u64, 1024usize), ("bytes_bulk_2x32k", 2, 32 * 1024)]
    {
        let records: Vec<Record> = (0..count)
            .map(|seq| Record::new(seq, Bytes::from(vec![seq as u8; record_bytes])))
            .collect();
        group.throughput(Throughput::Bytes(count * record_bytes as u64));
        group.bench_function(label, |b| {
            b.iter(|| {
                let message = Message::TaskBatch(records.clone());
                let frame = message.encode().expect("within frame limit");
                let decoded = Message::decode_bytes(frame).expect("round trip");
                assert_eq!(decoded.record_count(), count);
            })
        });
    }
    group.finish();
}

/// End-to-end dispatch: stream `tasks` payloads of `payload_len` bytes
/// through a master and one echo worker. `legacy` emulates the seed: base64
/// text payloads and one frame per task; otherwise raw bytes with the
/// batched dispatcher.
fn dispatch(tasks: u64, payload_len: usize, legacy: bool) {
    let config = if legacy {
        PandoConfig::local_test().with_batch_size(8).with_tasks_per_frame(1)
    } else {
        PandoConfig::local_test().with_batch_size(8)
    };
    let pando = Pando::new(config);
    let worker =
        WorkerBuilder::new().spawn(pando.open_volunteer_channel(), move |input: &Bytes| {
            if legacy {
                // The seed's worker had to decode the base64 string and
                // re-encode its (binary) result the same way.
                let raw =
                    base64_decode(std::str::from_utf8(input).expect("utf8")).expect("valid base64");
                Ok(Bytes::from(base64_encode(&raw).into_bytes()))
            } else {
                Ok(Bytes::copy_from_slice(input))
            }
        });
    let inputs: Vec<Bytes> = (0..tasks)
        .map(|i| {
            let raw = vec![(i % 256) as u8; payload_len];
            if legacy {
                Bytes::from(base64_encode(&raw).into_bytes())
            } else {
                Bytes::from(raw)
            }
        })
        .collect();
    let outputs = pando.run(from_iter(inputs)).collect_values().expect("stream completes");
    assert_eq!(outputs.len() as u64, tasks);
    worker.join();
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_throughput");
    group.sample_size(10);
    let tasks = 1_000u64;
    let payload_len = 4096usize;
    group.throughput(Throughput::Elements(tasks));
    for (label, legacy) in [("legacy_string_per_task", true), ("bytes_batched", false)] {
        group.bench_with_input(BenchmarkId::new("path", label), &legacy, |b, &legacy| {
            b.iter(|| dispatch(tasks, payload_len, legacy))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_encode_decode, bench_dispatch);
criterion_main!(benches);
