//! End-to-end integration tests spanning every crate: real workloads,
//! simulated network channels, the public signalling server, fault injection
//! and the programming-model properties of paper Table 1 — all over the
//! binary payload pipeline (`Bytes` payloads, batched frames).

use bytes::Bytes;
use pando_core::config::PandoConfig;
use pando_core::master::Pando;
use pando_core::monitor::MiningMonitor;
use pando_core::volunteer::{join_as_volunteer, serve};
use pando_core::worker::{WorkerBuilder, WorkerOptions};
use pando_netsim::channel::ChannelConfig;
use pando_netsim::fault::FaultPlan;
use pando_netsim::signaling::PublicServer;
use pando_pull_stream::source::{from_iter, SourceExt};
use pando_workloads::app::{AppKind, ImageProcCodec};
use pando_workloads::crypto;
use std::sync::Arc;
use std::time::Duration;

fn app_worker(
    pando: &Pando,
    kind: AppKind,
    name: &str,
    fault: FaultPlan,
) -> pando_core::worker::WorkerHandle {
    let app = kind.instantiate();
    WorkerBuilder::new()
        .name(name)
        .fault(fault)
        .spawn(pando.open_volunteer_channel(), move |input: &Bytes| app.process(input))
}

/// Streaming map + ordered outputs: the raytracing animation comes back in
/// frame order even with devices of different speeds (Table 1 rows 1-2).
/// Frames travel as raw pixel buffers, not base64 strings.
#[test]
fn animation_frames_come_back_in_order() {
    let app = AppKind::Raytrace.instantiate();
    let pando = Pando::new(PandoConfig::local_test());
    let _fast = app_worker(&pando, AppKind::Raytrace, "fast", FaultPlan::None);
    let _slow = {
        let app = AppKind::Raytrace.instantiate();
        WorkerBuilder::new().name("slow").spawn(
            pando.open_volunteer_channel(),
            move |input: &Bytes| {
                std::thread::sleep(Duration::from_millis(5));
                app.process(input)
            },
        )
    };
    let inputs: Vec<Bytes> = (0..12).map(|i| app.input(i)).collect();
    let expected: Vec<Bytes> = inputs.iter().map(|i| app.process(i).unwrap()).collect();
    let outputs = pando.run(from_iter(inputs)).collect_values().unwrap();
    assert_eq!(outputs, expected, "outputs must be the ordered map of the inputs");
}

/// Dynamic joins + fault tolerance: devices join mid-run and crash without
/// losing any value (Table 1 rows 3 and 6).
#[test]
fn collatz_survives_churn() {
    let pando = Pando::new(PandoConfig::local_test());
    let app = AppKind::Collatz.instantiate();
    let crashing = app_worker(&pando, AppKind::Collatz, "doomed", FaultPlan::AfterTasks(5));
    let inputs: Vec<Bytes> = (0..60).map(|i| app.input(i)).collect();
    let expected: Vec<Bytes> = inputs.iter().map(|i| app.process(i).unwrap()).collect();

    let output_source = pando.run(from_iter(inputs));
    let collector = std::thread::spawn(move || pando_pull_stream::sink::collect(output_source));
    // A second device joins while the first is already (about to be) dead.
    std::thread::sleep(Duration::from_millis(20));
    let late = app_worker(&pando, AppKind::Collatz, "late", FaultPlan::None);

    let outputs = collector.join().unwrap().unwrap();
    assert_eq!(outputs, expected);
    assert!(crashing.join().crashed);
    assert!(!late.join().crashed);
    pando.join_volunteers();
    let stats = pando.lender_stats().unwrap();
    assert_eq!(stats.results_emitted, 60);
    assert_eq!(stats.substreams_crashed, 1);
}

/// Laziness on the volunteer side (Table 1 rows 4-5): with an infinite
/// input, the master reads only what its volunteers ask for — what they
/// processed, plus the dispatch window, one chunk of read-ahead per lender
/// shard and one pump prefetch per shard — and the deployment shuts down
/// early. The volunteer stops on a gate after a fixed number of tasks, so
/// the bound does not depend on how fast the consumer reads the stats.
/// (Whether the *consumer's* pace bounds the input is ROADMAP item 8.)
#[test]
fn infinite_stream_is_read_lazily() {
    const TAKEN: usize = 10;
    let config = PandoConfig::local_test();
    // A reply leaves once its whole frame is computed: the frame holding
    // result TAKEN - 1 may carry up to a window of tasks behind it.
    let free = TAKEN + config.batch_size - 1;
    let shards = config.effective_lender_shards();
    let bound = free + config.batch_size + shards * config.batch_size + shards;
    let pando = Pando::new(config);
    let (release, gate) = std::sync::mpsc::channel::<()>();
    let gate = std::sync::Mutex::new(gate);
    let computed = std::sync::atomic::AtomicUsize::new(0);
    let app = AppKind::Collatz.instantiate();
    let _worker = WorkerBuilder::new().name("solo").spawn(
        pando.open_volunteer_channel(),
        move |input: &Bytes| {
            if computed.fetch_add(1, std::sync::atomic::Ordering::SeqCst) >= free {
                // Blocks until `release` is dropped.
                let _ = gate.lock().unwrap().recv();
            }
            app.process(input)
        },
    );
    let app = AppKind::Collatz.instantiate();
    let output = pando.run(pando_pull_stream::source::infinite(move |i| app.input(i)));
    let first = pando_pull_stream::sink::take(output, TAKEN).unwrap();
    assert_eq!(first.len(), TAKEN);
    let read = pando.lender_stats().unwrap().values_read;
    drop(release);
    assert!(
        read <= bound as u64,
        "an infinite stream must not be read eagerly (read {read}, bound {bound})"
    );
}

/// Volunteers joining over the public server (WebRTC-style) compute real
/// image-processing results that match a local computation, through the
/// typed tile-digest codec.
#[test]
fn image_processing_over_the_public_server() {
    let server = Arc::new(PublicServer::local());
    let config = PandoConfig::local_test().with_channel(ChannelConfig::instant());
    let pando = Pando::new(config);
    let (url, acceptor) = serve(&pando, &server);
    let mut workers = Vec::new();
    for _ in 0..2 {
        let small = pando_workloads::app::ImageProcApp { tile_size: 64, radius: 2 };
        let (handle, _kind) = join_as_volunteer(
            &server,
            &url,
            ImageProcCodec,
            move |seed: &u64| Ok(small.digest(*seed)),
            WorkerOptions::default(),
        )
        .unwrap();
        workers.push(handle);
    }
    let local = pando_workloads::app::ImageProcApp { tile_size: 64, radius: 2 };
    let outputs = pando.run_typed(ImageProcCodec, from_iter(0..8u64)).collect_values().unwrap();
    let expected: Vec<_> = (0..8u64).map(|seed| local.digest(seed)).collect();
    assert_eq!(outputs, expected, "distributed results must equal the local computation");
    server.unhost(&url);
    acceptor.join().unwrap();
    for worker in workers {
        worker.join();
    }
}

/// The mining feedback loop finds verifiable nonces for a chain of blocks
/// (paper §4.2) using several volunteers.
#[test]
fn mining_feedback_loop_produces_verifiable_blocks() {
    let pando = Pando::new(PandoConfig::local_test());
    let workers: Vec<_> = (0..3)
        .map(|i| app_worker(&pando, AppKind::CryptoMining, &format!("m{i}"), FaultPlan::None))
        .collect();
    let blocks = vec!["itest-block-a".to_string(), "itest-block-b".to_string()];
    let solved = MiningMonitor::new(blocks.clone(), 10, 500).run(&pando);
    assert_eq!(solved.len(), 2);
    for (i, solved_block) in solved.iter().enumerate() {
        assert_eq!(solved_block.block, blocks[i]);
        assert!(crypto::verify(&blocks[i], solved_block.nonce, 10));
    }
    for worker in workers {
        worker.join();
    }
}

/// Higher-latency (WAN-like) channels still complete the stream; batching
/// keeps the devices busy and coalesces several tasks per frame.
#[test]
fn wan_profile_deployment_completes() {
    let mut channel = ChannelConfig::instant();
    channel.latency = Duration::from_millis(5);
    channel.jitter = Duration::from_millis(2);
    let config = PandoConfig::local_test().with_channel(channel).with_batch_size(4);
    let pando = Pando::new(config);
    let _workers: Vec<_> = (0..3)
        .map(|i| {
            app_worker(&pando, AppKind::StreamLenderTesting, &format!("w{i}"), FaultPlan::None)
        })
        .collect();
    let app = AppKind::StreamLenderTesting.instantiate();
    let inputs: Vec<Bytes> = (0..20).map(|i| app.input(i)).collect();
    let outputs = pando.run(from_iter(inputs)).collect_values().unwrap();
    assert_eq!(outputs.len(), 20);
    let codec = pando_workloads::app::SlTestCodec;
    use pando_pull_stream::codec::TaskCodec;
    for out in &outputs {
        let verdict = codec.decode_result(out).unwrap();
        assert!(verdict.passed(), "every random execution passes: {verdict:?}");
    }
}

/// Regression test: the batching dispatcher must never *block* while
/// coalescing a frame. With an interactive input (a stubborn queue that only
/// produces values when results are confirmed or resubmitted), a blocking
/// coalesce pull deadlocks — the queue waits for the result of a task the
/// dispatcher is still holding unsent. The dispatcher therefore coalesces
/// through the non-blocking `Source::try_pull` only.
#[test]
fn batching_does_not_deadlock_on_interactive_inputs() {
    use pando_pull_stream::stubborn::StubbornQueue;
    use pando_pull_stream::{Answer, Request, Source};

    let tiles = 12u64;
    let pando = Pando::new(PandoConfig::local_test().with_batch_size(4));
    let _workers: Vec<_> = (0..2)
        .map(|i| {
            let small = pando_workloads::app::ImageProcApp { tile_size: 32, radius: 1 };
            WorkerBuilder::new().name(format!("w{i}")).spawn(
                pando.open_volunteer_channel(),
                move |input: &Bytes| {
                    use pando_pull_stream::codec::TaskCodec;
                    let seed = ImageProcCodec.decode_task(input)?;
                    Ok(ImageProcCodec.encode_result(&small.digest(seed)))
                },
            )
        })
        .collect();
    let (queue, handle) = StubbornQueue::new(from_iter(0..tiles), 4);
    let mut output = pando.run_typed(ImageProcCodec, queue.map_values(|tracked| tracked.value));
    let mut confirmed = std::collections::HashSet::new();
    let mut first_sight = std::collections::HashSet::new();
    while let Answer::Value(digest) = output.pull(Request::Ask) {
        // Fail the first download of every even tile, forcing resubmissions
        // while the dispatcher may be holding unsent coalesced tasks.
        let id = digest.seed; // tile ids are 0..tiles in submission order
        let retry = digest.seed % 2 == 0 && first_sight.insert(digest.seed);
        if retry {
            handle.resubmit(id).unwrap();
        } else {
            let _ = handle.confirm(id);
            confirmed.insert(digest.seed);
        }
    }
    assert_eq!(confirmed.len() as u64, tiles, "every tile is eventually confirmed");
    assert_eq!(handle.stats().abandoned, 0);
}

/// Batching end to end: with a wide window the master packs several tasks
/// per frame and the worker answers with coalesced result batches, so far
/// fewer frames than records cross the wire.
#[test]
fn batched_frames_cross_the_wire() {
    let config = PandoConfig::local_test().with_batch_size(8);
    let pando = Pando::new(config);
    let _worker = app_worker(&pando, AppKind::Collatz, "packer", FaultPlan::None);
    let app = AppKind::Collatz.instantiate();
    let inputs: Vec<Bytes> = (0..64).map(|i| app.input(i)).collect();
    let outputs = pando.run(from_iter(inputs)).collect_values().unwrap();
    assert_eq!(outputs.len(), 64);
    pando.join_volunteers();
    let report = pando.meter().report();
    let row = &report.rows[0];
    assert_eq!(row.tasks, 64);
    assert!(
        row.wire_frames < 2 * row.tasks,
        "batching must amortise frames: {} frames for {} tasks",
        row.wire_frames,
        row.tasks
    );
    assert!(row.wire_bytes > 0);
}
