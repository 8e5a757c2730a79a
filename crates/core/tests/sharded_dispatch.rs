//! End-to-end tests of sharded dispatch on the master/reactor path:
//! multi-shard fleets keep global output order, `lender_shards = 1`
//! reproduces the single-lender protocol exactly, crash rescue crosses
//! shards through driver hopping, and the per-shard meters account for
//! every borrow and result, agreeing with the lender's own per-shard counts.

use bytes::Bytes;
use pando_core::config::PandoConfig;
use pando_core::master::Pando;
use pando_core::worker::WorkerBuilder;
use pando_netsim::fault::FaultPlan;
use pando_pull_stream::codec::StringCodec;
use pando_pull_stream::source::{count, Source, SourceExt};
use pando_pull_stream::StreamError;
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Duration;

#[allow(clippy::ptr_arg)] // must match Fn(&C::Task) with C::Task = String
fn echo(input: &String) -> Result<String, StreamError> {
    Ok(input.clone())
}

fn numbers(n: u64) -> impl Source<String> + 'static {
    count(n).map_values(|v| v.to_string())
}

#[test]
fn four_shards_keep_global_order_across_a_fleet() {
    let config =
        PandoConfig::local_test().with_reactor_threads(4).with_lender_shards(4).with_batch_size(4);
    let pando = Pando::new(config);
    let endpoints: Vec<_> = (0..16).map(|_| pando.open_volunteer_channel()).collect();
    let pool = WorkerBuilder::new()
        .pool_threads(4)
        .spawn_pool(endpoints, |payload: &Bytes| Ok(payload.clone()));
    let output = pando
        .run(count(500).map_values(|v| Bytes::from(v.to_string().into_bytes())))
        .collect_values()
        .unwrap();
    assert_eq!(output.len(), 500);
    for (i, payload) in output.iter().enumerate() {
        assert_eq!(
            payload.as_ref(),
            (i + 1).to_string().as_bytes(),
            "result {i} must arrive in global input order"
        );
    }
    let reports = pool.join();
    pando.join_volunteers();
    assert_eq!(reports.iter().map(|r| r.processed).sum::<u64>(), 500);
    let stats = pando.lender_stats().unwrap();
    assert_eq!(stats.results_emitted, 500);
    assert_eq!(stats.values_read, stats.results_emitted, "every value read came out");
    // Work actually spread over more than one shard's lock.
    let shard_rows = pando.meter().report().shards;
    assert!(shard_rows.len() > 1, "multiple shards saw dispatch traffic");
    assert_eq!(shard_rows.iter().map(|s| s.borrows).sum::<u64>(), 500);
    assert_eq!(shard_rows.iter().map(|s| s.results).sum::<u64>(), 500);
    // The meter's shard rows and the lender's shards count the same results
    // from two layers: they agree shard by shard.
    let lender_results: Vec<u64> =
        pando.shard_stats().unwrap().iter().map(|s| s.results_emitted).collect();
    let meter_results: Vec<u64> = (0..lender_results.len())
        .map(|shard| shard_rows.iter().find(|s| s.shard == shard).map_or(0, |s| s.results))
        .collect();
    assert_eq!(meter_results, lender_results);
}

#[test]
fn single_shard_reproduces_the_single_lender_protocol() {
    // With one shard and a window of one value, the wire pattern of the
    // pre-sharding master must reproduce exactly: one task frame out and
    // one result frame back per value.
    let config = PandoConfig::local_test().with_lender_shards(1).with_batch_size(1);
    let pando = Pando::new(config);
    let worker =
        WorkerBuilder::new().spawn_typed(pando.open_volunteer_channel(), StringCodec, echo);
    let output = pando.run_typed(StringCodec, numbers(40)).collect_values().unwrap();
    assert_eq!(output, (1..=40u64).map(|v| v.to_string()).collect::<Vec<_>>());
    worker.join();
    pando.join_volunteers();
    let report = pando.meter().report();
    assert_eq!(report.rows[0].wire_frames, 80, "identical frame count to the single lender");
    assert_eq!(pando.shard_stats().unwrap().len(), 1);
    let stats = pando.lender_stats().unwrap();
    assert_eq!((stats.values_read, stats.results_emitted), (40, 40));
    // One shard is one meter row, and it saw every borrow and result.
    let shard_rows = pando.meter().report().shards;
    assert_eq!(shard_rows.len(), 1);
    assert_eq!((shard_rows[0].borrows, shard_rows[0].results), (40, 40));
}

#[test]
fn crash_on_one_shard_is_rescued_by_volunteers_of_another() {
    // Two shards, two volunteers — one per shard. The crasher dies holding
    // borrowed values; its shard is left with no devices. The survivor must
    // finish its own shard, hop over, and complete the orphaned work.
    let config = PandoConfig::local_test().with_reactor_threads(2).with_lender_shards(2);
    let pando = Pando::new(config);
    // The survivor holds its first task until the crasher has handled three:
    // left alone it could finish all 80 values before the crasher is lent
    // its third. A crasher that never gets there costs the wait and fails
    // the test instead of hanging it.
    let (handled, crasher_handled) = mpsc::channel();
    let crasher = WorkerBuilder::new().fault(FaultPlan::AfterTasks(3)).spawn_typed(
        pando.open_volunteer_channel(),
        StringCodec,
        move |input: &String| {
            let _ = handled.send(());
            echo(input)
        },
    );
    let waited = Arc::new(OnceLock::new());
    let survivor_waited = waited.clone();
    let survivor = WorkerBuilder::new().spawn_typed(
        pando.open_volunteer_channel(),
        StringCodec,
        move |input: &String| {
            survivor_waited.get_or_init(|| {
                (0..3).all(|_| crasher_handled.recv_timeout(Duration::from_secs(10)).is_ok())
            });
            echo(input)
        },
    );
    let output = pando.run_typed(StringCodec, numbers(80)).collect_values().unwrap();
    assert_eq!(output, (1..=80u64).map(|v| v.to_string()).collect::<Vec<_>>());
    assert_eq!(waited.get(), Some(&true), "the crasher handled three tasks first");
    assert!(crasher.join().crashed);
    assert!(!survivor.join().crashed);
    pando.join_volunteers();
    let stats = pando.lender_stats().unwrap();
    assert_eq!(stats.results_emitted, 80);
    assert_eq!(stats.substreams_crashed, 1);
    assert!(stats.relends >= 1, "the crasher's values are re-lent");
    let reactor = pando.reactor_stats().unwrap();
    assert_eq!(reactor.shards, 2);
}

#[test]
fn volunteers_spread_across_shards_before_hashing() {
    let config = PandoConfig::local_test().with_reactor_threads(4).with_lender_shards(4);
    let pando = Pando::new(config);
    let endpoints: Vec<_> = (0..8).map(|_| pando.open_volunteer_channel()).collect();
    let pool = WorkerBuilder::new()
        .pool_threads(2)
        .spawn_pool(endpoints, |payload: &Bytes| Ok(payload.clone()));
    let output = pando
        .run(count(200).map_values(|v| Bytes::from(v.to_string().into_bytes())))
        .collect_values()
        .unwrap();
    assert_eq!(output.len(), 200);
    pool.join();
    pando.join_volunteers();
    // Every shard got at least one sub-stream: the first four volunteers are
    // placed on empty shards before the id hash takes over.
    let shard_stats = pando.shard_stats().unwrap();
    assert_eq!(shard_stats.len(), 4);
    for (shard, stats) in shard_stats.iter().enumerate() {
        assert!(stats.substreams_created >= 1, "shard {shard} never received a volunteer");
    }
}
