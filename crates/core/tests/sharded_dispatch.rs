//! End-to-end test of dispatch through the master's one lender shard: it
//! reproduces the single-lender protocol exactly, and the shard's meter row
//! accounts for every borrow and result.

use pando_core::config::PandoConfig;
use pando_core::master::Pando;
use pando_core::worker::WorkerBuilder;
use pando_pull_stream::codec::StringCodec;
use pando_pull_stream::source::{count, Source, SourceExt};
use pando_pull_stream::StreamError;

#[allow(clippy::ptr_arg)] // must match Fn(&C::Task) with C::Task = String
fn echo(input: &String) -> Result<String, StreamError> {
    Ok(input.clone())
}

fn numbers(n: u64) -> impl Source<String> + 'static {
    count(n).map_values(|v| v.to_string())
}

#[test]
fn single_shard_reproduces_the_single_lender_protocol() {
    // With a window of one value, the wire pattern of the pre-sharding
    // master must reproduce exactly: one task frame out and one result
    // frame back per value.
    let config = PandoConfig::local_test().with_batch_size(1);
    let pando = Pando::new(config);
    let worker =
        WorkerBuilder::new().spawn_typed(pando.open_volunteer_channel(), StringCodec, echo);
    let output = pando.run_typed(StringCodec, numbers(40)).collect_values().unwrap();
    assert_eq!(output, (1..=40u64).map(|v| v.to_string()).collect::<Vec<_>>());
    worker.join();
    pando.join_volunteers();
    let report = pando.meter().report();
    assert_eq!(report.rows[0].wire_frames, 80, "identical frame count to the single lender");
    let stats = pando.lender_stats().unwrap();
    assert_eq!((stats.values_read, stats.results_emitted), (40, 40));
    // One shard is one meter row, and it saw every borrow and result.
    let shard_rows = pando.meter().report().shards;
    assert_eq!(shard_rows.len(), 1);
    assert_eq!((shard_rows[0].borrows, shard_rows[0].results), (40, 40));
}
