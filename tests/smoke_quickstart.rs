//! Workspace smoke test: the quickstart example path end to end.
//!
//! Exercises the cross-crate wiring CI needs covered beyond unit tests — a
//! master from `pando-core` lending work over `pando-netsim` channels opened
//! with `open_volunteer_channel`, two workers processing through the
//! `pando-pull-stream` substrate and the typed `StringCodec` payload layer —
//! and asserts the ordered-output guarantee of the programming model (paper
//! Table 1).

use pando_core::config::PandoConfig;
use pando_core::master::Pando;
use pando_core::worker::WorkerBuilder;
use pando_pull_stream::codec::StringCodec;
use pando_pull_stream::source::{count, SourceExt};
use pando_pull_stream::StreamError;

#[test]
fn quickstart_path_two_workers_ordered_output() {
    let square = |input: &String| -> Result<String, StreamError> {
        let n: u64 = input.parse().map_err(|_| StreamError::new("input is not an integer"))?;
        Ok((n * n).to_string())
    };

    let pando = Pando::new(PandoConfig::local_test());
    let workers: Vec<_> = ["tablet", "phone"]
        .into_iter()
        .map(|name| {
            WorkerBuilder::new().name(name).spawn_typed(
                pando.open_volunteer_channel(),
                StringCodec,
                square,
            )
        })
        .collect();

    let outputs = pando
        .run_typed(StringCodec, count(20).map_values(|v| v.to_string()))
        .collect_values()
        .expect("stream completes");

    // Ordered output: result i is input i squared, despite two racing workers.
    let expected: Vec<String> = (1..=20u64).map(|n| (n * n).to_string()).collect();
    assert_eq!(outputs, expected);

    // Both volunteers participated in a conservative (no re-lend) run.
    let mut processed_total = 0;
    for worker in workers {
        processed_total += worker.join().processed;
    }
    assert_eq!(processed_total, 20);
    let stats = pando.lender_stats().expect("the run started");
    assert_eq!(stats.values_read, 20);
    assert_eq!(stats.results_emitted, 20);
    assert_eq!(stats.relends, 0);
}
