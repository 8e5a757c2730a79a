//! Fault-tolerance coverage for the event-driven reactor path: volunteer
//! crashes mid-batch, clean channel closes during dispatch, and lender
//! shutdown must all wake the registered endpoints, terminate their drivers
//! and leave no reactor thread behind.
//!
//! The tests in this file share one process-wide thread counter, so they are
//! serialised through a mutex instead of relying on `--test-threads=1`.

mod common;

use bytes::Bytes;
use pando_core::config::PandoConfig;
use pando_core::master::Pando;
use pando_core::protocol::Message;
use pando_core::worker::WorkerBuilder;
use pando_netsim::channel::RecvError;
use pando_netsim::fault::FaultPlan;
use pando_pull_stream::codec::StringCodec;
use pando_pull_stream::source::{count, infinite, Source, SourceExt};
use pando_pull_stream::{Answer, Request};
use parking_lot::Mutex;
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn reactor_config() -> PandoConfig {
    PandoConfig::local_test().with_reactor_threads(2)
}

/// Number of live deployment threads in this process — reactor, input pump
/// and worker threads are all named `pando-*` (Linux); `None` elsewhere.
/// Counting by name leaves out the test harness's own threads, which come
/// and go as other tests queue on the mutex.
fn thread_count() -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let names =
        tasks.filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok());
    Some(names.filter(|name| name.starts_with("pando-")).count())
}

/// Waits until the thread count drops back to at most `limit` (threads may
/// take a moment to unwind after their handles are joined).
fn assert_threads_back_to(limit: usize) {
    let Some(mut current) = thread_count() else {
        return; // not on Linux: the join-based assertions already ran
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    while current > limit && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        current = thread_count().unwrap_or(0);
    }
    assert!(current <= limit, "thread leak: {current} threads alive, expected at most {limit}");
}

#[allow(clippy::ptr_arg)] // must match Fn(&C::Task) with C::Task = String
fn echo(input: &String) -> Result<String, pando_pull_stream::StreamError> {
    Ok(input.clone())
}

fn numbers(n: u64) -> impl Source<String> + 'static {
    count(n).map_values(|v| v.to_string())
}

#[test]
fn volunteer_crash_mid_batch_is_recovered_on_the_reactor_path() {
    let _guard = SERIAL.lock();
    // A wide window so the crashing volunteer holds a whole batch in flight.
    let pando = Pando::new(reactor_config().with_batch_size(8));
    let crashing = WorkerBuilder::new().fault(FaultPlan::AfterTasks(3)).spawn_typed(
        pando.open_volunteer_channel(),
        StringCodec,
        echo,
    );
    let reliable =
        WorkerBuilder::new().spawn_typed(pando.open_volunteer_channel(), StringCodec, echo);
    let output = pando.run_typed(StringCodec, numbers(100)).collect_values().unwrap();
    assert_eq!(
        output,
        (1..=100u64).map(|v| v.to_string()).collect::<Vec<_>>(),
        "results stay complete and ordered across the crash"
    );
    assert!(crashing.join().crashed);
    assert!(!reliable.join().crashed);
    pando.join_volunteers();
    let stats = pando.lender_stats().unwrap();
    assert_eq!(stats.substreams_crashed, 1);
    assert!(stats.relends >= 1, "values held by the crashed volunteer are re-lent");
    let reactor = pando.reactor_stats().expect("reactor backend is active");
    assert_eq!(reactor.active, 0, "both drivers reached their terminal state");
    assert!(reactor.polls > 0 && reactor.wakeups > 0);
}

#[test]
fn clean_close_during_dispatch_completes_elsewhere() {
    let _guard = SERIAL.lock();
    let pando = Pando::new(reactor_config().with_batch_size(4));
    // A volunteer that answers its first task frame, then closes the channel
    // cleanly mid-run (the browser tab navigating away politely).
    let leaver_endpoint = pando.open_volunteer_channel();
    let leaver = std::thread::spawn(move || {
        let mut answered = 0u64;
        loop {
            match common::recv_within(&leaver_endpoint, Duration::from_secs(10)) {
                Ok(Message::TaskBatch(records)) => {
                    answered += records.len() as u64;
                    let _ = leaver_endpoint.send(Message::ResultBatch(records));
                }
                Ok(_) => {}
                Err(RecvError::Empty) => continue,
                Err(_) => break,
            }
            if answered >= 2 {
                leaver_endpoint.send(Message::Goodbye).ok();
                leaver_endpoint.close();
                break;
            }
        }
        answered
    });
    let stayer =
        WorkerBuilder::new().spawn_typed(pando.open_volunteer_channel(), StringCodec, echo);
    let output = pando.run_typed(StringCodec, numbers(60)).collect_values().unwrap();
    assert_eq!(output.len(), 60, "the leaver's unfinished values complete elsewhere");
    let answered = leaver.join().unwrap();
    assert!(answered >= 2);
    assert!(!stayer.join().crashed);
    pando.join_volunteers();
    let stats = pando.lender_stats().unwrap();
    assert_eq!(stats.results_emitted, 60);
    // A clean goodbye ends sub-streams gracefully, never as a crash: the
    // leaver's and the stayer's both complete.
    assert_eq!(stats.substreams_crashed, 0);
    assert!(
        stats.substreams_completed >= 2,
        "both volunteers end gracefully (completed {})",
        stats.substreams_completed
    );
}

#[test]
fn lender_shutdown_wakes_every_driver_and_reaps_the_pool() {
    let _guard = SERIAL.lock();
    let baseline = thread_count().unwrap_or(0);
    let volunteers = 8;
    {
        let pando = Pando::new(reactor_config().with_reactor_threads(3));
        let workers: Vec<_> = (0..volunteers)
            .map(|_| {
                WorkerBuilder::new()
                    .spawn(pando.open_volunteer_channel(), |payload: &Bytes| Ok(payload.clone()))
            })
            .collect();
        // An endless input: the run can only stop through the shutdown.
        let mut output = pando.run(infinite(|i| Bytes::from(i.to_string().into_bytes())));
        for _ in 0..40 {
            assert!(matches!(output.pull(Request::Ask), Answer::Value(_)));
        }
        // Terminating the output shuts the lender down; every driver must be
        // woken (they are idle or starved at this point), close its channel
        // and reach its terminal state — otherwise these joins hang.
        assert!(matches!(output.pull(Request::Abort), Answer::Done));
        pando.join_volunteers();
        for worker in workers {
            assert!(!worker.join().crashed, "workers observe a clean close");
        }
        let reactor = pando.reactor_stats().expect("reactor backend is active");
        assert_eq!(reactor.active, 0);
        assert_eq!(reactor.registered, volunteers as u64);
        // Dropping the deployment joins the reactor pool and the input pump.
    }
    assert_threads_back_to(baseline);
}

#[test]
fn ten_volunteer_fan_out_keeps_results_demultiplexed() {
    let _guard = SERIAL.lock();
    // Seq-checked demultiplexing across many concurrent reactor drivers: the
    // result of value v must be f(v), in order, with every worker involved
    // at most once per value.
    let pando = Pando::new(reactor_config().with_batch_size(4).with_reactor_threads(4));
    let workers: Vec<_> = (0..10)
        .map(|_| {
            WorkerBuilder::new().spawn_typed(
                pando.open_volunteer_channel(),
                StringCodec,
                |s: &String| Ok(format!("r{s}")),
            )
        })
        .collect();
    let output = pando.run_typed(StringCodec, numbers(500)).collect_values().unwrap();
    let expected: Vec<String> = (1..=500u64).map(|v| format!("r{v}")).collect();
    assert_eq!(output, expected);
    let total: u64 = workers.into_iter().map(|w| w.join().processed).sum();
    assert_eq!(total, 500, "every value processed exactly once");
    pando.join_volunteers();
}
