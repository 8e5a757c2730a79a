//! The input stream the benchmark feeds the master: a [`Source`] that
//! builds task payloads on demand, stamps the instant each one is handed
//! out, and either never makes the lender wait (closed loop) or releases
//! tasks on a fixed schedule (open loop).

use crate::procfs::CpuSnapshot;
use crate::workload::{Load, TaskFn};
use bytes::Bytes;
use pando_pull_stream::{Answer, Request, Source};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Nanoseconds since the first call in this process: the one time base of
/// every stamp the benchmark takes, on any thread.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// When the stream ends.
#[derive(Debug, Clone, Copy)]
enum Stop {
    AfterTasks(u64),
    AfterNs(u64),
}

/// What the source recorded, read by the main thread once the output is
/// done.
#[derive(Debug, Default)]
pub struct SourceLog {
    /// Stamp of the first pull: the start of the timed window.
    pub first_pull_ns: Option<u64>,
    /// Stamp at which task `k` left the source.
    pub handout_ns: Vec<u64>,
    /// CPU accounting at the moment the source first answered `Done`. Taken
    /// here, with at most one fleet window of tasks still in flight, because
    /// by the time the *output* is done the worker pool threads may already
    /// have exited and taken their per-thread counters with them.
    pub cpu_at_done: Option<CpuSnapshot>,
}

pub struct TaskSource {
    task: TaskFn,
    next: u64,
    stop: Stop,
    /// Open loop only: task `k` is due `k × period` after the first pull.
    period_ns: Option<f64>,
    start_ns: Option<u64>,
    log: Arc<Mutex<SourceLog>>,
}

impl TaskSource {
    pub fn new(task: TaskFn, load: Load) -> (TaskSource, Arc<Mutex<SourceLog>>) {
        match load {
            Load::Closed { window } => {
                Self::with(task, Stop::AfterNs(window.as_nanos() as u64), None)
            }
            Load::Paced { rate, total } => {
                Self::with(task, Stop::AfterTasks(total), Some(1e9 / rate))
            }
        }
    }

    /// A closed-loop source of exactly `total` tasks.
    pub fn counted(task: TaskFn, total: u64) -> (TaskSource, Arc<Mutex<SourceLog>>) {
        Self::with(task, Stop::AfterTasks(total), None)
    }

    fn with(
        task: TaskFn,
        stop: Stop,
        period_ns: Option<f64>,
    ) -> (TaskSource, Arc<Mutex<SourceLog>>) {
        let log = Arc::new(Mutex::new(SourceLog::default()));
        (TaskSource { task, next: 0, stop, period_ns, start_ns: None, log: log.clone() }, log)
    }

    /// Instant task `k` is due, for an open-loop source whose first pull
    /// happened at `first_pull_ns`.
    pub fn due_ns(first_pull_ns: u64, period_ns: f64, k: u64) -> u64 {
        first_pull_ns + (k as f64 * period_ns) as u64
    }

    /// One ask. `block` says whether the caller may be made to wait for a
    /// task that is not due yet; a non-blocking ask answers `None` instead
    /// and the source never hands a task out early either way.
    fn ask(&mut self, block: bool) -> Option<Answer<Bytes>> {
        let now = now_ns();
        let start = *self.start_ns.get_or_insert_with(|| {
            self.log.lock().expect("log lock is never poisoned").first_pull_ns = Some(now);
            now
        });
        let over = match self.stop {
            Stop::AfterTasks(total) => self.next >= total,
            Stop::AfterNs(window) => now - start >= window,
        };
        if over {
            let mut log = self.log.lock().expect("log lock is never poisoned");
            log.cpu_at_done.get_or_insert_with(CpuSnapshot::take);
            return Some(Answer::Done);
        }
        if let Some(period_ns) = self.period_ns {
            let due = Self::due_ns(start, period_ns, self.next);
            if now < due {
                if !block {
                    return None;
                }
                std::thread::sleep(Duration::from_nanos(due - now));
            }
        }
        let payload = (self.task)(self.next);
        self.next += 1;
        // Stamped after the payload is built: generating input is the
        // benchmark's cost, not part of a task's latency.
        self.log.lock().expect("log lock is never poisoned").handout_ns.push(now_ns());
        Some(Answer::Value(payload))
    }
}

impl Source<Bytes> for TaskSource {
    fn pull(&mut self, request: Request) -> Answer<Bytes> {
        if request.is_termination() {
            self.stop = Stop::AfterTasks(0);
            return Answer::Done;
        }
        self.ask(true).expect("a blocking ask always answers")
    }

    fn try_pull(&mut self) -> Option<Answer<Bytes>> {
        self.ask(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_task() -> TaskFn {
        Arc::new(|k| Bytes::copy_from_slice(&k.to_le_bytes()))
    }

    #[test]
    fn paced_source_refuses_early_asks_and_never_emits_before_due() {
        // 200 tasks/s: 5 ms apart, far above timer slack.
        let load = Load::Paced { rate: 200.0, total: 4 };
        let (mut source, log) = TaskSource::new(index_task(), load);
        assert!(source.try_pull().is_some_and(|a| a.is_value()), "task 0 is due at the first pull");
        assert!(source.try_pull().is_none(), "task 1 is 5 ms away");
        assert!(source.try_pull().is_none(), "asking again does not make it due");
        for _ in 1..4 {
            assert!(source.pull(Request::Ask).is_value());
        }
        assert!(source.pull(Request::Ask).is_done());
        assert!(source.try_pull().is_some_and(|a| a.is_done()), "termination is idempotent");
        let log = log.lock().unwrap();
        let start = log.first_pull_ns.unwrap();
        assert_eq!(log.handout_ns.len(), 4);
        for (k, &at) in log.handout_ns.iter().enumerate() {
            assert!(at >= TaskSource::due_ns(start, 5e6, k as u64), "task {k} left early");
        }
    }

    #[test]
    fn closed_source_always_answers_and_stops_at_its_count() {
        let (mut source, log) = TaskSource::counted(index_task(), 3);
        let mut seen = Vec::new();
        while let Some(Answer::Value(v)) = source.try_pull() {
            seen.push(u64::from_le_bytes(v[..].try_into().unwrap()));
        }
        assert_eq!(seen, [0, 1, 2]);
        assert!(source.pull(Request::Ask).is_done());
        assert_eq!(log.lock().unwrap().handout_ns.len(), 3);
    }

    #[test]
    fn timed_source_ends_after_its_window_and_on_abort() {
        let load = Load::Closed { window: Duration::from_millis(20) };
        let (mut source, _log) = TaskSource::new(index_task(), load);
        assert!(source.pull(Request::Ask).is_value());
        std::thread::sleep(Duration::from_millis(25));
        assert!(source.pull(Request::Ask).is_done());
        let (mut source, _log) = TaskSource::new(index_task(), load);
        assert!(source.pull(Request::Abort).is_done());
        assert!(source.pull(Request::Ask).is_done());
    }
}
