//! StreamLender random-execution testing (paper §4.1).
//!
//! The paper distributes randomized executions of the StreamLender itself as
//! a workload: each input is an RNG seed, each worker runs a random schedule
//! of borrows, returns, crashes and joins against a fresh StreamLender and
//! checks that the invariants of the pull-stream protocol and of the
//! programming model hold. The same harness is reused here both as a
//! workload (one `Tests/s` unit of Table 2 is one seeded execution) and as a
//! correctness amplifier alongside the proptest suites.

use pando_pull_stream::lender::{Lend, StreamLender, SubStream};
use pando_pull_stream::source::count;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The verdict of one randomized execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionVerdict {
    /// The seed that drove the execution.
    pub seed: u64,
    /// Number of input values in the execution.
    pub inputs: u64,
    /// Number of schedule steps executed.
    pub steps: u32,
    /// `None` if all invariants held, otherwise a description of the failure.
    pub violation: Option<String>,
}

impl ExecutionVerdict {
    /// Returns `true` if the execution upheld every invariant.
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }
}

struct RandomWorker {
    sub: Option<SubStream<u64, u64>>,
    held: Vec<Lend<u64>>,
}

/// Runs one randomized StreamLender execution driven by `seed` and checks the
/// programming-model invariants: the output is the ordered map of the input
/// and no value is lost or duplicated despite crashes and late joins.
pub fn run_random_execution(seed: u64) -> ExecutionVerdict {
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs = rng.gen_range(0..60u64);
    let steps = rng.gen_range(0..120u32);
    let lender: StreamLender<u64, u64> = StreamLender::new(count(inputs));
    let mut workers: Vec<RandomWorker> = (0..rng.gen_range(1..4))
        .map(|_| RandomWorker { sub: Some(lender.lend()), held: Vec::new() })
        .collect();

    for _ in 0..steps {
        let idx = rng.gen_range(0..workers.len());
        match rng.gen_range(0..10) {
            0..=4 => {
                let worker = &mut workers[idx];
                if let Some(sub) = worker.sub.as_mut() {
                    if let Some(lend) = sub.try_next_task() {
                        worker.held.push(lend);
                    }
                }
            }
            5..=7 => {
                let worker = &mut workers[idx];
                if let Some(sub) = worker.sub.as_mut() {
                    if !worker.held.is_empty() {
                        let at = rng.gen_range(0..worker.held.len());
                        let lend = worker.held.remove(at);
                        if sub.push_result(lend.seq, lend.value * 2).is_err() {
                            return ExecutionVerdict {
                                seed,
                                inputs,
                                steps,
                                violation: Some(format!(
                                    "result for held value {} was rejected",
                                    lend.seq
                                )),
                            };
                        }
                    }
                }
            }
            8 => {
                let worker = &mut workers[idx];
                worker.sub = None;
                worker.held.clear();
            }
            _ => workers.push(RandomWorker { sub: Some(lender.lend()), held: Vec::new() }),
        }
    }

    // Finish deterministically: survivors return what they hold, one reliable
    // worker drains the rest, and the output is checked.
    for worker in &mut workers {
        if let Some(sub) = worker.sub.as_mut() {
            for lend in worker.held.drain(..) {
                let _ = sub.push_result(lend.seq, lend.value * 2);
            }
        }
    }
    workers.clear();
    let finisher = {
        let mut sub = lender.lend();
        std::thread::spawn(move || {
            while let Some(task) = sub.next_task() {
                let _ = sub.push_result(task.seq, task.value * 2);
            }
            sub.complete();
        })
    };
    let output = match pando_pull_stream::sink::collect(lender.output()) {
        Ok(values) => values,
        Err(err) => {
            return ExecutionVerdict {
                seed,
                inputs,
                steps,
                violation: Some(format!("output stream failed: {err}")),
            }
        }
    };
    finisher.join().expect("finisher thread never panics");

    let expected: Vec<u64> = (1..=inputs).map(|v| v * 2).collect();
    let violation = if output != expected {
        Some(format!(
            "output mismatch: expected {} ordered results, got {}",
            expected.len(),
            output.len()
        ))
    } else {
        None
    };
    ExecutionVerdict { seed, inputs, steps, violation }
}

/// Runs `n` consecutive seeded executions and reports how many passed.
pub fn run_batch(first_seed: u64, n: u64) -> (u64, Vec<ExecutionVerdict>) {
    let verdicts: Vec<ExecutionVerdict> =
        (first_seed..first_seed + n).map(run_random_execution).collect();
    let passed = verdicts.iter().filter(|v| v.passed()).count() as u64;
    (passed, verdicts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_execution_passes() {
        let verdict = run_random_execution(1);
        assert!(verdict.passed(), "violation: {:?}", verdict.violation);
        assert_eq!(verdict.seed, 1);
    }

    #[test]
    fn executions_are_deterministic_per_seed() {
        assert_eq!(run_random_execution(17), run_random_execution(17));
    }

    #[test]
    fn a_batch_of_executions_all_pass() {
        let (passed, verdicts) = run_batch(0, 40);
        let failures: Vec<_> = verdicts.iter().filter(|v| !v.passed()).collect();
        assert!(failures.is_empty(), "failures: {failures:?}");
        assert_eq!(passed, 40);
    }
}
