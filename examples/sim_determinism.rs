//! Deterministic fleet-sim smoke: the real reactor stack — sharded lender,
//! driver state machines, wire protocol, crash recovery — on the virtual
//! clock at 10 000 volunteers and 20 000 values from seed 42, run twice by
//! [`oracle::run`]: any scheduler nondeterminism (a real-time read, an
//! unseeded RNG, a racing wake-up) diverges the canonical traces and fails
//! with the first differing line. Run 1 must stay under 1 500 000 reactor
//! polls (broadcast kicks spent 14 991 667 on this fleet, bounded wakes
//! 149 530: a 10× floor on the win) and the pair under a 480 s wall-clock
//! guard.
//!
//! Run with: `cargo run --release --example sim_determinism` (or `make sim`).

use pando_core::sim::{oracle, FleetParams};
use std::time::{Duration, Instant};

const VOLUNTEERS: usize = 10_000;
const TASKS: u64 = 20_000;
const SEED: u64 = 42;
const BUDGET: Duration = Duration::from_secs(480);
const MAX_POLLS: u64 = 1_500_000;

fn main() {
    let started = Instant::now();
    let report = oracle::run(&FleetParams::new(SEED, VOLUNTEERS, TASKS))
        .unwrap_or_else(|e| panic!("the 10k fleet broke the sim contract:\n{e}"));
    println!(
        "{TASKS} tasks over {VOLUNTEERS} volunteers, {} crashed, {:?} virtual, run 1 in {:?} \
         wall ({} reactor polls, {} trace events)",
        report.crashed,
        report.virtual_elapsed,
        report.wall_elapsed,
        report.reactor.polls,
        report.trace.len()
    );
    println!("canonical traces identical, output complete and in order");

    // The committed poll budget: a regression towards broadcast kicks
    // multiplies the poll count long before it hurts wall-clock.
    assert!(
        report.reactor.polls < MAX_POLLS,
        "reactor polls exceeded the committed budget: {} >= {MAX_POLLS}",
        report.reactor.polls
    );
    println!("poll budget OK: {} < {MAX_POLLS}", report.reactor.polls);

    let elapsed = started.elapsed();
    assert!(
        elapsed <= BUDGET,
        "wall-clock guard exceeded: {elapsed:?} > {BUDGET:?} — sim scheduling regressed"
    );
    println!("sim determinism OK ({elapsed:?} total)");
}
