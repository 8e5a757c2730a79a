//! Churn-scale check: what it costs to bring one volunteer in and see it out
//! again must not grow with the fleet. One `simulate_fleet` call with one
//! task per volunteer is a set-up cycle — every volunteer joins, parks
//! starved, is kicked, works once and leaves — so its wall time per
//! volunteer is the per-exit, per-kick cost of the reactor's starved and
//! registered sets. With those scanned on every exit the cycle is quadratic
//! (the per-volunteer cost at 4 000 read 1.84 × the cost at 1 000); with
//! ordered maps it is O(log fleet) per event (1.40 ×, the rest being cache
//! footprint). The gate sits between the two.
//!
//! Both fleet sizes run in this one process, interleaved, so a slow spell of
//! the host lands on both; the medians of nine calls each are compared.
//!
//! Run with: `cargo run --release --example churn_scale` (`make churn-scale`)

use pando_core::sim::{simulate_fleet, FleetParams};
use std::time::{Duration, Instant};

const FLEETS: [usize; 2] = [1_000, 4_000];
const ROUNDS: usize = 9;
const MAX_RATIO: f64 = 1.6;

fn main() {
    let mut cycles: [Vec<Duration>; 2] = [Vec::new(), Vec::new()];
    for _ in 0..ROUNDS {
        for (fleet, cycles) in FLEETS.into_iter().zip(&mut cycles) {
            let started = Instant::now();
            // Dropped inside the timing: tearing the fleet down is the point.
            drop(simulate_fleet(&FleetParams::new(1, fleet, fleet as u64)));
            cycles.push(started.elapsed());
        }
    }
    let [small, large] = [0, 1].map(|i| {
        cycles[i].sort();
        let (fleet, median) = (FLEETS[i], cycles[i][ROUNDS / 2]);
        println!("{fleet} volunteers: median set-up cycle {median:?} over {ROUNDS} calls");
        median.as_secs_f64() * 1e6 / fleet as f64
    });
    let ratio = large / small;
    println!(
        "per volunteer: {small:.1} us at {}, {large:.1} us at {}, ratio {ratio:.2} (gate {MAX_RATIO})",
        FLEETS[0], FLEETS[1]
    );
    assert!(
        ratio <= MAX_RATIO,
        "a volunteer costs {ratio:.2} x more in a fleet of {} than in one of {}: \
         some per-exit or per-kick cost grows with the fleet again",
        FLEETS[1],
        FLEETS[0]
    );
    println!("churn scale OK");
}
