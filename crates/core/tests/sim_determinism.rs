//! Determinism properties of the virtual-clock fleet simulator
//! ([`pando_core::sim::simulate_fleet`]): for *any* seed, fleet shape and
//! crash fraction, the run keeps the contract [`pando_core::sim::oracle`]
//! checks — two runs with the same parameters produce byte-identical
//! canonical traces, and the merged output is the complete input, in input
//! order, no matter how the seed-derived fault schedule crashes the fleet.

use pando_core::sim::{oracle, simulate_fleet, FleetParams};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same seed ⇒ byte-identical everything, and every input value
    /// emitted exactly once and in global input order (crash recovery
    /// re-lends, the merge stage reorders), across random fleet shapes and
    /// fault pressures. This is also the reactor's wake-discipline liveness
    /// check: a stranded lendable value (kicked nobody, no timer to re-poll
    /// a parked driver) would wedge the sim or drop the value.
    #[test]
    fn seed_derived_fleets_keep_the_contract(
        seed in 0u64..1_000_000,
        volunteers in 1usize..12,
        tasks in 1u64..96,
        crash_pct in 0u32..91,
    ) {
        let params =
            FleetParams::seeded(seed, volunteers, tasks, f64::from(crash_pct) / 100.0);
        let report = oracle::run(&params).unwrap_or_else(|e| panic!("{e}"));
        // The shard accepted one result per emitted value (late results of
        // crashed volunteers may process a value twice on the device side).
        let accepted: u64 = report
            .shard_rows
            .iter()
            .map(|row| {
                row.rsplit("results=").next().and_then(|v| v.parse::<u64>().ok()).unwrap_or(0)
            })
            .sum();
        prop_assert_eq!(accepted, tasks);
    }

    /// Any random disconnect/reconnect schedule (links pausing and coming
    /// back, the sim twin of a session volunteer resuming within its grace
    /// window; each flap is a partition of one volunteer) yields the same
    /// ordered output and digest as the fault-free run, and never fires the
    /// crash re-lend path.
    #[test]
    fn link_flaps_never_lose_reorder_or_crash(
        seed in 0u64..1_000_000,
        volunteers in 1usize..10,
        tasks in 1u64..80,
        raw_flaps in proptest::collection::vec(0u64..1_000_000_000_000, 0..6),
    ) {
        // Decode each raw draw into ([volunteer], at, heal): the in-tree
        // proptest stand-in has no tuple strategies.
        let partitions = raw_flaps
            .into_iter()
            .map(|raw| {
                let v = (raw % volunteers as u64) as usize;
                let at = Duration::from_micros((raw / 7) % 40_000);
                let down = Duration::from_micros(100 + (raw / 13) % 30_000);
                (vec![v], at, at + down)
            })
            .collect();
        let base = FleetParams::seeded(seed, volunteers, tasks, 0.0);
        let calm = simulate_fleet(&base);
        let flapped = simulate_fleet(&FleetParams { partitions, ..base });
        oracle::check(&flapped).unwrap_or_else(|e| panic!("{e}"));
        prop_assert_eq!(flapped.output_order, calm.output_order);
        prop_assert_eq!(flapped.output_digest, calm.output_digest);
    }
}

/// A pinned-seed regression: the shape of seed 7's canonical trace must not
/// change silently across commits. Only structural properties are pinned
/// (not the full byte string, which legitimate protocol changes may alter):
/// if this fails loudly on an intentional change, re-pin the numbers
/// alongside it.
#[test]
fn pinned_seed_shape_regression() {
    let report = simulate_fleet(&FleetParams::new(7, 8, 64));
    oracle::check(&report).unwrap();
    assert_eq!(report.params.volunteers.len(), 8);
    assert_eq!(report.meter_rows.len(), 9, "one meter row per volunteer plus the scheduler row");
}
