//! Determinism properties of the virtual-clock fleet simulator
//! ([`pando_core::sim::simulate_fleet`]): for *any* seed, fleet shape and
//! crash fraction, two runs with the same parameters must produce
//! byte-identical canonical traces — identical event logs, output order,
//! `ThroughputMeter` rows, shard claim logs and reactor counters — and the
//! merged output must always be the complete input, in input order, no
//! matter how the seed-derived fault schedule crashes the fleet.

use pando_core::sim::{simulate_fleet, FleetParams};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same seed ⇒ byte-identical everything, across random fleet shapes
    /// and fault pressures.
    #[test]
    fn same_seed_runs_are_byte_identical(
        seed in 0u64..1_000_000,
        volunteers in 1usize..12,
        tasks in 1u64..96,
        crash_pct in 0u32..91,
    ) {
        let params = FleetParams::new(seed, volunteers, tasks)
            .with_crash_fraction(f64::from(crash_pct) / 100.0);
        let a = simulate_fleet(&params);
        let b = simulate_fleet(&params);
        prop_assert_eq!(a.canonical_trace(), b.canonical_trace());
        prop_assert_eq!(a.output_digest, b.output_digest);
        prop_assert_eq!(&a.output_order, &b.output_order);
        prop_assert_eq!(&a.claim_log, &b.claim_log);
        prop_assert_eq!(&a.meter_rows, &b.meter_rows);
        prop_assert_eq!(&a.shard_rows, &b.shard_rows);
        prop_assert_eq!(a.reactor.polls, b.reactor.polls);
        prop_assert_eq!(a.reactor.wakeups, b.reactor.wakeups);
    }

    /// Whatever the fault schedule does, every input value is emitted
    /// exactly once and in global input order (crash recovery re-lends,
    /// the merge stage reorders). This is also the reactor's wake-discipline
    /// liveness check: a stranded lendable value (kicked nobody, backstop
    /// missed) would wedge the sim or drop the value.
    #[test]
    fn output_is_complete_and_ordered_under_any_fault_schedule(
        seed in 0u64..1_000_000,
        volunteers in 1usize..10,
        tasks in 1u64..80,
        crash_pct in 0u32..91,
    ) {
        let params = FleetParams::new(seed, volunteers, tasks)
            .with_crash_fraction(f64::from(crash_pct) / 100.0);
        let report = simulate_fleet(&params);
        let expected: Vec<u64> = (0..tasks).collect();
        prop_assert_eq!(report.output_order, expected);
        // The meter's task counts must account for every emitted value
        // (late results of crashed volunteers may process a value twice on
        // the device side, but accepted results equal the stream length).
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
    /// window) yields the same ordered output and digest as the fault-free
    /// run, and never fires the crash re-lend path.
    #[test]
    fn link_flaps_never_lose_reorder_or_crash(
        seed in 0u64..1_000_000,
        volunteers in 1usize..10,
        tasks in 1u64..80,
        raw_flaps in proptest::collection::vec(0u64..1_000_000_000_000, 0..6),
    ) {
        // Decode each raw draw into (volunteer, at_us, down_for_us): the
        // in-tree proptest stand-in has no tuple strategies.
        let flaps: Vec<(usize, u64, u64)> = raw_flaps
            .into_iter()
            .map(|raw| {
                let v = (raw % volunteers as u64) as usize;
                let at_us = (raw / 7) % 40_000;
                let down_for_us = 100 + (raw / 13) % 30_000;
                (v, at_us, down_for_us)
            })
            .collect();
        let base = FleetParams::new(seed, volunteers, tasks).with_crash_fraction(0.0);
        let calm = simulate_fleet(&base);
        let flapped = simulate_fleet(&base.clone().with_flaps(flaps));
        let expected: Vec<u64> = (0..tasks).collect();
        prop_assert_eq!(&flapped.output_order, &expected);
        prop_assert_eq!(flapped.output_order, calm.output_order);
        prop_assert_eq!(flapped.output_digest, calm.output_digest);
        prop_assert_eq!(flapped.crashed, 0);
        prop_assert_eq!(flapped.reactor.crash_relends, 0);
    }
}

/// A pinned-seed regression: the canonical trace of seed 7 must not change
/// silently across commits. Only structural properties are pinned (not the
/// full byte string, which legitimate protocol changes may alter): if this
/// fails loudly on an intentional change, re-pin the numbers alongside it.
#[test]
fn pinned_seed_shape_regression() {
    let report = simulate_fleet(&FleetParams::new(7, 8, 64));
    assert_eq!(report.output_order.len(), 64);
    assert_eq!(report.params.volunteers, 8);
    assert!(!report.claim_log.is_empty());
    assert_eq!(report.meter_rows.len(), 9, "one meter row per volunteer plus the scheduler row");
    // And the run is idempotent, byte for byte.
    let again = simulate_fleet(&FleetParams::new(7, 8, 64));
    assert_eq!(report.canonical_trace(), again.canonical_trace());
}
