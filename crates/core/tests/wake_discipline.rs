//! Wake-discipline properties of the work-conserving reactor: bounded
//! starved-kicks (`min(parked, shard lendable depth)` wakes per lender
//! change, heartbeat backstop as the liveness net) must keep the kick budget
//! live when drivers starve and the reactor-poll count of a large fleet
//! under a committed budget. That no lendable value is ever stranded is
//! `sim_determinism::output_is_complete_and_ordered_under_any_fault_schedule`.

use pando_core::sim::{simulate_fleet, FleetParams};

/// A starved-heavy fleet (many more volunteers than tasks) must exercise the
/// kick budget: some wakes sent, some suppressed, and the wasted-poll
/// counter live. Deterministic per seed, so plain asserts.
#[test]
fn kick_budget_counters_are_live_when_drivers_starve() {
    let report = simulate_fleet(&FleetParams::new(11, 48, 24));
    assert_eq!(report.output_order, (0..24).collect::<Vec<u64>>());
    assert!(report.reactor.kicks_sent > 0, "starved drivers must be re-woken via kicks");
    assert!(
        report.reactor.kicks_suppressed > 0,
        "with 48 volunteers over 24 tasks the budget must leave drivers parked \
         (sent={} suppressed={})",
        report.reactor.kicks_sent,
        report.reactor.kicks_suppressed
    );
    let trace = report.canonical_trace();
    assert!(trace.contains("wasted_polls="), "canonical trace carries the new counters");
    assert!(
        report.meter_rows.iter().any(|row| row.starts_with("meter scheduler ")),
        "the meter surfaces scheduler counters: {:?}",
        report.meter_rows
    );
}

/// Committed poll budget for a large fleet: the pre-bounded reactor spent
/// 169,781 polls on this shape (seed 42, 1k volunteers, 5k tasks); the
/// work-conserving reactor spends ~20k. Budget 42k = a 4× floor on the win,
/// with headroom for legitimate scheduling changes. The 10k-volunteer budget
/// runs in release mode via `examples/sim_determinism.rs` (`SIM_MAX_POLLS`)
/// in CI.
#[test]
fn thousand_volunteer_fleet_stays_under_the_poll_budget() {
    let report = simulate_fleet(&FleetParams::new(42, 1000, 5000));
    assert_eq!(report.output_order.len(), 5000);
    assert!(
        report.reactor.polls < 42_000,
        "reactor polls regressed past the committed budget: {} >= 42000",
        report.reactor.polls
    );
}
