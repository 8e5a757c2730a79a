//! Wake-discipline properties of the work-conserving reactor: bounded
//! starved-kicks (per value kick, parked drivers until their free window
//! slots cover the lendable depth; every parked driver on termination; each
//! driver's own heartbeat timer as the liveness net) must keep the kick
//! budget live when drivers starve, the wasted polls of an interactive
//! input and the reactor-poll count of a large fleet under committed
//! budgets, and end every session as soon as the stream is over. That no
//! lendable value is ever stranded is the contract's rule (a),
//! `pando_core::sim::oracle::check`, which
//! `sim_determinism::seed_derived_fleets_keep_the_contract` applies to
//! random fault schedules.

use pando_core::sim::{oracle, simulate_fleet, FleetParams};
use pando_core::trace::Event;

/// A starved-heavy fleet (many more volunteers than tasks) must exercise the
/// kick budget: some wakes sent, some suppressed, and the wasted-poll
/// counter live. Deterministic per seed, so plain asserts.
#[test]
fn kick_budget_counters_are_live_when_drivers_starve() {
    let report = simulate_fleet(&FleetParams::new(11, 48, 24));
    oracle::check(&report).unwrap();
    assert!(report.reactor.kicks_sent > 0, "starved drivers must be re-woken via kicks");
    assert!(
        report.reactor.kicks_suppressed > 0,
        "with 48 volunteers over 24 tasks the budget must leave drivers parked \
         (sent={} suppressed={})",
        report.reactor.kicks_sent,
        report.reactor.kicks_suppressed
    );
    let trace = report.canonical_trace();
    let reactor = trace.lines().find(|line| line.starts_with("reactor ")).expect("a reactor line");
    for counter in [" polls=", " wasted_polls=", " kicks_sent=", " kicks_suppressed="] {
        assert!(reactor.contains(counter), "the reactor line carries{counter}: {reactor}");
    }
}

/// Committed poll budget for a large fleet: the pre-bounded reactor spent
/// 169,781 polls on this shape (seed 42, 1k volunteers, 5k tasks); the
/// work-conserving reactor spends ~20k. Budget 42k = a 4× floor on the win,
/// with headroom for legitimate scheduling changes. The 10k-volunteer budget
/// runs in release mode via `examples/sim_determinism.rs` (`make sim`) in
/// CI.
#[test]
fn thousand_volunteer_fleet_stays_under_the_poll_budget() {
    let report = simulate_fleet(&FleetParams::new(42, 1000, 5000));
    oracle::check(&report).unwrap();
    assert!(
        report.reactor.polls < 42_000,
        "reactor polls regressed past the committed budget: {} >= 42000",
        report.reactor.polls
    );
}

/// Wasted polls per task with an interactive input, where every value
/// reaches the drivers through the pump and a kick: 1.30 (830 of 2364 polls
/// over 640 tasks) once the lender fired its wakers only for a lendable
/// value or the end, 2.33 when it fired them on every state change (every
/// result and every lend kicked a parked driver that found nothing).
#[test]
fn interactive_input_fleet_stays_under_the_wasted_poll_budget() {
    let params = FleetParams { interactive_input: true, ..FleetParams::new(3, 64, 640) };
    let report = simulate_fleet(&params);
    oracle::check(&report).unwrap();
    let per_task = report.reactor.wasted_polls as f64 / params.tasks as f64;
    assert!(
        per_task <= 1.6,
        "wasted polls per task regressed past the budget: {per_task:.3} > 1.6 ({} of {} polls)",
        report.reactor.wasted_polls,
        report.reactor.polls
    );
}

/// The stream's end is one kick that wakes every parked driver: each sees
/// `Done` and closes its channel at once, so every volunteer says goodbye
/// within one link delay of the output's end. Woken one per kick instead,
/// the parked drivers of this fleet (48 volunteers, 24 tasks) trickled out
/// on their heartbeat timers, the last 71 ms after the output was done.
#[test]
fn termination_reaches_every_parked_driver() {
    let params = FleetParams::seeded(11, 48, 24, 0.0);
    let report = simulate_fleet(&params);
    oracle::check(&report).unwrap();
    let done = report.trace.iter().find(|(_, event)| *event == Event::OutputDone);
    let done = done.expect("the output completes").0;
    let goodbyes: Vec<(usize, u64)> = report
        .trace
        .iter()
        .filter_map(|(at, event)| match event {
            Event::Goodbye { v } => Some((*v, *at)),
            _ => None,
        })
        .collect();
    assert_eq!(goodbyes.len(), params.volunteers.len(), "every volunteer says goodbye");
    for (v, at) in goodbyes {
        let link = &params.volunteers[v].channel;
        let delay = (link.latency + link.jitter).as_micros() as u64;
        assert!(
            at <= done + delay,
            "v{v} goodbye at {at}: more than one link delay after the output's end at {done}"
        );
    }
}
