//! End-to-end determinism of scripted scenarios: for *any* generated
//! topology/churn/fault script, compiling it through
//! [`pando_core::scenario`] and executing it twice on the virtual clock
//! yields byte-identical canonical traces, and the run keeps the contract of
//! [`pando_core::sim::oracle`] — churn waves, crashes, flaps, jittery and
//! lossy links and partitions included. This is the property behind the
//! committed golden traces in `scenarios/golden/`: if two in-process runs
//! ever diverged, a golden file could never be stable across machines.

use pando_core::scenario::{GroupSpec, LinkOverrides, PartitionSpec, Scenario};
use pando_core::sim::{oracle, simulate_fleet, FleetReport};
use proptest::prelude::*;

/// The no, low, medium and high jitter link rows of SNIPPETS.md snippet 2,
/// as `(latency_us, jitter_us, loss)`. The snippet's `latency ± jitter` is
/// the uniform range `[latency - jitter, latency + jitter]`; a channel adds
/// `0..=jitter_us` to `latency_us`, so the rows start at the range's floor.
const JITTER_ROWS: [(u64, u64, Option<f64>); 4] = [
    (5_000, 0, None),
    (9_000, 2_000, None),
    (15_000, 10_000, Some(0.02)),
    (30_000, 40_000, Some(0.1)),
];

/// Builds a valid random scenario from integer draws. Group 0 ("anchor")
/// never crashes or leaves, so the stream always has a survivor; all events
/// land inside the horizon and after their target's join. Half the draws
/// put the anchor on one of snippet 2's jitter rows instead of its network
/// profile, so the high-jitter, 10 % loss corner is reached.
fn build(seed: u64, tasks: u64, shape: u64, faults: u64) -> Scenario {
    let nets = ["lan", "vpn", "wan"];
    let anchor_count = 1 + (shape % 3) as usize;
    let mut link = LinkOverrides {
        service_us: Some(500 + shape % 2_500),
        loss: (shape & 1 == 1).then_some(0.02 + (shape % 5) as f64 / 50.0),
        ..LinkOverrides::default()
    };
    if shape >> 14 & 1 == 1 {
        let (latency_us, jitter_us, loss) = JITTER_ROWS[(shape >> 12 & 3) as usize];
        link.latency_us = Some(latency_us);
        link.jitter_us = Some(jitter_us);
        link.loss = loss.or(link.loss);
    }
    let mut groups = vec![GroupSpec {
        name: "anchor".into(),
        count: anchor_count,
        net: nets[(shape / 3 % 3) as usize].into(),
        device: None,
        app: None,
        link,
        joins_at_us: 0,
        join_stagger_us: 0,
        leaves_at_us: None,
    }];
    let wave_count = (shape / 16 % 3) as usize;
    if wave_count > 0 {
        groups.push(GroupSpec {
            name: "wave".into(),
            count: wave_count,
            net: nets[(shape / 64 % 3) as usize].into(),
            device: None,
            app: None,
            link: LinkOverrides {
                service_us: Some(800 + shape % 1_500),
                ..LinkOverrides::default()
            },
            joins_at_us: 1_000 + shape % 4_000,
            join_stagger_us: shape % 1_000,
            leaves_at_us: (faults & 1 == 1).then_some(40_000_000),
        });
    }
    let mut crashes = Vec::new();
    let mut flaps = Vec::new();
    let mut partitions = Vec::new();
    if wave_count > 0 && faults & 2 == 2 {
        crashes.push((anchor_count, 20_000 + faults % 20_000));
    }
    if faults & 4 == 4 {
        flaps.push((0, 2_000 + faults % 6_000, 500 + faults % 30_000));
    }
    if wave_count > 0 && faults & 8 == 8 {
        partitions.push(PartitionSpec {
            group: "wave".into(),
            at_us: 12_000,
            heal_us: 20_000 + faults % 80_000,
        });
    }
    Scenario {
        name: "prop_run".into(),
        seed,
        tasks,
        duration_us: 600_000_000,
        interactive: shape & 8 == 8,
        defaults: LinkOverrides::default(),
        groups,
        crashes,
        flaps,
        partitions,
        expect: Default::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the script throws at the fleet — staggered joins, clean
    /// leaves, crash-stops, flaps, partitions, lossy links — two runs are
    /// byte-identical and keep the contract [`oracle::check`] names: every
    /// input value emitted exactly once, in global input order.
    #[test]
    fn scripted_fleets_keep_the_contract(
        seed in 0u64..1_000_000,
        tasks in 1u64..64,
        shape in 0u64..1_000_000,
        faults in 0u64..1_000_000,
    ) {
        run_and_check_crashes(&build(seed, tasks, shape, faults));
    }
}

/// The instant a trace line `[us] v{v} {event}` is stamped with, if `line`
/// is that event of volunteer `v`.
fn stamp_of(line: &str, v: usize, event: &str) -> Option<u64> {
    let (stamp, rest) = line.strip_prefix('[')?.split_once("] ")?;
    if rest != format!("v{v} {event}") {
        return None;
    }
    stamp.parse().ok()
}

/// Runs `scenario` through [`oracle::run`] and checks its crash accounting
/// against the trace. A scripted crash `(v, at)` fires exactly when `v` is
/// still connected at `at`: each one has either a `v{v} crash` line, or a
/// `v{v} goodbye`/`v{v} leave` line stamped no later than `at` (the
/// volunteer left first, so there is nothing left to crash) — exactly one
/// of the two. Flaps and clean leaves never count, and `report.crashed` is
/// the number of crash lines.
fn run_and_check_crashes(scenario: &Scenario) -> FleetReport {
    let report =
        oracle::run(&scenario.to_fleet_params().unwrap()).unwrap_or_else(|e| panic!("{e}"));
    let trace = &report.trace;
    for &(v, at) in &scenario.crashes {
        let crashed = trace.iter().filter(|line| stamp_of(line, v, "crash").is_some()).count();
        let left_first = trace.iter().any(|line| {
            ["goodbye", "leave"]
                .iter()
                .any(|event| stamp_of(line, v, event).is_some_and(|stamp| stamp <= at))
        });
        assert!(
            crashed + usize::from(left_first) == 1,
            "crash of v{v} at {at} us: {crashed} crash line(s), left first: {left_first}"
        );
    }
    let crash_lines = trace.iter().filter(|line| line.ends_with(" crash")).count();
    assert_eq!(report.crashed, crash_lines as u64);
    report
}

/// Case 810 of 20 000 of the property: `v2` says goodbye at 36 446 us, its
/// scripted crash is due at 37 586 us, so the crash does not fire.
#[test]
fn a_volunteer_that_left_before_its_crash_is_not_counted_crashed() {
    let scenario = build(937_556, 3, 405_337, 457_586);
    assert_eq!(scenario.crashes, [(2, 37_586)]);
    let report = run_and_check_crashes(&scenario);
    assert_eq!(report.crashed, 0);
    assert!(report.trace.iter().any(|line| line == "[36446] v2 goodbye"));
}

/// The checked-in scenario files themselves parse, compile, keep the
/// contract and satisfy their own [expect] tables — the unit-test twin of
/// `make scenarios` (which additionally runs each twice and diffs the
/// golden traces).
#[test]
fn checked_in_scenarios_run_green() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("scenarios/ directory exists at the workspace root")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 8, "the suite ships at least 8 scenarios, found {}", paths.len());
    for path in paths {
        let scenario = Scenario::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let report = simulate_fleet(&scenario.to_fleet_params().unwrap());
        oracle::check(&report)
            .and_then(|()| scenario.expect.check(&report))
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}
