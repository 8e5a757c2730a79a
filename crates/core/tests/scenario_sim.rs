//! End-to-end determinism of scripted scenarios: for *any* generated
//! topology/churn/fault script, compiling it through
//! [`pando_core::scenario`] and executing it twice on the virtual clock
//! yields byte-identical canonical traces, and the merged output is always
//! the complete input in input order — churn waves, crashes, flaps, jittery
//! and lossy links and partitions included. This is the property behind the committed
//! golden traces in `scenarios/golden/`: if two in-process runs ever
//! diverged, a golden file could never be stable across machines.

use pando_core::scenario::{GroupSpec, LinkOverrides, PartitionSpec, Scenario};
use pando_core::sim::simulate_fleet;
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

    /// Same scenario ⇒ byte-identical canonical traces, twice over.
    #[test]
    fn scripted_runs_are_byte_identical(
        seed in 0u64..1_000_000,
        tasks in 1u64..64,
        shape in 0u64..1_000_000,
        faults in 0u64..1_000_000,
    ) {
        let scenario = build(seed, tasks, shape, faults);
        let params = scenario.to_fleet_params().unwrap();
        let a = simulate_fleet(&params);
        let b = simulate_fleet(&params);
        prop_assert_eq!(a.canonical_trace(), b.canonical_trace());
        prop_assert_eq!(a.output_digest, b.output_digest);
        prop_assert_eq!(&a.claim_log, &b.claim_log);
        prop_assert_eq!(a.retransmits, b.retransmits);
    }

    /// Whatever the script throws at the fleet — staggered joins, clean
    /// leaves, crash-stops, flaps, partitions, lossy links — every input
    /// value is emitted exactly once, in global input order.
    #[test]
    fn scripted_output_is_complete_and_ordered(
        seed in 0u64..1_000_000,
        tasks in 1u64..64,
        shape in 0u64..1_000_000,
        faults in 0u64..1_000_000,
    ) {
        let scenario = build(seed, tasks, shape, faults);
        let report = simulate_fleet(&scenario.to_fleet_params().unwrap());
        let expected: Vec<u64> = (0..tasks).collect();
        prop_assert_eq!(&report.output_order, &expected);
        // Crash accounting matches the script: only scripted crash-stops
        // count, clean leaves and flaps never do.
        prop_assert_eq!(report.crashed, scenario.crashes.len() as u64);
    }
}

/// The checked-in scenario files themselves parse, compile, and satisfy
/// their own [expect] tables — the unit-test twin of `make scenarios`
/// (which additionally diffs the golden traces).
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
        scenario.expect.check(&report).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}
