//! Parser properties of the scenario DSL ([`pando_core::scenario`]): any
//! valid [`Scenario`] survives a `render → parse` round trip structurally
//! intact (so checked-in files, programmatic construction and golden
//! tooling all agree on one representation), rendering is idempotent, and
//! malformed documents come back as *typed* [`ScenarioError`]s naming the
//! offending table, key or event — never a panic, never a silently-default
//! value.

use pando_core::scenario::{
    Expectations, GroupSpec, LinkOverrides, PartitionSpec, Scenario, ScenarioError,
    DEFAULT_DURATION_US,
};
use proptest::prelude::*;
use std::time::Duration;

/// Deterministically builds a *valid* scenario from integer draws: group 0
/// never crashes or leaves (there is always a survivor), every event lands
/// inside the duration and after its target's join.
fn build(seed: u64, tasks: u64, shape: u64, faults: u64) -> Scenario {
    let nets = ["lan", "vpn", "wan", "instant"];
    let anchor_count = 1 + (shape % 3) as usize;
    let mut groups = vec![GroupSpec {
        name: "anchor".into(),
        count: anchor_count,
        net: nets[(shape / 3 % 4) as usize].into(),
        device: None,
        app: None,
        link: LinkOverrides {
            service_us: Some(800 + shape % 2_000),
            loss: (shape & 1 == 1).then_some(0.05),
            ..LinkOverrides::default()
        },
        joins_at_us: 0,
        join_stagger_us: shape % 700,
        leaves_at_us: None,
    }];
    let wave_count = (shape / 16 % 4) as usize;
    if wave_count > 0 {
        groups.push(GroupSpec {
            name: "wave".into(),
            count: wave_count,
            net: nets[(shape / 64 % 4) as usize].into(),
            device: (shape & 2 == 2).then(|| "iPhone SE".into()),
            app: (shape & 2 == 2).then(|| "raytrace".into()),
            link: LinkOverrides {
                latency_us: Some(1_000 + shape % 9_000),
                jitter_us: Some(shape % 2_000),
                retransmit_us: (shape & 4 == 4).then_some(10_000),
                ..LinkOverrides::default()
            },
            joins_at_us: 2_000,
            join_stagger_us: 500,
            leaves_at_us: (faults & 1 == 1).then_some(50_000_000),
        });
    }
    let mut crashes = Vec::new();
    let mut flaps = Vec::new();
    let mut partitions = Vec::new();
    if wave_count > 0 && faults & 2 == 2 {
        // Crash the first wave volunteer well after its join.
        crashes.push((anchor_count, 10_000 + faults % 10_000));
    }
    if faults & 4 == 4 {
        flaps.push((0, 3_000 + faults % 5_000, 1_000 + faults % 20_000));
    }
    if faults & 64 == 64 {
        flaps.push((anchor_count - 1, 30_000 + faults % 7_000, 2_000));
    }
    if wave_count > 0 && faults & 8 == 8 {
        partitions.push(PartitionSpec {
            group: "wave".into(),
            at_us: 10_000,
            heal_us: 20_000 + faults % 100_000,
        });
    }
    Scenario {
        name: "prop_scenario".into(),
        seed,
        tasks,
        duration_us: DEFAULT_DURATION_US,
        interactive: shape & 8 == 8,
        defaults: LinkOverrides {
            heartbeat_us: (shape & 16 == 16).then_some(50_000),
            failure_timeout_us: (shape & 16 == 16).then_some(400_000),
            bandwidth_bps: (shape & 32 == 32).then_some(1_000_000),
            ..LinkOverrides::default()
        },
        groups,
        crashes,
        flaps,
        partitions,
        expect: Expectations {
            crashed: (faults & 16 == 16).then_some(faults % 3),
            min_retransmits: (faults & 32 == 32).then_some(1),
            ..Expectations::default()
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `parse(render(s)) == s` for any valid scenario — the rendered text
    /// is a faithful, re-loadable representation of the structure.
    #[test]
    fn render_parse_round_trips(
        seed in 0u64..1_000_000,
        tasks in 1u64..500,
        shape in 0u64..1_000_000,
        faults in 0u64..1_000_000,
    ) {
        let scenario = build(seed, tasks, shape, faults);
        let text = scenario.render();
        let parsed = Scenario::parse(&text)
            .unwrap_or_else(|e| panic!("{e}\n--- rendered ---\n{text}"));
        prop_assert_eq!(&parsed, &scenario, "rendered:\n{}", text);
        // Rendering is idempotent: a second round trip emits identical text.
        prop_assert_eq!(parsed.render(), text);
    }

    /// Compilation to fleet parameters preserves the declared shape: one
    /// volunteer spec per declared seat, one partition per `[[partition]]`,
    /// then each flap `(v, at, down)` as the partition `([v], at, at + down)`
    /// in declaration order, and the name matching the scenario.
    #[test]
    fn compiled_params_match_the_declared_shape(
        seed in 0u64..1_000_000,
        tasks in 1u64..200,
        shape in 0u64..1_000_000,
        faults in 0u64..1_000_000,
    ) {
        let scenario = build(seed, tasks, shape, faults);
        let params = scenario.to_fleet_params().unwrap();
        prop_assert_eq!(params.volunteers.len(), scenario.volunteers());
        prop_assert_eq!(params.tasks, scenario.tasks);
        prop_assert_eq!(&params.name, &scenario.name);
        prop_assert_eq!(params.interactive_input, scenario.interactive);
        let groups = scenario.partitions.len();
        for ((members, at, heal), p) in params.partitions.iter().zip(&scenario.partitions) {
            prop_assert_eq!((*at, *heal), (Duration::from_micros(p.at_us), Duration::from_micros(p.heal_us)));
            let group = params.volunteers.iter().enumerate().filter(|(_, spec)| spec.group == p.group);
            prop_assert_eq!(members, &group.map(|(m, _)| m).collect::<Vec<_>>());
        }
        prop_assert_eq!(params.partitions.len(), groups + scenario.flaps.len());
        let us = Duration::from_micros;
        let flaps: Vec<_> =
            scenario.flaps.iter().map(|&(v, at, down)| (vec![v], us(at), us(at + down))).collect();
        prop_assert_eq!(&params.partitions[groups..], &flaps[..]);
    }
}

// --- typed errors for malformed documents -------------------------------

const VALID: &str = r#"
name = "base"
seed = 3
tasks = 16
duration_us = 1000000

[[group]]
name = "only"
count = 2
"#;

fn err_of(text: &str) -> ScenarioError {
    Scenario::parse(text).expect_err("malformed input must be rejected")
}

#[test]
fn syntax_errors_carry_their_line() {
    match err_of("name = \"base\"\nseed = ???") {
        ScenarioError::Toml(e) => assert_eq!(e.line, 2, "{e}"),
        other => panic!("expected a Toml error, got {other:?}"),
    }
}

#[test]
fn unknown_tables_and_keys_are_named() {
    assert_eq!(
        err_of(&format!("{VALID}\n[grupo]\nx = 1")),
        ScenarioError::UnknownKey { table: "scenario".into(), key: "grupo".into() }
    );
    assert_eq!(
        err_of(&VALID.replace("seed = 3", "seed = 3\nlose = 0.5")),
        ScenarioError::UnknownKey { table: "scenario".into(), key: "lose".into() }
    );
    assert_eq!(
        err_of(&VALID.replace("count = 2", "count = 2\nloses = 0.5")),
        ScenarioError::UnknownKey { table: "group".into(), key: "loses".into() }
    );
}

#[test]
fn out_of_range_values_name_the_key() {
    for (text, key) in [
        (VALID.replace("count = 2", "count = 2\nloss = 1.5"), "group.loss"),
        (VALID.replace("count = 2", "count = 2\nloss = -0.25"), "group.loss"),
        (VALID.replace("count = 2", "count = -2"), "group.count"),
        (VALID.replace("tasks = 16", "tasks = 0"), "scenario.tasks"),
        (VALID.replace("tasks = 16", "tasks = \"many\""), "scenario.tasks"),
        (VALID.replace("seed = 3", "seed = 3\ninput = \"psychic\""), "scenario.input"),
        // Past the simulator's 600 s horizon, which the run would panic on.
        (VALID.replace("duration_us = 1000000", "duration_us = 800000000"), "scenario.duration_us"),
    ] {
        match err_of(&text) {
            ScenarioError::InvalidValue { key: got, .. } => assert_eq!(got, key),
            other => panic!("expected InvalidValue for {key}, got {other:?}"),
        }
    }
}

#[test]
fn impossible_schedules_are_typed() {
    assert_eq!(
        err_of(&format!("{VALID}\n[[crash]]\nvolunteer = 5\nat_us = 10")),
        ScenarioError::UnknownVolunteer(5)
    );
    assert_eq!(
        err_of(&format!("{VALID}\n[[partition]]\ngroup = \"ghost\"\nat_us = 1\nheal_us = 2")),
        ScenarioError::UnknownGroup("ghost".into())
    );
    assert!(matches!(
        err_of(&format!("{VALID}\n[[flap]]\nvolunteer = 0\nat_us = 2000000\ndown_us = 5")),
        ScenarioError::EventPastDuration { .. }
    ));
    // A flap that starts in time but ends past `duration_us`.
    assert_eq!(
        err_of(&format!("{VALID}\n[[flap]]\nvolunteer = 1\nat_us = 5000\ndown_us = 999000")),
        ScenarioError::EventPastDuration { what: "flap v1".into(), at_us: 1_004_000 }
    );
    assert!(matches!(
        err_of(&format!("{VALID}\n[[partition]]\ngroup = \"only\"\nat_us = 500\nheal_us = 400")),
        ScenarioError::EventBeforeJoin { .. }
    ));
    assert!(matches!(
        err_of(&format!(
            "{VALID}\n[[partition]]\ngroup = \"only\"\nat_us = 100\nheal_us = 300\n\
             [[partition]]\ngroup = \"only\"\nat_us = 200\nheal_us = 400"
        )),
        ScenarioError::OverlappingPartitions { .. }
    ));
    assert_eq!(
        err_of(&VALID.replace("count = 2", "count = 2\nleaves_at_us = 900000")),
        ScenarioError::NoSurvivor
    );
}

#[test]
fn missing_files_and_stem_mismatches_are_typed() {
    assert!(matches!(
        Scenario::load("/nonexistent/nowhere.toml").unwrap_err(),
        ScenarioError::Io { .. }
    ));
}
