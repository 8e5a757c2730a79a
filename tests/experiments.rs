//! The paper's findings, checked on fleet-simulator runs (the experiment
//! index of `docs/REPRODUCTION.md`, which `make paper` renders from the same
//! functions): the reproduced tables and figures must show who wins, by
//! roughly what factor, and where the crossovers fall.

use pando_bench::{
    batching_sweep, device_vs_server, figure4, regenerate_column, values_relent, FRAME_BOUND,
};
use pando_devices::profiles::{Scenario, ScenarioSetup};
use pando_devices::table2::{paper_total, scenario_entries};
use pando_workloads::AppKind;

/// E1: every reproduced Table 2 total lands within 10 % of the published
/// one, except the frame-bound cells, which must still miss by more: the
/// gap `docs/REPRODUCTION.md` explains. Closing it fails here, so that the
/// list and the report are updated with it.
#[test]
fn table2_totals_match_the_paper_within_ten_percent() {
    for scenario in Scenario::all() {
        for app in AppKind::measured() {
            let column = regenerate_column(scenario, app);
            let Some(paper) = column.paper_total else {
                assert!(column.rows.is_empty(), "{scenario:?}/{app:?} should be unmeasured");
                continue;
            };
            let error = (column.simulated_total - paper).abs() / paper;
            let frame_bound = FRAME_BOUND.contains(&(scenario, app));
            assert_eq!(
                error >= 0.10,
                frame_bound,
                "{scenario:?}/{app:?}: reproduced {:.2} vs paper {paper:.2} (frame-bound: {frame_bound})",
                column.simulated_total
            );
        }
    }
}

/// E2: per-device shares follow the paper — the fastest device of every
/// scenario contributes the largest share, and every share is within a few
/// points of the published one.
#[test]
fn table2_per_device_shares_follow_the_paper() {
    for scenario in Scenario::all() {
        for app in [AppKind::Collatz, AppKind::Raytrace] {
            let column = regenerate_column(scenario, app);
            let paper_best = scenario_entries(scenario)
                .into_iter()
                .max_by(|a, b| a.throughput(app).unwrap().total_cmp(&b.throughput(app).unwrap()))
                .unwrap();
            let simulated_best =
                column.rows.iter().max_by(|a, b| a.simulated.total_cmp(&b.simulated)).unwrap();
            assert_eq!(
                simulated_best.device, paper_best.device,
                "{scenario:?}/{app:?}: the fastest device must match the paper"
            );
            for row in &column.rows {
                assert!(
                    (row.simulated_share - row.paper_share).abs() < 5.0,
                    "{scenario:?}/{app:?}/{}: reproduced share {:.1}% vs paper {:.1}%",
                    row.device,
                    row.simulated_share,
                    row.paper_share
                );
            }
        }
    }
}

/// E3: the cross-scenario ordering of the totals holds (Grid5000 VPN > LAN
/// personal devices > PlanetLab WAN for Collatz, as in Table 2).
#[test]
fn cross_scenario_ordering_matches_the_paper() {
    let totals: Vec<f64> = Scenario::all()
        .iter()
        .map(|s| regenerate_column(*s, AppKind::Collatz).simulated_total)
        .collect();
    let (lan, vpn, wan) = (totals[0], totals[1], totals[2]);
    assert!(vpn > lan, "Grid5000 beats the personal devices in aggregate");
    assert!(lan > wan, "the personal devices beat the PlanetLab nodes in aggregate");
    // And the paper's factors hold roughly (VPN ≈ 1.7× LAN, LAN ≈ 1.2× WAN).
    assert!((vpn / lan - 3_823.51 / 2_209.65).abs() < 0.3);
    assert!((lan / wan - 2_209.65 / 1_845.52).abs() < 0.3);
}

/// E4: the Figure 4 deployment (`scenarios/figure4.toml`) — the laptop
/// starts alone, the phones and the board join in order, the laptop crashes
/// and is the only crash, and its two values are re-lent once. That every
/// output still comes back in order, `figure4` holds the run to
/// `sim::oracle::check` for.
#[test]
fn figure4_deployment_trace_has_the_expected_shape() {
    let report = figure4();
    let event = |line: &String| line.split_once("] ").map(|(_, e)| e.to_string());
    let joins: Vec<String> =
        report.trace.iter().filter(|l| l.contains(" join group=")).filter_map(event).collect();
    assert_eq!(joins, ["v1 join group=phones", "v2 join group=phones", "v3 join group=board"]);
    assert!(report
        .trace
        .iter()
        .any(|l| l.starts_with("setup v0 group=laptop ") && l.contains(" joins_at_us=0 ")));
    let crashes: Vec<String> =
        report.trace.iter().filter(|l| l.ends_with(" crash")).filter_map(event).collect();
    assert_eq!(crashes, ["v0 crash"], "exactly one crash, of the laptop");
    assert_eq!(report.crashed, 1);
    assert_eq!(report.reactor.crash_relends, 1, "one crash verdict re-lends");
    assert_eq!(values_relent(&report), 2, "the laptop's window, lent twice");
}

/// E5: batching hides the network latency — batch size 1 underperforms, and
/// the paper's chosen batch sizes (2 on LAN/VPN, 4 on WAN) reach within a few
/// percent of the saturated throughput.
#[test]
fn batching_hides_latency_at_the_papers_batch_sizes() {
    for scenario in Scenario::all() {
        let paper_batch = scenario.batch_size();
        let sweep = batching_sweep(scenario, AppKind::Raytrace, &[1, paper_batch, 16]);
        let (one, chosen, saturated) = (sweep[0].1, sweep[1].1, sweep[2].1);
        assert!(
            chosen >= saturated * 0.95,
            "{scenario:?}: batch {paper_batch} reaches {chosen:.2}, saturation is {saturated:.2}"
        );
        assert!(one <= chosen, "{scenario:?}: batch 1 cannot beat batch {paper_batch}");
        // On the WAN the effect is pronounced: batch 1 leaves a visible gap.
        if scenario == Scenario::Wan {
            assert!(one < chosen * 0.97, "WAN: batch 1 {one:.3} vs batch 4 {chosen:.3}");
        }
    }
}

/// E6: the §5.5 single-core comparisons — the iPhone SE beats the oldest
/// Grid5000 node and most PlanetLab nodes on Collatz, and 2-5 recent personal
/// cores match the fastest server core.
#[test]
fn device_vs_server_claims_hold() {
    let claims = device_vs_server();
    assert!(claims.iphone_collatz > claims.uvb_collatz);
    assert!(claims.planetlab_beaten >= 6, "the iPhone must beat almost all PlanetLab nodes");
    assert_eq!(claims.planetlab_nodes, 7);
    assert!(
        (2..=5).contains(&claims.mbpro_cores_needed),
        "{} MBPro cores needed to match the fastest server core",
        claims.mbpro_cores_needed
    );
}

/// Consistency between the calibration data and the scenario setups used by
/// the harness (guards against the reference table and the profiles drifting
/// apart).
#[test]
fn scenario_setups_are_consistent_with_the_reference_table() {
    for scenario in Scenario::all() {
        let setup = ScenarioSetup::paper(scenario);
        for app in AppKind::measured() {
            let total = setup.total_rate(app);
            match paper_total(scenario, app) {
                Some(paper) => {
                    assert!((total - paper).abs() / paper < 0.01 || (total - paper).abs() < 0.02)
                }
                None => assert_eq!(total, 0.0),
            }
        }
    }
}
