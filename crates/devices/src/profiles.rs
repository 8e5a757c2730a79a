//! Device profiles and deployment scenarios derived from the published data.
//!
//! A [`DeviceProfile`] couples a device's per-application service rate (from
//! [`crate::table2`]) with the network characteristics of the
//! deployment it participates in. A [`ScenarioSetup`] bundles the devices of
//! one deployment together with the channel configuration and the batch size
//! used in the corresponding experiment (batch 2 on LAN and VPN, batch 4 on
//! WAN, paper §5.2–§5.4).

use crate::table2;
use pando_netsim::channel::ChannelConfig;
use pando_workloads::AppKind;
use std::time::Duration;

/// The three deployment scenarios of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Personal devices on a local Wi-Fi network (paper §5.2).
    Lan,
    /// Grid5000 nodes over a virtual private network (paper §5.3).
    Vpn,
    /// PlanetLab EU nodes over a wide-area network (paper §5.4).
    Wan,
}

impl Scenario {
    /// All scenarios in paper order.
    pub fn all() -> [Scenario; 3] {
        [Scenario::Lan, Scenario::Vpn, Scenario::Wan]
    }

    /// Human-readable title used by the bench harness output.
    pub fn title(self) -> &'static str {
        match self {
            Scenario::Lan => "LAN: Personal Devices",
            Scenario::Vpn => "VPN: Grid5000 Nodes",
            Scenario::Wan => "WAN: PlanetLab EU Nodes",
        }
    }

    /// The input batch size used by the paper for this scenario.
    pub fn batch_size(self) -> usize {
        match self {
            Scenario::Lan | Scenario::Vpn => 2,
            Scenario::Wan => 4,
        }
    }

    /// The channel configuration modelling this scenario's network.
    fn channel_config(self) -> ChannelConfig {
        match self {
            Scenario::Lan => ChannelConfig::lan(),
            Scenario::Vpn => ChannelConfig::vpn(),
            Scenario::Wan => ChannelConfig::wan(),
        }
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scenario::Lan => f.write_str("lan"),
            Scenario::Vpn => f.write_str("vpn"),
            Scenario::Wan => f.write_str("wan"),
        }
    }
}

/// A participating device: published service rates plus scenario membership.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Device name as printed in the paper.
    pub name: String,
    /// Deployment scenario the device belongs to.
    pub scenario: Scenario,
    /// Number of cores the device contributes.
    pub cores: u32,
    /// Published throughput per application (units of Table 2 per second).
    entry: table2::PaperEntry,
}

impl DeviceProfile {
    /// Builds the profile of one published table row.
    fn from_entry(entry: table2::PaperEntry) -> Self {
        Self { name: entry.device.to_string(), scenario: entry.scenario, cores: entry.cores, entry }
    }

    /// Device service rate for `app`, in Table 2 units per second, or `None`
    /// if the paper does not report a measurement.
    pub fn rate(&self, app: AppKind) -> Option<f64> {
        self.entry.throughput(app)
    }

    /// Time this device needs to process one Pando input of `app` (one work
    /// unit as generated by the bench harness).
    ///
    /// Returns `None` when the device has no measurement for `app`.
    pub fn service_time(&self, app: AppKind) -> Option<Duration> {
        let rate = self.rate(app)?;
        if rate <= 0.0 {
            return None;
        }
        Some(Duration::from_secs_f64(units_per_task(app) / rate))
    }
}

/// Number of Table 2 units bundled into one Pando input by the experiment
/// workloads. Coarse-grained applications (raytracing, image processing) use
/// one unit per input; fine-grained ones group several units per input so
/// that one input takes tens of milliseconds of compute — the same reason
/// the paper's mining inputs cover a nonce range and its batching is enough
/// to hide the network latency (§5.5).
pub fn units_per_task(app: AppKind) -> f64 {
    match app {
        AppKind::Collatz => 50.0,
        AppKind::StreamLenderTesting => 50.0,
        AppKind::CryptoMining => 20_000.0,
        AppKind::MlAgentTraining => 500.0,
        AppKind::Raytrace | AppKind::ImageProcessing | AppKind::Arxiv => 1.0,
    }
}

/// A complete deployment: devices, network and batching parameters.
#[derive(Debug, Clone)]
pub struct ScenarioSetup {
    /// The scenario being modelled.
    pub scenario: Scenario,
    /// Participating devices in paper order.
    pub devices: Vec<DeviceProfile>,
    /// Input batch size used by the master.
    pub batch_size: usize,
    /// Channel configuration between the master and every device.
    pub channel: ChannelConfig,
}

impl ScenarioSetup {
    /// The setup used by the paper for `scenario`.
    pub fn paper(scenario: Scenario) -> Self {
        let devices =
            table2::scenario_entries(scenario).into_iter().map(DeviceProfile::from_entry).collect();
        Self {
            scenario,
            devices,
            batch_size: scenario.batch_size(),
            channel: scenario.channel_config(),
        }
    }

    /// Total published throughput of all devices for `app` (the header row of
    /// Table 2), ignoring devices without a measurement.
    pub fn total_rate(&self, app: AppKind) -> f64 {
        self.devices.iter().filter_map(|d| d.rate(app)).sum()
    }

    /// Devices that have a measurement for `app`.
    pub fn devices_for(&self, app: AppKind) -> Vec<&DeviceProfile> {
        self.devices.iter().filter(|d| d.rate(app).is_some()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_three_scenarios_have_names_and_titles() {
        assert_eq!(Scenario::Lan.to_string(), "lan");
        assert!(Scenario::Wan.title().contains("PlanetLab"));
        assert_eq!(Scenario::all().len(), 3);
    }

    #[test]
    fn batch_sizes_match_the_paper() {
        assert_eq!(Scenario::Lan.batch_size(), 2);
        assert_eq!(Scenario::Vpn.batch_size(), 2);
        assert_eq!(Scenario::Wan.batch_size(), 4);
    }

    #[test]
    fn setups_have_the_published_devices() {
        assert_eq!(ScenarioSetup::paper(Scenario::Lan).devices.len(), 5);
        assert_eq!(ScenarioSetup::paper(Scenario::Vpn).devices.len(), 8);
        assert_eq!(ScenarioSetup::paper(Scenario::Wan).devices.len(), 7);
    }

    #[test]
    fn total_rate_matches_published_totals() {
        for scenario in Scenario::all() {
            let setup = ScenarioSetup::paper(scenario);
            for app in AppKind::measured() {
                let Some(total) = table2::paper_total(scenario, app) else { continue };
                let computed = setup.total_rate(app);
                let close =
                    (computed - total).abs() / total < 0.005 || (computed - total).abs() < 0.02;
                assert!(close, "{scenario:?}/{app:?}: {computed} vs {total}");
            }
        }
    }

    #[test]
    fn service_time_is_inverse_of_rate() {
        let setup = ScenarioSetup::paper(Scenario::Lan);
        let iphone = setup.devices.iter().find(|d| d.name == "iPhone SE").unwrap();
        let t = iphone.service_time(AppKind::Raytrace).unwrap();
        assert!((t.as_secs_f64() - 1.0 / 2.90).abs() < 1e-9);
        // Mining tasks cover a nonce range of 20 000 hashes.
        let mining = iphone.service_time(AppKind::CryptoMining).unwrap();
        assert!((mining.as_secs_f64() - 20_000.0 / 42_720.0).abs() < 1e-9);
    }

    #[test]
    fn wan_devices_have_no_image_processing() {
        let setup = ScenarioSetup::paper(Scenario::Wan);
        assert!(setup.devices_for(AppKind::ImageProcessing).is_empty());
        assert_eq!(setup.devices_for(AppKind::Collatz).len(), 7);
        for device in &setup.devices {
            assert_eq!(device.service_time(AppKind::ImageProcessing), None);
        }
    }
}
