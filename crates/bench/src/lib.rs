//! The paper's evaluation (§5) reproduced on the fleet simulator.
//!
//! Every reproduced figure is a [`simulate_fleet`] run: the real lender,
//! reactor, wire protocol and worker core on the virtual clock, with one
//! volunteer per published Table 2 device. Each volunteer computes a task for
//! its device's service time and talks to the master over its scenario's link.
//! [`reproduction_report`] renders the whole evaluation as
//! `docs/REPRODUCTION.md`, and `tests/experiments.rs` asserts the paper's
//! findings on the same functions.
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `paper` | `docs/REPRODUCTION.md`: Table 2, the §5.5 batching sweep, Figure 4 and the §5.5 device-vs-server claims |
//! | `fig11_mining` | Figure 11 synchronous parallel search (crypto mining) |
//! | `fig12_stubborn` | Figure 12 stubborn processing with failure-prone data distribution |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pando_core::scenario::Scenario as ScenarioFile;
use pando_core::sim::{
    oracle, simulate_fleet, FleetParams, FleetReport, FleetScript, VolunteerSpec,
};
use pando_devices::profiles::{units_per_task, Scenario, ScenarioSetup};
use pando_devices::table2::{paper_reference, paper_total, scenario_entries};
use pando_workloads::AppKind;
use std::fmt::Write;
use std::time::Duration;

/// Virtual time each fleet run is measured over.
const WINDOW: Duration = Duration::from_secs(120);

/// Seed of every fleet run: volunteer `v`'s link jitters with `SEED + v`.
const SEED: u64 = 1;

/// The Table 2 cells that miss the published total by more than 10 % at the
/// paper's batch sizes. The master packs a volunteer's whole window into one
/// frame and the worker replies once per frame, so every window pays a round
/// trip of idle time; on the VPN and WAN links these fine-grained
/// applications lose 12–25 % of their throughput to it. `tests/experiments.rs`
/// asserts that they still miss, so closing the gap forces an update here.
pub const FRAME_BOUND: [(Scenario, AppKind); 6] = [
    (Scenario::Vpn, AppKind::Collatz),
    (Scenario::Vpn, AppKind::CryptoMining),
    (Scenario::Vpn, AppKind::StreamLenderTesting),
    (Scenario::Wan, AppKind::Collatz),
    (Scenario::Wan, AppKind::CryptoMining),
    (Scenario::Wan, AppKind::StreamLenderTesting),
];

/// The paper's Figure 4 deployment as a checked-in scenario.
const FIGURE4: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/figure4.toml");

/// One (scenario, application) cell of Table 2: the reproduced per-device
/// throughput next to the published one.
#[derive(Debug, Clone)]
pub struct Table2Column {
    /// The scenario being reproduced.
    pub scenario: Scenario,
    /// The application of this column.
    pub app: AppKind,
    /// One row per device with a published measurement, in paper order.
    pub rows: Vec<Table2Row>,
    /// Reproduced total throughput in table units per second.
    pub simulated_total: f64,
    /// Published total throughput in table units per second.
    pub paper_total: Option<f64>,
}

/// One device row of a reproduced Table 2 column.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Device name.
    pub device: String,
    /// Reproduced throughput in table units per second.
    pub simulated: f64,
    /// Reproduced share of the total, in percent.
    pub simulated_share: f64,
    /// Published throughput in table units per second.
    pub paper: f64,
    /// Published share of the total, in percent.
    pub paper_share: f64,
}

/// Per-device throughput, in table units per second, of one fleet run of
/// `setup`'s devices measured on `app` over [`WINDOW`], in the order of
/// [`ScenarioSetup::devices_for`].
fn fleet_rates(setup: &ScenarioSetup, app: AppKind, batch_size: usize) -> Vec<f64> {
    let services: Vec<Duration> = setup
        .devices_for(app)
        .iter()
        .map(|device| device.service_time(app).expect("a measured device has a service time"))
        .collect();
    if services.is_empty() {
        return Vec::new();
    }
    let volunteers = services
        .iter()
        .zip(0u64..)
        .map(|(service, v)| VolunteerSpec {
            group: setup.scenario.to_string(),
            service: *service,
            channel: setup.channel.clone().with_seed(SEED + v),
            joins_at: Duration::ZERO,
            leaves_at: None,
            crash_at: None,
        })
        .collect();
    // Enough input to keep every device busy past the window: a tenth over
    // the published rate, plus two batches per device.
    let per_second: f64 = services.iter().map(|service| 1.0 / service.as_secs_f64()).sum();
    let tasks =
        (1.1 * per_second * WINDOW.as_secs_f64()) as u64 + (2 * batch_size * services.len()) as u64;
    let script = FleetScript {
        name: format!("table2-{}-{app}", setup.scenario),
        volunteers,
        partitions: Vec::new(),
        interactive_input: false,
        batch_size,
    };
    let report = checked(FleetParams::new(SEED, 1, tasks).with_script(script));
    let mut done = vec![0u64; services.len()];
    for (at, v, records) in replies(&report) {
        // A volunteer computes a frame's records back to back, so the
        // reply sent at `at` holds records finished at `at - i × service`.
        let late = at.saturating_sub(WINDOW).as_nanos().div_ceil(services[v].as_nanos());
        done[v] += records.saturating_sub(late as u64);
    }
    let units = units_per_task(app) / WINDOW.as_secs_f64();
    done.into_iter().map(|records| records as f64 * units).collect()
}

/// Runs `params`, panicking if the run breaks [`oracle::check`]'s contract:
/// no reproduced number comes from such a run.
fn checked(params: FleetParams) -> FleetReport {
    let report = simulate_fleet(&params);
    oracle::check(&report).unwrap_or_else(|e| panic!("{}: {e}", report.trace[0]));
    report
}

/// Every reply of a fleet run as `(virtual instant, volunteer, records)`,
/// read from its `[t] v{v} reply records={n}` trace lines.
fn replies(report: &FleetReport) -> impl Iterator<Item = (Duration, usize, u64)> + '_ {
    report.trace.iter().filter_map(|line| {
        let (at, rest) = line.strip_prefix('[')?.split_once("] v")?;
        let (v, records) = rest.split_once(" reply records=")?;
        Some((Duration::from_micros(at.parse().ok()?), v.parse().ok()?, records.parse().ok()?))
    })
}

fn share(part: f64, total: f64) -> f64 {
    if total > 0.0 {
        100.0 * part / total
    } else {
        0.0
    }
}

/// Reproduces one cell of Table 2: a fleet run of the scenario's devices at
/// the paper's batch size.
pub fn regenerate_column(scenario: Scenario, app: AppKind) -> Table2Column {
    let setup = ScenarioSetup::paper(scenario);
    let rates = fleet_rates(&setup, app, setup.batch_size);
    let simulated_total: f64 = rates.iter().sum();
    let paper_sum = setup.total_rate(app);
    let rows = setup
        .devices_for(app)
        .into_iter()
        .zip(rates)
        .map(|(device, simulated)| {
            let paper = device.rate(app).unwrap_or(0.0);
            Table2Row {
                device: device.name.clone(),
                simulated,
                simulated_share: share(simulated, simulated_total),
                paper,
                paper_share: share(paper, paper_sum),
            }
        })
        .collect();
    Table2Column { scenario, app, rows, simulated_total, paper_total: paper_total(scenario, app) }
}

/// Sweeps the batch size for one scenario and application, returning
/// `(batch_size, total units/s)` pairs — the §5.5 latency-hiding experiment.
pub fn batching_sweep(
    scenario: Scenario,
    app: AppKind,
    batch_sizes: &[usize],
) -> Vec<(usize, f64)> {
    let setup = ScenarioSetup::paper(scenario);
    batch_sizes.iter().map(|&batch| (batch, fleet_rates(&setup, app, batch).iter().sum())).collect()
}

/// The paper's Figure 4 deployment (`scenarios/figure4.toml`) on the fleet
/// simulator: a laptop starts alone, two phones and a board join, the laptop
/// crashes and the others take its values over. The run is held to
/// [`oracle::check`]: every value comes back once, in input order.
pub fn figure4() -> FleetReport {
    checked(FleetParams::from_scenario(FIGURE4).expect("scenarios/figure4.toml loads"))
}

/// Values a run lent more than once: every borrow past the one whose
/// result was accepted, summed over the shards' dispatch rows.
pub fn values_relent(report: &FleetReport) -> u64 {
    let field = |row: &str, key: &str| -> u64 {
        row.split(' ').find_map(|kv| kv.strip_prefix(key)?.parse().ok()).unwrap_or(0)
    };
    report.shard_rows.iter().map(|row| field(row, "borrows=") - field(row, "results=")).sum()
}

/// The §5.5 single-core comparisons between personal devices and servers,
/// read from the published rates.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceVsServer {
    /// The iPhone SE's Collatz rate (BigNums/s, one core).
    pub iphone_collatz: f64,
    /// The oldest Grid5000 node's (uvb.sophia) Collatz rate.
    pub uvb_collatz: f64,
    /// PlanetLab nodes the iPhone SE outperforms on Collatz.
    pub planetlab_beaten: usize,
    /// PlanetLab nodes in Table 2.
    pub planetlab_nodes: usize,
    /// One MBPro 2016 core's Collatz rate.
    pub mbpro_core_collatz: f64,
    /// The fastest server core (Grid5000 or PlanetLab) and its Collatz rate.
    pub fastest_server: (&'static str, f64),
    /// MBPro 2016 cores needed to match the fastest server core.
    pub mbpro_cores_needed: u32,
}

/// Computes the §5.5 claims: "a single core from personal devices of 2016
/// sometimes provides higher throughput than older servers" and "2-5 cores
/// on recent personal devices can outperform the fastest server core".
pub fn device_vs_server() -> DeviceVsServer {
    let all = paper_reference();
    let find = |name: &str| all.iter().find(|e| e.device == name).expect("published device");
    let (iphone, mbpro) = (find("iPhone SE"), find("MBPro 2016"));
    let fastest = all
        .iter()
        .filter(|e| e.scenario != Scenario::Lan)
        .max_by(|a, b| a.collatz.total_cmp(&b.collatz))
        .expect("published servers");
    let planetlab = scenario_entries(Scenario::Wan);
    let mbpro_core_collatz = mbpro.collatz / f64::from(mbpro.cores);
    DeviceVsServer {
        iphone_collatz: iphone.collatz,
        uvb_collatz: find("uvb.sophia").collatz,
        planetlab_beaten: planetlab.iter().filter(|e| e.collatz < iphone.collatz).count(),
        planetlab_nodes: planetlab.len(),
        mbpro_core_collatz,
        fastest_server: (fastest.device, fastest.collatz),
        mbpro_cores_needed: (fastest.collatz / mbpro_core_collatz).ceil() as u32,
    }
}

/// Renders `docs/REPRODUCTION.md`: every Table 2 cell published vs
/// reproduced, the batching sweep, Figure 4's events and the §5.5 claims.
/// The text is a pure function of the code: two calls return the same bytes.
pub fn reproduction_report() -> String {
    let mut out = String::new();
    render_table2(&mut out);
    render_sweep(&mut out);
    render_figure4(&mut out);
    render_claims(&mut out);
    out
}

const HEADER: &str = "\
# Reproducing the paper's evaluation

Generated by `make paper` (the `paper` binary of `crates/bench`): do not edit
by hand. CI regenerates it and fails on any difference, like a golden trace.

Every reproduced number is a `simulate_fleet` run: the real lender, reactor,
wire protocol and worker core on the virtual clock. Each Table 2 device is one
volunteer that computes a task for the device's published service time
(`units_per_task / rate`, `crates/devices`) and talks to the master over its
scenario's link profile (`ChannelConfig::lan/vpn/wan`), jittered with its own
seed. The service times come from the published per-device rates, so a
coordination layer that cost nothing would reproduce every total exactly: what
the lender, limiter, frames and links cost shows up as the gap.
";

fn render_table2(out: &mut String) {
    out.push_str(HEADER);
    let secs = WINDOW.as_secs();
    let _ = write!(
        out,
        "
## 1. Table 2: published vs reproduced

Throughput is the results each device finishes inside {secs} s of virtual time,
in Table 2 units per second, at the paper's batch sizes (2 on LAN and VPN, 4
on WAN). `tests/experiments.rs` (E1) holds every cell to 10 % except the six
marked *frame-bound*, which it requires to still miss.

| scenario | application | unit | batch | published | reproduced | error | |
|---|---|---|---:|---:|---:|---:|---|
"
    );
    let mut columns = Vec::new();
    for scenario in Scenario::all() {
        for app in AppKind::measured() {
            let column = regenerate_column(scenario, app);
            if let Some(paper) = column.paper_total {
                let reproduced = column.simulated_total;
                let note = if FRAME_BOUND.contains(&(scenario, app)) { "frame-bound" } else { "" };
                let _ = writeln!(
                    out,
                    "| {scenario} | {app} | {} | {} | {paper:.2} | {reproduced:.2} | {:+.1} % | {note} |",
                    app.instantiate().unit(),
                    scenario.batch_size(),
                    100.0 * (reproduced - paper) / paper,
                );
            }
            columns.push(column);
        }
    }
    out.push_str(
        "
The WAN deployment has no image-processing column, as in the paper.

### The frame-packing gap

The six frame-bound cells show a coordination cost that a model of the master
could not. With the default `tasks_per_frame = None`, the master packs a
volunteer's whole window of `b` values into one frame, and the worker replies
once per frame. The volunteer computes `b × service`, replies, then idles for
one round trip until the next frame arrives: batching becomes stop-and-wait
per frame. The bound below charges that idle time to every device,
`Σ rate × compute / (compute + round trip)`, with the mean round trip
`2 × latency + jitter`; the reproduced totals sit on it. The other eleven
cells compute long enough per frame to hide the round trip, and lose at most
5.5 %: on the LAN it is 5 ms against 55 ms or more of compute per frame, and
ray tracing, image processing and agent training compute for 0.2 s or more
per frame on every link.

| cell | compute per frame | round trip | stop-and-wait bound | reproduced |
|---|---:|---:|---:|---:|
",
    );
    for (scenario, app) in FRAME_BOUND {
        let setup = ScenarioSetup::paper(scenario);
        let rtt = (2 * setup.channel.latency + setup.channel.jitter).as_secs_f64();
        let frames: Vec<(f64, f64)> = setup
            .devices_for(app)
            .iter()
            .filter_map(|d| Some((d.rate(app)?, d.service_time(app)?.as_secs_f64())))
            .map(|(rate, service)| (rate, setup.batch_size as f64 * service))
            .collect();
        let bound: f64 = frames.iter().map(|(rate, frame)| rate * frame / (frame + rtt)).sum();
        let (fastest, slowest) = frames
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), (_, frame)| (lo.min(*frame), hi.max(*frame)));
        let reproduced = columns.iter().find(|c| (c.scenario, c.app) == (scenario, app));
        let _ = writeln!(
            out,
            "| {scenario} {app} | {:.0}–{:.0} ms | {:.0} ms | {bound:.2} | {:.2} |",
            1e3 * fastest,
            1e3 * slowest,
            1e3 * rtt,
            reproduced.map_or(0.0, |c| c.simulated_total),
        );
    }
    out.push_str(
        "
Run with one task per frame instead (`PandoConfig::with_tasks_per_frame(1)`
inside `simulate_fleet`), the next value of a window travels while the previous
one computes, and every cell lands within 2.6 % of the published total. The
default is left as it is: sizing the in-flight window and the frames from
measured round trips is ROADMAP item 9.

### Per device

Reproduced (published) units per second.
",
    );
    for scenario in Scenario::all() {
        let _ = write!(
            out,
            "\n**{}** (batch {})\n\n| device |",
            scenario.title(),
            scenario.batch_size()
        );
        let apps: Vec<&Table2Column> =
            columns.iter().filter(|c| c.scenario == scenario && !c.rows.is_empty()).collect();
        for column in &apps {
            let _ = write!(out, " {} |", column.app);
        }
        out.push_str("\n|---|");
        out.push_str(&"---:|".repeat(apps.len()));
        out.push('\n');
        for (i, row) in apps[0].rows.iter().enumerate() {
            let _ = write!(out, "| {} |", row.device);
            for column in &apps {
                let row = &column.rows[i];
                let _ = write!(out, " {:.2} ({:.2}) |", row.simulated, row.paper);
            }
            out.push('\n');
        }
    }
}

fn render_sweep(out: &mut String) {
    let batches = [1, 2, 4, 8];
    let sweeps: Vec<Vec<(usize, f64)>> =
        Scenario::all().iter().map(|s| batching_sweep(*s, AppKind::Raytrace, &batches)).collect();
    out.push_str(
        "
## 2. §5.5: batching hides the network latency

Total ray-tracing throughput (Frames/s) against the batch size, same runs as
Table 2 otherwise. The paper chose 2 on LAN and VPN and 4 on WAN; beyond those
the curves flatten. `tests/experiments.rs` (E5) asserts that the paper's
choice reaches 95 % of batch 16 and that batch 1 loses on the WAN.

| batch | LAN | VPN | WAN |
|---:|---:|---:|---:|
",
    );
    for (i, batch) in batches.iter().enumerate() {
        let _ = writeln!(
            out,
            "| {batch} | {:.3} | {:.3} | {:.3} |",
            sweeps[0][i].1, sweeps[1][i].1, sweeps[2][i].1
        );
    }
}

fn render_figure4(out: &mut String) {
    let scenario = ScenarioFile::load(FIGURE4).expect("scenarios/figure4.toml loads");
    let labels: Vec<String> = scenario
        .groups
        .iter()
        .flat_map(|g| {
            let device = g.device.clone().unwrap_or_default();
            std::iter::repeat_n(format!("{} ({device})", g.name), g.count)
        })
        .collect();
    let report = figure4();
    let mut computed = vec![0u64; labels.len()];
    for (_, v, records) in replies(&report) {
        computed[v] += records;
    }
    out.push_str(
        "
## 3. Figure 4: join, crash and take-over

`scenarios/figure4.toml` on the fleet simulator: a laptop starts alone, two
phones and a single-board machine join one by one, each with its published
ray-tracing service time, then the laptop crashes and the others take the
stream over. `tests/experiments.rs` (E4) asserts these events.

| virtual time | event |
|---:|---|
",
    );
    for (v, label) in labels.iter().enumerate() {
        if report
            .trace
            .iter()
            .any(|l| l.starts_with(&format!("setup v{v} ")) && l.contains(" joins_at_us=0 "))
        {
            let _ = writeln!(out, "| 0 ms | v{v} {label} joins |");
        }
    }
    for line in &report.trace {
        let Some((at, event)) = line.strip_prefix('[').and_then(|l| l.split_once("] ")) else {
            continue;
        };
        let v = event.split(' ').next().and_then(|v| v.strip_prefix('v')?.parse::<usize>().ok());
        let text = match (v, event) {
            (Some(v), e) if e.contains(" join group=") => format!("v{v} {} joins", labels[v]),
            (Some(v), e) if e.ends_with(" crash") => format!("v{v} {} crashes", labels[v]),
            (None, "output done") => {
                format!("output complete: {} values", report.output_order.len())
            }
            _ => continue,
        };
        let ms = at.parse::<u64>().unwrap_or(0) / 1_000;
        let _ = writeln!(out, "| {ms} ms | {text} |");
    }
    let computed: Vec<String> =
        computed.iter().enumerate().map(|(v, n)| format!("v{v} {n}")).collect();
    let _ = write!(
        out,
        "
Output in input order: yes. Crashes: {}. Crash re-lends: {}, covering {} values.
Tasks computed per volunteer: {}.
",
        report.crashed,
        report.reactor.crash_relends,
        values_relent(&report),
        computed.join(", "),
    );
}

fn render_claims(out: &mut String) {
    let c = device_vs_server();
    let _ = write!(
        out,
        "
## 4. §5.5: personal devices against server cores

From the published single-core Collatz rates (BigNums/s); `tests/experiments.rs`
(E6) asserts each row.

| claim | published rates |
|---|---|
| A 2016 phone core beats an older server | iPhone SE {:.2}, uvb.sophia (Grid5000) {:.2} |
| The phone beats almost every PlanetLab node | better than {} of {} |
| 2–5 recent personal cores match the fastest server core | MBPro 2016 core {:.2}, {} {:.2}: {} cores |
",
        c.iphone_collatz,
        c.uvb_collatz,
        c.planetlab_beaten,
        c.planetlab_nodes,
        c.mbpro_core_collatz,
        c.fastest_server.0,
        c.fastest_server.1,
        c.mbpro_cores_needed,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wan_skips_image_processing() {
        let column = regenerate_column(Scenario::Wan, AppKind::ImageProcessing);
        assert!(column.rows.is_empty());
        assert_eq!(column.paper_total, None);
    }

    #[test]
    fn render_scenario_mentions_every_device() {
        let text = reproduction_report();
        for entry in paper_reference() {
            assert!(text.contains(&format!("| {} |", entry.device)), "missing {}", entry.device);
        }
        let cells = text.lines().filter(|l| {
            l.starts_with("| lan |") || l.starts_with("| vpn |") || l.starts_with("| wan |")
        });
        assert_eq!(cells.count(), 17, "every published Table 2 total");
        assert_eq!(text.matches("| frame-bound |").count(), FRAME_BOUND.len());
    }
}
