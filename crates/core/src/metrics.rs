//! Throughput accounting, as used for the paper's Table 2.
//!
//! The evaluation measures, for every device, the number of items processed
//! over a five-minute window and derives the device's average throughput and
//! its share of the total. [`ThroughputMeter`] collects those counts during a
//! run; [`ThroughputReport`] renders them.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Collects per-device completion counts during a run.
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    inner: Arc<Mutex<MeterState>>,
}

#[derive(Debug)]
struct MeterState {
    started_at: Instant,
    counts: BTreeMap<String, u64>,
    units: BTreeMap<String, f64>,
    bytes: BTreeMap<String, u64>,
    frames: BTreeMap<String, u64>,
    heartbeats: BTreeMap<String, u64>,
    heartbeats_suppressed: BTreeMap<String, u64>,
    shards: BTreeMap<usize, ShardCounters>,
    scheduler: Option<SchedulerCounters>,
}

/// Work-conservation counters of the reactor scheduler: how many driver
/// polls ran, how many of them made no progress, and how the bounded
/// starved-kick budget split wakes between sent and suppressed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerCounters {
    /// Driver polls executed by the reactor.
    pub polls: u64,
    /// Polls that returned `Pending` without making any progress (no frame
    /// received, nothing dispatched): the direct cost of over-waking.
    pub wasted_polls: u64,
    /// Starved drivers actually woken by `kick_starved`.
    pub kicks_sent: u64,
    /// Starved drivers left parked because the kick budget (the shard's
    /// lendable depth) was already covered.
    pub kicks_suppressed: u64,
}

/// Accumulated dispatch counters and last-observed gauges for one lender
/// shard.
#[derive(Debug, Default, Clone, Copy)]
struct ShardCounters {
    borrows: u64,
    results: u64,
    depth: u64,
    in_flight: u64,
}

/// The counter of `device` in `map`. These run several times per task on the
/// reactor thread, so the key is looked up by `&str` and allocated only the
/// first time a device is seen.
fn counter<'a, V: Default>(map: &'a mut BTreeMap<String, V>, device: &str) -> &'a mut V {
    if !map.contains_key(device) {
        map.insert(device.to_string(), V::default());
    }
    map.get_mut(device).expect("present: inserted above if it was not")
}

impl ThroughputMeter {
    /// Creates a meter whose window starts now.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Mutex::new(MeterState {
                started_at: Instant::now(),
                counts: BTreeMap::new(),
                units: BTreeMap::new(),
                bytes: BTreeMap::new(),
                frames: BTreeMap::new(),
                heartbeats: BTreeMap::new(),
                heartbeats_suppressed: BTreeMap::new(),
                shards: BTreeMap::new(),
                scheduler: None,
            })),
        }
    }

    /// Records that `device` completed one task worth `units` table units.
    pub fn record(&self, device: &str, units: f64) {
        let mut state = self.inner.lock();
        *counter(&mut state.counts, device) += 1;
        *counter(&mut state.units, device) += units;
    }

    /// Records that one wire frame of `bytes` payload bytes travelled on the
    /// channel of `device` (either direction). Together with the task count
    /// this exposes the protocol overhead per task: batching drives the
    /// frames-per-task ratio below one.
    pub fn record_wire(&self, device: &str, bytes: u64) {
        let mut state = self.inner.lock();
        *counter(&mut state.bytes, device) += bytes;
        *counter(&mut state.frames, device) += 1;
    }

    /// Records the fate of one heartbeat slot on the channel of `device`: a
    /// standalone control frame actually sent, or one suppressed because data
    /// traffic within the heartbeat interval already proved liveness.
    pub fn record_heartbeat(&self, device: &str, suppressed: bool) {
        let mut state = self.inner.lock();
        let map = if suppressed { &mut state.heartbeats_suppressed } else { &mut state.heartbeats };
        *counter(map, device) += 1;
    }

    /// Records that `n` values were borrowed from lender shard `shard` and
    /// dispatched towards a volunteer (including re-lends after crashes).
    pub fn record_shard_borrows(&self, shard: usize, n: u64) {
        self.inner.lock().shards.entry(shard).or_default().borrows += n;
    }

    /// Records that `n` results returned by volunteers were accepted by
    /// lender shard `shard`.
    pub fn record_shard_results(&self, shard: usize, n: u64) {
        self.inner.lock().shards.entry(shard).or_default().results += n;
    }

    /// Records a point-in-time observation of shard `shard`'s queues:
    /// `depth` values staged or awaiting re-lend and `in_flight` values
    /// borrowed but not yet answered. Gauges, overwritten on every call.
    pub fn observe_shard(&self, shard: usize, depth: u64, in_flight: u64) {
        let mut state = self.inner.lock();
        let counters = state.shards.entry(shard).or_default();
        counters.depth = depth;
        counters.in_flight = in_flight;
    }

    /// Records a point-in-time observation of the reactor scheduler's
    /// work-conservation counters. A gauge set, overwritten on every call;
    /// deployments on the legacy threads backend never feed it.
    pub fn observe_scheduler(&self, counters: SchedulerCounters) {
        self.inner.lock().scheduler = Some(counters);
    }

    /// Renders the counts observed so far into a report.
    pub fn report(&self) -> ThroughputReport {
        let state = self.inner.lock();
        let elapsed = state.started_at.elapsed();
        let mut devices: Vec<&String> = state.counts.keys().collect();
        for device in state
            .bytes
            .keys()
            .chain(state.heartbeats.keys())
            .chain(state.heartbeats_suppressed.keys())
        {
            if !state.counts.contains_key(device) && !devices.contains(&device) {
                devices.push(device);
            }
        }
        let rows = devices
            .into_iter()
            .map(|device| {
                let units = state.units.get(device).copied().unwrap_or(0.0);
                DeviceThroughput {
                    device: device.clone(),
                    tasks: state.counts.get(device).copied().unwrap_or(0),
                    units,
                    throughput: units / elapsed.as_secs_f64().max(1e-9),
                    wire_bytes: state.bytes.get(device).copied().unwrap_or(0),
                    wire_frames: state.frames.get(device).copied().unwrap_or(0),
                    heartbeats_sent: state.heartbeats.get(device).copied().unwrap_or(0),
                    heartbeats_suppressed: state
                        .heartbeats_suppressed
                        .get(device)
                        .copied()
                        .unwrap_or(0),
                }
            })
            .collect();
        let shards = state
            .shards
            .iter()
            .map(|(&shard, counters)| ShardThroughput {
                shard,
                borrows: counters.borrows,
                results: counters.results,
                depth: counters.depth,
                in_flight: counters.in_flight,
            })
            .collect();
        ThroughputReport { elapsed, rows, shards, scheduler: state.scheduler }
    }
}

impl Default for ThroughputMeter {
    fn default() -> Self {
        Self::new()
    }
}

/// Throughput of one device over the measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceThroughput {
    /// Device identifier.
    pub device: String,
    /// Number of tasks completed.
    pub tasks: u64,
    /// Number of table units completed (tasks × units per task).
    pub units: f64,
    /// Average throughput in units per second.
    pub throughput: f64,
    /// Payload bytes that travelled on this device's channel.
    pub wire_bytes: u64,
    /// Wire frames that carried those bytes (batching lowers frames/task).
    pub wire_frames: u64,
    /// Standalone heartbeat control frames actually sent on this channel.
    pub heartbeats_sent: u64,
    /// Heartbeats suppressed because a data frame within the interval
    /// already proved liveness (piggybacked heartbeats).
    pub heartbeats_suppressed: u64,
}

/// Dispatch activity of one lender shard: how many borrows and results its
/// lock served, plus the last observed queue gauges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardThroughput {
    /// Shard index.
    pub shard: usize,
    /// Values borrowed from this shard and dispatched (incl. re-lends).
    pub borrows: u64,
    /// Results accepted by this shard.
    pub results: u64,
    /// Last observed number of values staged or awaiting re-lend.
    pub depth: u64,
    /// Last observed number of values borrowed but not yet answered.
    pub in_flight: u64,
}

/// The per-device throughput rows of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// Length of the measurement window.
    pub elapsed: Duration,
    /// One row per device that completed at least one task.
    pub rows: Vec<DeviceThroughput>,
    /// One row per lender shard that saw dispatch activity (empty when the
    /// deployment never fed shard counters, e.g. a bare meter).
    pub shards: Vec<ShardThroughput>,
    /// Reactor work-conservation counters, if the deployment observed them
    /// (`None` on the legacy threads backend and bare meters).
    pub scheduler: Option<SchedulerCounters>,
}

impl ThroughputReport {
    /// Total throughput across devices, in units per second.
    pub fn total_throughput(&self) -> f64 {
        self.rows.iter().map(|r| r.throughput).sum()
    }

    /// Total number of units completed across devices.
    pub fn total_units(&self) -> f64 {
        self.rows.iter().map(|r| r.units).sum()
    }

    /// Total payload bytes on the wire across devices.
    pub fn total_wire_bytes(&self) -> u64 {
        self.rows.iter().map(|r| r.wire_bytes).sum()
    }

    /// Total wire frames across devices.
    pub fn total_wire_frames(&self) -> u64 {
        self.rows.iter().map(|r| r.wire_frames).sum()
    }

    /// Total standalone heartbeats sent across devices.
    pub fn total_heartbeats_sent(&self) -> u64 {
        self.rows.iter().map(|r| r.heartbeats_sent).sum()
    }

    /// Total heartbeats suppressed by piggybacking across devices.
    pub fn total_heartbeats_suppressed(&self) -> u64 {
        self.rows.iter().map(|r| r.heartbeats_suppressed).sum()
    }

    /// The share (in percent) of the total contributed by `device`, as in the
    /// `%` columns of Table 2.
    pub fn share(&self, device: &str) -> Option<f64> {
        let total = self.total_units();
        if total <= 0.0 {
            return None;
        }
        self.rows.iter().find(|r| r.device == device).map(|r| 100.0 * r.units / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_meter_reports_nothing() {
        let meter = ThroughputMeter::new();
        let report = meter.report();
        assert!(report.rows.is_empty());
        assert_eq!(report.total_units(), 0.0);
        assert_eq!(report.share("phone"), None);
        assert_eq!(report.scheduler, None);
    }

    #[test]
    fn scheduler_counters_are_a_gauge_set() {
        let meter = ThroughputMeter::new();
        meter.observe_scheduler(SchedulerCounters {
            polls: 10,
            wasted_polls: 4,
            kicks_sent: 3,
            kicks_suppressed: 7,
        });
        // A later observation overwrites, never accumulates.
        meter.observe_scheduler(SchedulerCounters {
            polls: 25,
            wasted_polls: 6,
            kicks_sent: 9,
            kicks_suppressed: 11,
        });
        let scheduler = meter.report().scheduler.unwrap();
        assert_eq!(scheduler.polls, 25);
        assert_eq!(scheduler.wasted_polls, 6);
        assert_eq!(scheduler.kicks_sent, 9);
        assert_eq!(scheduler.kicks_suppressed, 11);
    }

    #[test]
    fn counts_accumulate_per_device() {
        let meter = ThroughputMeter::new();
        meter.record("tablet", 1.0);
        meter.record("tablet", 1.0);
        meter.record("phone", 1.0);
        let report = meter.report();
        assert_eq!(report.rows.len(), 2);
        let tablet = report.rows.iter().find(|r| r.device == "tablet").unwrap();
        assert_eq!(tablet.tasks, 2);
        assert_eq!(report.total_units(), 3.0);
        assert!((report.share("tablet").unwrap() - 66.666).abs() < 0.01);
        assert!((report.share("phone").unwrap() - 33.333).abs() < 0.01);
    }

    #[test]
    fn units_scale_throughput() {
        let meter = ThroughputMeter::new();
        meter.record("miner", 2_000.0);
        meter.record("miner", 2_000.0);
        std::thread::sleep(Duration::from_millis(20));
        let report = meter.report();
        assert_eq!(report.rows[0].units, 4_000.0);
        assert!(report.rows[0].throughput > 0.0);
        assert!(report.total_throughput() > 0.0);
        assert!(report.elapsed >= Duration::from_millis(20));
    }

    #[test]
    fn wire_counters_accumulate_per_device() {
        let meter = ThroughputMeter::new();
        meter.record("tablet", 1.0);
        meter.record_wire("tablet", 120);
        meter.record_wire("tablet", 60);
        // A device that only produced traffic so far still gets a row.
        meter.record_wire("phone", 40);
        let report = meter.report();
        assert_eq!(report.rows.len(), 2);
        let tablet = report.rows.iter().find(|r| r.device == "tablet").unwrap();
        assert_eq!((tablet.wire_bytes, tablet.wire_frames), (180, 2));
        let phone = report.rows.iter().find(|r| r.device == "phone").unwrap();
        assert_eq!((phone.tasks, phone.wire_bytes), (0, 40));
        assert_eq!(report.total_wire_bytes(), 220);
        assert_eq!(report.total_wire_frames(), 3);
    }

    #[test]
    fn heartbeat_counters_accumulate_per_device() {
        let meter = ThroughputMeter::new();
        meter.record_heartbeat("tablet", false);
        meter.record_heartbeat("tablet", true);
        meter.record_heartbeat("tablet", true);
        // A device with only suppressed heartbeats still gets a row.
        meter.record_heartbeat("phone", true);
        let report = meter.report();
        let tablet = report.rows.iter().find(|r| r.device == "tablet").unwrap();
        assert_eq!((tablet.heartbeats_sent, tablet.heartbeats_suppressed), (1, 2));
        let phone = report.rows.iter().find(|r| r.device == "phone").unwrap();
        assert_eq!((phone.heartbeats_sent, phone.heartbeats_suppressed), (0, 1));
        assert_eq!(report.total_heartbeats_sent(), 1);
        assert_eq!(report.total_heartbeats_suppressed(), 3);
    }

    #[test]
    fn shard_counters_accumulate_and_gauges_overwrite() {
        let meter = ThroughputMeter::new();
        meter.record_shard_borrows(0, 4);
        meter.record_shard_borrows(0, 2);
        meter.record_shard_results(0, 5);
        meter.record_shard_borrows(2, 1);
        meter.observe_shard(0, 3, 1);
        meter.observe_shard(0, 0, 2);
        let report = meter.report();
        assert_eq!(report.shards.len(), 2);
        let shard0 = report.shards.iter().find(|s| s.shard == 0).unwrap();
        assert_eq!((shard0.borrows, shard0.results), (6, 5));
        assert_eq!((shard0.depth, shard0.in_flight), (0, 2), "gauges keep the last observation");
        let shard2 = report.shards.iter().find(|s| s.shard == 2).unwrap();
        assert_eq!((shard2.borrows, shard2.results), (1, 0));
        // A meter that never saw shard traffic reports no shard rows.
        assert!(ThroughputMeter::new().report().shards.is_empty());
    }

    #[test]
    fn meter_is_shared_between_clones() {
        let meter = ThroughputMeter::new();
        let clone = meter.clone();
        clone.record("a", 1.0);
        assert_eq!(meter.report().rows.len(), 1);
    }
}
