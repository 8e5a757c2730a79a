//! Per-device and per-shard dispatch counts.
//!
//! The evaluation counts, for every device, the items it processed over a
//! window. [`ThroughputMeter`] collects those counts during a run — tasks,
//! wire traffic and heartbeats per device, borrows and results per lender
//! shard — and [`ThroughputReport`] renders them. Everything else a run
//! counts is counted once, by the layer that owns it, and read from there:
//! the reactor's [`ReactorStats`](crate::reactor::ReactorStats), the
//! lender's [`LenderStats`](pando_pull_stream::lender::LenderStats).
//!
//! The meter sits *beside* the dispatch path, not in it. Its counters live in
//! cells — one per device name, one per lender shard — and whoever feeds a
//! cell looks it up once ([`ThroughputMeter::device`],
//! [`ThroughputMeter::shard`]) and keeps the handle: a record is then a few
//! relaxed atomic adds on the holder's own cell, with no lock, no lookup and
//! no allocation. Only the look-ups and [`ThroughputMeter::report`] take the
//! meter's registry lock.
//!
//! ```
//! use pando_core::metrics::ThroughputMeter;
//!
//! let meter = ThroughputMeter::new();
//! let tablet = meter.device("tablet"); // once, when the device joins
//! tablet.record_wire(120);             // per frame, lock-free
//! tablet.record(2);                    // two results came back in it
//! let report = meter.report();
//! assert_eq!((report.rows[0].tasks, report.rows[0].wire_frames), (2, 1));
//! ```

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Collects per-device completion counts during a run. Clones share the same
/// cells.
#[derive(Debug, Clone, Default)]
pub struct ThroughputMeter {
    /// The registry of cells. Never taken by a record.
    cells: Arc<Mutex<Cells>>,
}

#[derive(Debug, Default)]
struct Cells {
    devices: BTreeMap<String, Arc<DeviceCell>>,
    shards: BTreeMap<usize, Arc<ShardCell>>,
}

/// The counters of one device. Statistics only — they publish no other data,
/// so every access is `Relaxed`.
#[derive(Debug, Default)]
struct DeviceCell {
    tasks: AtomicU64,
    wire_bytes: AtomicU64,
    wire_frames: AtomicU64,
    heartbeats_sent: AtomicU64,
    heartbeats_suppressed: AtomicU64,
}

/// The dispatch counters of one lender shard; `Relaxed` like [`DeviceCell`].
#[derive(Debug, Default)]
struct ShardCell {
    borrows: AtomicU64,
    results: AtomicU64,
}

/// A feeder's handle on the counters of one device, from
/// [`ThroughputMeter::device`]. Handles of one name share one cell, so a
/// volunteer that re-registers or resumes keeps its row.
#[derive(Debug, Clone)]
pub struct DeviceMeter(Arc<DeviceCell>);

impl DeviceMeter {
    /// Records that the device completed `n` tasks.
    pub fn record(&self, n: u64) {
        self.0.tasks.fetch_add(n, Relaxed);
    }

    /// Records that one wire frame of `bytes` payload bytes travelled on the
    /// device's channel (either direction). Together with the task count
    /// this exposes the protocol overhead per task: batching drives the
    /// frames-per-task ratio below one.
    pub fn record_wire(&self, bytes: u64) {
        self.0.wire_bytes.fetch_add(bytes, Relaxed);
        self.0.wire_frames.fetch_add(1, Relaxed);
    }

    /// Records the fate of one heartbeat slot on the device's channel: a
    /// standalone control frame actually sent, or one suppressed because data
    /// traffic within the heartbeat interval already proved liveness.
    pub fn record_heartbeat(&self, suppressed: bool) {
        let cell = &self.0;
        let slot = if suppressed { &cell.heartbeats_suppressed } else { &cell.heartbeats_sent };
        slot.fetch_add(1, Relaxed);
    }
}

/// A feeder's handle on the counters of one lender shard, from
/// [`ThroughputMeter::shard`]. Every driver of a shard holds one; they share
/// the shard's cell.
#[derive(Debug, Clone)]
pub struct ShardMeter(Arc<ShardCell>);

impl ShardMeter {
    /// Records that `n` values were borrowed from the shard and dispatched
    /// towards a volunteer (including re-lends after crashes).
    pub fn record_borrows(&self, n: u64) {
        self.0.borrows.fetch_add(n, Relaxed);
    }

    /// Records that `n` results returned by volunteers were accepted by the
    /// shard.
    pub fn record_results(&self, n: u64) {
        self.0.results.fetch_add(n, Relaxed);
    }
}

impl ThroughputMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// The handle on the counters of `device`, creating its cell on first
    /// sight. Look it up once — where the device joins — and record through
    /// the handle. A device nothing was recorded on renders no row.
    pub fn device(&self, device: &str) -> DeviceMeter {
        DeviceMeter(self.cells.lock().devices.entry(device.to_string()).or_default().clone())
    }

    /// The handle on the counters of lender shard `shard`; like
    /// [`ThroughputMeter::device`], looked up once by whoever feeds it (and
    /// again by a driver that hops shards). A shard nothing was recorded on
    /// renders no row.
    pub fn shard(&self, shard: usize) -> ShardMeter {
        ShardMeter(self.cells.lock().shards.entry(shard).or_default().clone())
    }

    /// Renders the counts observed so far into a report.
    ///
    /// Every counter is exact: a record is never lost or counted twice, and
    /// once the feeders are quiet the report is the run's totals. A report
    /// taken *while* they record reads each counter on its own, so one
    /// frame's bytes may show a moment before its tasks.
    ///
    /// Row order is part of the contract (the `meter` lines of every golden
    /// trace are these rows): devices that completed a task in name order,
    /// then — each group in name order, each device once — devices first
    /// seen through wire traffic, through a sent heartbeat, through a
    /// suppressed one.
    pub fn report(&self) -> ThroughputReport {
        let cells = self.cells.lock();
        let mut groups: [Vec<DeviceThroughput>; 4] = Default::default();
        for (device, cell) in &cells.devices {
            let row = DeviceThroughput {
                device: device.clone(),
                tasks: cell.tasks.load(Relaxed),
                wire_bytes: cell.wire_bytes.load(Relaxed),
                wire_frames: cell.wire_frames.load(Relaxed),
                heartbeats_sent: cell.heartbeats_sent.load(Relaxed),
                heartbeats_suppressed: cell.heartbeats_suppressed.load(Relaxed),
            };
            let seen_through =
                [row.tasks, row.wire_frames, row.heartbeats_sent, row.heartbeats_suppressed];
            if let Some(group) = seen_through.iter().position(|&count| count > 0) {
                groups[group].push(row);
            }
        }
        let shards = cells
            .shards
            .iter()
            .map(|(&shard, cell)| ShardThroughput {
                shard,
                borrows: cell.borrows.load(Relaxed),
                results: cell.results.load(Relaxed),
            })
            .filter(|row| row.borrows > 0 || row.results > 0)
            .collect();
        ThroughputReport { rows: groups.into_iter().flatten().collect(), shards }
    }
}

/// What one device did over the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceThroughput {
    /// Device identifier.
    pub device: String,
    /// Number of tasks completed.
    pub tasks: u64,
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
/// lock served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardThroughput {
    /// Shard index.
    pub shard: usize,
    /// Values borrowed from this shard and dispatched (incl. re-lends).
    pub borrows: u64,
    /// Results accepted by this shard.
    pub results: u64,
}

/// The per-device and per-shard rows of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThroughputReport {
    /// One row per device something was recorded on, in the order
    /// [`ThroughputMeter::report`] documents.
    pub rows: Vec<DeviceThroughput>,
    /// One row per lender shard that saw dispatch activity (empty when the
    /// deployment never fed shard counters, e.g. a bare meter).
    pub shards: Vec<ShardThroughput>,
}

impl ThroughputReport {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_meter_reports_nothing() {
        let meter = ThroughputMeter::new();
        let report = meter.report();
        assert!(report.rows.is_empty());
        assert!(report.shards.is_empty());
    }

    #[test]
    fn counts_accumulate_per_device() {
        let meter = ThroughputMeter::new();
        let (tablet, phone) = (meter.device("tablet"), meter.device("phone"));
        tablet.record(1);
        tablet.record(1);
        phone.record(1);
        let report = meter.report();
        assert_eq!(report.rows.len(), 2);
        let tablet = report.rows.iter().find(|r| r.device == "tablet").unwrap();
        assert_eq!(tablet.tasks, 2);
        let phone = report.rows.iter().find(|r| r.device == "phone").unwrap();
        assert_eq!(phone.tasks, 1);
    }

    #[test]
    fn wire_counters_accumulate_per_device() {
        let meter = ThroughputMeter::new();
        let tablet = meter.device("tablet");
        tablet.record(1);
        tablet.record_wire(120);
        tablet.record_wire(60);
        // A device that only produced traffic so far still gets a row.
        meter.device("phone").record_wire(40);
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
        let tablet = meter.device("tablet");
        tablet.record_heartbeat(false);
        tablet.record_heartbeat(true);
        tablet.record_heartbeat(true);
        // A device with only suppressed heartbeats still gets a row.
        meter.device("phone").record_heartbeat(true);
        let report = meter.report();
        let tablet = report.rows.iter().find(|r| r.device == "tablet").unwrap();
        assert_eq!((tablet.heartbeats_sent, tablet.heartbeats_suppressed), (1, 2));
        let phone = report.rows.iter().find(|r| r.device == "phone").unwrap();
        assert_eq!((phone.heartbeats_sent, phone.heartbeats_suppressed), (0, 1));
        assert_eq!(report.total_heartbeats_sent(), 1);
        assert_eq!(report.total_heartbeats_suppressed(), 3);
    }

    #[test]
    fn shard_counters_accumulate_and_only_a_shard_with_traffic_has_a_row() {
        let meter = ThroughputMeter::new();
        let shard0 = meter.shard(0);
        shard0.record_borrows(4);
        shard0.record_borrows(2);
        shard0.record_results(5);
        meter.shard(2).record_borrows(1);
        meter.shard(3).record_results(1);
        // Looked up by a driver that never dispatched: no row.
        let _idle = meter.shard(1);
        let report = meter.report();
        assert_eq!(report.shards.iter().map(|s| s.shard).collect::<Vec<_>>(), [0, 2, 3]);
        assert_eq!((report.shards[0].borrows, report.shards[0].results), (6, 5));
        assert_eq!((report.shards[1].borrows, report.shards[1].results), (1, 0));
        assert_eq!((report.shards[2].borrows, report.shards[2].results), (0, 1));
        // A meter that never saw shard traffic reports no shard rows.
        assert!(ThroughputMeter::new().report().shards.is_empty());
    }

    #[test]
    fn meter_is_shared_between_clones() {
        let meter = ThroughputMeter::new();
        let clone = meter.clone();
        clone.device("a").record(1);
        assert_eq!(meter.report().rows.len(), 1);
    }

    #[test]
    fn handles_of_one_name_share_a_cell_and_an_unused_handle_renders_no_row() {
        let meter = ThroughputMeter::new();
        // A volunteer that re-registers (or resumes) under its name keeps
        // its row.
        let (first, again) = (meter.device("flappy"), meter.device("flappy"));
        first.record(2);
        again.record(3);
        again.record_wire(10);
        // Registered, crashed before its first frame.
        let _silent = meter.device("silent");
        let report = meter.report();
        assert_eq!(report.rows.len(), 1, "{:?}", report.rows);
        let row = &report.rows[0];
        assert_eq!((row.device.as_str(), row.tasks, row.wire_frames), ("flappy", 5, 1));
    }

    /// The `meter ...` lines of every golden trace are the report's rows in
    /// this order.
    #[test]
    fn rows_are_ordered_by_what_a_device_was_first_seen_through_then_by_name() {
        let meter = ThroughputMeter::new();
        // Fed in an order that is neither the name order nor the row order.
        meter.device("m-suppressed").record_heartbeat(true);
        meter.device("b-suppressed").record_heartbeat(true);
        meter.device("n-heartbeat").record_heartbeat(false);
        meter.device("c-heartbeat").record_heartbeat(false);
        meter.device("c-heartbeat").record_heartbeat(true);
        meter.device("o-wire").record_wire(0);
        meter.device("d-wire").record_wire(7);
        meter.device("d-wire").record_heartbeat(false);
        meter.device("d-wire").record_heartbeat(true);
        meter.device("z-tasks").record(1);
        meter.device("a-tasks").record_heartbeat(true);
        meter.device("a-tasks").record_wire(9);
        meter.device("a-tasks").record(1);
        let rows = meter.report().rows;
        let order: Vec<&str> = rows.iter().map(|r| r.device.as_str()).collect();
        assert_eq!(
            order,
            [
                "a-tasks",
                "z-tasks",
                "d-wire",
                "o-wire",
                "c-heartbeat",
                "n-heartbeat",
                "b-suppressed",
                "m-suppressed"
            ],
            "each device once"
        );
    }

    #[test]
    fn racing_records_and_reports_lose_nothing() {
        use std::sync::atomic::Ordering::SeqCst;
        const RECORDS: u64 = 100_000;
        let meter = ThroughputMeter::new();
        // Four handles on two cells: two feeders per device, and all four on
        // the one shard.
        let handles: Vec<_> =
            ["even", "odd", "even", "odd"].iter().map(|name| meter.device(name)).collect();
        let start = std::sync::Barrier::new(handles.len() + 1);
        let recording = AtomicU64::new(handles.len() as u64);
        std::thread::scope(|scope| {
            for device in &handles {
                let shard = meter.shard(0);
                let (start, recording) = (&start, &recording);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..RECORDS {
                        device.record(1);
                        device.record_wire(3);
                        device.record_heartbeat(true);
                        shard.record_results(1);
                    }
                    recording.fetch_sub(1, SeqCst);
                });
            }
            // The reporter races them from the first record to the last:
            // totals only ever grow and never overshoot.
            start.wait();
            let mut seen = 0;
            while recording.load(SeqCst) > 0 {
                let report = meter.report();
                let tasks: u64 = report.rows.iter().map(|r| r.tasks).sum();
                assert!(seen <= tasks && tasks <= 4 * RECORDS, "{seen} then {tasks}");
                seen = tasks;
            }
        });
        let report = meter.report();
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert_eq!(row.tasks, 2 * RECORDS, "{}", row.device);
            assert_eq!((row.wire_bytes, row.wire_frames), (6 * RECORDS, 2 * RECORDS));
            assert_eq!((row.heartbeats_sent, row.heartbeats_suppressed), (0, 2 * RECORDS));
        }
        assert_eq!(report.shards[0].results, 4 * RECORDS);
    }
}
