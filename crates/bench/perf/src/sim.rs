//! `sim_churn`: the deterministic fleet simulator — the real lender,
//! reactor drivers and wire protocol single-stepped on a virtual clock —
//! with a thousand volunteers of which 15 % crash mid-run. No sockets, no
//! threads: the one workload that tells "the reactor and lender got
//! cheaper" apart from "the transport got cheaper".
//!
//! A run makes forty identical calls rather than one long one. The simulator
//! has no per-task hook on its public surface, so the only latency that can
//! be *measured* from outside is that of a whole call; and each call is one
//! block for [`stats::calm_tenth`], which needs a few dozen to rank. (Twelve
//! calls in one process read 117 k–153 k tasks/s in no order — the host's
//! weather, not a drift.)

use crate::alloc;
use crate::procfs::{process_cpu_us, CpuSnapshot};
use crate::source::now_ns;
use crate::stats::{self, Block};
use crate::workload::digest64;
use pando_core::sim::{simulate_fleet, FleetParams, FleetReport};

pub const VOLUNTEERS: usize = 1000;
/// `simulate_fleet` calls a run makes, one after the other, all with the
/// same parameters; their traces must be byte-identical. Over ten runs the
/// calm tenth of 10, 20 and 40 calls (of as many tasks in all) spread 7.7 %,
/// 3.7 % and 4.3 % between quartiles and 20 %, 12 % and 9 % end to end.
pub const CALLS: usize = 40;
/// Tasks per call and per second of `--seconds`: a call cannot be cut short,
/// so its work is fixed instead — sized so the calls take about 0.8 of
/// `--seconds` on the two-core reference host. At 20 s a call is 50 000
/// tasks, fifty to a volunteer, and a third of a second.
pub const TASKS_PER_CALL_SECOND: u64 = 2_500;
/// Wiring-and-teardown runs timed for `setup_s`.
const SETUP_RUNS: usize = 31;

pub struct SimRun {
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Tasks of the timed calls, all of them.
    pub tasks: u64,
    /// One block per call: `simulate_fleet` + `canonical_trace` + digest.
    /// Its latency is the call's own wall time.
    pub calls: Vec<Block>,
    /// The `canonical_trace` + digest part of it, per call.
    pub canonical_trace_ms: Vec<f64>,
    pub trace_bytes: usize,
    pub trace_lines: usize,
    pub trace_digest: u64,
    /// The last call's report; every call's is the same but for wall time.
    pub report: FleetReport,
    pub cpu_before: CpuSnapshot,
    pub cpu_after: CpuSnapshot,
    /// Traced runs only: allocations and bytes requested during the calls.
    pub allocs: (u64, u64),
}

/// How many results are not the `k`-th task in the `k`-th place.
fn misplaced(report: &FleetReport) -> u64 {
    let wrong = report.output_order.iter().zip(0u64..).filter(|(got, want)| *got != want).count();
    wrong as u64 + report.params.tasks.abs_diff(report.output_order.len() as u64)
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> SimRun {
    // Set-up: the same fleet with one task per volunteer, so the run is
    // wiring a thousand channels and drivers and tearing them down again.
    let mut failed = 0;
    let mut setup_s: Vec<f64> = (0..SETUP_RUNS)
        .map(|_| {
            let started = now_ns();
            let report = simulate_fleet(&FleetParams::new(seed, VOLUNTEERS, VOLUNTEERS as u64));
            let elapsed = (now_ns() - started) as f64 / 1e9;
            failed += misplaced(&report);
            elapsed
        })
        .collect();

    let params = FleetParams::new(seed, VOLUNTEERS, TASKS_PER_CALL_SECOND * seconds);
    let cpu_before = CpuSnapshot::take();
    let allocs_before = alloc::counts();
    alloc::set_counting(traced);
    let (mut calls, mut canonical_trace_ms) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..CALLS {
        let (started, cpu_us_before) = (now_ns(), process_cpu_us());
        let report = simulate_fleet(&params);
        let simulated = now_ns();
        let trace = report.canonical_trace();
        let digest = (digest64(trace.as_bytes()), report.output_digest);
        let finished = now_ns();
        let wall_s = (finished - started) as f64 / 1e9;
        calls.push(Block {
            tasks: params.tasks,
            wall_s,
            cpu_us: process_cpu_us() - cpu_us_before,
            latency_p50_us: wall_s * 1e6,
        });
        canonical_trace_ms.push((finished - simulated) as f64 / 1e6);
        failed += misplaced(&report);
        // A call that does not repeat the one before it, byte for byte, is
        // wrong whatever its output order says.
        if last.as_ref().is_some_and(|(_, _, _, earlier)| *earlier != digest) {
            failed += params.tasks;
        }
        last = Some((report, trace.len(), trace.lines().count(), digest));
    }
    alloc::set_counting(false);
    let allocs_after = alloc::counts();
    let cpu_after = CpuSnapshot::take();
    let (report, trace_bytes, trace_lines, (trace_digest, _)) = last.expect("CALLS is not zero");

    let tasks = params.tasks * CALLS as u64;
    SimRun {
        setup_s: stats::median(&mut setup_s),
        attempted: tasks + (SETUP_RUNS * VOLUNTEERS) as u64,
        failed,
        tasks,
        calls,
        canonical_trace_ms,
        trace_bytes,
        trace_lines,
        trace_digest,
        report,
        cpu_before,
        cpu_after,
        allocs: (allocs_after.0 - allocs_before.0, allocs_after.1 - allocs_before.1),
    }
}

/// Sum of `key=<number>` over the rendered rows of a [`FleetReport`] whose
/// first word is `kind` (`meter`, `shard`). The report publishes its meter
/// only in this canonical text form.
pub fn sum_field(rows: &[String], kind: &str, key: &str) -> f64 {
    rows.iter()
        .filter(|row| row.split(' ').next() == Some(kind))
        .filter_map(|row| {
            row.split(' ')
                .find_map(|word| word.strip_prefix(key)?.strip_prefix('=')?.parse::<f64>().ok())
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_rows_sum_by_kind_and_key() {
        let rows = [
            "meter volunteer-0 tasks=5 wire_bytes=120 wire_frames=4 hb_sent=1 hb_suppressed=2",
            "meter volunteer-1 tasks=7 wire_bytes=80 wire_frames=3 hb_sent=0 hb_suppressed=1",
            "meter scheduler polls=9 wasted_polls=1 kicks_sent=0 kicks_suppressed=0",
            "shard 0 borrows=13 results=12",
        ]
        .map(String::from);
        assert_eq!(sum_field(&rows, "meter", "wire_bytes"), 200.0);
        assert_eq!(sum_field(&rows, "meter", "hb_suppressed"), 3.0);
        assert_eq!(sum_field(&rows, "shard", "borrows"), 13.0);
        assert_eq!(sum_field(&rows, "meter", "borrows"), 0.0);
    }

    #[test]
    fn a_small_fleet_completes_in_order_and_repeats() {
        let a = simulate_fleet(&FleetParams::new(3, 20, 200));
        assert_eq!(misplaced(&a), 0);
        let b = simulate_fleet(&FleetParams::new(3, 20, 200));
        assert_eq!(
            digest64(a.canonical_trace().as_bytes()),
            digest64(b.canonical_trace().as_bytes())
        );
        let mut broken = a.clone();
        broken.output_order.swap(3, 4);
        assert_eq!(misplaced(&broken), 2);
    }
}
