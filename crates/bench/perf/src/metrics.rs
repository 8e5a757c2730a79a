//! The names. This table is what `BENCHMARK.json` lists (a unit test holds
//! the two together); later changes claim gains by these names, so a name
//! keeps its meaning once published.

use crate::json::Json;
use std::collections::BTreeMap;

/// `(name, unit)`. Reported by every workload on an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("tasks_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("cpu_us_per_task", "us"),
    ("setup_s", "s"),
];

/// The share of the parent's median by which each end-to-end metric may
/// worsen before a change counts as a regression, in `END_TO_END` order.
/// A bound has to clear the quartile spread of single runs of identical
/// code — the benchmark is only accepted if it does. On the shared reference
/// host that spread reached 31 % for whole-window figures and is 2–10 % at
/// the calm tenth, with medians still moving by up to 13 % over tens of
/// minutes; the README has the measurements these were set from.
/// (`selfcheck` holds the *medians* of two sets of ten runs to ±5 %.)
pub const BOUNDS: [f64; 4] = [0.25, 0.25, 0.25, 0.25];

/// Whether a larger value of the end-to-end metric is the better one.
pub fn higher_is_better(name: &str) -> bool {
    name == "tasks_per_s"
}

/// `(name, unit)`. Reported by every workload on a traced run; a metric
/// that does not apply to a workload (TCP counters on `sim_churn`, `sim.*`
/// on the TCP workloads) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // pull_stream: lender and sharded splitter/merge.
    ("pull_stream.lender.ns_per_task", "ns"),
    ("pull_stream.shard.ns_per_task", "ns"),
    ("pull_stream.lends_per_task", "count"),
    ("pull_stream.relends", "count"),
    ("pull_stream.substreams_crashed", "count"),
    // protocol: frame codec and what the master's meter saw on the wire.
    ("protocol.encode_ns_per_record", "ns"),
    ("protocol.decode_ns_per_record", "ns"),
    ("protocol.wire_bytes_per_task", "B"),
    ("protocol.records_per_frame", "count"),
    ("protocol.heartbeats_sent", "count"),
    ("protocol.heartbeats_suppressed", "count"),
    ("netsim.channel.ns_per_frame", "ns"),
    // reactor: the driver scheduler.
    ("reactor.polls_per_task", "count"),
    ("reactor.wasted_poll_ratio", "ratio"),
    ("reactor.wakeups_per_task", "count"),
    ("reactor.timer_fires", "count"),
    ("reactor.max_ready_depth", "count"),
    ("reactor.kicks_sent", "count"),
    ("reactor.kicks_suppressed", "count"),
    ("reactor.pump_prefetches", "count"),
    ("reactor.cpu_us_per_task", "us"),
    // transport.tcp: poller threads, sessions, the write path.
    ("tcp.cpu_us_per_task", "us"),
    ("tcp.connect_ms_p50", "ms"),
    ("tcp.send_recv_ns_per_frame", "ns"),
    ("tcp.frames_per_write", "count"),
    ("tcp.write_calls_per_frame", "count"),
    // worker: the volunteer-side pool.
    ("worker.compute_us_per_task", "us"),
    ("worker.cpu_us_per_task", "us"),
    ("worker.heartbeats_sent", "count"),
    // master, output side: merge pull and check on the main thread.
    ("output.cpu_us_per_task", "us"),
    // sim: the virtual-clock fleet simulator. All but the two `_ms` repeat
    // exactly for a seed.
    ("sim.virtual_makespan_ms", "ms"),
    ("sim.trace_lines", "count"),
    ("sim.canonical_trace_bytes", "B"),
    ("sim.crashed", "count"),
    ("sim.canonical_trace_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("workloads.raytrace.local_frames_per_s", "1/s"),
    ("workloads.raytrace.speedup_vs_local", "ratio"),
    // Spans of every 16th task: source → closure → ordered output.
    ("span.dispatch_leg_us_p50", "us"),
    ("span.dispatch_leg_us_p99", "us"),
    ("span.compute_us_p50", "us"),
    ("span.compute_us_p99", "us"),
    ("span.return_leg_us_p50", "us"),
    ("span.return_leg_us_p99", "us"),
    // The process as a whole.
    ("proc.peak_rss_mib", "MiB"),
    ("proc.allocs_per_task", "count"),
    ("proc.alloc_bytes_per_task", "B"),
    ("proc.ctx_switches_per_task", "count"),
    ("proc.cpu_util", "ratio"),
    ("proc.threads", "count"),
    // Tails: informational, they swing an order of magnitude run to run.
    ("latency_p99_us", "us"),
    ("latency_max_us", "us"),
    ("gen.lateness_p99_us", "us"),
    // The traced run's own `tasks_per_s`; ÷ the untraced run's it is the
    // tracing overhead (`perf all --trace` prints the ratio).
    ("trace.tasks_per_s", "1/s"),
    // The plain figures of the whole window — results ÷ wall time, the median
    // over every task, CPU ÷ results — which the end-to-end metrics read at
    // the window's calm tenth. A stall the calm tenth cannot see is here.
    ("window.tasks_per_s", "1/s"),
    ("window.latency_p50_us", "us"),
    ("window.cpu_us_per_task", "us"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    /// Digests and the like: printed, compared by `selfcheck`, not metrics.
    pub notes: Vec<(&'static str, String)>,
}

impl Report {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name neither table lists — a typo would otherwise drop
    /// the metric silently.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(listed, _)| *listed == name),
            "{name} is not a published metric"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The table this run reports, in published order.
    pub fn table(traced: bool) -> &'static [(&'static str, &'static str)] {
        if traced {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The result line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, every metric of the run's table present.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics = Self::table(traced).iter().map(|&(name, unit)| {
            (name, Json::obj([("value", Json::Num(self.get(name))), ("unit", Json::str(unit))]))
        });
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
        let Some(Json::Arr(items)) = doc.get(key) else { panic!("{key} is not a list") };
        items
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        items(doc, key)
            .iter()
            .map(|m| {
                let field = |f| m.get(f).and_then(Json::as_str).expect("string field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses");
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(PER_LAYER));
        let bounds: Vec<f64> = items(&doc, "end_to_end")
            .iter()
            .filter_map(|m| m.get("bound").and_then(Json::as_f64))
            .collect();
        assert_eq!(bounds, BOUNDS);
        for m in items(&doc, "end_to_end") {
            let name = m.get("name").and_then(Json::as_str).expect("name");
            let better = if higher_is_better(name) { "higher" } else { "lower" };
            assert_eq!(m.get("better").and_then(Json::as_str), Some(better), "{name}");
        }
        let names: Vec<&str> = items(&doc, "workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, crate::run::WORKLOADS);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys_and_the_whole_table() {
        let mut report = Report { attempted: 10, failed: 0, ..Report::default() };
        report.set("tasks_per_s", 1234.5678);
        let doc = Json::parse(&report.result_line(false)).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].1.get("value").and_then(Json::as_f64), Some(1234.5678));
        assert_eq!(metrics[0].1.get("unit").and_then(Json::as_str), Some("1/s"));
        let traced = Json::parse(&report.result_line(true)).unwrap();
        assert_eq!(traced.get("metrics").unwrap().as_obj().unwrap().len(), PER_LAYER.len());
    }

    #[test]
    #[should_panic(expected = "not a published metric")]
    fn an_unlisted_name_is_refused() {
        Report::default().set("tasks_per_sec", 1.0);
    }
}
