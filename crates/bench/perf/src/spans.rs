//! Per-task spans of a traced run. Every sampled task gets one `task` span
//! from its origin (the instant it was due, or left the source) to its
//! emission on the ordered output, with three children that tile it:
//! `dispatch_leg` (origin → volunteer closure entry: lender, reactor,
//! encode, socket, poller, pool queue), `compute` (inside the closure) and
//! `return_leg` (closure exit → ordered output: reply path plus any wait
//! behind an earlier task). All stamps are taken in benchmark code, around
//! the calls into the stack; spans are kept in memory and written at exit.

use crate::fleet::ComputeSpan;
use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpans {
    pub task: u64,
    pub origin_ns: u64,
    pub compute_start_ns: u64,
    pub compute_end_ns: u64,
    pub emit_ns: u64,
}

/// Joins the three stamp sources by task index. A task computed twice (a
/// re-lend) keeps its last computation, the one whose result was emitted.
pub fn assemble(origin_ns: &[u64], compute: &[ComputeSpan], emit_ns: &[u64]) -> Vec<TaskSpans> {
    let mut spans: Vec<TaskSpans> = compute
        .iter()
        .filter_map(|c| {
            let k = usize::try_from(c.task).ok()?;
            Some(TaskSpans {
                task: c.task,
                origin_ns: *origin_ns.get(k)?,
                compute_start_ns: c.start_ns,
                compute_end_ns: c.end_ns,
                emit_ns: *emit_ns.get(k)?,
            })
        })
        .collect();
    spans.sort_by_key(|s| (s.task, std::cmp::Reverse(s.compute_start_ns)));
    spans.dedup_by_key(|s| s.task);
    spans
}

/// Metric names of one leg's percentiles.
pub struct Leg {
    pub p50: &'static str,
    pub p99: &'static str,
}

/// Duration of each leg over every sampled task, in µs.
pub fn legs_us(spans: &[TaskSpans]) -> [(Leg, Vec<f64>); 3] {
    let us = |from: fn(&TaskSpans) -> u64, to: fn(&TaskSpans) -> u64| -> Vec<f64> {
        spans.iter().map(|s| to(s).saturating_sub(from(s)) as f64 / 1e3).collect()
    };
    [
        (
            Leg { p50: "span.dispatch_leg_us_p50", p99: "span.dispatch_leg_us_p99" },
            us(|s| s.origin_ns, |s| s.compute_start_ns),
        ),
        (
            Leg { p50: "span.compute_us_p50", p99: "span.compute_us_p99" },
            us(|s| s.compute_start_ns, |s| s.compute_end_ns),
        ),
        (
            Leg { p50: "span.return_leg_us_p50", p99: "span.return_leg_us_p99" },
            us(|s| s.compute_end_ns, |s| s.emit_ns),
        ),
    ]
}

/// One JSON line per span: `{task, span, start_ns, end_ns, parent}`.
pub fn render_jsonl(spans: &[TaskSpans]) -> String {
    let mut out = String::with_capacity(spans.len() * 4 * 96);
    for s in spans {
        let mut line = |span: &str, start: u64, end: u64, parent: &str| {
            writeln!(
                out,
                "{{\"task\": {}, \"span\": \"{span}\", \"start_ns\": {start}, \"end_ns\": {end}, \
                 \"parent\": {parent}}}",
                s.task
            )
            .expect("writing to a String cannot fail");
        };
        line("task", s.origin_ns, s.emit_ns, "null");
        line("dispatch_leg", s.origin_ns, s.compute_start_ns, "\"task\"");
        line("compute", s.compute_start_ns, s.compute_end_ns, "\"task\"");
        line("return_leg", s.compute_end_ns, s.emit_ns, "\"task\"");
    }
    out
}

pub fn write_jsonl(path: &Path, spans: &[TaskSpans]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, render_jsonl(spans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn legs_tile_the_task_span_and_lines_parse() {
        let origin = [100, 200, 300];
        let emit = [900, 950, 990];
        let compute = [
            ComputeSpan { task: 2, start_ns: 400, end_ns: 500 },
            ComputeSpan { task: 0, start_ns: 150, end_ns: 250 },
            // Task 0 was re-lent and computed again; the later run counts.
            ComputeSpan { task: 0, start_ns: 600, end_ns: 700 },
            ComputeSpan { task: 7, start_ns: 1, end_ns: 2 }, // never emitted
        ];
        let spans = assemble(&origin, &compute, &emit);
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[0],
            TaskSpans {
                task: 0,
                origin_ns: 100,
                compute_start_ns: 600,
                compute_end_ns: 700,
                emit_ns: 900
            }
        );
        let legs = legs_us(&spans);
        for (i, span) in spans.iter().enumerate() {
            let sum: f64 = legs.iter().map(|(_, v)| v[i]).sum();
            assert_eq!(sum, (span.emit_ns - span.origin_ns) as f64 / 1e3);
        }
        let text = render_jsonl(&spans);
        assert_eq!(text.lines().count(), 8);
        for line in text.lines() {
            let doc = Json::parse(line).expect("a span line is JSON");
            assert!(
                doc.get("start_ns").and_then(Json::as_f64)
                    <= doc.get("end_ns").and_then(Json::as_f64)
            );
        }
        assert_eq!(
            Json::parse(text.lines().next().unwrap()).unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
