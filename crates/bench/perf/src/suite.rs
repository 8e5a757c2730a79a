//! `perf all` and `perf selfcheck`: run workloads one fresh OS process at a
//! time — repetitions inside one process drift, fresh processes repeat —
//! and collect what each child printed.

use crate::json::Json;
use crate::metrics::{higher_is_better, BOUNDS, END_TO_END};
use crate::run::{host_nproc, WORKLOADS};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// What one child process reported.
pub struct Child {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in published order.
    pub metrics: Vec<(String, f64, String)>,
    /// `(name, text)`: the child's `note` lines (digests).
    pub notes: Vec<(String, String)>,
}

impl Child {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, ..)| n == name).map(|(_, value, _)| *value)
    }
}

/// Runs one workload in a child process of this same binary.
fn spawn(workload: &str, seed: u64, seconds: u64, traced: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let child = parse_child(&stdout).map_err(|e| format!("{workload}: {e}\n{stdout}"))?;
    if !output.status.success() || child.failed > 0 {
        return Err(format!(
            "{workload}: {} of {} failed ({})",
            child.failed, child.attempted, output.status
        ));
    }
    Ok(child)
}

/// Reads a child's standard output: `note` lines, then the result line.
fn parse_child(stdout: &str) -> Result<Child, String> {
    let last = stdout.lines().last().ok_or("the run printed nothing")?;
    let doc = Json::parse(last)?;
    let count = |key: &str| {
        doc.get(key).and_then(Json::as_f64).map(|n| n as u64).ok_or(format!("no {key} in result"))
    };
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("no metrics in result")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).ok_or(format!("{name}: no value"))?;
            let unit = m.get("unit").and_then(Json::as_str).ok_or(format!("{name}: no unit"))?;
            Ok((name.clone(), value, unit.to_string()))
        })
        .collect::<Result<_, String>>()?;
    let notes = stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.split(' ');
            (words.next()? == "note").then_some(())?;
            let _workload = words.next()?;
            Some((words.next()?.to_string(), words.next()?.to_string()))
        })
        .collect();
    Ok(Child { attempted: count("attempted")?, failed: count("failed")?, metrics, notes })
}

/// Short git revision of the working directory, or `unknown` outside a
/// repository (the driver's checkout is not one).
pub fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |rev| rev.trim().to_string())
}

fn hostname() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map_or_else(|_| "unknown".to_string(), |h| h.trim().to_string())
}

fn metrics_json(metrics: &[(String, f64, String)]) -> Json {
    Json::obj(metrics.iter().map(|(name, value, unit)| {
        (
            name.as_str(),
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit.as_str()))]),
        )
    }))
}

/// `perf all`: every workload once (twice with `traced`: the end-to-end
/// metrics always come from the untraced run), one metric per line on
/// standard output and the whole run as one JSON file under `out_dir`.
pub fn all(seed: u64, seconds: u64, traced: bool, out_dir: &Path) -> Result<(), String> {
    let rev = git_rev();
    println!("# perf all rev={rev} seed={seed} seconds={seconds} host_nproc={}", host_nproc());
    let mut workloads = Vec::new();
    for workload in WORKLOADS {
        let plain = spawn(workload, seed, seconds, false)?;
        let mut fields = vec![
            ("attempted", Json::Num(plain.attempted as f64)),
            ("failed", Json::Num(plain.failed as f64)),
            ("end_to_end", metrics_json(&plain.metrics)),
        ];
        let mut lines = plain.metrics.clone();
        let mut notes = plain.notes.clone();
        if traced {
            let mut layered = spawn(workload, seed, seconds, true)?;
            let rate = |child: &Child, name| child.metric(name).unwrap_or(f64::NAN);
            let ratio = rate(&layered, "trace.tasks_per_s") / rate(&plain, "tasks_per_s");
            layered.metrics.push(("trace.overhead_ratio".into(), ratio, "ratio".into()));
            fields.push(("per_layer", metrics_json(&layered.metrics)));
            lines.extend(layered.metrics);
            notes.extend(layered.notes);
        }
        notes.sort();
        notes.dedup();
        for (name, value, unit) in &lines {
            println!("{workload} {name} {value} {unit}");
        }
        println!("{workload} attempted {} count", plain.attempted);
        println!("{workload} failed {} count", plain.failed);
        for (name, text) in &notes {
            println!("{workload} {name} {text} hex");
        }
        fields.push((
            "notes",
            Json::obj(notes.iter().map(|(n, t)| (n.as_str(), Json::str(t.as_str())))),
        ));
        workloads.push((workload, Json::obj(fields)));
    }
    let doc = Json::obj([
        ("host", Json::str(hostname())),
        ("host_nproc", Json::Num(host_nproc() as f64)),
        ("rev", Json::str(rev.as_str())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("workloads", Json::obj(workloads)),
        ("claim", Json::Null),
    ]);
    let path = out_dir.join(format!("run-{rev}-seed{seed}.json"));
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&path, doc.render() + "\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    println!("\"claim\": null");
    Ok(())
}

/// How closely the medians of two sets of runs of one build must agree: the
/// ±5 % ISSUE 12 set (half the 10 % bound it wanted). The bounds this
/// benchmark publishes are wider, because the benchmark's acceptance rule
/// holds the *quartile spread of single runs* to the bound, not the medians;
/// the README has the measurements.
const AGREEMENT: f64 = 0.05;

/// `perf selfcheck`: two interleaved sets of `runs` × every workload, run `i`
/// of either set on seed `i + 1`. Prints a markdown report of each set's
/// median and quartiles per (workload, end-to-end metric) and fails unless
/// every pairing's medians agree within [`AGREEMENT`] and same-seed
/// simulator digests are identical.
pub fn selfcheck(runs: usize, seconds: u64) -> Result<(), String> {
    type Samples = BTreeMap<(usize, usize), Vec<f64>>; // (workload, metric) → values
    let mut sets: [Samples; 2] = [Samples::new(), Samples::new()];
    let mut digests: [Vec<Vec<(String, String)>>; 2] = [Vec::new(), Vec::new()];
    // The sets alternate run by run, so the host's slow drift — ten per cent
    // over ten minutes on the shared reference host — falls on both alike.
    for run in 0..runs {
        for (set, (samples, digests)) in sets.iter_mut().zip(&mut digests).enumerate() {
            for (w, workload) in WORKLOADS.iter().enumerate() {
                eprintln!("selfcheck: run {} set {} {workload}", run + 1, ["A", "B"][set]);
                let child = spawn(workload, run as u64 + 1, seconds, false)?;
                for (m, (name, _)) in END_TO_END.iter().enumerate() {
                    let value = child.metric(name).ok_or(format!("no {name}"))?;
                    samples.entry((w, m)).or_default().push(value);
                }
                if !child.notes.is_empty() {
                    digests.push(child.notes);
                }
            }
        }
    }

    println!("# perf selfcheck");
    println!();
    println!(
        "rev `{}`, host `{}` (`host_nproc` = {}), two sets of {runs} runs of every workload, \
         {seconds} s windows, seeds 1..={runs} in both sets, each run a fresh process; the sets \
         alternate run by run (A1, B1, A2, B2, …).",
        git_rev(),
        hostname(),
        host_nproc()
    );
    println!(
        "`gap` is how much worse set B's median is than set A's (negative: better); a pairing \
         passes when |gap| is within ±{:.0} %. `spread` is (Q3 − Q1) / median of a set, quartiles \
         as Python's `statistics.quantiles`; the larger of the two sets' is shown beside the \
         metric's regression `bound`, with a `!` where it exceeds it — each set's runs are \
         spread over the whole length of the check, so this is the spread at its worst.",
        AGREEMENT * 100.0
    );
    println!();
    println!("| workload | metric | unit | set A median [Q1, Q3] | set B median [Q1, Q3] | gap | allowed | spread | bound | |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut failures = Vec::new();
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, (name, unit)) in END_TO_END.iter().enumerate() {
            let [a, b] = [0, 1].map(|set| stats::quartiles(&mut sets[set][&(w, m)].clone()));
            let gap =
                if higher_is_better(name) { (a[1] - b[1]) / a[1] } else { (b[1] - a[1]) / a[1] };
            let spread =
                sets.iter().map(|s| stats::spread(&mut s[&(w, m)].clone())).fold(0.0, f64::max);
            let ok = gap.abs() <= AGREEMENT;
            let cell = |q: [f64; 3]| format!("{:.6} [{:.6}, {:.6}]", q[1], q[0], q[2]);
            println!(
                "| {workload} | {name} | {unit} | {} | {} | {:+.2} % | ±{:.1} % | {:.2} %{} | {:.0} % | {} |",
                cell(a),
                cell(b),
                gap * 100.0,
                AGREEMENT * 100.0,
                spread * 100.0,
                if spread > BOUNDS[m] { " !" } else { "" },
                BOUNDS[m] * 100.0,
                if ok { "ok" } else { "FAIL" }
            );
            if !ok {
                failures.push(format!("{workload}/{name}: medians {:+.2} % apart", gap * 100.0));
            }
        }
    }
    println!();
    println!("Every run, in the order made (set A; set B):");
    println!();
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, (name, _)) in END_TO_END.iter().enumerate() {
            let [a, b] = [0, 1].map(|set| {
                let values: Vec<String> =
                    sets[set][&(w, m)].iter().map(|v| format!("{v:.6}")).collect();
                values.join(" ")
            });
            println!("- `{workload}` `{name}`: {a}; {b}");
        }
    }
    println!();
    let same = digests[0] == digests[1] && !digests[0].is_empty();
    println!(
        "Simulator digests (`sim.output_digest`, `sim.trace_digest` — the canonical trace covers \
         every counter that repeats exactly) of same-seed runs across the two sets: {}.",
        if same { "identical" } else { "DIFFERENT" }
    );
    for notes in &digests[0] {
        let text: Vec<String> = notes.iter().map(|(n, t)| format!("`{n}` = `{t}`")).collect();
        println!("- {}", text.join(", "));
    }
    if !same {
        failures.push("simulator digests differ between same-seed runs".to_string());
    }
    println!();
    if failures.is_empty() {
        println!("Result: every pairing agrees. `\"claim\": null`");
        Ok(())
    } else {
        println!("Result: FAILED — {}", failures.join("; "));
        Err(format!("selfcheck failed: {}", failures.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_childs_output_parses_into_metrics_and_notes() {
        let stdout = "# perf sim_churn seed=1\n\
                      sim_churn tasks_per_s 140000.5 1/s\n\
                      note sim_churn sim.trace_digest 00ff00ff00ff00ff\n\
                      {\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
                      {\"tasks_per_s\": {\"value\": 140000.5, \"unit\": \"1/s\"}}}\n";
        let child = parse_child(stdout).unwrap();
        assert_eq!((child.attempted, child.failed), (12, 0));
        assert_eq!(child.metrics, [("tasks_per_s".to_string(), 140000.5, "1/s".to_string())]);
        assert_eq!(child.notes, [("sim.trace_digest".to_string(), "00ff00ff00ff00ff".to_string())]);
        assert!(parse_child("no json here\n").is_err());
        assert!(parse_child("").is_err());
    }
}
