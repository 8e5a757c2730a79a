//! Golden-trace regression runner for the checked-in `scenarios/*.toml`
//! scripts. Every scenario is compiled through
//! [`pando_core::scenario::Scenario`], executed **twice** on the virtual
//! clock, byte-compared against itself (determinism), checked for complete
//! in-order output and against its `[expect]` table, and finally diffed
//! against the committed golden trace in `scenarios/golden/{name}.trace`.
//! Any divergence fails the run with the first differing line, so
//! behavioural drift in the reactor, lender, channel or failure detector
//! shows up as a reviewable trace diff.
//!
//! Run with: `cargo run --release --example scenario_run` (or
//! `make scenarios`).
//!
//! Environment knobs:
//!
//! * `SCENARIO_DIR` — directory of scenario files (default `scenarios/`
//!   next to the workspace root)
//! * `SCENARIO_FILTER` — only run scenarios whose name contains this
//!   substring
//! * `BLESS=1` — rewrite the golden traces from this build instead of
//!   diffing (commit the result; the diff is the review artefact)

use pando_core::scenario::Scenario;
use pando_core::sim::simulate_fleet;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn first_divergence(ours: &str, golden: &str) -> String {
    for (i, (a, b)) in ours.lines().zip(golden.lines()).enumerate() {
        if a != b {
            return format!("first divergence at line {i}:\n  ours:   {a}\n  golden: {b}");
        }
    }
    format!("one trace is a prefix of the other ({} vs {} golden bytes)", ours.len(), golden.len())
}

fn run_one(path: &Path, golden_dir: &Path, bless: bool) -> Result<String, String> {
    let scenario = Scenario::load(path).map_err(|e| e.to_string())?;
    let params = scenario.to_fleet_params().map_err(|e| e.to_string())?;

    let started = Instant::now();
    let first = simulate_fleet(&params);
    let second = simulate_fleet(&params);
    let trace = first.canonical_trace();
    if trace != second.canonical_trace() {
        return Err(format!(
            "non-deterministic: two runs of the same scenario diverged\n{}",
            first_divergence(&trace, &second.canonical_trace())
        ));
    }

    scenario.expect.check(&first)?;

    let golden_path = golden_dir.join(format!("{}.trace", scenario.name));
    if bless {
        std::fs::create_dir_all(golden_dir).map_err(|e| e.to_string())?;
        std::fs::write(&golden_path, &trace).map_err(|e| e.to_string())?;
        return Ok(format!(
            "blessed {} ({} trace bytes, {:?} wall)",
            golden_path.display(),
            trace.len(),
            started.elapsed()
        ));
    }
    let golden = std::fs::read_to_string(&golden_path).map_err(|_| {
        format!(
            "missing golden {} — run `BLESS=1 make scenarios` and commit it",
            golden_path.display()
        )
    })?;
    if trace != golden {
        return Err(format!(
            "trace differs from {}\n{}\nif the change is intended, re-bless with \
             `BLESS=1 make scenarios` and commit the diff",
            golden_path.display(),
            first_divergence(&trace, &golden)
        ));
    }
    Ok(format!(
        "{} events, {} crashed, {} retransmits, {:?} virtual, {:?} wall",
        first.trace.len(),
        first.crashed,
        first.retransmits,
        first.virtual_elapsed,
        started.elapsed()
    ))
}

fn main() {
    let dir = PathBuf::from(std::env::var("SCENARIO_DIR").unwrap_or_else(|_| "scenarios".into()));
    let filter = std::env::var("SCENARIO_FILTER").unwrap_or_default();
    let bless = std::env::var("BLESS").map(|v| v == "1").unwrap_or(false);
    let golden_dir = dir.join("golden");

    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        panic!("no scenarios found under {}", dir.display());
    }

    let mut failures = Vec::new();
    let mut ran = 0usize;
    for path in &paths {
        let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or_default();
        if !filter.is_empty() && !name.contains(&filter) {
            continue;
        }
        ran += 1;
        match run_one(path, &golden_dir, bless) {
            Ok(summary) => println!("ok   {name}: {summary}"),
            Err(message) => {
                println!("FAIL {name}");
                eprintln!("--- {name} ---\n{message}\n");
                failures.push(name.to_string());
            }
        }
    }
    if ran == 0 {
        panic!("SCENARIO_FILTER={filter:?} matched no scenario");
    }
    if !failures.is_empty() {
        panic!("{} of {ran} scenarios failed: {}", failures.len(), failures.join(", "));
    }
    println!("all {ran} scenarios OK{}", if bless { " (goldens rewritten)" } else { "" });
}
