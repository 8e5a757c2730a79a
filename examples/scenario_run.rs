//! Golden-trace regression runner for the checked-in `scenarios/*.toml`
//! scripts. Every scenario is compiled through
//! [`pando_core::scenario::Scenario`] and executed **twice** on the virtual
//! clock by [`oracle::run`] (byte-identical traces, complete in-order
//! output, crash accounting), checked against its `[expect]` table, and
//! finally diffed against the committed golden trace in
//! `scenarios/golden/{name}.trace`. Any divergence fails the run with the
//! first differing line, so behavioural drift in the reactor, lender,
//! channel or failure detector shows up as a reviewable trace diff.
//!
//! Run with: `cargo run --release --example scenario_run` (or
//! `make scenarios`) from the workspace root.
//!
//! Environment knobs:
//!
//! * `SCENARIO_FILTER` — only run scenarios whose name contains this
//!   substring
//! * `BLESS=1` — rewrite the golden traces from this build instead of
//!   diffing (commit the result; the diff is the review artefact)

use pando_core::scenario::Scenario;
use pando_core::sim::oracle;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn run_one(path: &Path, golden_dir: &Path, bless: bool) -> Result<String, String> {
    let scenario = Scenario::load(path).map_err(|e| e.to_string())?;
    let params = scenario.to_fleet_params().map_err(|e| e.to_string())?;

    let started = Instant::now();
    let report = oracle::run(&params)?;
    let trace = report.canonical_trace();
    scenario.expect.check(&report)?;

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
    if let Some(divergence) = oracle::first_divergence(&trace, &golden) {
        return Err(format!(
            "trace (-) differs from {} (+)\n{divergence}\nif the change is intended, re-bless \
             with `BLESS=1 make scenarios` and commit the diff",
            golden_path.display(),
        ));
    }
    Ok(format!(
        "{} events, {} crashed, {} retransmits, {:?} virtual, {:?} wall",
        report.trace.len(),
        report.crashed,
        report.retransmits,
        report.virtual_elapsed,
        started.elapsed()
    ))
}

fn main() {
    let dir = Path::new("scenarios");
    let filter = std::env::var("SCENARIO_FILTER").unwrap_or_default();
    let bless = std::env::var("BLESS").is_ok_and(|v| v == "1");

    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .filter(|p| p.file_stem().is_some_and(|stem| stem.to_string_lossy().contains(&filter)))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no scenario in {} matches {filter:?}", dir.display());

    let mut failures = Vec::new();
    for path in &paths {
        let name = path.file_stem().unwrap_or_default().to_string_lossy();
        match run_one(path, &dir.join("golden"), bless) {
            Ok(summary) => println!("ok   {name}: {summary}"),
            Err(message) => {
                println!("FAIL {name}");
                eprintln!("--- {name} ---\n{message}\n");
                failures.push(name.into_owned());
            }
        }
    }
    let ran = paths.len();
    assert!(
        failures.is_empty(),
        "{} of {ran} scenarios failed: {}",
        failures.len(),
        failures.join(", ")
    );
    println!("all {ran} scenarios OK{}", if bless { " (goldens rewritten)" } else { "" });
}
