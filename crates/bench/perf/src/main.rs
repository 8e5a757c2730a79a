//! `perf` — the repository's end-to-end benchmark. See `README.md` beside
//! this package for the workloads, the metrics and why each rule exists.
//!
//! ```text
//! perf --workload W --seed S --seconds T --trace 0|1   one run; last line is the result JSON
//! perf all [--seed S] [--seconds T] [--trace]          every workload, a fresh process each
//! perf selfcheck [--runs R] [--seconds T]              two sets of runs must agree
//! ```

mod affinity;
mod alloc;
mod fleet;
mod json;
mod metrics;
mod micro;
mod procfs;
mod run;
mod sim;
mod source;
mod spans;
mod spin;
mod stats;
mod suite;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// `run_seconds` of `BENCHMARK.json`: the window every bound was sized at.
const DEFAULT_SECONDS: u64 = 20;
/// Where run files and span files go, relative to the working directory
/// (the root of the checkout; `/target` is ignored by git).
const OUT_DIR: &str = "target/perf";

const USAGE: &str = "usage:
  perf --workload <name> --seed <n> --seconds <n> --trace <0|1>
  perf all [--seed <n>] [--seconds <n>] [--trace]
  perf selfcheck [--runs <n>] [--seconds <n>]
workloads: tcp_small tcp_bulk tcp_paced tcp_raytrace sim_churn";

struct Cli {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    runs: usize,
    traced: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        runs: 10,
        traced: false,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        let number =
            |text: &String| text.parse::<u64>().map_err(|_| format!("{arg} {text}: not a number"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?.clone()),
            "--seed" => cli.seed = number(value("a number")?)?,
            "--seconds" => cli.seconds = number(value("a number")?)?,
            "--runs" => cli.runs = number(value("a number")?)? as usize,
            // `--trace 0|1` for one run; a bare `--trace` for `all`.
            "--trace" if cli.command.is_none() => cli.traced = number(value("0 or 1")?)? != 0,
            "--trace" => cli.traced = true,
            "all" | "selfcheck" if cli.command.is_none() => cli.command = Some(arg.clone()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if !(1..=60).contains(&cli.seconds) {
        return Err("--seconds must be between 1 and 60".to_string());
    }
    if cli.runs < 2 {
        return Err("--runs must be at least 2".to_string());
    }
    Ok(cli)
}

fn one_run(workload: &str, cli: &Cli) -> Result<(), String> {
    println!(
        "# perf {workload} seed={} seconds={} trace={} rev={} host_nproc={} ({})",
        cli.seed,
        cli.seconds,
        u8::from(cli.traced),
        suite::git_rev(),
        run::host_nproc(),
        run::fleet_description(),
    );
    let out_dir = PathBuf::from(OUT_DIR);
    let report = run::run(&run::RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
        out_dir: &out_dir,
    })?;
    for (name, unit) in metrics::Report::table(cli.traced) {
        println!("{workload} {name} {} {unit}", report.get(name));
    }
    for (name, text) in &report.notes {
        println!("note {workload} {name} {text}");
    }
    println!("{}", report.result_line(cli.traced));
    if report.failed > 0 {
        return Err(format!("{} of {} tasks failed", report.failed, report.attempted));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| match (cli.command.as_deref(), &cli.workload) {
        (None, Some(workload)) => one_run(workload, &cli),
        (Some("all"), None) => {
            suite::all(cli.seed, cli.seconds, cli.traced, &PathBuf::from(OUT_DIR))
        }
        (Some("selfcheck"), None) => suite::selfcheck(cli.runs, cli.seconds),
        _ => Err(USAGE.to_string()),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_form_parses_in_any_order() {
        let c = cli(&["--seed", "9", "--trace", "1", "--workload", "tcp_bulk", "--seconds", "3"])
            .unwrap();
        assert_eq!(
            (c.workload.as_deref(), c.seed, c.seconds, c.traced),
            (Some("tcp_bulk"), 9, 3, true)
        );
        assert!(!cli(&["--workload", "x", "--trace", "0"]).unwrap().traced);
    }

    #[test]
    fn subcommands_take_a_bare_trace_flag() {
        let c = cli(&["all", "--trace", "--seed", "4"]).unwrap();
        assert_eq!(
            (c.command.as_deref(), c.traced, c.seed, c.seconds),
            (Some("all"), true, 4, DEFAULT_SECONDS)
        );
        assert_eq!(cli(&["selfcheck", "--runs", "3"]).unwrap().runs, 3);
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--seconds", "61"],
            &["frobnicate"],
            &["all", "all"],
            &["selfcheck", "--runs", "1"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?}");
        }
    }
}
