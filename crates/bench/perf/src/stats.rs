//! Order statistics over the samples a run collects.

/// Sorts `values` and returns the `p`-th percentile (`0.0..=100.0`) by the
/// nearest-rank rule: the smallest sample with at least `p` percent of the
/// samples at or below it. Nearest rank never invents a value that was not
/// measured, which matters for tails.
///
/// # Panics
///
/// Panics on an empty slice: every caller reports a sample count alongside.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    values.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The median: the middle sample, or the mean of the two middle samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// First quartile, median and third quartile by the exclusive method —
/// what Python's `statistics.quantiles(values, n=4)` returns, which is the
/// rule the benchmark's acceptance is judged by.
///
/// # Panics
///
/// Panics on fewer than two samples.
pub fn quartiles(values: &mut [f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    [1usize, 2, 3].map(|i| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Like Python, extrapolates when the clamp on `j` binds (n < 3).
        let frac = pos as f64 / 4.0 - j as f64;
        values[j - 1] + (values[j] - values[j - 1]) * frac
    })
}

/// Interquartile range as a share of the median: the spread measure the
/// acceptance rule compares against a metric's bound.
pub fn spread(values: &mut [f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE)
}

/// What one block of a run measured. A TCP window is cut into blocks of a
/// tenth of a second on the ordered output; every call of the simulator is a
/// block of its own.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    /// Verified results the block delivered.
    pub tasks: u64,
    pub wall_s: f64,
    /// Process CPU (user + system, all threads) spent during the block.
    pub cpu_us: f64,
    /// Median latency of the block's tasks.
    pub latency_p50_us: f64,
}

/// The three end-to-end figures a window yields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figures {
    pub tasks_per_s: f64,
    pub latency_p50_us: f64,
    pub cpu_us_per_task: f64,
}

/// Each figure at the block that ranks a tenth of the way from the run's best
/// one: the 90th percentile of the blocks' rates, the 10th of their median
/// latencies and of their CPU per task.
///
/// The shared host slows a process by up to 40 % for anything from a tenth of
/// a second to minutes at a time — it only ever slows it — so a mean or a
/// median over the whole run reads the host's weather (18–20 % between the
/// quartiles of ten runs of `tcp_small`, when this reads 2–5 % over the same
/// runs). A change to the program moves every block, the calm ones with the
/// rest. What the calm tenth cannot see is a stall that leaves a tenth of the
/// blocks untouched; the whole-window figures a traced run reports
/// (`window.*`) and the latency tails are there for that.
///
/// # Panics
///
/// Panics on no blocks, or a block without tasks.
pub fn calm_tenth(blocks: &[Block]) -> Figures {
    let at = |figure: fn(&Block) -> f64, p: f64| {
        percentile(&mut blocks.iter().map(figure).collect::<Vec<f64>>(), p)
    };
    assert!(blocks.iter().all(|block| block.tasks > 0), "a block delivered nothing");
    Figures {
        tasks_per_s: at(|block| block.tasks as f64 / block.wall_s, 90.0),
        latency_p50_us: at(|block| block.latency_p50_us, 10.0),
        cpu_us_per_task: at(|block| block.cpu_us / block.tasks as f64, 10.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 99.0), 99.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut [7.0], 99.0), 7.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// A hundred blocks of 1 000 tasks in 0.1 s at 20 µs of CPU a task and a
    /// 300 µs median, of which those `slowed` picks run 40 % slower.
    fn run_of_blocks(slowed: impl Fn(usize) -> bool, factor: f64) -> Vec<Block> {
        (0..100)
            .map(|i| {
                let by = if slowed(i) { 1.4 } else { 1.0 } * factor;
                Block {
                    tasks: 1_000,
                    wall_s: 0.1 * by,
                    cpu_us: 20_000.0 * by,
                    latency_p50_us: 300.0 * by,
                }
            })
            .collect()
    }

    #[test]
    fn calm_tenth_ignores_the_hosts_weather_and_shows_the_programs_change() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9 * b;
        let calm = calm_tenth(&run_of_blocks(|_| false, 1.0));
        assert!(close(calm.tasks_per_s, 10_000.0), "{calm:?}");
        assert!(close(calm.latency_p50_us, 300.0) && close(calm.cpu_us_per_task, 20.0), "{calm:?}");
        // Four blocks in five slowed by the host: the same reading.
        let rough = calm_tenth(&run_of_blocks(|i| i % 5 != 0, 1.0));
        assert!(close(rough.tasks_per_s, 10_000.0) && close(rough.latency_p50_us, 300.0));
        assert!(close(rough.cpu_us_per_task, 20.0), "{rough:?}");
        // A program 10 % slower reads 10 % worse, whatever the weather.
        let regressed = calm_tenth(&run_of_blocks(|i| i % 2 == 0, 1.1));
        assert!(close(regressed.tasks_per_s, 10_000.0 / 1.1), "{regressed:?}");
        assert!(close(regressed.latency_p50_us, 330.0) && close(regressed.cpu_us_per_task, 22.0));
        // More slow blocks than nine in ten, and it shows.
        let swamped = calm_tenth(&run_of_blocks(|i| i % 20 != 0, 1.0));
        assert!(swamped.tasks_per_s < 7_200.0 && swamped.latency_p50_us > 419.0, "{swamped:?}");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let mut v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), [1.5, 3.0, 4.5]);
        assert!((spread(&mut v) - 1.0).abs() < 1e-12);
    }
}
