//! The simulator's contract, written down once: a stream sent out to
//! failure-prone volunteers still yields exactly one output per input, in
//! input order. [`check`] reads it off a finished [`FleetReport`], [`run`]
//! adds determinism, and [`first_divergence`] is how any two traces — two
//! runs, or a run and its golden file — are told apart. The oracle reads
//! only what a report already carries.

use super::{simulate_fleet, FleetParams, FleetReport};

/// Checks one finished run against the contract:
///
/// * **(a)** the output is `0..tasks`: every input exactly once, in order;
/// * **(b)** no more volunteers crashed than the fleet scheduled
///   crash-stops;
/// * **(c)** a crash re-lend needs a crash verdict: when every partition
///   (a flap included) heals inside its members' failure timeouts, there
///   are no more
///   crash re-lends than crashed volunteers — none without a scheduled
///   crash.
///
/// # Errors
///
/// The first violated rule.
pub fn check(report: &FleetReport) -> Result<(), String> {
    let (tasks, order) = (report.params.tasks, &report.output_order);
    if !order.iter().copied().eq(0..tasks) {
        let at = order.iter().zip(0..).position(|(got, want)| *got != want);
        let at = at.unwrap_or(order.len().min(tasks as usize));
        return Err(format!(
            "output is not 0..{tasks} in order: {} values, first wrong at position {at} ({:?})",
            order.len(),
            order.get(at)
        ));
    }
    let scheduled = report.params.volunteers.iter().filter(|spec| spec.crash_at.is_some());
    let (crashed, scheduled) = (report.crashed, scheduled.count());
    if crashed > scheduled as u64 {
        return Err(format!("{crashed} volunteers crashed, {scheduled} crash-stops scheduled"));
    }
    let relends = report.reactor.crash_relends;
    if relends > crashed && outages_heal_in_time(&report.params) {
        return Err(format!(
            "{relends} crash re-lends for {crashed} crashed volunteers, every outage shorter \
             than its failure timeout"
        ));
    }
    Ok(())
}

/// Whether every partition heals before each member's link failure
/// timeout.
fn outages_heal_in_time(params: &FleetParams) -> bool {
    params.partitions.iter().all(|(members, at, heal)| {
        members
            .iter()
            .all(|&m| heal.saturating_sub(*at) < params.volunteers[m].channel.failure_timeout)
    })
}

/// Simulates `params` twice, demands byte-identical canonical traces, then
/// [`check`]s the run.
///
/// # Errors
///
/// The first divergence of the two traces, or the violated rule.
pub fn run(params: &FleetParams) -> Result<FleetReport, String> {
    let report = simulate_fleet(params);
    let again = simulate_fleet(params).canonical_trace();
    if let Some(divergence) = first_divergence(&report.canonical_trace(), &again) {
        return Err(format!("two runs of the same parameters diverged\n{divergence}"));
    }
    check(&report)?;
    Ok(report)
}

/// The first line (1-based) at which two traces differ, `a`'s side marked
/// `-` and `b`'s `+`; `None` if they are equal. A trace that is a prefix of
/// the other shows as `(trace ends)` on its side.
pub fn first_divergence(a: &str, b: &str) -> Option<String> {
    fn lines(trace: &str) -> impl Iterator<Item = Option<&str>> {
        trace.split_inclusive('\n').map(Some).chain(std::iter::repeat(None))
    }
    fn show(line: Option<&str>) -> String {
        match line.map(|line| (line, line.strip_suffix('\n'))) {
            None => "(trace ends)".into(),
            Some((_, Some(line))) => line.into(),
            Some((line, None)) => format!("{line} (no newline at end)"),
        }
    }
    if a == b {
        return None;
    }
    let (line, (x, y)) = (1..).zip(lines(a).zip(lines(b))).find(|(_, (x, y))| x != y)?;
    Some(format!("first divergence at line {line}:\n  - {}\n  + {}", show(x), show(y)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle's verdict on a calm run (nothing scheduled to crash) that
    /// `doctor` edited.
    fn doctored(doctor: impl FnOnce(&mut FleetReport)) -> Result<(), String> {
        let mut report = simulate_fleet(&FleetParams::seeded(7, 4, 24, 0.0));
        check(&report).unwrap();
        doctor(&mut report);
        check(&report)
    }

    #[test]
    fn swapped_outputs_are_out_of_order() {
        let message = doctored(|report| report.output_order.swap(0, 1)).unwrap_err();
        assert!(message.ends_with("first wrong at position 0 (Some(1))"), "{message}");
    }

    #[test]
    fn a_dropped_output_is_missing() {
        let message = doctored(|report| report.output_order.truncate(23)).unwrap_err();
        assert!(message.ends_with("23 values, first wrong at position 23 (None)"), "{message}");
    }

    #[test]
    fn a_crash_beyond_the_schedule_is_flagged() {
        let message = doctored(|report| report.crashed = 1);
        assert_eq!(message.unwrap_err(), "1 volunteers crashed, 0 crash-stops scheduled");
    }

    #[test]
    fn a_crash_relend_without_a_scheduled_crash_is_flagged() {
        let message = doctored(|report| report.reactor.crash_relends = 1).unwrap_err();
        assert!(message.starts_with("1 crash re-lends for 0 crashed"), "{message}");
        // An outage past the link's 500 ms failure timeout may earn one.
        doctored(|report| {
            report.reactor.crash_relends = 1;
            let ms = std::time::Duration::from_millis;
            report.params.partitions = vec![(vec![1], ms(1), ms(601))];
        })
        .unwrap();
    }

    #[test]
    fn traces_differing_mid_way_show_the_first_differing_line() {
        assert_eq!(first_divergence("a\nb\n", "a\nb\n"), None);
        let divergence = first_divergence("a\nb\nc\nd\n", "a\nb\nx\ny\n");
        assert_eq!(divergence.unwrap(), "first divergence at line 3:\n  - c\n  + x");
    }

    #[test]
    fn a_trace_that_is_a_prefix_of_the_other_ends_first() {
        let divergence = first_divergence("a\nb\n", "a\nb\nc\n");
        assert_eq!(divergence.unwrap(), "first divergence at line 3:\n  - (trace ends)\n  + c");
        let divergence = first_divergence("a\nb", "a\nb\n");
        assert_eq!(
            divergence.unwrap(),
            "first divergence at line 2:\n  - b (no newline at end)\n  + b"
        );
    }
}
