//! Fault injection for deployment experiments.
//!
//! The evaluation scenarios need reproducible crashes: "the tablet crashes
//! after rendering one frame" (paper Figure 4), or "ten percent of the
//! volunteers disconnect during the run". A [`FaultPlan`] describes when a
//! device crashes; the worker consults it before each receive and after
//! each task.

use std::time::{Duration, Instant};

/// A deterministic description of when a device crashes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum FaultPlan {
    /// The device never crashes.
    #[default]
    None,
    /// The device crashes after processing exactly `n` tasks.
    AfterTasks(u64),
    /// The device crashes once `elapsed` wall-clock time has passed since the
    /// plan was armed.
    AfterDuration(Duration),
    /// The device crashes after processing `tasks` tasks or after `elapsed`
    /// time, whichever comes first.
    Either {
        /// Crash after this many tasks...
        tasks: u64,
        /// ...or after this much time, whichever happens first.
        elapsed: Duration,
    },
    /// The device's *link* drops once — a transient disconnect, not a crash:
    /// the worker keeps its state and rejoins. The worker consults
    /// [`ArmedFaultPlan::pending_disconnect`] and severs its transport when
    /// the flap falls due; how long the device stays away is `down_for`
    /// (replayed exactly by the deterministic sim's link pause; a real
    /// reconnecting transport treats it as a floor under its backoff).
    Disconnect {
        /// The link drops this long after the plan is armed...
        at: Duration,
        /// ...and stays down for this long before the device redials.
        down_for: Duration,
    },
}

impl FaultPlan {
    /// Arms the plan, starting its clock now.
    pub fn arm(self) -> ArmedFaultPlan {
        ArmedFaultPlan { plan: self, armed_at: Instant::now(), tasks_done: 0, flapped: false }
    }
}

/// A [`FaultPlan`] with a started clock and a task counter.
#[derive(Debug, Clone)]
pub struct ArmedFaultPlan {
    plan: FaultPlan,
    armed_at: Instant,
    tasks_done: u64,
    /// The one-shot [`FaultPlan::Disconnect`] already fired.
    flapped: bool,
}

impl ArmedFaultPlan {
    /// Records that one task finished processing.
    pub fn record_task(&mut self) {
        self.tasks_done += 1;
    }

    /// Returns `true` if the device should crash now.
    pub fn should_crash(&self) -> bool {
        match self.plan {
            FaultPlan::None | FaultPlan::Disconnect { .. } => false,
            FaultPlan::AfterTasks(n) => self.tasks_done >= n,
            FaultPlan::AfterDuration(elapsed) => self.armed_at.elapsed() >= elapsed,
            FaultPlan::Either { tasks, elapsed } => {
                self.tasks_done >= tasks || self.armed_at.elapsed() >= elapsed
            }
        }
    }

    /// Returns `Some(down_for)` exactly once, when a scripted
    /// [`FaultPlan::Disconnect`] falls due: the caller must sever its link
    /// now and stay away for the returned duration. Every later call (and
    /// every other plan) answers `None` — a flap is one link event, not a
    /// recurring condition like [`ArmedFaultPlan::should_crash`].
    pub fn pending_disconnect(&mut self) -> Option<Duration> {
        match self.plan {
            FaultPlan::Disconnect { at, down_for }
                if !self.flapped && self.armed_at.elapsed() >= at =>
            {
                self.flapped = true;
                Some(down_for)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_crashes() {
        let mut armed = FaultPlan::None.arm();
        for _ in 0..1000 {
            armed.record_task();
        }
        assert!(!armed.should_crash());
    }

    #[test]
    fn after_tasks_crashes_at_threshold() {
        let mut armed = FaultPlan::AfterTasks(3).arm();
        assert!(!armed.should_crash());
        armed.record_task();
        armed.record_task();
        assert!(!armed.should_crash());
        armed.record_task();
        assert!(armed.should_crash());
    }

    #[test]
    fn after_duration_crashes_once_elapsed() {
        let armed = FaultPlan::AfterDuration(Duration::from_millis(20)).arm();
        assert!(!armed.should_crash());
        std::thread::sleep(Duration::from_millis(25));
        assert!(armed.should_crash());
    }

    #[test]
    fn either_crashes_on_first_condition() {
        let mut by_tasks = FaultPlan::Either { tasks: 1, elapsed: Duration::from_secs(3600) }.arm();
        by_tasks.record_task();
        assert!(by_tasks.should_crash());

        let by_time =
            FaultPlan::Either { tasks: 1_000_000, elapsed: Duration::from_millis(10) }.arm();
        std::thread::sleep(Duration::from_millis(15));
        assert!(by_time.should_crash());
    }

    #[test]
    fn default_is_none() {
        assert_eq!(FaultPlan::default(), FaultPlan::None);
    }

    #[test]
    fn disconnect_never_crashes_and_fires_exactly_once() {
        let mut armed = FaultPlan::Disconnect {
            at: Duration::from_millis(10),
            down_for: Duration::from_millis(70),
        }
        .arm();
        assert_eq!(armed.pending_disconnect(), None, "not due yet");
        assert!(!armed.should_crash());
        std::thread::sleep(Duration::from_millis(15));
        assert!(!armed.should_crash(), "a flap is not a crash");
        assert_eq!(armed.pending_disconnect(), Some(Duration::from_millis(70)));
        assert_eq!(armed.pending_disconnect(), None, "one link event only");
        assert!(!armed.should_crash());
    }

    #[test]
    fn other_plans_never_report_a_disconnect() {
        let mut none = FaultPlan::None.arm();
        assert_eq!(none.pending_disconnect(), None);
        let mut tasks = FaultPlan::AfterTasks(0).arm();
        assert!(tasks.should_crash());
        assert_eq!(tasks.pending_disconnect(), None);
    }
}
