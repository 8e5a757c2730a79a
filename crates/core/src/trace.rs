//! The deployment's **event trace**: what happened to the fleet, as typed
//! events, rendered to text in one place.
//!
//! [`Pando::trace`](crate::master::Pando::trace) hands out the trace. The
//! master writes what it decides — a volunteer registered
//! ([`Event::Joined`]), a session ended and how ([`Event::Ended`]), the
//! values that session held handed back for re-lending ([`Event::Relent`]) —
//! and the [fleet simulator](crate::sim) writes its volunteers' side. Events
//! are stamped in whole microseconds on the deployment [`Clock`], counted
//! from the trace's creation. On a virtual clock the trace keeps every
//! event, for the canonical trace; on the wall clock it keeps the newest
//! [`RING`], a post-mortem of a real run.

use pando_netsim::sim::Clock;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Events a wall-clock trace keeps; recording one more drops the oldest.
pub const RING: usize = 4096;

/// One event of a fleet run. Its `Display` is the text of a trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // Each variant's doc names its fields.
pub enum Event {
    /// Simulated volunteer `v` received a frame of `records` tasks.
    Recv { v: usize, records: u64 },
    /// Simulated volunteer `v` sent a frame of `records` results.
    Reply { v: usize, records: u64 },
    /// Simulated volunteer `v` crash-stopped.
    Crash { v: usize },
    /// Simulated volunteer `v` of `group` opened its channel mid-run.
    Join { v: usize, group: String },
    /// Simulated volunteer `v` left: goodbye, then close.
    Leave { v: usize },
    /// Simulated volunteer `v` answered the master's close with a goodbye.
    Goodbye { v: usize },
    /// The links of `members` pause until `heal_us` after the origin.
    Partition { members: Vec<usize>, heal_us: u64 },
    /// The ordered output ended.
    OutputDone,
    /// The master registered volunteer `name` (`Pando::register`).
    Joined { name: String },
    /// The reactor ended volunteer `name`'s session, `how`.
    Ended { name: String, how: End },
    /// The ended session of volunteer `name` handed `values` borrowed values
    /// back to the lender, to be lent again (recorded only when `values > 0`).
    Relent { name: String, values: u64 },
}

/// How the master ended a volunteer session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// A goodbye or a clean close: the sub-stream completed.
    Goodbye,
    /// The crash verdict (the transport failed for good): values re-lent.
    Crash,
    /// The volunteer reported an application error: values re-lent.
    Failed,
    /// The reactor shut down with the session still live: values re-lent.
    Shutdown,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Recv { v, records } => write!(f, "v{v} recv records={records}"),
            Event::Reply { v, records } => write!(f, "v{v} reply records={records}"),
            Event::Crash { v } => write!(f, "v{v} crash"),
            Event::Join { v, group } => write!(f, "v{v} join group={group}"),
            Event::Leave { v } => write!(f, "v{v} leave"),
            Event::Goodbye { v } => write!(f, "v{v} goodbye"),
            Event::Partition { members, heal_us } => {
                f.write_str("partition members=")?;
                for (i, member) in members.iter().enumerate() {
                    write!(f, "{}{member}", if i == 0 { "" } else { "," })?;
                }
                write!(f, " heal_us={heal_us}")
            }
            Event::OutputDone => f.write_str("output done"),
            Event::Joined { name } => write!(f, "master joined {name}"),
            Event::Ended { name, how } => {
                let how = match how {
                    End::Goodbye => "goodbye",
                    End::Crash => "crash",
                    End::Failed => "failed",
                    End::Shutdown => "shutdown",
                };
                write!(f, "master ended {name} {how}")
            }
            Event::Relent { name, values } => write!(f, "master relent {name} values={values}"),
        }
    }
}

/// Writes `events` one line each, `[stamp_us] event`.
pub fn write_lines(out: &mut impl fmt::Write, events: &[(u64, Event)]) -> fmt::Result {
    events.iter().try_for_each(|(at, event)| writeln!(out, "[{at}] {event}"))
}

/// A cloneable handle on one deployment's trace: clones record into, and
/// read, the same events.
#[derive(Debug, Clone)]
pub struct Trace {
    clock: Clock,
    origin: Instant,
    /// [`RING`] on the wall clock, unbounded on a virtual one.
    capacity: usize,
    events: Arc<Mutex<VecDeque<(u64, Event)>>>,
}

impl Trace {
    /// An empty trace stamped on `clock` from now.
    pub fn new(clock: &Clock) -> Self {
        let capacity = if clock.is_virtual() { usize::MAX } else { RING };
        Self { clock: clock.clone(), origin: clock.now(), capacity, events: Arc::default() }
    }

    /// Appends `event`, stamped now; a full ring drops its oldest event.
    pub fn record(&self, event: Event) {
        let at = self.clock.now().saturating_duration_since(self.origin).as_micros() as u64;
        let mut events = self.events.lock();
        if events.len() == self.capacity {
            events.pop_front();
        }
        events.push_back((at, event));
    }

    /// Takes the events kept, oldest first; recording goes on from empty.
    pub fn take(&self) -> Vec<(u64, Event)> {
        std::mem::take(&mut *self.events.lock()).into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn a_wall_clock_ring_keeps_the_newest_events_and_a_virtual_trace_keeps_all() {
        let extra = 10;
        let (wall, virtual_clock) = (Trace::new(&Clock::wall()), Clock::virtual_clock());
        let sim = Trace::new(&virtual_clock);
        for v in 0..RING + extra {
            wall.record(Event::Crash { v });
            virtual_clock.advance_to(virtual_clock.now() + Duration::from_micros(1));
            sim.record(Event::Crash { v });
        }
        let kept: Vec<Event> = wall.take().into_iter().map(|(_, event)| event).collect();
        let newest: Vec<Event> = (extra..RING + extra).map(|v| Event::Crash { v }).collect();
        assert_eq!(kept, newest);
        let all = sim.take();
        assert_eq!(all.len(), RING + extra);
        assert!(all
            .iter()
            .zip(1u64..)
            .all(|((at, event), n)| { *at == n && *event == Event::Crash { v: n as usize - 1 } }));
    }

    #[test]
    fn every_event_renders_its_golden_line() {
        let name = || "volunteer-3".to_string();
        let table = [
            (Event::Recv { v: 2, records: 4 }, "v2 recv records=4"),
            (Event::Reply { v: 2, records: 3 }, "v2 reply records=3"),
            (Event::Crash { v: 0 }, "v0 crash"),
            (Event::Join { v: 1, group: "phones".into() }, "v1 join group=phones"),
            (Event::Leave { v: 5 }, "v5 leave"),
            (Event::Goodbye { v: 7 }, "v7 goodbye"),
            (
                Event::Partition { members: vec![0, 1], heal_us: 14_000 },
                "partition members=0,1 heal_us=14000",
            ),
            (Event::Partition { members: vec![3], heal_us: 9 }, "partition members=3 heal_us=9"),
            (Event::OutputDone, "output done"),
            (Event::Joined { name: name() }, "master joined volunteer-3"),
            (Event::Ended { name: name(), how: End::Goodbye }, "master ended volunteer-3 goodbye"),
            (Event::Ended { name: name(), how: End::Crash }, "master ended volunteer-3 crash"),
            (Event::Ended { name: name(), how: End::Failed }, "master ended volunteer-3 failed"),
            (
                Event::Ended { name: name(), how: End::Shutdown },
                "master ended volunteer-3 shutdown",
            ),
            (Event::Relent { name: name(), values: 5 }, "master relent volunteer-3 values=5"),
        ];
        for (event, line) in &table {
            assert_eq!(event.to_string(), *line);
        }
        let mut out = String::new();
        write_lines(&mut out, &[(0, Event::OutputDone), (12, Event::Crash { v: 4 })]).unwrap();
        assert_eq!(out, "[0] output done\n[12] v4 crash\n");
    }
}
