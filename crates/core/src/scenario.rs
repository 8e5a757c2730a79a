//! Checked-in scenario files for the deterministic fleet simulator.
//!
//! A scenario is a small TOML document (parsed by the in-tree
//! [`minitoml`] subset) declaring a fleet topology — volunteer groups on
//! per-link latency/jitter/loss profiles, optionally typed by a published
//! device from [`pando_devices`] — plus a timed churn and fault schedule:
//! join waves, clean leaves, crash-stops, link flaps and group-scoped
//! partitions. [`Scenario::to_fleet_params`] compiles it to a
//! [`FleetScript`] that [`simulate_fleet`](crate::sim::simulate_fleet)
//! executes deterministically on the virtual clock, so every scenario run
//! from the same file is byte-identical and the canonical trace can be
//! committed as a golden artefact (see `scenarios/` and
//! `examples/scenario_run.rs`).
//!
//! # Format
//!
//! ```toml
//! name = "wan_mix"          # must match the file stem
//! seed = 7                  # jitter/loss seed (volunteer v uses seed + v)
//! tasks = 200               # input values to process
//! duration_us = 60000000    # schedule horizon (default 600s)
//! # input = "interactive"   # route tasks through the would-block pump path
//!
//! [defaults]                # optional fallbacks for every group
//! service_us = 1500
//! loss = 0.01
//!
//! [[group]]                 # volunteer ids are assigned in group order
//! name = "phones"
//! count = 3
//! net = "wan"               # base profile: instant | lan | vpn | wan
//! device = "iPhone SE"      # optional: service time from Table 2 ...
//! app = "raytrace"          # ... for this application
//! loss = 0.05               # per-group link overrides
//! joins_at_us = 0
//! join_stagger_us = 2000    # member k joins at joins_at + k * stagger
//! # leaves_at_us = 50000    # the whole group leaves cleanly
//!
//! [[crash]]                 # crash-stop volunteer 2 mid-run
//! volunteer = 2
//! at_us = 15000
//!
//! [[flap]]                  # transient disconnect (delays, never loses)
//! volunteer = 1
//! at_us = 10000
//! down_us = 5000
//!
//! [[partition]]             # pause every link of a group, then heal
//! group = "phones"
//! at_us = 20000
//! heal_us = 26000
//!
//! [expect]                  # optional post-run assertions
//! crash_relends = 0
//! min_retransmits = 1
//! ```
//!
//! Every key outside this reference is a typed [`ScenarioError`], as are
//! out-of-range loss, overlapping partitions of one group, events past
//! `duration_us` or before their target's join, and schedules that leave no
//! survivor to finish the stream.

use crate::config::BatchingConfig;
use crate::sim::{FleetParams, FleetReport, FleetScript, VolunteerSpec};
use minitoml::{Document, Table, Value};
use pando_devices::profiles::{Scenario as PaperNet, ScenarioSetup};
use pando_netsim::channel::ChannelConfig;
use pando_workloads::AppKind;
use std::fmt;
use std::path::Path;
use std::time::Duration;

/// The loss ceiling scenarios may declare. Above this the capped geometric
/// retransmit draw saturates so often that "loss as delay" stops being an
/// honest model.
const MAX_LOSS: f64 = 0.9;

/// Horizon used when a scenario does not declare `duration_us`: the fleet
/// simulator's own 600-second virtual ceiling.
pub const DEFAULT_DURATION_US: u64 = 600_000_000;

/// A typed scenario-file error: what went wrong and where.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The file could not be read.
    Io {
        /// Path that failed to read.
        path: String,
        /// The I/O error rendered.
        error: String,
    },
    /// The TOML subset parser rejected the text.
    Toml(minitoml::Error),
    /// A table carries a key outside the format reference.
    UnknownKey {
        /// Which table (`scenario` for the top level).
        table: String,
        /// The offending key.
        key: String,
    },
    /// A key holds a value of the wrong type or outside its range.
    InvalidValue {
        /// The offending key (qualified, e.g. `group.loss`).
        key: String,
        /// Why the value was rejected.
        message: String,
    },
    /// A partition names a `[[group]]` that does not exist.
    UnknownGroup(String),
    /// A crash or flap names a volunteer id outside the fleet.
    UnknownVolunteer(usize),
    /// A group's `device` is not in the published Table 2 set, or has no
    /// measurement for the requested `app`.
    UnknownDevice(String),
    /// An event is scheduled after `duration_us`.
    EventPastDuration {
        /// Event description (`crash v2`, `partition phones`, ...).
        what: String,
        /// Its instant in microseconds.
        at_us: u64,
    },
    /// An event targets a volunteer before it joins (or a leave before the
    /// join, or a partition heal before its start).
    EventBeforeJoin {
        /// Event description.
        what: String,
        /// Why the ordering is impossible.
        message: String,
    },
    /// Two partitions of the same group overlap in time.
    OverlappingPartitions {
        /// The group partitioned twice at once.
        group: String,
    },
    /// Every volunteer crashes or leaves: nobody is left to finish the
    /// stream, so the run could never complete.
    NoSurvivor,
    /// The `name` key does not match the file stem the scenario was loaded
    /// from.
    NameMismatch {
        /// The in-file name.
        name: String,
        /// The file stem.
        stem: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Io { path, error } => write!(f, "reading {path}: {error}"),
            ScenarioError::Toml(err) => write!(f, "parsing scenario: {err}"),
            ScenarioError::UnknownKey { table, key } => {
                write!(f, "unknown key {key:?} in [{table}]")
            }
            ScenarioError::InvalidValue { key, message } => write!(f, "{key}: {message}"),
            ScenarioError::UnknownGroup(group) => write!(f, "unknown group {group:?}"),
            ScenarioError::UnknownVolunteer(v) => {
                write!(f, "volunteer {v} is outside the fleet")
            }
            ScenarioError::UnknownDevice(device) => {
                write!(f, "device {device:?} has no published measurement for the requested app")
            }
            ScenarioError::EventPastDuration { what, at_us } => {
                write!(f, "{what} at {at_us}us lies past duration_us")
            }
            ScenarioError::EventBeforeJoin { what, message } => write!(f, "{what}: {message}"),
            ScenarioError::OverlappingPartitions { group } => {
                write!(f, "group {group:?} has overlapping partitions")
            }
            ScenarioError::NoSurvivor => {
                f.write_str("every volunteer crashes or leaves; the stream can never finish")
            }
            ScenarioError::NameMismatch { name, stem } => {
                write!(f, "scenario name {name:?} does not match the file stem {stem:?}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<minitoml::Error> for ScenarioError {
    fn from(err: minitoml::Error) -> Self {
        ScenarioError::Toml(err)
    }
}

/// Per-link knobs a group (or `[defaults]`) may override on its base `net`
/// profile. `None` falls through group → defaults → profile constructor.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LinkOverrides {
    /// Virtual compute time per task record.
    pub service_us: Option<u64>,
    /// One-way propagation latency.
    pub latency_us: Option<u64>,
    /// Maximum additional random delay per frame.
    pub jitter_us: Option<u64>,
    /// Per-transmission loss probability (`[0, 0.9]`).
    pub loss: Option<f64>,
    /// Recovery delay per lost transmission.
    pub retransmit_us: Option<u64>,
    /// Heartbeat interval.
    pub heartbeat_us: Option<u64>,
    /// Crash-suspicion timeout.
    pub failure_timeout_us: Option<u64>,
    /// Link bandwidth in bytes per second (`0` = unlimited).
    pub bandwidth_bps: Option<u64>,
}

impl LinkOverrides {
    const KEYS: [&'static str; 8] = [
        "service_us",
        "latency_us",
        "jitter_us",
        "loss",
        "retransmit_us",
        "heartbeat_us",
        "failure_timeout_us",
        "bandwidth_bps",
    ];

    fn parse(table: &Table, scope: &str) -> Result<Self, ScenarioError> {
        Ok(Self {
            service_us: opt_u64(table, scope, "service_us")?,
            latency_us: opt_u64(table, scope, "latency_us")?,
            jitter_us: opt_u64(table, scope, "jitter_us")?,
            loss: opt_loss(table, scope)?,
            retransmit_us: opt_u64(table, scope, "retransmit_us")?,
            heartbeat_us: opt_u64(table, scope, "heartbeat_us")?,
            failure_timeout_us: opt_u64(table, scope, "failure_timeout_us")?,
            bandwidth_bps: opt_u64(table, scope, "bandwidth_bps")?,
        })
    }

    fn render_into(&self, table: &mut Table) {
        let pairs = [
            ("service_us", self.service_us),
            ("latency_us", self.latency_us),
            ("jitter_us", self.jitter_us),
            ("retransmit_us", self.retransmit_us),
            ("heartbeat_us", self.heartbeat_us),
            ("failure_timeout_us", self.failure_timeout_us),
            ("bandwidth_bps", self.bandwidth_bps),
        ];
        // `loss` keeps its position in the fixed render order for
        // readability; Option skipping makes order irrelevant to equality.
        for (key, value) in &pairs[..3] {
            if let Some(v) = value {
                table.set(*key, Value::Integer(*v as i64));
            }
        }
        if let Some(loss) = self.loss {
            table.set("loss", Value::Float(loss));
        }
        for (key, value) in &pairs[3..] {
            if let Some(v) = value {
                table.set(*key, Value::Integer(*v as i64));
            }
        }
    }

    /// Overrides from `self`, falling back to `other` where unset.
    fn or(&self, other: &LinkOverrides) -> LinkOverrides {
        LinkOverrides {
            service_us: self.service_us.or(other.service_us),
            latency_us: self.latency_us.or(other.latency_us),
            jitter_us: self.jitter_us.or(other.jitter_us),
            loss: self.loss.or(other.loss),
            retransmit_us: self.retransmit_us.or(other.retransmit_us),
            heartbeat_us: self.heartbeat_us.or(other.heartbeat_us),
            failure_timeout_us: self.failure_timeout_us.or(other.failure_timeout_us),
            bandwidth_bps: self.bandwidth_bps.or(other.bandwidth_bps),
        }
    }
}

/// One `[[group]]`: `count` volunteers sharing a link profile and a churn
/// schedule. Volunteer ids are assigned in declaration order.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSpec {
    /// Group name (referenced by `[[partition]]`).
    pub name: String,
    /// Number of volunteers in the group.
    pub count: usize,
    /// Base channel profile: `instant`, `lan`, `vpn` or `wan`.
    pub net: String,
    /// Published device the service time is derived from, if any.
    pub device: Option<String>,
    /// Application the device's Table 2 rate is read for (with `device`).
    pub app: Option<String>,
    /// Link overrides on top of the `net` profile and `[defaults]`.
    pub link: LinkOverrides,
    /// When the group joins, in microseconds from the run origin.
    pub joins_at_us: u64,
    /// Member `k` joins at `joins_at_us + k * join_stagger_us` — a join
    /// wave instead of a thundering herd.
    pub join_stagger_us: u64,
    /// When the whole group leaves cleanly, if ever.
    pub leaves_at_us: Option<u64>,
}

/// One `[[partition]]`: pause every link of `group` from `at_us` until
/// `heal_us`.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionSpec {
    /// The partitioned group.
    pub group: String,
    /// Partition start, microseconds from the origin.
    pub at_us: u64,
    /// Heal instant, microseconds from the origin (must exceed `at_us`).
    pub heal_us: u64,
}

/// The optional `[expect]` table: assertions the runner checks against the
/// finished [`FleetReport`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Expectations {
    /// Exact number of volunteers that crashed.
    pub crashed: Option<u64>,
    /// Exact number of crash re-lends the reactor performed.
    pub crash_relends: Option<u64>,
    /// Upper bound on the reactor's wasted polls (the PR 7 busy-loop
    /// budget).
    pub max_wasted_polls: Option<u64>,
    /// Lower bound on lost-and-re-sent transmissions (proves the loss knob
    /// actually fired).
    pub min_retransmits: Option<u64>,
}

impl Expectations {
    const KEYS: [&'static str; 4] =
        ["crashed", "crash_relends", "max_wasted_polls", "min_retransmits"];

    fn is_empty(&self) -> bool {
        *self == Expectations::default()
    }

    /// Checks a finished run against every declared expectation. What every
    /// run owes whatever its table says is
    /// [`oracle::check`](crate::sim::oracle::check)'s.
    ///
    /// # Errors
    ///
    /// Returns every violation, one per line.
    pub fn check(&self, report: &FleetReport) -> Result<(), String> {
        let mut failures = Vec::new();
        let mut expect = |label: &str, ok: bool, got: u64| {
            if !ok {
                failures.push(format!("expect.{label} violated (got {got})"));
            }
        };
        if let Some(want) = self.crashed {
            expect("crashed", report.crashed == want, report.crashed);
        }
        if let Some(want) = self.crash_relends {
            expect(
                "crash_relends",
                report.reactor.crash_relends == want,
                report.reactor.crash_relends,
            );
        }
        if let Some(max) = self.max_wasted_polls {
            expect(
                "max_wasted_polls",
                report.reactor.wasted_polls <= max,
                report.reactor.wasted_polls,
            );
        }
        if let Some(min) = self.min_retransmits {
            expect("min_retransmits", report.retransmits >= min, report.retransmits);
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("\n"))
        }
    }
}

/// A parsed, validated scenario file. Field-for-field faithful to the text:
/// [`Scenario::render`] emits an equivalent document and
/// `parse(render(s)) == s`.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name, `[a-z0-9_-]+`; must match the file stem when loaded
    /// from disk.
    pub name: String,
    /// Seed for channel jitter and loss draws (volunteer `v` uses
    /// `seed + v`).
    pub seed: u64,
    /// Number of input values to process.
    pub tasks: u64,
    /// Schedule horizon in microseconds; every event must land inside it.
    pub duration_us: u64,
    /// Route the input through the interactive would-block pump path.
    pub interactive: bool,
    /// `[defaults]` fallbacks applied to every group.
    pub defaults: LinkOverrides,
    /// The volunteer groups, in declaration (= id assignment) order.
    pub groups: Vec<GroupSpec>,
    /// `[[crash]]` events as `(volunteer, at_us)`.
    pub crashes: Vec<(usize, u64)>,
    /// `[[flap]]` events as `(volunteer, at_us, down_us)`.
    pub flaps: Vec<(usize, u64, u64)>,
    /// `[[partition]]` events.
    pub partitions: Vec<PartitionSpec>,
    /// `[expect]` assertions for the runner.
    pub expect: Expectations,
}

// --- small typed accessors over minitoml tables ---------------------------

fn invalid(key: impl Into<String>, message: impl Into<String>) -> ScenarioError {
    ScenarioError::InvalidValue { key: key.into(), message: message.into() }
}

fn check_keys(table: &Table, scope: &str, allowed: &[&str]) -> Result<(), ScenarioError> {
    for key in table.keys() {
        if !allowed.contains(&key) {
            return Err(ScenarioError::UnknownKey { table: scope.into(), key: key.into() });
        }
    }
    Ok(())
}

fn opt_u64(table: &Table, scope: &str, key: &str) -> Result<Option<u64>, ScenarioError> {
    match table.get(key) {
        None => Ok(None),
        Some(minitoml::Item::Value(Value::Integer(i))) if *i >= 0 => Ok(Some(*i as u64)),
        Some(_) => Err(invalid(format!("{scope}.{key}"), "expected a non-negative integer")),
    }
}

fn req_u64(table: &Table, scope: &str, key: &str) -> Result<u64, ScenarioError> {
    opt_u64(table, scope, key)?.ok_or_else(|| invalid(format!("{scope}.{key}"), "missing"))
}

fn opt_str(table: &Table, scope: &str, key: &str) -> Result<Option<String>, ScenarioError> {
    match table.get(key) {
        None => Ok(None),
        Some(minitoml::Item::Value(Value::String(s))) => Ok(Some(s.clone())),
        Some(_) => Err(invalid(format!("{scope}.{key}"), "expected a string")),
    }
}

fn opt_loss(table: &Table, scope: &str) -> Result<Option<f64>, ScenarioError> {
    match table.get("loss") {
        None => Ok(None),
        Some(minitoml::Item::Value(Value::Float(f))) if (0.0..=MAX_LOSS).contains(f) => {
            Ok(Some(*f))
        }
        Some(minitoml::Item::Value(Value::Integer(0))) => Ok(Some(0.0)),
        Some(_) => Err(invalid(
            format!("{scope}.loss"),
            format!("expected a probability within [0, {MAX_LOSS}]"),
        )),
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_-".contains(c))
}

impl Scenario {
    /// Parses and validates a scenario document.
    ///
    /// # Errors
    ///
    /// Any [`ScenarioError`]: malformed TOML, unknown keys, values outside
    /// their ranges, or an impossible schedule.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let doc = minitoml::parse(text)?;
        let root = doc.root();
        check_keys(
            root,
            "scenario",
            &[
                "name",
                "seed",
                "tasks",
                "duration_us",
                "input",
                "defaults",
                "group",
                "crash",
                "flap",
                "partition",
                "expect",
            ],
        )?;
        let name = opt_str(root, "scenario", "name")?
            .ok_or_else(|| invalid("scenario.name", "missing"))?;
        if !valid_name(&name) {
            return Err(invalid("scenario.name", "expected [a-z0-9_-]+"));
        }
        let interactive = match opt_str(root, "scenario", "input")?.as_deref() {
            None | Some("eager") => false,
            Some("interactive") => true,
            Some(other) => {
                return Err(invalid(
                    "scenario.input",
                    format!("expected \"eager\" or \"interactive\", got {other:?}"),
                ))
            }
        };
        let defaults = match root.table("defaults") {
            Some(table) => {
                check_keys(table, "defaults", &LinkOverrides::KEYS)?;
                LinkOverrides::parse(table, "defaults")?
            }
            None => LinkOverrides::default(),
        };
        let mut groups = Vec::new();
        for table in root.tables("group") {
            let mut allowed = vec![
                "name",
                "count",
                "net",
                "device",
                "app",
                "joins_at_us",
                "join_stagger_us",
                "leaves_at_us",
            ];
            allowed.extend_from_slice(&LinkOverrides::KEYS);
            check_keys(table, "group", &allowed)?;
            let group_name =
                opt_str(table, "group", "name")?.ok_or_else(|| invalid("group.name", "missing"))?;
            if !valid_name(&group_name) {
                return Err(invalid("group.name", "expected [a-z0-9_-]+"));
            }
            let net = opt_str(table, "group", "net")?.unwrap_or_else(|| "lan".into());
            if !["instant", "lan", "vpn", "wan"].contains(&net.as_str()) {
                return Err(invalid("group.net", "expected instant, lan, vpn or wan"));
            }
            groups.push(GroupSpec {
                name: group_name,
                count: req_u64(table, "group", "count")? as usize,
                net,
                device: opt_str(table, "group", "device")?,
                app: opt_str(table, "group", "app")?,
                link: LinkOverrides::parse(table, "group")?,
                joins_at_us: opt_u64(table, "group", "joins_at_us")?.unwrap_or(0),
                join_stagger_us: opt_u64(table, "group", "join_stagger_us")?.unwrap_or(0),
                leaves_at_us: opt_u64(table, "group", "leaves_at_us")?,
            });
        }
        let mut crashes = Vec::new();
        for table in root.tables("crash") {
            check_keys(table, "crash", &["volunteer", "at_us"])?;
            crashes.push((
                req_u64(table, "crash", "volunteer")? as usize,
                req_u64(table, "crash", "at_us")?,
            ));
        }
        let mut flaps = Vec::new();
        for table in root.tables("flap") {
            check_keys(table, "flap", &["volunteer", "at_us", "down_us"])?;
            flaps.push((
                req_u64(table, "flap", "volunteer")? as usize,
                req_u64(table, "flap", "at_us")?,
                req_u64(table, "flap", "down_us")?,
            ));
        }
        let mut partitions = Vec::new();
        for table in root.tables("partition") {
            check_keys(table, "partition", &["group", "at_us", "heal_us"])?;
            partitions.push(PartitionSpec {
                group: opt_str(table, "partition", "group")?
                    .ok_or_else(|| invalid("partition.group", "missing"))?,
                at_us: req_u64(table, "partition", "at_us")?,
                heal_us: req_u64(table, "partition", "heal_us")?,
            });
        }
        let expect = match root.table("expect") {
            Some(table) => {
                check_keys(table, "expect", &Expectations::KEYS)?;
                Expectations {
                    crashed: opt_u64(table, "expect", "crashed")?,
                    crash_relends: opt_u64(table, "expect", "crash_relends")?,
                    max_wasted_polls: opt_u64(table, "expect", "max_wasted_polls")?,
                    min_retransmits: opt_u64(table, "expect", "min_retransmits")?,
                }
            }
            None => Expectations::default(),
        };
        let scenario = Scenario {
            name,
            seed: req_u64(root, "scenario", "seed")?,
            tasks: req_u64(root, "scenario", "tasks")?,
            duration_us: opt_u64(root, "scenario", "duration_us")?.unwrap_or(DEFAULT_DURATION_US),
            interactive,
            defaults,
            groups,
            crashes,
            flaps,
            partitions,
            expect,
        };
        scenario.validate()?;
        Ok(scenario)
    }

    /// Loads and validates `path`, additionally requiring the `name` key to
    /// match the file stem (so a trace diff always names its file).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Io`] when the file cannot be read, otherwise the
    /// same conditions as [`Scenario::parse`] plus
    /// [`ScenarioError::NameMismatch`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ScenarioError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|error| ScenarioError::Io {
            path: path.display().to_string(),
            error: error.to_string(),
        })?;
        let scenario = Self::parse(&text)?;
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or_default();
        if scenario.name != stem {
            return Err(ScenarioError::NameMismatch {
                name: scenario.name,
                stem: stem.to_string(),
            });
        }
        Ok(scenario)
    }

    /// Total number of volunteers across all groups.
    pub fn volunteers(&self) -> usize {
        self.groups.iter().map(|g| g.count).sum()
    }

    /// Join instant of volunteer `v` (group join plus stagger), if `v` is
    /// inside the fleet.
    fn join_us_of(&self, v: usize) -> Option<u64> {
        let mut base = 0usize;
        for group in &self.groups {
            if v < base + group.count {
                let k = (v - base) as u64;
                return Some(group.joins_at_us + k * group.join_stagger_us);
            }
            base += group.count;
        }
        None
    }

    fn validate(&self) -> Result<(), ScenarioError> {
        if self.tasks == 0 {
            return Err(invalid("scenario.tasks", "at least one task is required"));
        }
        if self.groups.is_empty() {
            return Err(invalid("scenario.group", "at least one [[group]] is required"));
        }
        for group in &self.groups {
            if group.count == 0 {
                return Err(invalid("group.count", "a group needs at least one volunteer"));
            }
            if self.groups.iter().filter(|g| g.name == group.name).count() > 1 {
                return Err(invalid("group.name", format!("duplicate group {:?}", group.name)));
            }
            if group.device.is_some() || group.app.is_some() {
                let device =
                    group.device.as_deref().ok_or_else(|| invalid("group.device", "missing"))?;
                let app = parse_app(group.app.as_deref())?;
                if device_service(device, app).is_none() {
                    return Err(ScenarioError::UnknownDevice(device.to_string()));
                }
            }
            let last_join =
                group.joins_at_us + (group.count as u64 - 1).saturating_mul(group.join_stagger_us);
            if last_join > self.duration_us {
                return Err(ScenarioError::EventPastDuration {
                    what: format!("join of group {:?}", group.name),
                    at_us: last_join,
                });
            }
            if let Some(leave) = group.leaves_at_us {
                if leave > self.duration_us {
                    return Err(ScenarioError::EventPastDuration {
                        what: format!("leave of group {:?}", group.name),
                        at_us: leave,
                    });
                }
                if leave < last_join {
                    return Err(ScenarioError::EventBeforeJoin {
                        what: format!("leave of group {:?}", group.name),
                        message: format!(
                            "leaves_at_us={leave} precedes the group's last join at {last_join}"
                        ),
                    });
                }
            }
        }
        for (v, at_us) in &self.crashes {
            let join = self.join_us_of(*v).ok_or(ScenarioError::UnknownVolunteer(*v))?;
            if *at_us > self.duration_us {
                return Err(ScenarioError::EventPastDuration {
                    what: format!("crash v{v}"),
                    at_us: *at_us,
                });
            }
            if *at_us < join {
                return Err(ScenarioError::EventBeforeJoin {
                    what: format!("crash v{v}"),
                    message: format!("at_us={at_us} precedes the volunteer's join at {join}"),
                });
            }
        }
        for (v, at_us, _down) in &self.flaps {
            let join = self.join_us_of(*v).ok_or(ScenarioError::UnknownVolunteer(*v))?;
            if *at_us > self.duration_us {
                return Err(ScenarioError::EventPastDuration {
                    what: format!("flap v{v}"),
                    at_us: *at_us,
                });
            }
            if *at_us < join {
                return Err(ScenarioError::EventBeforeJoin {
                    what: format!("flap v{v}"),
                    message: format!("at_us={at_us} precedes the volunteer's join at {join}"),
                });
            }
        }
        for partition in &self.partitions {
            if !self.groups.iter().any(|g| g.name == partition.group) {
                return Err(ScenarioError::UnknownGroup(partition.group.clone()));
            }
            if partition.heal_us <= partition.at_us {
                return Err(ScenarioError::EventBeforeJoin {
                    what: format!("partition of {:?}", partition.group),
                    message: format!(
                        "heal_us={} does not follow at_us={}",
                        partition.heal_us, partition.at_us
                    ),
                });
            }
            if partition.heal_us > self.duration_us {
                return Err(ScenarioError::EventPastDuration {
                    what: format!("partition of {:?}", partition.group),
                    at_us: partition.heal_us,
                });
            }
            let overlapping = self.partitions.iter().any(|other| {
                !std::ptr::eq(other, partition)
                    && other.group == partition.group
                    && other.at_us < partition.heal_us
                    && partition.at_us < other.heal_us
            });
            if overlapping {
                return Err(ScenarioError::OverlappingPartitions {
                    group: partition.group.clone(),
                });
            }
        }
        // At least one volunteer must survive to drain the stream: not
        // crashed and not in a leaving group.
        let mut survivor = false;
        let mut base = 0usize;
        for group in &self.groups {
            if group.leaves_at_us.is_none() {
                for v in base..base + group.count {
                    if !self.crashes.iter().any(|(c, _)| *c == v) {
                        survivor = true;
                    }
                }
            }
            base += group.count;
        }
        if !survivor {
            return Err(ScenarioError::NoSurvivor);
        }
        Ok(())
    }

    /// Renders the scenario back to TOML text; `parse(render(s)) == s`.
    pub fn render(&self) -> String {
        let mut root = Table::default();
        root.set("name", Value::String(self.name.clone()));
        root.set("seed", Value::Integer(self.seed as i64));
        root.set("tasks", Value::Integer(self.tasks as i64));
        root.set("duration_us", Value::Integer(self.duration_us as i64));
        if self.interactive {
            root.set("input", Value::String("interactive".into()));
        }
        if self.defaults != LinkOverrides::default() {
            let mut table = Table::default();
            self.defaults.render_into(&mut table);
            root.set_table("defaults", table);
        }
        for group in &self.groups {
            let mut table = Table::default();
            table.set("name", Value::String(group.name.clone()));
            table.set("count", Value::Integer(group.count as i64));
            table.set("net", Value::String(group.net.clone()));
            if let Some(device) = &group.device {
                table.set("device", Value::String(device.clone()));
            }
            if let Some(app) = &group.app {
                table.set("app", Value::String(app.clone()));
            }
            group.link.render_into(&mut table);
            table.set("joins_at_us", Value::Integer(group.joins_at_us as i64));
            table.set("join_stagger_us", Value::Integer(group.join_stagger_us as i64));
            if let Some(leave) = group.leaves_at_us {
                table.set("leaves_at_us", Value::Integer(leave as i64));
            }
            root.push_table("group", table);
        }
        for (v, at_us) in &self.crashes {
            let mut table = Table::default();
            table.set("volunteer", Value::Integer(*v as i64));
            table.set("at_us", Value::Integer(*at_us as i64));
            root.push_table("crash", table);
        }
        for (v, at_us, down_us) in &self.flaps {
            let mut table = Table::default();
            table.set("volunteer", Value::Integer(*v as i64));
            table.set("at_us", Value::Integer(*at_us as i64));
            table.set("down_us", Value::Integer(*down_us as i64));
            root.push_table("flap", table);
        }
        for partition in &self.partitions {
            let mut table = Table::default();
            table.set("group", Value::String(partition.group.clone()));
            table.set("at_us", Value::Integer(partition.at_us as i64));
            table.set("heal_us", Value::Integer(partition.heal_us as i64));
            root.push_table("partition", table);
        }
        if !self.expect.is_empty() {
            let mut table = Table::default();
            let pairs = [
                ("crashed", self.expect.crashed),
                ("crash_relends", self.expect.crash_relends),
                ("max_wasted_polls", self.expect.max_wasted_polls),
                ("min_retransmits", self.expect.min_retransmits),
            ];
            for (key, value) in pairs {
                if let Some(v) = value {
                    table.set(key, Value::Integer(v as i64));
                }
            }
            root.set_table("expect", table);
        }
        Document::from_root(root).render()
    }

    /// Compiles the scenario to [`FleetParams`] carrying a
    /// [`FleetScript`]: group ids become volunteer specs in declaration
    /// order, partitions resolve their member lists, and each volunteer's
    /// channel is seeded `seed + v`.
    ///
    /// # Errors
    ///
    /// The same validation as [`Scenario::parse`] — hand-constructed
    /// scenarios go through it here.
    pub fn to_fleet_params(&self) -> Result<FleetParams, ScenarioError> {
        self.validate()?;
        let mut volunteers = Vec::with_capacity(self.volunteers());
        let mut members: Vec<(String, Vec<usize>)> = Vec::new();
        for group in &self.groups {
            let link = group.link.or(&self.defaults);
            let mut channel = match group.net.as_str() {
                "instant" => ChannelConfig::instant(),
                "lan" => ChannelConfig::lan(),
                "vpn" => ChannelConfig::vpn(),
                "wan" => ChannelConfig::wan(),
                other => unreachable!("validated net profile {other:?}"),
            };
            if let Some(us) = link.latency_us {
                channel.latency = Duration::from_micros(us);
            }
            if let Some(us) = link.jitter_us {
                channel.jitter = Duration::from_micros(us);
            }
            if let Some(loss) = link.loss {
                channel.loss = loss;
            }
            if let Some(us) = link.retransmit_us {
                channel.retransmit = Duration::from_micros(us);
            }
            if let Some(us) = link.heartbeat_us {
                channel.heartbeat_interval = Duration::from_micros(us);
            }
            if let Some(us) = link.failure_timeout_us {
                channel.failure_timeout = Duration::from_micros(us);
            }
            if let Some(bps) = link.bandwidth_bps {
                channel.bandwidth_bytes_per_sec = (bps > 0).then_some(bps);
            }
            // Service precedence: the group's own service_us, then its
            // device's Table 2 measurement, then [defaults], then the mean
            // service of the seed-derived fleet.
            let service = match (group.link.service_us, &group.device) {
                (Some(us), _) => Duration::from_micros(us),
                (None, Some(device)) => {
                    let app = parse_app(group.app.as_deref())?;
                    device_service(device, app)
                        .ok_or_else(|| ScenarioError::UnknownDevice(device.clone()))?
                }
                (None, None) => Duration::from_micros(self.defaults.service_us.unwrap_or(1_650)),
            };
            let mut ids = Vec::with_capacity(group.count);
            for k in 0..group.count {
                let v = volunteers.len();
                ids.push(v);
                volunteers.push(VolunteerSpec {
                    group: group.name.clone(),
                    service,
                    channel: channel.clone().with_seed(self.seed.wrapping_add(v as u64)),
                    joins_at: Duration::from_micros(
                        group.joins_at_us + k as u64 * group.join_stagger_us,
                    ),
                    leaves_at: group.leaves_at_us.map(Duration::from_micros),
                    crash_at: self
                        .crashes
                        .iter()
                        .find(|(c, _)| *c == v)
                        .map(|(_, at)| Duration::from_micros(*at)),
                });
            }
            members.push((group.name.clone(), ids));
        }
        let partitions = self
            .partitions
            .iter()
            .map(|p| {
                let ids = members
                    .iter()
                    .find(|(name, _)| *name == p.group)
                    .map(|(_, ids)| ids.clone())
                    .expect("validated partition group");
                (ids, Duration::from_micros(p.at_us), Duration::from_micros(p.heal_us))
            })
            .collect();
        let script = FleetScript {
            name: self.name.clone(),
            volunteers,
            partitions,
            interactive_input: self.interactive,
            batch_size: BatchingConfig::default().batch_size,
        };
        Ok(FleetParams::new(self.seed, 1, self.tasks)
            .with_script(script)
            .with_flaps(self.flaps.clone()))
    }
}

impl FleetParams {
    /// Loads a `scenarios/*.toml` file and compiles it to runnable
    /// parameters — the one-call path from a checked-in scenario to a
    /// [`simulate_fleet`](crate::sim::simulate_fleet) run.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scenario::load`].
    pub fn from_scenario(path: impl AsRef<Path>) -> Result<FleetParams, ScenarioError> {
        Scenario::load(path)?.to_fleet_params()
    }
}

fn parse_app(app: Option<&str>) -> Result<AppKind, ScenarioError> {
    let name = app.unwrap_or("raytrace");
    AppKind::from_name(name)
        .ok_or_else(|| invalid("group.app", format!("unknown application {name:?}")))
}

/// Service time of a published Table 2 device for `app`, searching the LAN,
/// VPN and WAN rosters in order.
fn device_service(device: &str, app: AppKind) -> Option<Duration> {
    PaperNet::all().into_iter().find_map(|net| {
        ScenarioSetup::paper(net)
            .devices
            .into_iter()
            .find(|d| d.name == device)
            .and_then(|d| d.service_time(app))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{oracle, simulate_fleet};

    const WAN_MIX: &str = r#"
name = "unit_wan_mix"
seed = 9
tasks = 64
duration_us = 30000000

[defaults]
service_us = 1200

[[group]]
name = "office"
count = 2
net = "lan"

[[group]]
name = "phones"
count = 2
net = "wan"
device = "iPhone SE"
app = "raytrace"
loss = 0.1
joins_at_us = 2000
join_stagger_us = 1000

[[crash]]
volunteer = 3
at_us = 9000

[[flap]]
volunteer = 1
at_us = 4000
down_us = 3000

[[partition]]
group = "office"
at_us = 5000
heal_us = 8000

[expect]
crashed = 1
crash_relends = 1
min_retransmits = 1
"#;

    #[test]
    fn parses_compiles_and_runs_deterministically() {
        let scenario = Scenario::parse(WAN_MIX).unwrap();
        assert_eq!(scenario.volunteers(), 4);
        assert_eq!(scenario.groups[1].device.as_deref(), Some("iPhone SE"));
        let params = scenario.to_fleet_params().unwrap();
        assert_eq!(params.volunteers, 4);
        assert_eq!(params.flaps, vec![(1, 4_000, 3_000)]);
        let script = params.script.as_ref().unwrap();
        // The iPhone's Table 2 raytrace rate, not the defaults fallback.
        assert!(script.volunteers[2].service > Duration::from_millis(100));
        assert_eq!(script.volunteers[2].joins_at, Duration::from_micros(2_000));
        assert_eq!(script.volunteers[3].joins_at, Duration::from_micros(3_000));
        assert_eq!(
            script.partitions,
            vec![(vec![0, 1], Duration::from_micros(5_000), Duration::from_micros(8_000))]
        );
        scenario.expect.check(&oracle::run(&params).unwrap()).unwrap();
    }

    #[test]
    fn round_trips_through_render() {
        let scenario = Scenario::parse(WAN_MIX).unwrap();
        let again = Scenario::parse(&scenario.render()).unwrap();
        assert_eq!(scenario, again, "render:\n{}", scenario.render());
    }

    fn parse_err(mutation: &str) -> ScenarioError {
        Scenario::parse(&format!("{WAN_MIX}\n{mutation}\n")).unwrap_err()
    }

    #[test]
    fn malformed_documents_return_typed_errors() {
        assert!(matches!(
            parse_err("[typo]\nx = 1"),
            ScenarioError::UnknownKey { table, .. } if table == "scenario"
        ));
        assert!(matches!(
            parse_err("[[crash]]\nvolunteer = 99\nat_us = 9000"),
            ScenarioError::UnknownVolunteer(99)
        ));
        assert!(matches!(
            parse_err("[[partition]]\ngroup = \"ghost\"\nat_us = 1\nheal_us = 2"),
            ScenarioError::UnknownGroup(g) if g == "ghost"
        ));
        assert!(matches!(
            parse_err("[[partition]]\ngroup = \"office\"\nat_us = 6000\nheal_us = 9000"),
            ScenarioError::OverlappingPartitions { group } if group == "office"
        ));
        assert!(matches!(
            parse_err("[[crash]]\nvolunteer = 0\nat_us = 99999999999"),
            ScenarioError::EventPastDuration { .. }
        ));
        assert!(matches!(
            parse_err("[[flap]]\nvolunteer = 3\nat_us = 100\ndown_us = 50"),
            ScenarioError::EventBeforeJoin { .. }
        ));
        // Loss outside [0, MAX_LOSS].
        let lossy = WAN_MIX.replace("loss = 0.1", "loss = 0.95");
        assert!(matches!(
            Scenario::parse(&lossy).unwrap_err(),
            ScenarioError::InvalidValue { key, .. } if key == "group.loss"
        ));
        // Unknown group key.
        let typo = WAN_MIX.replace("join_stagger_us", "join_stager_us");
        assert!(matches!(
            Scenario::parse(&typo).unwrap_err(),
            ScenarioError::UnknownKey { table, key } if table == "group" && key == "join_stager_us"
        ));
        // A bare parse error carries its line.
        assert!(matches!(Scenario::parse("name =").unwrap_err(), ScenarioError::Toml(_)));
    }

    #[test]
    fn schedules_without_a_survivor_are_rejected() {
        let text = r#"
name = "unit_doomed"
seed = 1
tasks = 4

[[group]]
name = "all"
count = 2

[[crash]]
volunteer = 0
at_us = 100

[[crash]]
volunteer = 1
at_us = 200
"#;
        assert_eq!(Scenario::parse(text).unwrap_err(), ScenarioError::NoSurvivor);
    }

    #[test]
    fn unknown_devices_are_rejected() {
        let text = WAN_MIX.replace("iPhone SE", "Nokia 3310");
        assert!(matches!(
            Scenario::parse(&text).unwrap_err(),
            ScenarioError::UnknownDevice(d) if d == "Nokia 3310"
        ));
        // A real device without a measurement for the app is rejected too:
        // WAN nodes have no image-processing rates.
        let text = WAN_MIX
            .replace("iPhone SE", "planetlab-1.cs.uit.no")
            .replace("raytrace", "image-processing");
        assert!(matches!(Scenario::parse(&text).unwrap_err(), ScenarioError::UnknownDevice(_)));
    }

    #[test]
    fn load_requires_the_name_to_match_the_stem() {
        let dir = std::env::temp_dir().join("pando-scenario-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("misnamed.toml");
        std::fs::write(&path, WAN_MIX).unwrap();
        assert!(matches!(
            Scenario::load(&path).unwrap_err(),
            ScenarioError::NameMismatch { name, stem } if name == "unit_wan_mix"
                && stem == "misnamed"
        ));
        let good = dir.join("unit_wan_mix.toml");
        std::fs::write(&good, WAN_MIX).unwrap();
        let params = FleetParams::from_scenario(&good).unwrap();
        assert_eq!(params.tasks, 64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expectation_failures_name_the_violated_bound() {
        let scenario = Scenario::parse(WAN_MIX).unwrap();
        let report = simulate_fleet(&scenario.to_fleet_params().unwrap());
        let mut expect = scenario.expect.clone();
        expect.crashed = Some(7);
        expect.max_wasted_polls = Some(0);
        let message = expect.check(&report).unwrap_err();
        assert!(message.contains("expect.crashed"), "{message}");
        assert!(message.contains("expect.max_wasted_polls"), "{message}");
    }
}
