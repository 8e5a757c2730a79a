//! Deployment configuration.
//!
//! [`PandoConfig`] holds the window ([`PandoConfig::batch_size`]) and groups
//! its other knobs into nested sub-configs, one per subsystem:
//! [`ReactorConfig`] (how volunteer endpoints are driven),
//! [`TransportConfig`] (how bytes reach the volunteers) and
//! [`RunConfig`] (the clock). Every sub-config implements `Default`, so a
//! custom deployment can override one group without spelling out the rest:
//!
//! ```
//! use pando_core::config::{PandoConfig, ReactorConfig};
//!
//! let config = PandoConfig {
//!     reactor: ReactorConfig { threads: 8 },
//!     ..PandoConfig::default()
//! };
//! assert_eq!(config.reactor.threads, 8);
//! assert_eq!(config.batch_size, 2);
//! ```
//!
//! The `with_*` builder methods remain the recommended way to tweak a
//! preset (`PandoConfig::default()`, the paper's LAN setup,
//! [`PandoConfig::local_test`] and [`PandoConfig::deterministic`]); they
//! write through to the nested fields.

use crate::transport::tcp::TcpConfig;
use pando_netsim::channel::ChannelConfig;
use pando_netsim::sim::Clock;

/// How volunteer endpoints are driven.
///
/// ```
/// use pando_core::config::ReactorConfig;
///
/// let reactor = ReactorConfig::default();
/// assert_eq!(reactor.threads, 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReactorConfig {
    /// Number of OS threads in the reactor pool. Every volunteer is a
    /// registration on this fixed pool (plus one input-pump thread): ready
    /// endpoints are queued and drained without blocking, so the thread
    /// count does not grow with the fleet. All of them borrow from the one
    /// lender. Example: `PandoConfig::default().with_reactor_threads(8)`.
    pub threads: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self { threads: PandoConfig::DEFAULT_REACTOR_THREADS }
    }
}

/// How bytes reach the volunteers: the profile of the simulated
/// [`pando_netsim`] channels and the knobs of the real-socket
/// [`TcpTransport`](crate::transport::tcp::TcpTransport) backend. Both live
/// here because a deployment may mix them — in-process simulated volunteers
/// and remote TCP ones attach to the same master.
///
/// ```
/// use pando_core::config::TransportConfig;
///
/// let transport = TransportConfig::default();
/// assert_eq!(transport.channel.latency.as_millis(), 2); // LAN profile
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransportConfig {
    /// Network profile of the simulated channels towards in-process
    /// volunteers (latency, jitter, heartbeat cadence, failure timeout,
    /// seed). Example: `PandoConfig::local_test()
    /// .with_channel(ChannelConfig::wan())` simulates wide-area links.
    pub channel: ChannelConfig,
    /// Liveness and socket options for volunteers connecting over real TCP
    /// (`transport::tcp::TcpAcceptor`, Linux only). Example:
    /// `TcpConfig::local_test()` tightens the crash-detection windows for
    /// localhost demos.
    pub tcp: TcpConfig,
}

impl Default for TransportConfig {
    fn default() -> Self {
        Self { channel: ChannelConfig::lan(), tcp: TcpConfig::default() }
    }
}

/// The clock — the knob of the run as a whole rather than of any one
/// subsystem.
///
/// ```
/// use pando_core::config::RunConfig;
///
/// let run = RunConfig::default();
/// assert!(!run.clock.is_virtual());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// The clock the deployment reads time from. [`Clock::wall`] (the
    /// default) runs in real time with the threaded reactor pool; a virtual
    /// clock ([`PandoConfig::deterministic`]) switches the reactor to its
    /// *inline* mode — no threads are spawned, and a single-threaded
    /// scheduler (the fleet simulator in [`sim`](crate::sim)) steps drivers
    /// and advances time explicitly, making whole runs reproducible
    /// tick-for-tick.
    pub clock: Clock,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self { clock: Clock::wall() }
    }
}

/// Configuration of one Pando deployment.
///
/// A deployment is specific to a single user, project and task lifetime
/// (design principle DP1): the configuration is created on startup, passed to
/// [`Pando::new`](crate::master::Pando::new) and dropped when the stream of
/// values is exhausted.
///
/// Besides the window, the knobs are grouped into nested sub-configs —
/// [`ReactorConfig`], [`TransportConfig`], [`RunConfig`] — each with a
/// `Default`; see the [module docs](self) for the struct-update idiom. The
/// `with_*` builders below write through to the nested fields.
#[derive(Debug, Clone, PartialEq)]
pub struct PandoConfig {
    /// Number of values that may be in flight towards one volunteer at a
    /// time (the `--batch-size` argument of the original tool). A batch size
    /// of 2 lets one input travel while another is being processed, which is
    /// enough to hide the network latency of compute-bound applications
    /// (paper §5.5). The dispatcher packs whatever of the window is free
    /// into one frame, so a whole window can pay the channel round-trip
    /// once. Example: `PandoConfig::local_test().with_batch_size(8)` widens
    /// the window for latency-bound workloads.
    pub batch_size: usize,
    /// Endpoint driving; see [`ReactorConfig`].
    pub reactor: ReactorConfig,
    /// Simulated-channel profile and TCP knobs; see [`TransportConfig`].
    pub transport: TransportConfig,
    /// The clock; see [`RunConfig`].
    pub run: RunConfig,
}

impl Default for PandoConfig {
    fn default() -> Self {
        Self {
            batch_size: 2,
            reactor: ReactorConfig::default(),
            transport: TransportConfig::default(),
            run: RunConfig::default(),
        }
    }
}

impl PandoConfig {
    /// Default size of the reactor pool: enough to keep a few cores busy
    /// with dispatch/receive bookkeeping while volunteers do the actual
    /// compute. Deterministic (not derived from the host's core count) so
    /// runs are reproducible.
    const DEFAULT_REACTOR_THREADS: usize = 4;

    /// A configuration suitable for in-process tests: instant channels, a
    /// batch size of 2, a two-thread reactor and tightened TCP liveness
    /// windows.
    pub fn local_test() -> Self {
        Self {
            reactor: ReactorConfig { threads: 2 },
            transport: TransportConfig {
                channel: ChannelConfig::instant(),
                tcp: TcpConfig::local_test(),
            },
            ..Self::default()
        }
    }

    /// Returns the configuration with a different batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is zero.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be at least 1");
        self.batch_size = batch_size;
        self
    }

    /// Returns the configuration with a different channel profile.
    pub fn with_channel(mut self, channel: ChannelConfig) -> Self {
        self.transport.channel = channel;
        self
    }

    /// Returns the configuration with different TCP transport knobs.
    pub fn with_tcp(mut self, tcp: TcpConfig) -> Self {
        self.transport.tcp = tcp;
        self
    }

    /// Returns the configuration with a different reactor pool size.
    ///
    /// # Panics
    ///
    /// Panics if `reactor_threads` is zero.
    pub fn with_reactor_threads(mut self, reactor_threads: usize) -> Self {
        assert!(reactor_threads > 0, "reactor threads must be at least 1");
        self.reactor.threads = reactor_threads;
        self
    }

    /// A fully deterministic configuration for the virtual-clock fleet
    /// simulator ([`sim::simulate_fleet`](crate::sim::simulate_fleet)): the
    /// LAN network profile (2 ms latency, 1 ms jitter, 100 ms heartbeats,
    /// 500 ms failure timeout) with every jitter generator seeded from
    /// `seed`, a virtual [`Clock`], and the reactor in inline mode.
    /// Two deployments built from the same seed and driven by the same
    /// scheduler produce identical event traces, byte for byte.
    ///
    /// Deployments with a virtual clock must be *driven*: nothing spawns
    /// threads, so time (and therefore progress) only happens when a
    /// scheduler steps the reactor and advances the clock. Use
    /// [`simulate_fleet`](crate::sim::simulate_fleet) rather than wiring one
    /// manually.
    pub fn deterministic(seed: u64) -> Self {
        Self {
            transport: TransportConfig {
                channel: ChannelConfig::lan().with_seed(seed),
                ..TransportConfig::default()
            },
            run: RunConfig { clock: Clock::virtual_clock() },
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let config = PandoConfig::default();
        assert_eq!(config.batch_size, 2);
    }

    #[test]
    fn builders_adjust_fields() {
        let config =
            PandoConfig::local_test().with_batch_size(4).with_channel(ChannelConfig::wan());
        assert_eq!(config.batch_size, 4);
        assert_eq!(config.transport.channel, ChannelConfig::wan());
        let config = config.with_tcp(TcpConfig::default());
        assert_eq!(config.transport.tcp, TcpConfig::default());
    }

    #[test]
    fn sub_configs_compose_with_struct_update() {
        let config = PandoConfig {
            batch_size: 16,
            reactor: ReactorConfig { threads: 8 },
            ..PandoConfig::default()
        };
        assert_eq!(config.batch_size, 16);
        assert_eq!(config.reactor.threads, 8);
        assert_eq!(config.transport, TransportConfig::default());
        assert_eq!(config.run, RunConfig::default());
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_size_is_rejected() {
        let _ = PandoConfig::local_test().with_batch_size(0);
    }

    #[test]
    fn reactor_is_the_default_backend() {
        let config = PandoConfig::default();
        assert_eq!(config.reactor.threads, PandoConfig::DEFAULT_REACTOR_THREADS);
        assert_eq!(config.with_reactor_threads(8).reactor.threads, 8);
    }

    #[test]
    #[should_panic(expected = "reactor threads")]
    fn zero_reactor_threads_is_rejected() {
        let _ = PandoConfig::local_test().with_reactor_threads(0);
    }

    #[test]
    fn deterministic_config_uses_a_virtual_clock() {
        let config = PandoConfig::deterministic(42);
        assert!(config.run.clock.is_virtual());
        assert_eq!(config.transport.channel.seed, 42);
        assert!(!PandoConfig::local_test().run.clock.is_virtual());
    }
}
