//! The public signalling server used to bootstrap connections.
//!
//! In Pando, volunteers open a URL; the HTTP connection serves the worker
//! code, then either a WebSocket connection is kept through a publicly
//! reachable relay, or a WebRTC connection is negotiated through the relay
//! (signalling only) and the data then flows directly between the browsers
//! (paper §2.4.3, Figure 7). This module reproduces that rendez-vous: a
//! [`PublicServer`] hosts *volunteer URLs*; joining through a URL yields a
//! channel endpoint on each side, which is either *direct* (WebRTC-style,
//! when the NAT traversal succeeds) or *relayed* (WebSocket-style, with the
//! extra relay latency).

use crate::channel::{pair, ChannelConfig, ChannelKind, Endpoint};
use pando_pull_stream::StreamError;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};

/// The URL printed by Pando on startup and shared with volunteers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct VolunteerUrl(String);

impl fmt::Display for VolunteerUrl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A volunteer connection delivered to the hosting master.
#[derive(Debug)]
pub struct IncomingVolunteer<T> {
    /// Identifier assigned by the server, unique per URL.
    pub volunteer_id: u64,
    /// How the connection was established (direct WebRTC or relayed WebSocket).
    pub kind: ChannelKind,
    /// The master-side endpoint of the connection.
    pub endpoint: Endpoint<T>,
}

struct Listener<T> {
    incoming: Sender<IncomingVolunteer<T>>,
    direct: ChannelConfig,
    relayed: ChannelConfig,
    next_volunteer: u64,
}

/// A small publicly reachable rendez-vous server.
///
/// One `PublicServer` can host many deployments (URLs); each deployment is
/// specific to a single master and shuts down with it (design principle DP1).
pub struct PublicServer<T> {
    listeners: Mutex<HashMap<VolunteerUrl, Listener<T>>>,
    /// Probability that NAT traversal lets a direct (WebRTC) connection
    /// through; otherwise the connection falls back to the relay.
    direct_success_probability: f64,
    rng: Mutex<StdRng>,
    next_url: Mutex<u64>,
}

impl<T> fmt::Debug for PublicServer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PublicServer")
            .field("direct_success_probability", &self.direct_success_probability)
            .finish_non_exhaustive()
    }
}

impl<T: Send + 'static> PublicServer<T> {
    fn new(direct_success_probability: f64, seed: u64) -> Self {
        Self {
            listeners: Mutex::new(HashMap::new()),
            direct_success_probability,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            next_url: Mutex::new(0),
        }
    }

    /// A server on an open network (every direct connection succeeds) with
    /// negligible signalling latency.
    pub fn local() -> Self {
        Self::new(1.0, 0)
    }

    /// Registers a new deployment and returns the URL to share with
    /// volunteers plus the stream of incoming volunteer connections.
    ///
    /// `direct` configures WebRTC-style connections (used when NAT traversal
    /// succeeds), `relayed` configures WebSocket-style connections through
    /// the server.
    pub fn host(
        &self,
        direct: ChannelConfig,
        relayed: ChannelConfig,
    ) -> (VolunteerUrl, Receiver<IncomingVolunteer<T>>) {
        let mut next_url = self.next_url.lock();
        let url = VolunteerUrl(format!("http://10.10.14.119:5000/#deploy-{}", *next_url));
        *next_url += 1;
        drop(next_url);
        let (tx, rx) = channel();
        self.listeners
            .lock()
            .insert(url.clone(), Listener { incoming: tx, direct, relayed, next_volunteer: 0 });
        (url, rx)
    }

    /// Stops accepting volunteers on `url` (the deployment finished).
    pub fn unhost(&self, url: &VolunteerUrl) {
        self.listeners.lock().remove(url);
    }

    /// Joins the deployment at `url` as a volunteer: performs the signalling
    /// handshake and returns the volunteer-side endpoint together with the
    /// kind of connection that was established.
    ///
    /// # Errors
    ///
    /// Returns an error if no deployment is hosted at `url` (it shut down or
    /// never existed).
    pub fn join(&self, url: &VolunteerUrl) -> Result<(Endpoint<T>, ChannelKind), StreamError> {
        let mut listeners = self.listeners.lock();
        let listener = listeners
            .get_mut(url)
            .ok_or_else(|| StreamError::transport(format!("no deployment at {url}")))?;
        let wants_direct = listener.direct.kind == ChannelKind::WebRtc;
        let direct_ok = wants_direct && self.rng.lock().gen_bool(self.direct_success_probability);
        let (kind, config) = if direct_ok {
            (ChannelKind::WebRtc, listener.direct.clone())
        } else {
            (ChannelKind::WebSocket, listener.relayed.clone())
        };
        let volunteer_id = listener.next_volunteer;
        listener.next_volunteer += 1;
        let (master_side, volunteer_side) = pair::<T>(config.with_seed(volunteer_id));
        listener
            .incoming
            .send(IncomingVolunteer { volunteer_id, kind, endpoint: master_side })
            .map_err(|_| StreamError::transport("deployment stopped accepting volunteers"))?;
        Ok((volunteer_side, kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn webrtc_config() -> ChannelConfig {
        ChannelConfig { kind: ChannelKind::WebRtc, ..ChannelConfig::instant() }
    }

    #[test]
    fn volunteers_reach_the_master() {
        let server: PublicServer<String> = PublicServer::local();
        let (url, incoming) = server.host(webrtc_config(), ChannelConfig::instant());

        let (volunteer, kind) = server.join(&url).unwrap();
        assert_eq!(kind, ChannelKind::WebRtc, "open NAT gives a direct connection");
        let master_side = incoming.recv().unwrap();
        assert_eq!(master_side.volunteer_id, 0);

        // Both configs are instant: a frame is deliverable once sent.
        volunteer.send("hello".to_string()).unwrap();
        assert_eq!(master_side.endpoint.try_recv().unwrap(), "hello");
        master_side.endpoint.send("task".to_string()).unwrap();
        assert_eq!(volunteer.try_recv().unwrap(), "task");
    }

    #[test]
    fn volunteer_ids_are_sequential() {
        let server: PublicServer<u8> = PublicServer::local();
        let (url, incoming) = server.host(webrtc_config(), ChannelConfig::instant());
        for _ in 0..3 {
            server.join(&url).unwrap();
        }
        let ids: Vec<u64> = (0..3).map(|_| incoming.recv().unwrap().volunteer_id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn restrictive_nat_falls_back_to_relay() {
        let server: PublicServer<u8> = PublicServer::new(0.0, 1);
        let (url, incoming) = server.host(webrtc_config(), ChannelConfig::instant());
        let (_volunteer, kind) = server.join(&url).unwrap();
        assert_eq!(kind, ChannelKind::WebSocket);
        assert_eq!(incoming.recv().unwrap().kind, ChannelKind::WebSocket);
    }

    #[test]
    fn joining_an_unhosted_url_fails() {
        let server: PublicServer<u8> = PublicServer::local();
        let (url, _incoming) = server.host(webrtc_config(), ChannelConfig::instant());
        server.unhost(&url);
        let err = server.join(&url).unwrap_err();
        assert!(err.is_transport());
    }

    #[test]
    fn each_deployment_gets_a_distinct_url() {
        let server: PublicServer<u8> = PublicServer::local();
        let (url1, _rx1) = server.host(webrtc_config(), ChannelConfig::instant());
        let (url2, _rx2) = server.host(webrtc_config(), ChannelConfig::instant());
        assert_ne!(url1, url2);
        assert!(url1.to_string().starts_with("http://"));
    }
}
