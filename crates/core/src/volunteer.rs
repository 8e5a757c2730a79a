//! Volunteer lifecycle and deployment through the public server.
//!
//! A volunteer starts as a *candidate* (it opened the volunteer URL and is
//! negotiating a connection) and becomes a *processor* once its channel is
//! established and the worker code is running (paper Figure 7). This module
//! wires the [`crate::master::Pando`] master to a
//! [`pando_netsim::signaling::PublicServer`] so volunteers can
//! join by "opening a URL", exactly like the deployment story of the paper.

use crate::master::Pando;
use crate::protocol::Message;
use crate::worker::{WorkerBuilder, WorkerHandle, WorkerOptions};
use bytes::Bytes;
use pando_netsim::channel::ChannelKind;
use pando_netsim::signaling::{PublicServer, VolunteerUrl};
use pando_pull_stream::codec::TaskCodec;
use pando_pull_stream::StreamError;
use std::sync::Arc;
use std::thread::JoinHandle;

/// The state of one volunteer as seen by the master.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum VolunteerState {
    /// The volunteer opened the URL and is establishing a connection.
    Candidate,
    /// The volunteer is connected and processing values.
    Processor,
    /// The volunteer left cleanly.
    Left,
    /// The volunteer crashed or its connection was lost.
    Crashed,
}

/// Information about a volunteer that joined through the public server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolunteerInfo {
    /// Identifier assigned by the public server.
    pub id: u64,
    /// How the connection was established.
    pub kind: ChannelKind,
}

/// Publishes the deployment on `server` and starts accepting volunteers.
///
/// Returns the URL to share (the line Pando prints on startup, paper
/// Figure 3) and a handle on the acceptor thread. The acceptor runs until
/// the deployment is unhosted from the server.
pub fn serve(
    pando: &Pando,
    server: &Arc<PublicServer<Message>>,
) -> (VolunteerUrl, JoinHandle<Vec<VolunteerInfo>>) {
    let direct = {
        let mut config = pando.config().transport.channel.clone();
        config.kind = ChannelKind::WebRtc;
        config
    };
    let relayed = pando.config().transport.channel.clone();
    let (url, incoming) = server.host(direct, relayed);
    let master = pando.clone();
    let acceptor = std::thread::Builder::new()
        .name("pando-acceptor".into())
        .spawn(move || {
            let mut joined = Vec::new();
            for volunteer in incoming.iter() {
                joined.push(VolunteerInfo { id: volunteer.volunteer_id, kind: volunteer.kind });
                master.add_volunteer_transport(
                    format!("volunteer-{}", volunteer.volunteer_id),
                    Arc::new(volunteer.endpoint),
                );
            }
            joined
        })
        .expect("spawn acceptor thread");
    (url, acceptor)
}

/// Joins the deployment at `url` as a volunteer device and starts processing
/// with the typed function `process` through `codec` — the bundle the
/// volunteer's browser would download.
///
/// # Errors
///
/// Returns an error if the deployment no longer accepts volunteers.
pub fn join_as_volunteer<C, F>(
    server: &PublicServer<Message>,
    url: &VolunteerUrl,
    codec: C,
    process: F,
    options: WorkerOptions,
) -> Result<(WorkerHandle, ChannelKind), StreamError>
where
    C: TaskCodec,
    F: Fn(&C::Task) -> Result<C::Result, StreamError> + Send + 'static,
{
    let (endpoint, kind) = server.join(url)?;
    Ok((WorkerBuilder::from_options(options).spawn_typed(endpoint, codec, process), kind))
}

/// Like [`join_as_volunteer`] but with a processing function over the raw
/// binary payloads, for bundles that do their own decoding.
///
/// # Errors
///
/// Returns an error if the deployment no longer accepts volunteers.
pub fn join_as_raw_volunteer<F>(
    server: &PublicServer<Message>,
    url: &VolunteerUrl,
    process: F,
    options: WorkerOptions,
) -> Result<(WorkerHandle, ChannelKind), StreamError>
where
    F: Fn(&Bytes) -> Result<Bytes, StreamError> + Send + 'static,
{
    let (endpoint, kind) = server.join(url)?;
    Ok((WorkerBuilder::from_options(options).spawn(endpoint, process), kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PandoConfig;
    use pando_pull_stream::codec::StringCodec;
    use pando_pull_stream::source::{count, SourceExt};

    #[allow(clippy::ptr_arg)] // must match Fn(&C::Task) with C::Task = String
    fn double(input: &String) -> Result<String, StreamError> {
        let n: u64 = input.parse().map_err(|_| StreamError::new("nan"))?;
        Ok((n * 2).to_string())
    }

    #[test]
    fn volunteers_join_through_the_public_server() {
        let server: Arc<PublicServer<Message>> = Arc::new(PublicServer::local());
        let pando = Pando::new(PandoConfig::local_test());
        let (url, acceptor) = serve(&pando, &server);

        // Two friends open the URL in their browser.
        let (worker_a, kind_a) =
            join_as_volunteer(&server, &url, StringCodec, double, WorkerOptions::default())
                .unwrap();
        let (worker_b, kind_b) =
            join_as_volunteer(&server, &url, StringCodec, double, WorkerOptions::default())
                .unwrap();
        assert_eq!(kind_a, ChannelKind::WebRtc, "open NAT gives direct connections");
        assert_eq!(kind_b, ChannelKind::WebRtc);

        let output = pando
            .run_typed(StringCodec, count(40).map_values(|v| v.to_string()))
            .collect_values()
            .unwrap();
        assert_eq!(output, (1..=40u64).map(|v| (v * 2).to_string()).collect::<Vec<_>>());

        server.unhost(&url);
        let joined = acceptor.join().unwrap();
        assert_eq!(joined.len(), 2);
        assert_eq!(pando.volunteers_connected(), 2);
        let _ = worker_a.join();
        let _ = worker_b.join();
    }

    #[test]
    fn raw_volunteers_process_binary_payloads() {
        let server: Arc<PublicServer<Message>> = Arc::new(PublicServer::local());
        let pando = Pando::new(PandoConfig::local_test());
        let (url, acceptor) = serve(&pando, &server);
        let (worker, _kind) = join_as_raw_volunteer(
            &server,
            &url,
            |input: &Bytes| Ok(Bytes::copy_from_slice(&[input.len() as u8])),
            WorkerOptions::default(),
        )
        .unwrap();
        let inputs =
            vec![Bytes::copy_from_slice(&[0, 0, 0]), Bytes::new(), Bytes::copy_from_slice(b"xy")];
        let output =
            pando.run(pando_pull_stream::source::from_iter(inputs)).collect_values().unwrap();
        assert_eq!(
            output,
            vec![
                Bytes::copy_from_slice(&[3]),
                Bytes::copy_from_slice(&[0]),
                Bytes::copy_from_slice(&[2]),
            ]
        );
        server.unhost(&url);
        acceptor.join().unwrap();
        let _ = worker.join();
    }

    #[test]
    fn joining_after_unhost_fails() {
        let server: Arc<PublicServer<Message>> = Arc::new(PublicServer::local());
        let pando = Pando::new(PandoConfig::local_test());
        let (url, acceptor) = serve(&pando, &server);
        server.unhost(&url);
        let err = join_as_volunteer(&server, &url, StringCodec, double, WorkerOptions::default())
            .unwrap_err();
        assert!(err.is_transport());
        acceptor.join().unwrap();
    }

    #[test]
    fn volunteer_states_cover_the_lifecycle() {
        // Simple data-type checks so the lifecycle enum stays usable.
        let states = [
            VolunteerState::Candidate,
            VolunteerState::Processor,
            VolunteerState::Left,
            VolunteerState::Crashed,
        ];
        assert_eq!(states.len(), 4);
        assert_ne!(VolunteerState::Candidate, VolunteerState::Processor);
    }
}
