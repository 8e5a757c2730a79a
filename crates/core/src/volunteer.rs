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
use pando_netsim::channel::ChannelKind;
use pando_netsim::signaling::{PublicServer, VolunteerUrl};
use pando_pull_stream::codec::TaskCodec;
use pando_pull_stream::StreamError;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Publishes the deployment on `server` and starts accepting volunteers.
///
/// Returns the URL to share (the line Pando prints on startup, paper
/// Figure 3) and a handle on the acceptor thread. The acceptor runs until
/// the deployment is unhosted from the server and then answers how many
/// volunteers joined.
pub fn serve(
    pando: &Pando,
    server: &Arc<PublicServer<Message>>,
) -> (VolunteerUrl, JoinHandle<usize>) {
    let direct = {
        let mut config = pando.config().transport.channel.clone();
        config.kind = ChannelKind::WebRtc;
        config
    };
    let relayed = pando.config().transport.channel.clone();
    let (url, incoming) = server.host(direct, relayed);
    let master = pando.clone();
    let acceptor = crate::thread::spawn("pando-acceptor".into(), move || {
        let mut joined = 0;
        for volunteer in incoming.iter() {
            joined += 1;
            master.add_volunteer_transport(
                format!("volunteer-{}", volunteer.volunteer_id),
                Arc::new(volunteer.endpoint),
            );
        }
        joined
    });
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
        assert_eq!(acceptor.join().unwrap(), 2);
        assert_eq!(pando.volunteers_connected(), 2);
        let _ = worker_a.join();
        let _ = worker_b.join();
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
}
