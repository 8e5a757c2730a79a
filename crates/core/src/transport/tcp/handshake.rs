//! The v2 connection handshake: wire format, the incremental hello parser
//! the acceptor's state machine feeds, and the client-side `dial`.
//!
//! A connection starts with a tiny hello carrying a *mode* byte:
//!
//! ```text
//! volunteer -> master:  b"PNDO" version:u8 mode:u8
//!                       [token:u64be recvd:u64be   (mode = RESUME only)]
//!                       name_len:u16be name bytes
//! master    -> volunteer: b"PNDO" version:u8 status:u8 token:u64be recvd:u64be
//! ```
//!
//! Mode `0` (*plain*) is the sessionless connection every test and simple
//! client uses: the reply's token is zero and nothing is buffered for
//! redelivery. Mode `1` (*new session*) asks the master to issue a session
//! token and wrap the link in a [`SessionTransport`](super::session::SessionTransport)
//! so a transient disconnect parks the volunteer instead of crashing it.
//! Mode `2` (*resume*) presents a previously-issued token plus the count of
//! data frames the volunteer has received; the master answers with status
//! `1` and its own received count, and both sides redeliver exactly the
//! frames the other never saw (see the [`session`](super::session) module).
//! An unknown or expired token downgrades the resume to a fresh session
//! (status `0`, new token) — the volunteer rejoins as a new device rather
//! than being rejected.

use crate::transport::{TransportError, TransportErrorKind};
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Magic bytes opening both handshake directions.
const MAGIC: [u8; 4] = *b"PNDO";
/// Version byte of the TCP wire protocol; bumped on incompatible change.
/// v2 added the hello mode byte and the 22-byte session reply; v3 retired
/// the one-record `Task`/`TaskResult` frames (tags 1 and 2), so every data
/// frame is a record batch.
pub const TCP_PROTOCOL_VERSION: u8 = 3;
/// Longest volunteer name accepted in the hello.
const MAX_NAME_LEN: usize = 256;
/// How long either side waits for the other half of the handshake: the
/// client's socket timeout while dialing, and the acceptor's per-connection
/// deadline before a stalled hello is dropped.
pub(super) const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);
/// Hello mode byte: sessionless connection (no token, no redelivery).
const HELLO_PLAIN: u8 = 0;
/// Hello mode byte: request a fresh resumable session.
const HELLO_NEW: u8 = 1;
/// Hello mode byte: resume a parked session (token + received count follow).
const HELLO_RESUME: u8 = 2;
/// Magic, version and mode: the fixed head every hello starts with.
const HELLO_HEAD_LEN: usize = 4 + 1 + 1;
/// Byte length of the v2 server reply: magic, version, status, token,
/// received count.
pub(super) const REPLY_LEN: usize = 4 + 1 + 1 + 8 + 8;

fn protocol(message: impl Into<String>) -> TransportError {
    TransportError::new(TransportErrorKind::Protocol, message)
}

fn be_u64(bytes: &[u8]) -> u64 {
    u64::from_be_bytes(bytes.try_into().expect("8-byte slice"))
}

/// What a connecting client asks for in its hello.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HelloMode {
    /// Sessionless connection: no token, no redelivery (the v1 behaviour).
    Plain,
    /// Issue a fresh session token.
    New,
    /// Resume a parked session: present the token and how many data frames
    /// this side has received on the session so far.
    Resume {
        /// The master-issued session token from the original hello.
        token: u64,
        /// Data frames this client has received on the session.
        recvd: u64,
    },
}

/// The parsed client half of the handshake.
#[derive(Debug, PartialEq, Eq)]
pub(super) struct ClientHello {
    pub(super) mode: HelloMode,
    pub(super) name: String,
}

/// Where [`parse_client_hello`] stands on the bytes received so far.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum HelloParse {
    /// The hello is this many bytes long *at least*: read up to exactly this
    /// total (never beyond — what follows the hello belongs to the frame
    /// layer) and parse again.
    Need(usize),
    /// The whole hello arrived and validated.
    Done(ClientHello),
}

/// Parses as much of a client hello as `buf` holds, validating each field
/// as soon as its bytes are in, so a hello arriving one byte at a time
/// reassembles to the same result — or the same typed error — as one that
/// arrives whole.
pub(super) fn parse_client_hello(buf: &[u8]) -> Result<HelloParse, TransportError> {
    if buf.len() < HELLO_HEAD_LEN {
        return Ok(HelloParse::Need(HELLO_HEAD_LEN));
    }
    if buf[..4] != MAGIC {
        return Err(protocol("client sent wrong magic"));
    }
    if buf[4] != TCP_PROTOCOL_VERSION {
        return Err(protocol(format!(
            "protocol version mismatch: client speaks v{}, this build speaks v{}",
            buf[4], TCP_PROTOCOL_VERSION
        )));
    }
    let resume_len = match buf[5] {
        HELLO_PLAIN | HELLO_NEW => 0,
        HELLO_RESUME => 16,
        other => return Err(protocol(format!("unknown hello mode byte {other}"))),
    };
    let name_at = HELLO_HEAD_LEN + resume_len + 2;
    if buf.len() < name_at {
        return Ok(HelloParse::Need(name_at));
    }
    let name_len = usize::from(u16::from_be_bytes([buf[name_at - 2], buf[name_at - 1]]));
    if name_len == 0 || name_len > MAX_NAME_LEN {
        return Err(protocol(format!(
            "volunteer name length {name_len} outside 1..={MAX_NAME_LEN}"
        )));
    }
    if buf.len() < name_at + name_len {
        return Ok(HelloParse::Need(name_at + name_len));
    }
    let name = String::from_utf8(buf[name_at..name_at + name_len].to_vec())
        .map_err(|_| protocol("volunteer name is not UTF-8"))?;
    let mode = match buf[5] {
        HELLO_PLAIN => HelloMode::Plain,
        HELLO_NEW => HelloMode::New,
        _ => HelloMode::Resume {
            token: be_u64(&buf[HELLO_HEAD_LEN..HELLO_HEAD_LEN + 8]),
            recvd: be_u64(&buf[HELLO_HEAD_LEN + 8..HELLO_HEAD_LEN + 16]),
        },
    };
    Ok(HelloParse::Done(ClientHello { mode, name }))
}

/// The hello bytes a client sends for `mode` under `name`.
fn encode_client_hello(mode: HelloMode, name: &str) -> Result<Vec<u8>, TransportError> {
    let name_bytes = name.as_bytes();
    if name_bytes.is_empty() || name_bytes.len() > MAX_NAME_LEN {
        return Err(protocol(format!("volunteer name must be 1..={MAX_NAME_LEN} bytes")));
    }
    let mut hello = Vec::with_capacity(HELLO_HEAD_LEN + 16 + 2 + name_bytes.len());
    hello.extend_from_slice(&MAGIC);
    hello.push(TCP_PROTOCOL_VERSION);
    match mode {
        HelloMode::Plain => hello.push(HELLO_PLAIN),
        HelloMode::New => hello.push(HELLO_NEW),
        HelloMode::Resume { token, recvd } => {
            hello.push(HELLO_RESUME);
            hello.extend_from_slice(&token.to_be_bytes());
            hello.extend_from_slice(&recvd.to_be_bytes());
        }
    }
    hello.extend_from_slice(&(name_bytes.len() as u16).to_be_bytes());
    hello.extend_from_slice(name_bytes);
    Ok(hello)
}

/// The 22-byte reply the master answers a hello with.
pub(super) fn encode_server_reply(resumed: bool, token: u64, recvd: u64) -> [u8; REPLY_LEN] {
    let mut reply = [0u8; REPLY_LEN];
    reply[..4].copy_from_slice(&MAGIC);
    reply[4] = TCP_PROTOCOL_VERSION;
    reply[5] = u8::from(resumed);
    reply[6..14].copy_from_slice(&token.to_be_bytes());
    reply[14..22].copy_from_slice(&recvd.to_be_bytes());
    reply
}

/// A completed client dial: the handshaken socket plus the master's reply.
pub(crate) struct DialOutcome {
    pub(crate) stream: TcpStream,
    /// The master resumed the presented session (status byte `1`).
    pub(crate) resumed: bool,
    /// The session token in force from here on (zero for plain mode).
    pub(crate) token: u64,
    /// Data frames the master has received on the session.
    pub(crate) peer_recvd: u64,
}

/// Client side of the handshake: connects, writes the hello for `mode` and
/// parses the 22-byte reply. Shared by
/// [`TcpTransport::connect`](super::TcpTransport::connect) (plain mode) and
/// the reconnecting session transport (new/resume modes).
pub(crate) fn dial(
    addr: impl ToSocketAddrs,
    name: &str,
    mode: HelloMode,
) -> Result<DialOutcome, TransportError> {
    let hello = encode_client_hello(mode, name)?;
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    stream.set_write_timeout(Some(HANDSHAKE_TIMEOUT))?;
    (&stream).write_all(&hello)?;

    let mut reply = [0u8; REPLY_LEN];
    (&stream).read_exact(&mut reply)?;
    if reply[..4] != MAGIC {
        return Err(protocol("master answered with wrong magic (not a pando master?)"));
    }
    if reply[4] != TCP_PROTOCOL_VERSION {
        return Err(protocol(format!(
            "protocol version mismatch: master speaks v{}, this build speaks v{}",
            reply[4], TCP_PROTOCOL_VERSION
        )));
    }
    let resumed = match reply[5] {
        0 => false,
        1 => true,
        other => return Err(protocol(format!("unknown handshake status byte {other}"))),
    };
    let (token, peer_recvd) = (be_u64(&reply[6..14]), be_u64(&reply[14..22]));

    stream.set_read_timeout(None)?;
    stream.set_write_timeout(None)?;
    Ok(DialOutcome { stream, resumed, token, peer_recvd })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `bytes` to the parser the way the acceptor does — never more
    /// than the parser asked for — but one byte per "read".
    fn parse_dribbled(bytes: &[u8]) -> Result<ClientHello, TransportError> {
        let mut buf = Vec::new();
        loop {
            match parse_client_hello(&buf)? {
                HelloParse::Done(hello) => {
                    assert_eq!(buf.len(), bytes.len(), "the parser never asks past the hello");
                    return Ok(hello);
                }
                HelloParse::Need(total) => {
                    assert!(total > buf.len(), "Need must ask for more than it has");
                    buf.push(bytes[buf.len()]);
                }
            }
        }
    }

    #[test]
    fn a_dribbled_hello_parses_like_a_whole_one_in_every_mode() {
        let long_name = "n".repeat(MAX_NAME_LEN);
        for (mode, name) in [
            (HelloMode::Plain, "tablet-7"),
            (HelloMode::New, "phone-é"),
            (HelloMode::Resume { token: 0xDEAD_BEEF_0042, recvd: u64::MAX - 1 }, &long_name[..]),
        ] {
            let bytes = encode_client_hello(mode, name).unwrap();
            let expected = ClientHello { mode, name: name.to_string() };
            assert_eq!(parse_client_hello(&bytes).unwrap(), HelloParse::Done(expected));
            assert_eq!(parse_dribbled(&bytes).unwrap(), ClientHello { mode, name: name.into() });
        }
    }

    #[test]
    fn malformed_hellos_yield_typed_protocol_errors_whole_or_dribbled() {
        let good = encode_client_hello(HelloMode::Plain, "ok").unwrap();
        let with = |at: usize, byte: u8| {
            let mut bytes = good.clone();
            bytes[at] = byte;
            bytes
        };
        let mut oversized = good[..HELLO_HEAD_LEN].to_vec();
        oversized.extend_from_slice(&(MAX_NAME_LEN as u16 + 1).to_be_bytes());
        let cases: Vec<(Vec<u8>, &str)> = vec![
            (with(0, b'G'), "wrong magic"),
            (with(4, TCP_PROTOCOL_VERSION + 1), "version mismatch"),
            (with(5, 9), "unknown hello mode byte 9"),
            (with(7, 0), "name length 0 outside"),
            (oversized, "name length 257 outside"),
            (with(8, 0xFF), "not UTF-8"),
        ];
        for (bytes, needle) in cases {
            for err in
                [parse_client_hello(&bytes).unwrap_err(), parse_dribbled(&bytes).unwrap_err()]
            {
                assert_eq!(err.kind(), TransportErrorKind::Protocol);
                assert!(err.message().contains(needle), "wanted {needle:?}, got: {err}");
            }
        }
    }

    #[test]
    fn client_refuses_to_dial_under_an_unsendable_name() {
        for name in ["", &"n".repeat(MAX_NAME_LEN + 1)[..]] {
            let err = encode_client_hello(HelloMode::New, name).unwrap_err();
            assert_eq!(err.kind(), TransportErrorKind::Protocol);
        }
    }
}
