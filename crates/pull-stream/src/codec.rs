//! Typed payload codecs: the boundary between application values and the
//! binary wire.
//!
//! The original Pando passes every value between the master and the
//! volunteers as a *string* (base64-encoding binary results, §2.1.1 of the
//! paper), which inflates payloads by 4/3 and forces an encode/parse round
//! trip per task. This module replaces that convention with a typed,
//! binary-safe pipeline:
//!
//! * [`Payload`] — the wire form of every task and result: [`bytes::Bytes`],
//!   an immutable, reference-counted byte buffer. Cloning and slicing a
//!   payload never copies the underlying bytes, so a value can sit in the
//!   lender's re-lend queue, travel through a channel and be decoded by a
//!   worker while sharing a single allocation.
//! * [`TaskCodec`] — how one application maps its native task and result
//!   types to and from [`Payload`]s. Each workload implements it with its
//!   natural binary layout (raw pixel buffers, big-endian integers, IEEE-754
//!   doubles) instead of strings.
//!
//! One codec is provided here: [`StringCodec`] (UTF-8 text, the compatibility
//! path for string workloads).

use crate::error::StreamError;
use bytes::Bytes;

/// The wire form of every task and result payload: an immutable,
/// reference-counted byte buffer that is cheap to clone and slice.
pub type Payload = Bytes;

/// Maps an application's native task and result types to and from the binary
/// [`Payload`] wire form.
///
/// Encoding is infallible by design: a codec owns its types and can always
/// produce bytes for them (frame-size limits are enforced by the framing
/// layer, not the codec). Decoding is fallible because the bytes may come
/// from a hostile or corrupted peer.
///
/// # Examples
///
/// A codec for `u64` tasks and `(u64, u64)` results, in big-endian:
///
/// ```
/// use pando_pull_stream::codec::{Payload, TaskCodec};
/// use pando_pull_stream::StreamError;
///
/// struct PairCodec;
///
/// impl TaskCodec for PairCodec {
///     type Task = u64;
///     type Result = (u64, u64);
///
///     fn encode_task(&self, task: &u64) -> Payload {
///         Payload::copy_from_slice(&task.to_be_bytes())
///     }
///     fn decode_task(&self, bytes: &Payload) -> Result<u64, StreamError> {
///         pando_pull_stream::codec::read_u64(bytes)
///     }
///     fn encode_result(&self, result: &(u64, u64)) -> Payload {
///         let mut out = Vec::with_capacity(16);
///         out.extend_from_slice(&result.0.to_be_bytes());
///         out.extend_from_slice(&result.1.to_be_bytes());
///         Payload::from(out)
///     }
///     fn decode_result(&self, bytes: &Payload) -> Result<(u64, u64), StreamError> {
///         if bytes.len() != 16 {
///             return Err(StreamError::protocol("expected 16 bytes"));
///         }
///         Ok((pando_pull_stream::codec::read_u64(&bytes[..8])?,
///             pando_pull_stream::codec::read_u64(&bytes[8..])?))
///     }
/// }
///
/// let codec = PairCodec;
/// let wire = codec.encode_task(&7);
/// assert_eq!(codec.decode_task(&wire).unwrap(), 7);
/// ```
pub trait TaskCodec: Send + Sync + 'static {
    /// The application's native task (input value) type.
    type Task: Clone + Send + 'static;
    /// The application's native result (output value) type.
    type Result: Send + 'static;

    /// Encodes one task into its wire payload.
    fn encode_task(&self, task: &Self::Task) -> Payload;

    /// Decodes one task from its wire payload. The payload is a cheap
    /// reference-counted buffer, so codecs whose task type is (or contains)
    /// raw bytes can decode without copying, via [`Payload::clone`] or
    /// [`Payload::slice`].
    ///
    /// # Errors
    ///
    /// Returns a protocol error if the bytes are not a valid task encoding.
    fn decode_task(&self, bytes: &Payload) -> Result<Self::Task, StreamError>;

    /// Encodes one result into its wire payload.
    fn encode_result(&self, result: &Self::Result) -> Payload;

    /// Decodes one result from its wire payload; like
    /// [`TaskCodec::decode_task`], byte-shaped results decode zero-copy.
    ///
    /// # Errors
    ///
    /// Returns a protocol error if the bytes are not a valid result encoding.
    fn decode_result(&self, bytes: &Payload) -> Result<Self::Result, StreamError>;
}

/// UTF-8 text codec: the compatibility path for workloads whose values are
/// strings (the original `'/pando/1.0.0'` convention).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StringCodec;

impl StringCodec {
    fn decode(bytes: &[u8]) -> Result<String, StreamError> {
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| StreamError::protocol("payload is not valid UTF-8"))
    }
}

impl TaskCodec for StringCodec {
    type Task = String;
    type Result = String;

    fn encode_task(&self, task: &String) -> Payload {
        Bytes::copy_from_slice(task.as_bytes())
    }

    fn decode_task(&self, bytes: &Payload) -> Result<String, StreamError> {
        Self::decode(bytes)
    }

    fn encode_result(&self, result: &String) -> Payload {
        Bytes::copy_from_slice(result.as_bytes())
    }

    fn decode_result(&self, bytes: &Payload) -> Result<String, StreamError> {
        Self::decode(bytes)
    }
}

/// Reads a big-endian `u64` from exactly eight bytes.
///
/// # Errors
///
/// Returns a protocol error if `bytes` is not exactly eight bytes long.
pub fn read_u64(bytes: &[u8]) -> Result<u64, StreamError> {
    let array: [u8; 8] =
        bytes.try_into().map_err(|_| StreamError::protocol("expected 8 big-endian bytes"))?;
    Ok(u64::from_be_bytes(array))
}

/// Reads a big-endian IEEE-754 `f64` from exactly eight bytes.
///
/// # Errors
///
/// Returns a protocol error if `bytes` is not exactly eight bytes long.
pub fn read_f64(bytes: &[u8]) -> Result<f64, StreamError> {
    Ok(f64::from_bits(read_u64(bytes)?))
}

/// Reads a big-endian `u32` from exactly four bytes.
///
/// # Errors
///
/// Returns a protocol error if `bytes` is not exactly four bytes long.
pub fn read_u32(bytes: &[u8]) -> Result<u32, StreamError> {
    let array: [u8; 4] =
        bytes.try_into().map_err(|_| StreamError::protocol("expected 4 big-endian bytes"))?;
    Ok(u32::from_be_bytes(array))
}

/// Splits `bytes` into a fixed-size head and the remaining tail.
///
/// # Errors
///
/// Returns a protocol error if fewer than `n` bytes are available.
pub fn split_at(bytes: &[u8], n: usize) -> Result<(&[u8], &[u8]), StreamError> {
    if bytes.len() < n {
        return Err(StreamError::protocol(format!(
            "payload truncated: need {n} bytes, have {}",
            bytes.len()
        )));
    }
    Ok(bytes.split_at(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_codec_round_trips_text() {
        let codec = StringCodec;
        let text = "héllo\nwörld".to_string();
        let wire = codec.encode_task(&text);
        assert_eq!(codec.decode_task(&wire).unwrap(), text);
        let wire = codec.encode_result(&text);
        assert_eq!(codec.decode_result(&wire).unwrap(), text);
    }

    #[test]
    fn string_codec_rejects_invalid_utf8() {
        let codec = StringCodec;
        assert!(codec.decode_task(&Bytes::from(vec![0xff, 0xfe])).is_err());
        assert!(codec.decode_result(&Bytes::from(vec![0xc3])).is_err());
    }

    #[test]
    fn integer_readers_check_lengths() {
        assert_eq!(read_u64(&7u64.to_be_bytes()).unwrap(), 7);
        assert!(read_u64(&[1, 2, 3]).is_err());
        assert_eq!(read_u32(&9u32.to_be_bytes()).unwrap(), 9);
        assert!(read_u32(&[0; 8]).is_err());
        let pi = std::f64::consts::PI;
        assert_eq!(read_f64(&pi.to_bits().to_be_bytes()).unwrap(), pi);
    }

    #[test]
    fn split_at_reports_truncation() {
        let (head, tail) = split_at(b"abcdef", 2).unwrap();
        assert_eq!((head, tail), (&b"ab"[..], &b"cdef"[..]));
        assert!(split_at(b"a", 2).is_err());
    }
}
