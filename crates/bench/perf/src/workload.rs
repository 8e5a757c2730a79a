//! The four TCP workloads: what a task is, what the volunteer computes, and
//! how the master side checks each result. Everything here is derived from
//! `--seed`; the stack under test only ever sees the generated payloads.
//!
//! Every task payload starts with the task's index `k` in the input stream
//! (8 bytes, little endian). That is the benchmark's own oracle key — the
//! wire protocol's sequence header is the library's business — and it lets
//! the volunteer-side closure tell a traced run which task it is computing.

use bytes::{Bytes, BytesMut};
use pando_pull_stream::StreamError;
use pando_workloads::app::{PandoApp, RaytraceApp};
use std::sync::Arc;
use std::time::Duration;

/// `k`-th task payload, built on whichever thread pulls the input.
pub type TaskFn = Arc<dyn Fn(u64) -> Bytes + Send + Sync>;
/// The function volunteers apply, shared by every pool thread.
pub type ProcessFn = Arc<dyn Fn(&Bytes) -> Result<Bytes, StreamError> + Send + Sync>;
/// Whether `result` is the right answer to task `k`.
pub type CheckFn = Box<dyn Fn(u64, &[u8]) -> bool>;

/// How the input stream offers tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Closed loop: a task is available whenever the lender asks, so the
    /// fleet's window (16 volunteers × batch size 2) is always full; the
    /// stream ends once the window has been open this long.
    Closed { window: Duration },
    /// Open loop: task `k` becomes due `k / rate` seconds after the first
    /// pull and the stream ends after `total` tasks.
    Paced { rate: f64, total: u64 },
}

pub struct TcpWorkload {
    pub load: Load,
    /// Threads of the volunteer-side worker pool.
    pub pool_threads: usize,
    pub task: TaskFn,
    pub process: ProcessFn,
    pub check: CheckFn,
    /// Payload sizes of a typical task and result, for the per-layer
    /// micro-timings that run "at the workload's record size".
    pub task_bytes: usize,
    pub result_bytes: usize,
}

/// splitmix64's finaliser: a cheap bijection on `u64` with good avalanche.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `len` bytes determined by `seed`.
pub fn seeded_bytes(seed: u64, len: usize) -> Vec<u8> {
    (0..len.div_ceil(8) as u64)
        .flat_map(|i| mix64(seed ^ mix64(i)).to_le_bytes())
        .take(len)
        .collect()
}

/// A 64-bit digest that reads every byte, eight at a time. FNV is
/// byte-serial (≈ 1 byte per cycle); at 32 KiB per task that would make the
/// *checker* a bottleneck of the workload it checks.
pub fn digest64(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut h = 0x243F_6A88_85A3_08D3 ^ bytes.len() as u64;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix64(h)
}

/// The task index a payload starts with.
pub fn index_of(payload: &[u8]) -> Option<u64> {
    payload.get(..8).map(|head| u64::from_le_bytes(head.try_into().expect("8 bytes")))
}

fn malformed() -> StreamError {
    StreamError::protocol("task payload shorter than its index header")
}

/// `tcp_small` and `tcp_paced`: 8 bytes down, 8 bytes up, `f` one integer
/// mix keyed by the seed. Per-task coordination cost is all there is.
pub fn small(seed: u64, load: Load) -> TcpWorkload {
    let key = mix64(seed);
    let f = move |k: u64| mix64(k ^ key);
    TcpWorkload {
        load,
        pool_threads: 1,
        task: Arc::new(|k| Bytes::copy_from_slice(&k.to_le_bytes())),
        process: Arc::new(move |payload| {
            let k = index_of(payload).ok_or_else(malformed)?;
            Ok(Bytes::copy_from_slice(&f(k).to_le_bytes()))
        }),
        check: Box::new(move |k, result| result == f(k).to_le_bytes()),
        task_bytes: 8,
        result_bytes: 8,
    }
}

/// Size of the large payload of `tcp_bulk`, index header included.
pub const BULK_BYTES: usize = 32 * 1024;
const BULK_BODY: usize = BULK_BYTES - 8;
/// Distinct body windows over the seeded buffer, `BULK_STRIDE` bytes apart.
const BULK_SLOTS: u64 = 1024;
const BULK_STRIDE: usize = 64;

/// `tcp_bulk`: bytes dominate, in both directions within one stream. Even
/// `k`: 32 KiB down, 16 B up (index + digest of the body). Odd `k`: 16 B
/// down, 32 KiB up (index + a window of the volunteer's seeded buffer).
/// Bodies are windows of one seeded buffer, so the checker needs a table
/// lookup for a digest and one `memcmp` for a body — but each payload is a
/// fresh buffer (one copy, in benchmark code) because it carries its index.
pub fn bulk(seed: u64, load: Load) -> TcpWorkload {
    let buffer: Arc<[u8]> =
        seeded_bytes(seed, BULK_BODY + (BULK_SLOTS as usize - 1) * BULK_STRIDE).into();
    fn body(buffer: &[u8], k: u64) -> &[u8] {
        let at = ((k / 2) % BULK_SLOTS) as usize * BULK_STRIDE;
        &buffer[at..at + BULK_BODY]
    }
    let with_index = |k: u64, rest: &[u8]| {
        let mut out = BytesMut::with_capacity(8 + rest.len());
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(rest);
        out.freeze()
    };
    let digests: Vec<u64> = (0..BULK_SLOTS).map(|slot| digest64(body(&buffer, slot * 2))).collect();

    let source_buffer = buffer.clone();
    let worker_buffer = buffer.clone();
    TcpWorkload {
        load,
        pool_threads: 1,
        task: Arc::new(move |k| {
            if k % 2 == 0 {
                with_index(k, body(&source_buffer, k))
            } else {
                with_index(k, &mix64(k ^ seed).to_le_bytes())
            }
        }),
        process: Arc::new(move |payload| {
            let k = index_of(payload).ok_or_else(malformed)?;
            if k % 2 == 0 {
                Ok(with_index(k, &digest64(&payload[8..]).to_le_bytes()))
            } else {
                Ok(with_index(k, body(&worker_buffer, k)))
            }
        }),
        check: Box::new(move |k, result| {
            if index_of(result) != Some(k) {
                return false;
            }
            if k % 2 == 0 {
                result[8..] == digests[((k / 2) % BULK_SLOTS) as usize].to_le_bytes()
            } else {
                &result[8..] == body(&buffer, k)
            }
        }),
        task_bytes: BULK_BYTES,
        result_bytes: BULK_BYTES,
    }
}

/// `tcp_raytrace`: the paper's animation-rendering application at its
/// default size (96×72 pixels, 60 camera angles). Compute-bound, with a pool
/// thread per CPU so every core renders; the seed picks which angle the
/// animation starts at. A task is the index header
/// followed by the application's own 8-byte encoded angle; results are raw
/// pixels, checked against digests of the 60 frames rendered locally here.
pub fn raytrace(seed: u64, load: Load) -> TcpWorkload {
    let app = Arc::new(RaytraceApp::default());
    let frames = app.frames as u64;
    let angles: Vec<Bytes> = (0..frames).map(|i| app.input(i)).collect();
    let digests: Vec<u64> = angles
        .iter()
        .map(|angle| digest64(&app.process(angle).expect("reference frame renders")))
        .collect();
    let frame_of = move |k: u64| (k.wrapping_add(seed) % frames) as usize;
    let worker_app = app.clone();
    TcpWorkload {
        load,
        pool_threads: crate::run::host_nproc(),
        task: Arc::new(move |k| {
            let mut out = BytesMut::with_capacity(16);
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&angles[frame_of(k)]);
            out.freeze()
        }),
        process: Arc::new(move |payload| {
            index_of(payload).ok_or_else(malformed)?;
            worker_app.process(&payload.slice(8..))
        }),
        check: Box::new(move |k, result| digest64(result) == digests[frame_of(k)]),
        task_bytes: 16,
        result_bytes: app.output_size(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOAD: Load = Load::Closed { window: Duration::from_secs(1) };

    /// Every workload's own results pass its check, and a result for the
    /// neighbouring task — what a reordering would deliver — does not.
    #[test]
    fn checks_accept_the_right_result_and_reject_a_neighbour() {
        for w in [small(7, LOAD), bulk(7, LOAD), raytrace(7, LOAD)] {
            for k in [0u64, 1, 2, 3, 2047, 2048] {
                let result = (w.process)(&(w.task)(k)).unwrap();
                assert!((w.check)(k, &result), "task {k}");
                assert!(!(w.check)(k + 1, &result), "task {k} passed as {}", k + 1);
                assert!(!(w.check)(k + 2, &result), "task {k} passed as {}", k + 2);
            }
        }
    }

    #[test]
    fn payloads_have_the_advertised_sizes_and_depend_on_the_seed() {
        let w = bulk(1, LOAD);
        assert_eq!((w.task)(0).len(), BULK_BYTES);
        assert_eq!((w.task)(1).len(), 16);
        assert_eq!((w.process)(&(w.task)(0)).unwrap().len(), 16);
        assert_eq!((w.process)(&(w.task)(1)).unwrap().len(), BULK_BYTES);
        assert_ne!((w.task)(0), (bulk(2, LOAD).task)(0));
        assert_ne!(
            (small(1, LOAD).process)(&(small(1, LOAD).task)(5)).unwrap(),
            (small(2, LOAD).process)(&(small(2, LOAD).task)(5)).unwrap()
        );
        assert_ne!((raytrace(0, LOAD).task)(0), (raytrace(1, LOAD).task)(0));
    }

    #[test]
    fn digest_reads_every_byte() {
        let base = seeded_bytes(3, 1001);
        let reference = digest64(&base);
        for at in [0, 7, 8, 500, 999, 1000] {
            let mut flipped = base.clone();
            flipped[at] ^= 1;
            assert_ne!(digest64(&flipped), reference, "byte {at} is ignored");
        }
        assert_ne!(digest64(&base[..1000]), reference);
    }
}
