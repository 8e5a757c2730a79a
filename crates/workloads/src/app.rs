//! The uniform application interface and the per-application wire codecs.
//!
//! The original Pando passes every value as a string (paper Figure 2), which
//! forces binary results through base64 (+33% on the wire) and a parse per
//! task. Here each application defines its *native* task and result types
//! plus a [`TaskCodec`] with a compact binary layout — raytraced pixels and
//! image digests travel as raw bytes, integers as fixed-width big-endian
//! words, floats as IEEE-754 bits. [`PandoApp`] is the dyn-friendly facade
//! over the same codecs: binary payloads in, binary payloads out, so the
//! distributed-map layer, the device models and the benchmark harness can
//! treat all seven applications interchangeably.

use crate::{arxiv, collatz, crypto, imageproc, mlagent, raytrace, sl_test};
use bytes::Bytes;
use pando_pull_stream::codec::{read_f64, read_u32, read_u64, split_at, Payload, TaskCodec};
use pando_pull_stream::StreamError;
use std::fmt;
use std::sync::Arc;

/// A Pando application: a named processing function over a stream of binary
/// payloads, plus an input generator for experiments.
///
/// The payloads are produced and consumed by the application's [`TaskCodec`];
/// this trait is the object-safe view the harness uses when the concrete
/// task/result types do not matter.
pub trait PandoApp: Send + Sync {
    /// Short machine-friendly name (used on the command line of the bench
    /// harness).
    fn name(&self) -> &'static str;

    /// The throughput unit reported in the paper's Table 2.
    fn unit(&self) -> &'static str;

    /// The `i`-th input value of the experiment workload, in wire form.
    fn input(&self, i: u64) -> Bytes;

    /// Applies the processing function to one encoded input and returns the
    /// encoded result (the body of the `module.exports['/pando/1.0.0']`
    /// function, minus the string convention). The input is a cheap
    /// reference-counted buffer, so byte-shaped tasks decode zero-copy.
    ///
    /// # Errors
    ///
    /// Returns an error if the input cannot be decoded or the computation
    /// fails; Pando forwards it like the JavaScript callback `cb(err)`.
    fn process(&self, input: &Payload) -> Result<Bytes, StreamError>;

    /// Approximate size in bytes of one input value on the wire.
    fn input_size(&self) -> usize {
        32
    }

    /// Approximate size in bytes of one result value on the wire.
    fn output_size(&self) -> usize {
        32
    }

    /// How many processed items one throughput "item" of Table 2 corresponds
    /// to (1 for most applications; the hash count per attempt for mining).
    fn items_per_input(&self) -> u64 {
        1
    }
}

/// The applications of the paper's evaluation, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Collatz-conjecture step counting.
    Collatz,
    /// SHA-256 proof-of-work mining.
    CryptoMining,
    /// Randomized StreamLender executions.
    StreamLenderTesting,
    /// Ray-traced animation frames.
    Raytrace,
    /// Landsat-like tile blurring.
    ImageProcessing,
    /// Q-learning hyper-parameter evaluation.
    MlAgentTraining,
    /// Crowd tagging (browser as a UI; excluded from throughput tables).
    Arxiv,
}

impl AppKind {
    /// Every application kind, in the column order of Table 2.
    pub fn all() -> [AppKind; 7] {
        [
            AppKind::Collatz,
            AppKind::CryptoMining,
            AppKind::StreamLenderTesting,
            AppKind::Raytrace,
            AppKind::ImageProcessing,
            AppKind::MlAgentTraining,
            AppKind::Arxiv,
        ]
    }

    /// The six applications measured in Table 2 (everything except Arxiv).
    pub fn measured() -> [AppKind; 6] {
        [
            AppKind::Collatz,
            AppKind::CryptoMining,
            AppKind::StreamLenderTesting,
            AppKind::Raytrace,
            AppKind::ImageProcessing,
            AppKind::MlAgentTraining,
        ]
    }

    /// Builds the application implementation for this kind, with workload
    /// parameters small enough for interactive test runs.
    pub fn instantiate(self) -> Arc<dyn PandoApp> {
        match self {
            AppKind::Collatz => Arc::new(CollatzApp::default()),
            AppKind::CryptoMining => Arc::new(CryptoApp::default()),
            AppKind::StreamLenderTesting => Arc::new(SlTestApp),
            AppKind::Raytrace => Arc::new(RaytraceApp::default()),
            AppKind::ImageProcessing => Arc::new(ImageProcApp::default()),
            AppKind::MlAgentTraining => Arc::new(MlAgentApp::default()),
            AppKind::Arxiv => Arc::new(ArxivApp::default()),
        }
    }

    /// Parses a kind from its command-line name.
    pub fn from_name(name: &str) -> Option<AppKind> {
        Self::all().into_iter().find(|kind| kind.instantiate().name() == name)
    }
}

impl fmt::Display for AppKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.instantiate().name())
    }
}

// ---------------------------------------------------------------------------
// Collatz
// ---------------------------------------------------------------------------

/// Wire codec for the Collatz application: a starting value as an 8-byte
/// big-endian word, a [`collatz::CollatzResult`] as three of them.
#[derive(Debug, Clone, Copy, Default)]
pub struct CollatzCodec;

impl TaskCodec for CollatzCodec {
    type Task = u64;
    type Result = collatz::CollatzResult;

    fn encode_task(&self, task: &u64) -> Bytes {
        Bytes::copy_from_slice(&task.to_be_bytes())
    }

    fn decode_task(&self, bytes: &Payload) -> Result<u64, StreamError> {
        let start = read_u64(bytes)?;
        if start == 0 {
            return Err(StreamError::protocol("collatz start must be positive"));
        }
        Ok(start)
    }

    fn encode_result(&self, result: &collatz::CollatzResult) -> Bytes {
        let mut out = Vec::with_capacity(24);
        out.extend_from_slice(&result.start.to_be_bytes());
        out.extend_from_slice(&result.steps.to_be_bytes());
        out.extend_from_slice(&result.peak_bits.to_be_bytes());
        Bytes::from(out)
    }

    fn decode_result(&self, bytes: &Payload) -> Result<collatz::CollatzResult, StreamError> {
        let (start, rest) = split_at(bytes, 8)?;
        let (steps, peak) = split_at(rest, 8)?;
        Ok(collatz::CollatzResult {
            start: read_u64(start)?,
            steps: read_u64(steps)?,
            peak_bits: read_u64(peak)?,
        })
    }
}

/// Collatz step counting over a range of starting values.
#[derive(Debug, Clone)]
pub struct CollatzApp {
    /// Starting offset of the searched range.
    pub first: u64,
}

impl Default for CollatzApp {
    fn default() -> Self {
        // Values in the billions take a few hundred big-number steps each.
        Self { first: 1_000_000_007 }
    }
}

impl PandoApp for CollatzApp {
    fn name(&self) -> &'static str {
        "collatz"
    }
    fn unit(&self) -> &'static str {
        "BigNums/s"
    }
    fn input(&self, i: u64) -> Bytes {
        CollatzCodec.encode_task(&(self.first + i))
    }
    fn process(&self, input: &Payload) -> Result<Bytes, StreamError> {
        let start = CollatzCodec.decode_task(input)?;
        Ok(CollatzCodec.encode_result(&collatz::collatz_steps(start)))
    }
    fn input_size(&self) -> usize {
        8
    }
    fn output_size(&self) -> usize {
        24
    }
}

// ---------------------------------------------------------------------------
// Crypto mining
// ---------------------------------------------------------------------------

/// Wire codec for the mining application: a [`crypto::MiningAttempt`] as two
/// nonce words, the difficulty and the raw block header bytes; a
/// [`crypto::MiningOutcome`] as a found flag, the nonce and the hash count.
#[derive(Debug, Clone, Copy, Default)]
pub struct CryptoCodec;

impl TaskCodec for CryptoCodec {
    type Task = crypto::MiningAttempt;
    type Result = crypto::MiningOutcome;

    fn encode_task(&self, task: &crypto::MiningAttempt) -> Bytes {
        let block = task.block.as_bytes();
        let mut out = Vec::with_capacity(20 + block.len());
        out.extend_from_slice(&task.nonce_start.to_be_bytes());
        out.extend_from_slice(&task.nonce_end.to_be_bytes());
        out.extend_from_slice(&task.difficulty_bits.to_be_bytes());
        out.extend_from_slice(block);
        Bytes::from(out)
    }

    fn decode_task(&self, bytes: &Payload) -> Result<crypto::MiningAttempt, StreamError> {
        let (start, rest) = split_at(bytes, 8)?;
        let (end, rest) = split_at(rest, 8)?;
        let (bits, block) = split_at(rest, 4)?;
        Ok(crypto::MiningAttempt {
            block: std::str::from_utf8(block)
                .map_err(|_| StreamError::protocol("block header is not valid UTF-8"))?
                .to_string(),
            nonce_start: read_u64(start)?,
            nonce_end: read_u64(end)?,
            difficulty_bits: read_u32(bits)?,
        })
    }

    fn encode_result(&self, result: &crypto::MiningOutcome) -> Bytes {
        let mut out = Vec::with_capacity(17);
        out.push(result.nonce.is_some() as u8);
        out.extend_from_slice(&result.nonce.unwrap_or(0).to_be_bytes());
        out.extend_from_slice(&result.hashes.to_be_bytes());
        Bytes::from(out)
    }

    fn decode_result(&self, bytes: &Payload) -> Result<crypto::MiningOutcome, StreamError> {
        let (flag, rest) = split_at(bytes, 1)?;
        let (nonce, hashes) = split_at(rest, 8)?;
        Ok(crypto::MiningOutcome {
            nonce: match flag[0] {
                0 => None,
                1 => Some(read_u64(nonce)?),
                other => {
                    return Err(StreamError::protocol(format!("bad found flag {other}")));
                }
            },
            hashes: read_u64(hashes)?,
        })
    }
}

/// SHA-256 proof-of-work over consecutive nonce ranges.
#[derive(Debug, Clone)]
pub struct CryptoApp {
    /// Block header being mined.
    pub block: String,
    /// Number of nonces per work unit.
    pub range_size: u64,
    /// Difficulty in leading zero bits.
    pub difficulty_bits: u32,
}

impl Default for CryptoApp {
    fn default() -> Self {
        Self { block: "pando-block-1".to_string(), range_size: 2_000, difficulty_bits: 20 }
    }
}

impl CryptoApp {
    /// The `i`-th mining attempt of the workload, in native form.
    pub fn attempt(&self, i: u64) -> crypto::MiningAttempt {
        let start = i * self.range_size;
        crypto::MiningAttempt {
            block: self.block.clone(),
            nonce_start: start,
            nonce_end: start + self.range_size,
            difficulty_bits: self.difficulty_bits,
        }
    }
}

impl PandoApp for CryptoApp {
    fn name(&self) -> &'static str {
        "crypto-mining"
    }
    fn unit(&self) -> &'static str {
        "Hashes/s"
    }
    fn input(&self, i: u64) -> Bytes {
        CryptoCodec.encode_task(&self.attempt(i))
    }
    fn process(&self, input: &Payload) -> Result<Bytes, StreamError> {
        let attempt = CryptoCodec.decode_task(input)?;
        Ok(CryptoCodec.encode_result(&crypto::mine(&attempt)))
    }
    fn items_per_input(&self) -> u64 {
        self.range_size
    }
}

// ---------------------------------------------------------------------------
// StreamLender testing
// ---------------------------------------------------------------------------

/// Wire codec for the StreamLender-testing application: a seed word in, an
/// [`sl_test::ExecutionVerdict`] out (violation text as length-implied
/// trailing bytes).
#[derive(Debug, Clone, Copy, Default)]
pub struct SlTestCodec;

impl TaskCodec for SlTestCodec {
    type Task = u64;
    type Result = sl_test::ExecutionVerdict;

    fn encode_task(&self, task: &u64) -> Bytes {
        Bytes::copy_from_slice(&task.to_be_bytes())
    }

    fn decode_task(&self, bytes: &Payload) -> Result<u64, StreamError> {
        read_u64(bytes)
    }

    fn encode_result(&self, result: &sl_test::ExecutionVerdict) -> Bytes {
        let violation = result.violation.as_deref().unwrap_or("");
        let mut out = Vec::with_capacity(21 + violation.len());
        out.extend_from_slice(&result.seed.to_be_bytes());
        out.extend_from_slice(&result.inputs.to_be_bytes());
        out.extend_from_slice(&result.steps.to_be_bytes());
        out.push(result.violation.is_some() as u8);
        out.extend_from_slice(violation.as_bytes());
        Bytes::from(out)
    }

    fn decode_result(&self, bytes: &Payload) -> Result<sl_test::ExecutionVerdict, StreamError> {
        let (seed, rest) = split_at(bytes, 8)?;
        let (inputs, rest) = split_at(rest, 8)?;
        let (steps, rest) = split_at(rest, 4)?;
        let (flag, violation) = split_at(rest, 1)?;
        Ok(sl_test::ExecutionVerdict {
            seed: read_u64(seed)?,
            inputs: read_u64(inputs)?,
            steps: read_u32(steps)?,
            violation: if flag[0] == 0 {
                None
            } else {
                Some(
                    std::str::from_utf8(violation)
                        .map_err(|_| StreamError::protocol("violation is not valid UTF-8"))?
                        .to_string(),
                )
            },
        })
    }
}

/// Randomized StreamLender executions, one seed per input.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlTestApp;

impl PandoApp for SlTestApp {
    fn name(&self) -> &'static str {
        "streamlender-testing"
    }
    fn unit(&self) -> &'static str {
        "Tests/s"
    }
    fn input(&self, i: u64) -> Bytes {
        SlTestCodec.encode_task(&i)
    }
    fn process(&self, input: &Payload) -> Result<Bytes, StreamError> {
        let seed = SlTestCodec.decode_task(input)?;
        Ok(SlTestCodec.encode_result(&sl_test::run_random_execution(seed)))
    }
    fn input_size(&self) -> usize {
        8
    }
}

// ---------------------------------------------------------------------------
// Raytracing
// ---------------------------------------------------------------------------

/// Wire codec for the raytracer: a camera angle as IEEE-754 bits, a rendered
/// frame as its raw RGB pixel buffer — the payload the original tool had to
/// base64-encode into a 4/3-sized string.
#[derive(Debug, Clone, Copy, Default)]
pub struct RaytraceCodec;

impl TaskCodec for RaytraceCodec {
    type Task = f64;
    type Result = Bytes;

    fn encode_task(&self, task: &f64) -> Bytes {
        Bytes::copy_from_slice(&task.to_bits().to_be_bytes())
    }

    fn decode_task(&self, bytes: &Payload) -> Result<f64, StreamError> {
        let angle = read_f64(bytes)?;
        if !angle.is_finite() {
            return Err(StreamError::protocol("camera angle must be finite"));
        }
        Ok(angle)
    }

    fn encode_result(&self, result: &Bytes) -> Bytes {
        result.clone()
    }

    fn decode_result(&self, bytes: &Payload) -> Result<Bytes, StreamError> {
        // Zero-copy: the frame's pixel buffer is shared, not duplicated.
        Ok(bytes.clone())
    }
}

/// Ray tracing of animation frames.
#[derive(Debug, Clone)]
pub struct RaytraceApp {
    /// Width of each rendered frame.
    pub width: usize,
    /// Height of each rendered frame.
    pub height: usize,
    /// Number of frames in the full animation.
    pub frames: usize,
    scene: raytrace::Scene,
}

impl Default for RaytraceApp {
    fn default() -> Self {
        // Small frames, like the paper's evaluation which shrank the image to
        // fit WebRTC message limits (§5.1).
        Self { width: 96, height: 72, frames: 60, scene: raytrace::Scene::default() }
    }
}

impl RaytraceApp {
    /// Renders the frame for `angle` and returns the raw RGB pixels.
    pub fn render(&self, angle: f64) -> Vec<u8> {
        self.scene.render(angle, self.width, self.height)
    }
}

impl PandoApp for RaytraceApp {
    fn name(&self) -> &'static str {
        "raytrace"
    }
    fn unit(&self) -> &'static str {
        "Frames/s"
    }
    fn input(&self, i: u64) -> Bytes {
        let frame = (i as usize) % self.frames.max(1);
        RaytraceCodec.encode_task(&raytrace::animation_angle(frame, self.frames))
    }
    fn process(&self, input: &Payload) -> Result<Bytes, StreamError> {
        let angle = RaytraceCodec.decode_task(input)?;
        // Raw pixels on the wire: no base64 inflation, no copy on decode.
        Ok(Bytes::from(self.render(angle)))
    }
    fn input_size(&self) -> usize {
        8
    }
    fn output_size(&self) -> usize {
        self.width * self.height * 3
    }
}

// ---------------------------------------------------------------------------
// Image processing
// ---------------------------------------------------------------------------

/// A blurred-tile digest: the tile id and the SHA-256 of the blurred pixels
/// (the pixels themselves travel through the external data distribution
/// channel, paper §4.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileDigest {
    /// The tile identifier (doubles as the synthesis seed).
    pub seed: u64,
    /// SHA-256 of the blurred tile's pixels.
    pub digest: [u8; 32],
}

/// Wire codec for the image-processing application: a tile id in, a
/// [`TileDigest`] out as the id plus 32 raw digest bytes (the original tool
/// shipped a 64-character hex string).
#[derive(Debug, Clone, Copy, Default)]
pub struct ImageProcCodec;

impl TaskCodec for ImageProcCodec {
    type Task = u64;
    type Result = TileDigest;

    fn encode_task(&self, task: &u64) -> Bytes {
        Bytes::copy_from_slice(&task.to_be_bytes())
    }

    fn decode_task(&self, bytes: &Payload) -> Result<u64, StreamError> {
        read_u64(bytes)
    }

    fn encode_result(&self, result: &TileDigest) -> Bytes {
        let mut out = Vec::with_capacity(40);
        out.extend_from_slice(&result.seed.to_be_bytes());
        out.extend_from_slice(&result.digest);
        Bytes::from(out)
    }

    fn decode_result(&self, bytes: &Payload) -> Result<TileDigest, StreamError> {
        let (seed, digest) = split_at(bytes, 8)?;
        Ok(TileDigest {
            seed: read_u64(seed)?,
            digest: digest
                .try_into()
                .map_err(|_| StreamError::protocol("digest must be 32 bytes"))?,
        })
    }
}

/// Blur filtering of synthetic Landsat-like tiles.
#[derive(Debug, Clone)]
pub struct ImageProcApp {
    /// Width and height of each square tile.
    pub tile_size: usize,
    /// Blur radius.
    pub radius: usize,
}

impl Default for ImageProcApp {
    fn default() -> Self {
        Self { tile_size: 410, radius: 3 }
    }
}

impl ImageProcApp {
    /// Blurs the tile identified by `seed` and returns its digest.
    pub fn digest(&self, seed: u64) -> TileDigest {
        let tile = imageproc::synthetic_tile(seed, self.tile_size, self.tile_size);
        let blurred = imageproc::box_blur(&tile, self.radius);
        TileDigest { seed, digest: crypto::sha256(&blurred.pixels) }
    }
}

impl PandoApp for ImageProcApp {
    fn name(&self) -> &'static str {
        "image-processing"
    }
    fn unit(&self) -> &'static str {
        "Images/s"
    }
    fn input(&self, i: u64) -> Bytes {
        // The input identifies which tile to fetch from the (external) data
        // distribution, exactly like the http/DAT/WebTorrent variants of the
        // paper carry image identifiers rather than the bytes themselves.
        ImageProcCodec.encode_task(&i)
    }
    fn process(&self, input: &Payload) -> Result<Bytes, StreamError> {
        let seed = ImageProcCodec.decode_task(input)?;
        Ok(ImageProcCodec.encode_result(&self.digest(seed)))
    }
    fn input_size(&self) -> usize {
        self.tile_size * self.tile_size
    }
    fn output_size(&self) -> usize {
        40
    }
}

// ---------------------------------------------------------------------------
// ML agent training
// ---------------------------------------------------------------------------

/// Wire codec for the hyper-parameter search: a learning rate as IEEE-754
/// bits, a [`mlagent::TrainingOutcome`] as two doubles, a step count and a
/// success count.
#[derive(Debug, Clone, Copy, Default)]
pub struct MlAgentCodec;

impl TaskCodec for MlAgentCodec {
    type Task = f64;
    type Result = mlagent::TrainingOutcome;

    fn encode_task(&self, task: &f64) -> Bytes {
        Bytes::copy_from_slice(&task.to_bits().to_be_bytes())
    }

    fn decode_task(&self, bytes: &Payload) -> Result<f64, StreamError> {
        let rate = read_f64(bytes)?;
        if !rate.is_finite() || rate <= 0.0 {
            return Err(StreamError::protocol("learning rate must be positive and finite"));
        }
        Ok(rate)
    }

    fn encode_result(&self, result: &mlagent::TrainingOutcome) -> Bytes {
        let mut out = Vec::with_capacity(28);
        out.extend_from_slice(&result.learning_rate.to_bits().to_be_bytes());
        out.extend_from_slice(&result.final_reward.to_bits().to_be_bytes());
        out.extend_from_slice(&result.steps.to_be_bytes());
        out.extend_from_slice(&result.successes.to_be_bytes());
        Bytes::from(out)
    }

    fn decode_result(&self, bytes: &Payload) -> Result<mlagent::TrainingOutcome, StreamError> {
        let (rate, rest) = split_at(bytes, 8)?;
        let (reward, rest) = split_at(rest, 8)?;
        let (steps, successes) = split_at(rest, 8)?;
        Ok(mlagent::TrainingOutcome {
            learning_rate: read_f64(rate)?,
            final_reward: read_f64(reward)?,
            steps: read_u64(steps)?,
            successes: read_u32(successes)?,
        })
    }
}

/// Q-learning training runs, one learning-rate candidate per input.
#[derive(Debug, Clone, Default)]
pub struct MlAgentApp {
    config: mlagent::TrainingConfig,
}

impl PandoApp for MlAgentApp {
    fn name(&self) -> &'static str {
        "ml-agent"
    }
    fn unit(&self) -> &'static str {
        "Steps/s"
    }
    fn input(&self, i: u64) -> Bytes {
        let candidates = mlagent::learning_rate_candidates(32);
        MlAgentCodec.encode_task(&candidates[(i as usize) % candidates.len()])
    }
    fn process(&self, input: &Payload) -> Result<Bytes, StreamError> {
        let learning_rate = MlAgentCodec.decode_task(input)?;
        Ok(MlAgentCodec.encode_result(&mlagent::train(learning_rate, &self.config)))
    }
    fn input_size(&self) -> usize {
        8
    }
    fn output_size(&self) -> usize {
        28
    }
}

// ---------------------------------------------------------------------------
// Arxiv tagging
// ---------------------------------------------------------------------------

/// A tagged paper, the arxiv application's result type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaggedPaper {
    /// Identifier of the paper.
    pub id: String,
    /// The volunteer's verdict.
    pub tag: arxiv::Tag,
}

/// Wire codec for the crowd-tagging application: a [`arxiv::PaperMeta`] as
/// three length-prefixed UTF-8 fields, a [`TaggedPaper`] as the id and a tag
/// byte.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArxivCodec;

fn put_str(out: &mut Vec<u8>, text: &str) {
    out.extend_from_slice(&(text.len() as u32).to_be_bytes());
    out.extend_from_slice(text.as_bytes());
}

fn take_str(bytes: &[u8]) -> Result<(String, &[u8]), StreamError> {
    let (len, rest) = split_at(bytes, 4)?;
    let len = read_u32(len)? as usize;
    let (text, rest) = split_at(rest, len)?;
    Ok((
        std::str::from_utf8(text)
            .map_err(|_| StreamError::protocol("field is not valid UTF-8"))?
            .to_string(),
        rest,
    ))
}

impl TaskCodec for ArxivCodec {
    type Task = arxiv::PaperMeta;
    type Result = TaggedPaper;

    fn encode_task(&self, task: &arxiv::PaperMeta) -> Bytes {
        let mut out =
            Vec::with_capacity(12 + task.id.len() + task.title.len() + task.abstract_text.len());
        put_str(&mut out, &task.id);
        put_str(&mut out, &task.title);
        put_str(&mut out, &task.abstract_text);
        Bytes::from(out)
    }

    fn decode_task(&self, bytes: &Payload) -> Result<arxiv::PaperMeta, StreamError> {
        let (id, rest) = take_str(bytes)?;
        let (title, rest) = take_str(rest)?;
        let (abstract_text, rest) = take_str(rest)?;
        if !rest.is_empty() {
            return Err(StreamError::protocol("trailing bytes after paper metadata"));
        }
        Ok(arxiv::PaperMeta { id, title, abstract_text })
    }

    fn encode_result(&self, result: &TaggedPaper) -> Bytes {
        let mut out = Vec::with_capacity(5 + result.id.len());
        put_str(&mut out, &result.id);
        out.push(match result.tag {
            arxiv::Tag::Interesting => 0,
            arxiv::Tag::NotRelevant => 1,
            arxiv::Tag::Unsure => 2,
        });
        Bytes::from(out)
    }

    fn decode_result(&self, bytes: &Payload) -> Result<TaggedPaper, StreamError> {
        let (id, rest) = take_str(bytes)?;
        let (tag, rest) = split_at(rest, 1)?;
        if !rest.is_empty() {
            return Err(StreamError::protocol("trailing bytes after tag"));
        }
        Ok(TaggedPaper {
            id,
            tag: match tag[0] {
                0 => arxiv::Tag::Interesting,
                1 => arxiv::Tag::NotRelevant,
                2 => arxiv::Tag::Unsure,
                other => {
                    return Err(StreamError::protocol(format!("unknown tag byte {other}")));
                }
            },
        })
    }
}

/// Crowd tagging with a simulated volunteer.
#[derive(Debug, Clone, Default)]
pub struct ArxivApp {
    tagger: arxiv::SimulatedTagger,
}

impl PandoApp for ArxivApp {
    fn name(&self) -> &'static str {
        "arxiv-tagging"
    }
    fn unit(&self) -> &'static str {
        "Papers/s"
    }
    fn input(&self, i: u64) -> Bytes {
        let corpus = arxiv::sample_corpus((i + 1) as usize);
        ArxivCodec.encode_task(&corpus[i as usize])
    }
    fn process(&self, input: &Payload) -> Result<Bytes, StreamError> {
        let paper = ArxivCodec.decode_task(input)?;
        let tag = self.tagger.tag(&paper);
        Ok(ArxivCodec.encode_result(&TaggedPaper { id: paper.id, tag }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_measured_app_round_trips_an_input() {
        for kind in AppKind::measured() {
            let app = kind.instantiate();
            let input = app.input(0);
            let output = app.process(&input).unwrap_or_else(|e| panic!("{}: {e}", app.name()));
            assert!(!output.is_empty(), "{} produced an empty result", app.name());
        }
    }

    #[test]
    fn app_names_and_units_are_distinct() {
        let apps: Vec<_> = AppKind::all().iter().map(|k| k.instantiate()).collect();
        let names: std::collections::HashSet<_> = apps.iter().map(|a| a.name()).collect();
        assert_eq!(names.len(), apps.len());
        for app in &apps {
            assert!(app.unit().ends_with("/s"));
        }
    }

    #[test]
    fn from_name_round_trips() {
        for kind in AppKind::all() {
            let name = kind.instantiate().name();
            assert_eq!(AppKind::from_name(name), Some(kind));
            assert_eq!(kind.to_string(), name);
        }
        assert_eq!(AppKind::from_name("unknown"), None);
    }

    #[test]
    fn collatz_codec_round_trips_and_computes() {
        let app = CollatzApp { first: 27 };
        assert_eq!(CollatzCodec.decode_task(&app.input(0)).unwrap(), 27);
        let result = CollatzCodec.decode_result(&app.process(&app.input(0)).unwrap()).unwrap();
        assert_eq!((result.start, result.steps), (27, 111));
        // Zero and garbage are rejected instead of panicking the worker.
        assert!(CollatzCodec.decode_task(&Bytes::copy_from_slice(&0u64.to_be_bytes())).is_err());
        assert!(app.process(&Bytes::copy_from_slice(b"xyz")).is_err());
    }

    #[test]
    fn crypto_codec_round_trips_attempts_and_outcomes() {
        let app = CryptoApp { range_size: 50, difficulty_bits: 1, ..CryptoApp::default() };
        let attempt = app.attempt(0);
        assert_eq!(CryptoCodec.decode_task(&CryptoCodec.encode_task(&attempt)).unwrap(), attempt);
        let outcome = CryptoCodec.decode_result(&app.process(&app.input(0)).unwrap()).unwrap();
        assert!(outcome.hashes > 0);
        for result in [
            crypto::MiningOutcome { nonce: Some(42), hashes: 100 },
            crypto::MiningOutcome { nonce: None, hashes: 50 },
        ] {
            assert_eq!(
                CryptoCodec.decode_result(&CryptoCodec.encode_result(&result)).unwrap(),
                result
            );
        }
        assert!(app.process(&Bytes::copy_from_slice(b"garbage")).is_err());
        assert_eq!(app.items_per_input(), 50);
    }

    #[test]
    fn raytrace_frames_travel_as_raw_pixels() {
        let app = RaytraceApp { width: 16, height: 12, frames: 4, ..RaytraceApp::default() };
        let frame = app.process(&app.input(1)).unwrap();
        // Exactly width*height RGB bytes: no base64 inflation (the string
        // protocol shipped (16*12*3)/3*4 = 768 characters for this frame).
        assert_eq!(frame.len(), 16 * 12 * 3);
        assert_eq!(app.output_size(), 16 * 12 * 3);
        assert!(app.process(&Bytes::copy_from_slice(b"angle?")).is_err());
        let not_finite = RaytraceCodec.encode_task(&f64::NAN);
        assert!(RaytraceCodec.decode_task(&not_finite).is_err());
    }

    #[test]
    fn raytrace_inputs_cycle_through_the_animation() {
        let app = RaytraceApp::default();
        let angles = raytrace::animation_angles(app.frames);
        for i in 0..2 * app.frames as u64 + 3 {
            let angle = RaytraceCodec.decode_task(&app.input(i)).unwrap();
            assert_eq!(angle.to_bits(), angles[i as usize % app.frames].to_bits(), "input {i}");
        }
        // Zero frames count as one, as in `animation_angles`: every input is
        // the first frame's angle, and none panics.
        let empty = RaytraceApp { frames: 0, ..RaytraceApp::default() };
        for i in [0, 1, 59, u64::MAX] {
            assert_eq!(RaytraceCodec.decode_task(&empty.input(i)).unwrap(), 0.0, "input {i}");
        }
    }

    #[test]
    fn image_processing_digests_are_deterministic() {
        let app = ImageProcApp { tile_size: 64, radius: 2 };
        let out_a = app.process(&ImageProcCodec.encode_task(&3)).unwrap();
        let out_b = app.process(&ImageProcCodec.encode_task(&3)).unwrap();
        assert_eq!(out_a, out_b, "processing is deterministic");
        assert_ne!(out_a, app.process(&ImageProcCodec.encode_task(&4)).unwrap());
        let digest = ImageProcCodec.decode_result(&out_a).unwrap();
        assert_eq!(digest.seed, 3);
        assert!(app.process(&Bytes::copy_from_slice(b"x")).is_err());
        assert!(ImageProcCodec.decode_result(&Bytes::copy_from_slice(b"too-short")).is_err());
    }

    #[test]
    fn ml_agent_codec_round_trips_outcomes() {
        let app = MlAgentApp::default();
        let outcome = MlAgentCodec
            .decode_result(&app.process(&MlAgentCodec.encode_task(&0.4)).unwrap())
            .unwrap();
        assert_eq!(outcome.learning_rate, 0.4);
        assert!(outcome.steps > 0);
        assert!(MlAgentCodec.decode_task(&MlAgentCodec.encode_task(&-1.0)).is_err());
        assert!(app.process(&Bytes::copy_from_slice(b"fast")).is_err());
    }

    #[test]
    fn arxiv_codec_round_trips_papers_and_tags() {
        let app = ArxivApp::default();
        let paper = arxiv::sample_corpus(1).remove(0);
        let wire = ArxivCodec.encode_task(&paper);
        assert_eq!(ArxivCodec.decode_task(&wire).unwrap(), paper);
        let tagged = ArxivCodec.decode_result(&app.process(&wire).unwrap()).unwrap();
        assert_eq!(tagged.id, paper.id);
        for tag in [arxiv::Tag::Interesting, arxiv::Tag::NotRelevant, arxiv::Tag::Unsure] {
            let result = TaggedPaper { id: "p1".into(), tag };
            assert_eq!(
                ArxivCodec.decode_result(&ArxivCodec.encode_result(&result)).unwrap(),
                result
            );
        }
        assert!(ArxivCodec.decode_task(&Bytes::copy_from_slice(b"\x00\x00\x00\xffhi")).is_err());
    }

    #[test]
    fn sl_test_verdicts_round_trip_including_violations() {
        let app = SlTestApp;
        for seed in 0..5u64 {
            let out = app.process(&SlTestCodec.encode_task(&seed)).unwrap();
            let verdict = SlTestCodec.decode_result(&out).unwrap();
            assert!(verdict.passed(), "seed {seed}: {verdict:?}");
            assert_eq!(verdict.seed, seed);
        }
        let failed = sl_test::ExecutionVerdict {
            seed: 9,
            inputs: 10,
            steps: 3,
            violation: Some("value 4 lost".to_string()),
        };
        assert_eq!(SlTestCodec.decode_result(&SlTestCodec.encode_result(&failed)).unwrap(), failed);
        assert!(app.process(&Bytes::copy_from_slice(b"3.5")).is_err());
    }
}
