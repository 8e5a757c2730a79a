//! Sharded stream lenders: multi-core dispatch without a global lock.
//!
//! A [`StreamLender`] funnels every borrow and every result through one
//! mutex, which caps dispatch at a single core no matter how many threads
//! serve sub-streams. A [`ShardedLender`] removes that ceiling by running
//! `N` independent lenders — *shards* — side by side:
//!
//! ```text
//!                      ┌───────────┐   chunk-granular claims
//!   input ──► splitter │ seq space │──► shard 0: StreamLender ─► output 0 ─┐
//!                      │  0,1,2,…  │──► shard 1: StreamLender ─► output 1 ─┤ merge ─► ordered
//!                      └───────────┘──► shard N: StreamLender ─► output N ─┘         output
//! ```
//!
//! * **Splitter** — one shared stage pulls the real input source and hands
//!   each shard a *contiguous chunk* of the sequence space at a time.
//!   Chunks are claimed on demand: the shard that asks while the global
//!   read position sits in unassigned territory becomes the owner of the
//!   next chunk. Demand-driven claiming keeps the lender *lazy* (no value
//!   is read without a sub-stream asking; the read-ahead beyond delivered
//!   demand is bounded by one chunk per shard) and *adaptive* (fast shards
//!   claim more chunks), and it never strands work on a shard that has no
//!   devices.
//! * **Shards** — each claimed chunk is fed to the owning shard's private
//!   [`StreamLender`]. Borrow bookkeeping, result reordering and — crucially
//!   — the re-lending of values held by crashed sub-streams all happen under
//!   that shard's own lock: fault recovery never takes a cross-shard lock.
//! * **Merge** — [`ShardedLender::output`] replays the splitter's claim log
//!   chunk by chunk, pulling each chunk's results from its owner's ordered
//!   output, so the merged stream is in global input order, exactly like a
//!   single lender's output.
//!
//! With `shards = 1` the layout degenerates to today's single lender: one
//! claim covers the whole stream, the merge stage forwards one output, and
//! per-seq behaviour (order, laziness, fault re-lending) is unchanged.
//!
//! Each shard numbers its lends with its own *local* sequence counter (a
//! shard's [`Lend::seq`](crate::lender::Lend) restarts at 0); local order is
//! global order restricted to the shard, and the merge stage restores the
//! global interleaving from the claim log. Wire protocols built on top only
//! ever see one shard per channel, so local numbering is invisible to them.
//!
//! # Examples
//!
//! One shard worked synchronously; with a single consumer every chunk is
//! claimed by that shard, the merged output is the input order, and the
//! claim log records the chunk → shard assignment:
//!
//! ```
//! use pando_pull_stream::shard::ShardedLender;
//! use pando_pull_stream::source::{count, SourceExt};
//!
//! let sharded: ShardedLender<u64, u64> = ShardedLender::new(count(6), 2, 2);
//! let mut sub = sharded.lend_on(1);
//! while let Some(task) = sub.next_task() {
//!     sub.push_result(task.seq, task.value * 10).unwrap();
//! }
//! sub.complete();
//! assert_eq!(sharded.output().collect_values().unwrap(), vec![10, 20, 30, 40, 50, 60]);
//! // Three data chunks plus the claim of the ask that found the input
//! // exhausted — all owned by the only shard that ever asked.
//! assert_eq!(sharded.claim_log(), vec![1, 1, 1, 1]);
//! ```
//!
//! Claim ordering is demand-driven, so under concurrent shards it depends on
//! scheduling; a single-threaded scheduler (such as the deterministic
//! fleet simulator of `pando_core::sim`) makes it — and therefore the whole
//! dispatch history — reproducible run over run.

use crate::error::StreamError;
use crate::lender::{LenderOutput, LenderStats, LenderWaker, StreamLender, SubStream, WeakLender};
use crate::protocol::{Answer, Request};
use crate::source::{BoxSource, Source};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How the shared input terminated.
#[derive(Debug, Clone)]
enum Term {
    Done,
    Failed(StreamError),
}

impl Term {
    fn answer<V>(&self) -> Answer<V> {
        match self {
            Term::Done => Answer::Done,
            Term::Failed(err) => Answer::Err(err.clone()),
        }
    }
}

/// Per-shard termination notifier: nudges the shard's lender to pull its
/// port once so it books `input_done` without waiting for a device ask.
type Notifier = Box<dyn Fn() + Send + Sync>;

struct SplitterState<T> {
    /// The shared upstream source; `None` while checked out by a blocking
    /// puller, so the state lock is never held across a blocking pull (the
    /// checkout protocol of [`StreamLender`]'s own input).
    source: Option<BoxSource<T>>,
    source_checked_out: bool,
    /// Values read from the source so far; also the next global seq.
    pulled: u64,
    /// Chunk index → owning shard, in claim order. This is the log the
    /// merge stage replays to reassemble the global order.
    assignment: Vec<usize>,
    /// Values pulled past the asking shard's position, parked for the chunk
    /// owner until it asks. One pull parks at most `chunk - 1` values (it
    /// stops inside the asker's own fresh chunk), and un-popped parked
    /// values total at most one chunk per shard — the splitter's read-ahead
    /// beyond actual demand is bounded by `shards × chunk`.
    parked: Vec<VecDeque<T>>,
    term: Option<Term>,
}

struct Splitter<T> {
    chunk: u64,
    state: Mutex<SplitterState<T>>,
    /// Signals the merge stage that a chunk was claimed or the input ended.
    assign_cond: Condvar,
    /// Signals blocking pullers that the checked-out source came back (or
    /// that the stream terminated while they were waiting for it).
    source_cond: Condvar,
    /// Per-shard readiness callbacks, fired when a value was parked for the
    /// shard (its next non-blocking ask will succeed). The end of the input
    /// reaches them through each shard's lender, once it has booked it (see
    /// [`Notifier`]).
    wakers: Mutex<Vec<Vec<LenderWaker>>>,
    /// Per-shard termination broadcast (see [`Notifier`]); installed once at
    /// construction, after the lenders exist.
    notifiers: Mutex<Vec<Notifier>>,
}

impl<T> Splitter<T>
where
    T: Clone + Send + 'static,
{
    /// The owner of the next global position, claiming a fresh chunk for
    /// `asking` when the position enters unassigned territory.
    fn owner_of_next(&self, state: &mut SplitterState<T>, asking: usize) -> usize {
        let chunk_index = (state.pulled / self.chunk) as usize;
        if chunk_index == state.assignment.len() {
            state.assignment.push(asking);
            self.assign_cond.notify_all();
        }
        state.assignment[chunk_index]
    }

    /// Blocking pull of shard `shard`'s port: answers from the shard's
    /// parked values first, then drives the shared source forward — parking
    /// values owned by other shards — until a value lands in a chunk owned
    /// by `shard` or the input terminates.
    ///
    /// The source is pulled with the splitter lock *released* (checkout
    /// protocol): a slow interactive input (a stubborn queue, a feedback
    /// loop) must never hold the lock the merge stage and the non-blocking
    /// ask path need.
    fn pull_for(&self, shard: usize) -> Answer<T> {
        loop {
            let mut notify_parked: Option<usize> = None;
            let mut terminated = false;
            let delivered: Option<Answer<T>>;
            {
                let mut state = self.state.lock();
                if let Some(value) = state.parked[shard].pop_front() {
                    return Answer::Value(value);
                }
                if let Some(term) = &state.term {
                    return term.answer();
                }
                if state.source_checked_out {
                    // Another shard is pulling the source; its return (or a
                    // parked value / the termination) wakes us.
                    self.source_cond.wait(&mut state);
                    continue;
                }
                let owner = self.owner_of_next(&mut state, shard);
                let mut source = state.source.take().expect("source present when not checked out");
                state.source_checked_out = true;
                let answer =
                    parking_lot::MutexGuard::unlocked(&mut state, || source.pull(Request::Ask));
                state.source = Some(source);
                state.source_checked_out = false;
                if state.term.is_some() {
                    // Torn down while we were pulling: release the source
                    // (checkout protocol again — its abort handling may be
                    // slow); the pulled value (if any) dies with the stream,
                    // like a value read during a single lender's output
                    // abort.
                    Self::release_source(&mut state, Request::Abort);
                    delivered = Some(state.term.as_ref().expect("checked above").answer());
                } else {
                    match answer {
                        Answer::Value(value) => {
                            state.pulled += 1;
                            if owner == shard {
                                delivered = Some(Answer::Value(value));
                            } else {
                                state.parked[owner].push_back(value);
                                notify_parked = Some(owner);
                                delivered = None;
                            }
                        }
                        Answer::Done => {
                            state.term = Some(Term::Done);
                            terminated = true;
                            delivered = None;
                        }
                        Answer::Err(err) => {
                            state.term = Some(Term::Failed(err));
                            terminated = true;
                            delivered = None;
                        }
                    }
                }
            }
            // Out of the lock: wake checkout waiters, the owner of a parked
            // value, and — on termination — everyone.
            self.source_cond.notify_all();
            if let Some(owner) = notify_parked {
                self.fire_wakers(owner);
            }
            if terminated {
                self.after_termination(shard);
            }
            if let Some(answer) = delivered {
                return answer;
            }
            // Either a value was parked for another shard (keep pulling for
            // ours) or the termination was just recorded (the next iteration
            // answers it).
        }
    }

    /// Non-blocking variant of [`Splitter::pull_for`]: `None` means "would
    /// block" — the source is checked out by a blocking puller or would
    /// itself have to wait. Parked values and the recorded termination are
    /// answered even while the source is checked out.
    fn try_pull_for(&self, shard: usize) -> Option<Answer<T>> {
        let mut parked_for: Vec<usize> = Vec::new();
        let mut terminated = false;
        let answer = {
            let mut state = self.state.lock();
            loop {
                if let Some(value) = state.parked[shard].pop_front() {
                    break Some(Answer::Value(value));
                }
                if let Some(term) = &state.term {
                    break Some(term.answer());
                }
                if state.source_checked_out {
                    break None;
                }
                let owner = self.owner_of_next(&mut state, shard);
                // `try_pull` is contractually immediate, so holding the lock
                // across it is safe (and keeps claim + pull atomic).
                match state.source.as_mut().expect("source present when not checked out").try_pull()
                {
                    // The source would have to wait; a claimed-but-empty
                    // chunk stands and is filled by a later (possibly
                    // pumped) pull.
                    None => break None,
                    Some(Answer::Value(value)) => {
                        state.pulled += 1;
                        if owner == shard {
                            break Some(Answer::Value(value));
                        }
                        state.parked[owner].push_back(value);
                        if !parked_for.contains(&owner) {
                            parked_for.push(owner);
                        }
                    }
                    Some(Answer::Done) => {
                        state.term = Some(Term::Done);
                        terminated = true;
                    }
                    Some(Answer::Err(err)) => {
                        state.term = Some(Term::Failed(err));
                        terminated = true;
                    }
                }
            }
        };
        for owner in parked_for {
            self.fire_wakers(owner);
        }
        if terminated {
            self.after_termination(shard);
        }
        answer
    }

    /// Releases the upstream source with a termination `request`, using the
    /// checkout protocol so the state lock is never held across the
    /// source's (potentially slow) termination handling. A no-op while the
    /// source is checked out by an in-flight pull: that puller releases it
    /// when it returns and observes the recorded termination.
    fn release_source(state: &mut parking_lot::MutexGuard<'_, SplitterState<T>>, request: Request) {
        if state.source_checked_out {
            return;
        }
        let Some(mut source) = state.source.take() else {
            return;
        };
        state.source_checked_out = true;
        parking_lot::MutexGuard::unlocked(state, || {
            let _ = source.pull(request);
        });
        state.source = Some(source);
        state.source_checked_out = false;
    }

    /// Handles a termination request arriving through shard `shard`'s port
    /// (its lender shut down or its output was aborted): the shared source
    /// is released once and every other shard is notified. A source checked
    /// out by an in-flight blocking pull is released by that puller when it
    /// returns and observes the recorded termination.
    fn terminate(&self, shard: usize, request: Request) -> Answer<T> {
        let mut terminated = false;
        let answer = {
            let mut state = self.state.lock();
            if state.term.is_none() {
                state.term = Some(match &request {
                    Request::Fail(err) => Term::Failed(err.clone()),
                    _ => Term::Done,
                });
                terminated = true;
                Self::release_source(&mut state, request);
            }
            state.term.as_ref().expect("termination recorded above").answer()
        };
        if terminated {
            self.after_termination(shard);
        }
        answer
    }

    /// Fires the readiness callbacks of `shard`. Called outside the state
    /// lock.
    fn fire_wakers(&self, shard: usize) {
        for waker in &self.wakers.lock()[shard] {
            waker();
        }
    }

    /// Post-termination notifications (outside the state lock): wakes every
    /// checkout waiter, releases the merge stage, and broadcasts the end to
    /// every *other* shard's lender so each books `input_done` without
    /// waiting for a device ask — and fires its wakers if that leaves it
    /// nothing to lend. The origin shard is skipped because its own port
    /// pull is still in flight (its lender's input is checked out; a
    /// reentrant prefetch would wait on itself): that pull books the end.
    fn after_termination(&self, origin: usize) {
        self.source_cond.notify_all();
        self.assign_cond.notify_all();
        let notifiers = self.notifiers.lock();
        for (index, notify) in notifiers.iter().enumerate() {
            if index != origin {
                notify();
            }
        }
    }

    fn parked_len(&self, shard: usize) -> usize {
        self.state.lock().parked[shard].len()
    }
}

/// The input port of one shard: a [`Source`] fed by the shared splitter.
struct SplitterPort<T> {
    splitter: Arc<Splitter<T>>,
    shard: usize,
}

impl<T> Source<T> for SplitterPort<T>
where
    T: Clone + Send + 'static,
{
    fn pull(&mut self, request: Request) -> Answer<T> {
        if request.is_termination() {
            return self.splitter.terminate(self.shard, request);
        }
        self.splitter.pull_for(self.shard)
    }

    fn try_pull(&mut self) -> Option<Answer<T>> {
        self.splitter.try_pull_for(self.shard)
    }
}

/// Splits one input stream across `N` independent [`StreamLender`] shards
/// and merges their ordered outputs back into a single stream in global
/// input order. See the [module documentation](self) for the layout.
pub struct ShardedLender<T, R> {
    lenders: Vec<StreamLender<T, R>>,
    splitter: Arc<Splitter<T>>,
}

impl<T, R> Clone for ShardedLender<T, R> {
    /// Cloning yields another handle on the same sharded deployment.
    fn clone(&self) -> Self {
        Self { lenders: self.lenders.clone(), splitter: self.splitter.clone() }
    }
}

impl<T, R> std::fmt::Debug for ShardedLender<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.splitter.state.lock();
        f.debug_struct("ShardedLender")
            .field("shards", &self.lenders.len())
            .field("chunk", &self.splitter.chunk)
            .field("pulled", &state.pulled)
            .field("chunks_claimed", &state.assignment.len())
            .field("terminated", &state.term.is_some())
            .finish()
    }
}

impl<T, R> ShardedLender<T, R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
{
    /// Creates a sharded lender over `input` with `shards` independent
    /// lender instances, handing out the sequence space in contiguous
    /// chunks of `chunk` values.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `chunk` is zero.
    pub fn new(input: impl Source<T> + 'static, shards: usize, chunk: usize) -> Self {
        assert!(shards > 0, "a sharded lender needs at least one shard");
        assert!(chunk > 0, "the shard chunk must be at least one value");
        let splitter = Arc::new(Splitter {
            chunk: chunk as u64,
            state: Mutex::new(SplitterState {
                source: Some(Box::new(input)),
                source_checked_out: false,
                pulled: 0,
                assignment: Vec::new(),
                parked: (0..shards).map(|_| VecDeque::new()).collect(),
                term: None,
            }),
            assign_cond: Condvar::new(),
            source_cond: Condvar::new(),
            wakers: Mutex::new((0..shards).map(|_| Vec::new()).collect()),
            notifiers: Mutex::new(Vec::new()),
        });
        let lenders: Vec<StreamLender<T, R>> = (0..shards)
            .map(|shard| StreamLender::new(SplitterPort { splitter: splitter.clone(), shard }))
            .collect();
        // The termination broadcast holds weak handles so the splitter does
        // not keep the lenders (and through them itself) alive.
        let notifiers: Vec<Notifier> = lenders
            .iter()
            .map(|lender| {
                let weak: WeakLender<T, R> = lender.downgrade();
                Box::new(move || {
                    if let Some(lender) = weak.upgrade() {
                        // Never wait: if the shard's input is checked out by
                        // a blocked pull, that holder books the termination
                        // itself when it returns — and if it never returns
                        // (an interactive source gone silent after an
                        // abort), nothing may hang the broadcaster on it.
                        let _ = lender.try_prefetch_one();
                    }
                }) as Notifier
            })
            .collect();
        *splitter.notifiers.lock() = notifiers;
        Self { lenders, splitter }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.lenders.len()
    }

    /// The splitter's claim log so far: entry `i` is the shard that owns
    /// chunk `i` of the sequence space, in claim order. This is the record
    /// the merge stage replays, and — because chunks are claimed on demand —
    /// a faithful trace of *which shard dispatched which slice of the
    /// input*. Under a single-threaded deterministic scheduler (the
    /// virtual-clock fleet simulator) the log is identical across same-seed
    /// runs, which makes it the canonical artefact for replaying and
    /// diffing shard scheduling decisions.
    pub fn claim_log(&self) -> Vec<usize> {
        self.splitter.state.lock().assignment.clone()
    }

    /// Size of the contiguous seq-space chunks handed to each shard.
    pub fn chunk(&self) -> usize {
        self.splitter.chunk as usize
    }

    /// Creates a new sub-stream on shard `shard`. Sub-streams may be created
    /// at any time (the *dynamic* property), on any shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn lend_on(&self, shard: usize) -> SubStream<T, R> {
        self.lenders[shard].lend()
    }

    /// Registers a change callback for shard `shard`: invoked when the
    /// shard's lender fires its wakers (see [`LenderWaker`]) *and* whenever
    /// the splitter parks a value for the shard (so a non-blocking ask would
    /// now succeed). This is the per-shard waker hook of an event-driven
    /// dispatcher.
    pub fn add_shard_waker(&self, shard: usize, waker: LenderWaker) {
        self.lenders[shard].add_waker(waker.clone());
        self.splitter.wakers.lock()[shard].push(waker);
    }

    /// Reads one value on behalf of shard `shard` — blocking if the input
    /// needs time — and stages it in the shard's re-lend pool. Returns
    /// `false` once the shard will never receive another value. This is the
    /// per-shard input-pump hook (see [`StreamLender::prefetch_one`]).
    pub fn prefetch_shard(&self, shard: usize) -> bool {
        self.lenders[shard].prefetch_one()
    }

    /// Aggregated statistics across all shards.
    pub fn stats(&self) -> LenderStats {
        let mut total = LenderStats::default();
        for lender in &self.lenders {
            let stats = lender.stats();
            total.values_read += stats.values_read;
            total.results_emitted += stats.results_emitted;
            total.lends += stats.lends;
            total.relends += stats.relends;
            total.substreams_created += stats.substreams_created;
            total.substreams_completed += stats.substreams_completed;
            total.substreams_crashed += stats.substreams_crashed;
        }
        total
    }

    /// Per-shard statistics snapshots, indexed by shard.
    pub fn shard_stats(&self) -> Vec<LenderStats> {
        self.lenders.iter().map(StreamLender::stats).collect()
    }

    /// Values staged or awaiting re-lend on shard `shard`: its lender's
    /// failed queue plus values parked for it in the splitter.
    pub fn shard_depth(&self, shard: usize) -> usize {
        self.lenders[shard].failed_pending() + self.splitter.parked_len(shard)
    }

    /// Values the shard's lender holds in its re-lend pool (crash recovery
    /// or pump staging). Exposed for the per-shard input pump: a non-empty
    /// pool means asks can already be answered without reading the input.
    pub fn shard_failed_pending(&self, shard: usize) -> usize {
        self.lenders[shard].failed_pending()
    }

    /// Returns `true` when shard `shard` still has work that a *new*
    /// sub-stream could progress: values awaiting re-lend, values parked in
    /// the splitter, or values in flight whose borrower may yet crash. A
    /// shut-down shard never needs help.
    pub fn shard_needs_help(&self, shard: usize) -> bool {
        if self.lenders[shard].is_shut_down() {
            return false;
        }
        self.shard_depth(shard) > 0 || self.lenders[shard].in_flight() > 0
    }

    /// Returns `true` once the input is exhausted, nothing is parked in the
    /// splitter, and every shard has emitted everything it read.
    pub fn is_drained(&self) -> bool {
        {
            let state = self.splitter.state.lock();
            if state.term.is_none() || state.parked.iter().any(|queue| !queue.is_empty()) {
                return false;
            }
        }
        self.lenders.iter().all(StreamLender::is_drained)
    }

    /// Shuts every shard down: outputs terminate after the values already
    /// emitted and sub-streams are told `Done` on their next ask.
    pub fn shutdown(&self) {
        self.splitter.terminate(usize::MAX, Request::Abort);
        for lender in &self.lenders {
            lender.shutdown();
        }
    }

    /// Returns the merged, globally ordered output stream.
    pub fn output(&self) -> ShardedOutput<T, R> {
        ShardedOutput {
            splitter: self.splitter.clone(),
            outputs: self.lenders.iter().map(StreamLender::output).collect(),
            emitted: 0,
            cached_owner: None,
            finished: None,
        }
    }
}

/// The merged output of a [`ShardedLender`]: replays the splitter's claim
/// log, pulling each chunk's results from the owning shard's ordered
/// output. Implements [`Source`].
pub struct ShardedOutput<T, R> {
    splitter: Arc<Splitter<T>>,
    outputs: Vec<LenderOutput<T, R>>,
    /// Results emitted so far; the next global seq to emit.
    emitted: u64,
    /// Owner of the chunk currently being emitted, cached so the hot path
    /// takes the splitter lock once per chunk, not once per value (a
    /// chunk's owner never changes once claimed).
    cached_owner: Option<(usize, usize)>,
    /// Remembered termination, for idempotent terminal answers.
    finished: Option<Term>,
}

impl<T, R> std::fmt::Debug for ShardedOutput<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedOutput")
            .field("emitted", &self.emitted)
            .field("finished", &self.finished.is_some())
            .finish()
    }
}

/// What the merge stage should do for the chunk holding the next seq.
enum NextChunk {
    /// Pull the next result from this shard's output.
    Owner(usize),
    /// No such chunk was ever claimed and the input ended: the stream is
    /// complete; terminate the way the input did.
    Ended(Term),
}

impl<T, R> ShardedOutput<T, R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
{
    /// Resolves the owner of the chunk containing seq `self.emitted`,
    /// waiting (for `timeout`, if any) until the chunk is claimed or the
    /// input terminates. `None` means the time ran out. Owners are cached per
    /// chunk: the splitter lock is only taken when the emit position crosses
    /// into a chunk not resolved yet. The clock is read only once a sleep is
    /// certain, and `deadline` then says when this wait had to end.
    fn next_chunk(
        &mut self,
        timeout: Option<Duration>,
        deadline: &mut Option<Instant>,
    ) -> Option<NextChunk> {
        let chunk_index = (self.emitted / self.splitter.chunk) as usize;
        if let Some((cached_index, owner)) = self.cached_owner {
            if cached_index == chunk_index {
                return Some(NextChunk::Owner(owner));
            }
        }
        let mut state = self.splitter.state.lock();
        loop {
            if let Some(&owner) = state.assignment.get(chunk_index) {
                self.cached_owner = Some((chunk_index, owner));
                return Some(NextChunk::Owner(owner));
            }
            if let Some(term) = &state.term {
                return Some(NextChunk::Ended(term.clone()));
            }
            match timeout {
                Some(Duration::ZERO) => return None,
                Some(timeout) => {
                    let at = *deadline.get_or_insert_with(|| Instant::now() + timeout);
                    if self.splitter.assign_cond.wait_until(&mut state, at).timed_out() {
                        return None;
                    }
                }
                None => self.splitter.assign_cond.wait(&mut state),
            }
        }
    }

    fn book(&mut self, answer: Answer<R>) -> Answer<R> {
        match &answer {
            Answer::Value(_) => self.emitted += 1,
            Answer::Done => self.finished = Some(Term::Done),
            Answer::Err(err) => self.finished = Some(Term::Failed(err.clone())),
        }
        answer
    }

    /// Pulls the next in-order result, waiting at most `timeout`; `None`
    /// means the timeout passed and the stream is untouched, like
    /// [`LenderOutput::next_timeout`].
    pub fn next_timeout(&mut self, timeout: Duration) -> Option<Answer<R>> {
        if let Some(term) = &self.finished {
            return Some(term.answer());
        }
        let mut deadline = None;
        match self.next_chunk(Some(timeout), &mut deadline)? {
            NextChunk::Owner(owner) => {
                // All of `timeout` is left unless the chunk was waited for.
                let remaining = deadline
                    .map_or(timeout, |at: Instant| at.saturating_duration_since(Instant::now()));
                let answer = self.outputs[owner].next_timeout(remaining)?;
                Some(self.book(answer))
            }
            NextChunk::Ended(term) => {
                self.finished = Some(term.clone());
                Some(term.answer())
            }
        }
    }
}

impl<T, R> Source<R> for ShardedOutput<T, R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
{
    fn pull(&mut self, request: Request) -> Answer<R> {
        if request.is_termination() {
            // Aborting the merged output tears the whole deployment down,
            // like aborting a single lender's output: every shard's output
            // closes, the first one releasing the shared source.
            for output in &mut self.outputs {
                let _ = output.pull(request.clone());
            }
            let term = match request {
                Request::Fail(err) => Term::Failed(err),
                _ => Term::Done,
            };
            let answer = term.answer();
            self.finished = Some(term);
            return answer;
        }
        if let Some(term) = &self.finished {
            return term.answer();
        }
        match self.next_chunk(None, &mut None).expect("no timeout: next_chunk waits it out") {
            NextChunk::Owner(owner) => {
                let answer = self.outputs[owner].pull(Request::Ask);
                self.book(answer)
            }
            NextChunk::Ended(term) => {
                self.finished = Some(term.clone());
                term.answer()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{count, failing, SourceExt};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;

    fn square_worker(mut sub: SubStream<u64, u64>) -> thread::JoinHandle<u64> {
        thread::spawn(move || {
            let mut processed = 0;
            while let Some(task) = sub.next_task() {
                sub.push_result(task.seq, task.value * task.value).unwrap();
                processed += 1;
            }
            sub.complete();
            processed
        })
    }

    #[test]
    fn single_shard_matches_the_plain_lender() {
        let sharded: ShardedLender<u64, u64> = ShardedLender::new(count(50), 1, 4);
        let worker = square_worker(sharded.lend_on(0));
        let output = sharded.output().collect_values().unwrap();
        assert_eq!(worker.join().unwrap(), 50);
        assert_eq!(output, (1..=50u64).map(|x| x * x).collect::<Vec<_>>());
        let stats = sharded.stats();
        assert_eq!(stats.values_read, 50);
        assert_eq!(stats.results_emitted, 50);
        assert_eq!(stats.relends, 0);
        assert!(sharded.is_drained());
    }

    #[test]
    fn four_shards_preserve_global_order() {
        let sharded: ShardedLender<u64, u64> = ShardedLender::new(count(400), 4, 3);
        let workers: Vec<_> = (0..4)
            .flat_map(|shard| (0..2).map(move |_| shard))
            .map(|shard| square_worker(sharded.lend_on(shard)))
            .collect();
        let output = sharded.output().collect_values().unwrap();
        let processed: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(processed, 400, "every value processed exactly once");
        assert_eq!(output, (1..=400u64).map(|x| x * x).collect::<Vec<_>>());
        assert!(sharded.is_drained());
    }

    #[test]
    fn claims_are_contiguous_chunks() {
        let sharded: ShardedLender<u64, u64> = ShardedLender::new(count(64), 2, 8);
        // Only shard 1 ever asks: it claims every chunk, each one a
        // contiguous slice of the seq space.
        let mut sub = sharded.lend_on(1);
        let mut seqs = Vec::new();
        while let Some(task) = sub.next_task() {
            seqs.push(task.seq);
            sub.push_result(task.seq, task.value).unwrap();
        }
        sub.complete();
        assert_eq!(seqs, (0..64).collect::<Vec<u64>>(), "one shard sees the full seq space");
        assert_eq!(sharded.shard_stats()[1].values_read, 64);
        assert_eq!(sharded.shard_stats()[0].values_read, 0, "the idle shard claimed nothing");
        assert_eq!(sharded.output().collect_values().unwrap().len(), 64);
    }

    #[test]
    fn input_is_read_lazily_across_shards() {
        let reads = Arc::new(AtomicU64::new(0));
        let reads_clone = reads.clone();
        let input = crate::source::infinite(move |i| {
            reads_clone.fetch_add(1, Ordering::SeqCst);
            i
        });
        let sharded: ShardedLender<u64, u64> = ShardedLender::new(input, 4, 2);
        assert_eq!(reads.load(Ordering::SeqCst), 0, "nothing is read before an ask");
        let mut sub = sharded.lend_on(2);
        for _ in 0..4 {
            let task = sub.next_task().unwrap();
            sub.push_result(task.seq, task.value).unwrap();
        }
        // Reads stay within one partial chunk of the values handed out.
        assert!(
            reads.load(Ordering::SeqCst) <= 4 + 1,
            "read-ahead must stay under one chunk (read {})",
            reads.load(Ordering::SeqCst)
        );
        sub.complete();
        sharded.shutdown();
    }

    #[test]
    fn crashed_substream_work_is_relent_within_the_shard() {
        let sharded: ShardedLender<u64, u64> = ShardedLender::new(count(30), 2, 2);
        let mut doomed = sharded.lend_on(0);
        let t1 = doomed.next_task().unwrap();
        let t2 = doomed.next_task().unwrap();
        assert_eq!((t1.seq, t2.seq), (0, 1));
        drop(doomed); // crash-stop
        assert_eq!(sharded.shard_failed_pending(0), 2, "re-lend stays shard-local");
        assert_eq!(sharded.shard_failed_pending(1), 0);
        assert!(sharded.shard_needs_help(0));
        // A replacement on the same shard plus a worker on the other shard
        // complete the stream.
        let workers = [square_worker(sharded.lend_on(0)), square_worker(sharded.lend_on(1))];
        let output = sharded.output().collect_values().unwrap();
        for worker in workers {
            worker.join().unwrap();
        }
        assert_eq!(output, (1..=30u64).map(|x| x * x).collect::<Vec<_>>());
        assert_eq!(sharded.stats().relends, 2);
        assert_eq!(sharded.stats().substreams_crashed, 1);
    }

    #[test]
    fn orphaned_shard_work_is_rescued_by_a_new_substream() {
        let sharded: ShardedLender<u64, u64> = ShardedLender::new(count(12), 2, 2);
        // Shard 0 claims a chunk then dies with values in hand.
        let mut doomed = sharded.lend_on(0);
        let _ = doomed.next_task().unwrap();
        drop(doomed);
        // A worker on shard 1 cannot touch shard 0's claim...
        let worker1 = square_worker(sharded.lend_on(1));
        // ...but a late substream on shard 0 picks the orphaned values up.
        assert!(sharded.shard_needs_help(0));
        let worker0 = square_worker(sharded.lend_on(0));
        let output = sharded.output().collect_values().unwrap();
        worker0.join().unwrap();
        worker1.join().unwrap();
        assert_eq!(output, (1..=12u64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn input_error_reaches_the_merged_output() {
        let sharded: ShardedLender<u64, u64> =
            ShardedLender::new(failing(StreamError::new("bad input")), 3, 2);
        let workers: Vec<_> = (0..3).map(|s| square_worker(sharded.lend_on(s))).collect();
        let err = sharded.output().collect_values().unwrap_err();
        assert_eq!(err.message(), "bad input");
        for worker in workers {
            worker.join().unwrap();
        }
    }

    #[test]
    fn shutdown_terminates_the_merged_output() {
        let sharded: ShardedLender<u64, u64> = ShardedLender::new(count(10), 2, 2);
        sharded.shutdown();
        assert_eq!(sharded.output().collect_values().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn output_abort_shuts_every_shard_down() {
        let sharded: ShardedLender<u64, u64> = ShardedLender::new(count(1_000_000), 2, 2);
        let mut sub = sharded.lend_on(0);
        let task = sub.next_task().unwrap();
        sub.push_result(task.seq, task.value).unwrap();
        let mut output = sharded.output();
        assert_eq!(output.pull(Request::Ask), Answer::Value(1));
        assert_eq!(output.pull(Request::Abort), Answer::Done);
        assert_eq!(output.pull(Request::Ask), Answer::Done, "termination is idempotent");
        assert!(sub.next_task().is_none(), "sub-streams are told Done after the abort");
        sub.complete();
        let mut other = sharded.lend_on(1);
        assert!(other.next_task().is_none());
        other.complete();
    }

    #[test]
    fn next_timeout_returns_none_without_results() {
        let sharded: ShardedLender<u64, u64> = ShardedLender::new(count(5), 2, 2);
        let mut output = sharded.output();
        assert!(output.next_timeout(Duration::from_millis(20)).is_none());
        let _keep_alive = sharded.lend_on(0);
    }

    #[test]
    fn parked_values_are_popped_by_the_owner() {
        let sharded: ShardedLender<u64, u64> = ShardedLender::new(count(8), 2, 2);
        // Shard 0 claims chunk 0 (seqs 0-1) but only takes the first value;
        // shard 1's ask must then park seq 1 for shard 0, claim chunk 1 and
        // receive seq 2.
        let mut sub0 = sharded.lend_on(0);
        let first = sub0.next_task().unwrap();
        assert_eq!(first.value, 1);
        let mut sub1 = sharded.lend_on(1);
        let third = sub1.next_task().unwrap();
        assert_eq!(third.value, 3, "shard 1 skips the remainder of shard 0's chunk");
        assert_eq!(sharded.shard_depth(0), 1, "the second value is parked for shard 0");
        let second = sub0.next_task().unwrap();
        assert_eq!(second.value, 2, "the owner pops its parked value");
        sub0.push_result(first.seq, first.value).unwrap();
        sub0.push_result(second.seq, second.value).unwrap();
        sub1.push_result(third.seq, third.value).unwrap();
        // Drain the rest from shard 1 and finish.
        while let Some(task) = sub1.next_task() {
            sub1.push_result(task.seq, task.value).unwrap();
        }
        sub0.complete();
        sub1.complete();
        assert_eq!(sharded.output().collect_values().unwrap(), (1..=8).collect::<Vec<u64>>());
    }

    #[test]
    fn abort_returns_while_a_blocking_pull_is_in_flight() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // An interactive source that blocks on Ask until it is told the
        // stream aborted — the shape of a feedback loop that never produces
        // again once the consumer leaves.
        let aborted = Arc::new(AtomicBool::new(false));
        let source_aborted = aborted.clone();
        let input = move |request: Request| -> Answer<u64> {
            if request.is_termination() {
                return Answer::Done;
            }
            while !source_aborted.load(Ordering::SeqCst) {
                thread::sleep(Duration::from_millis(1));
            }
            Answer::Done
        };
        let sharded: ShardedLender<u64, u64> = ShardedLender::new(input, 2, 2);
        // A puller on shard 1 blocks inside the source with shard 1's input
        // (and the splitter source) checked out.
        let mut sub = sharded.lend_on(1);
        let puller = thread::spawn(move || {
            assert!(sub.next_task().is_none(), "the aborted stream lends nothing");
            sub.complete();
        });
        thread::sleep(Duration::from_millis(30));
        // Aborting the merged output must return promptly: the termination
        // broadcast may not wait on the blocked pull.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let mut output = sharded.output();
        let aborter = thread::spawn(move || {
            assert_eq!(output.pull(Request::Abort), Answer::Done);
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("abort must not wait for the blocked source pull");
        aborter.join().unwrap();
        // Unblock the source so the puller observes the termination.
        aborted.store(true, Ordering::SeqCst);
        puller.join().unwrap();
    }

    #[test]
    fn zero_shards_or_chunk_is_rejected() {
        let caught = std::panic::catch_unwind(|| {
            let _: ShardedLender<u64, u64> = ShardedLender::new(count(1), 0, 1);
        });
        assert!(caught.is_err());
        let caught = std::panic::catch_unwind(|| {
            let _: ShardedLender<u64, u64> = ShardedLender::new(count(1), 1, 0);
        });
        assert!(caught.is_err());
    }

    // --- The merged output sleeps on one shard's output at a time ----------

    const WATCHDOG: Duration = Duration::from_secs(30);

    /// A sub-stream and the tasks it has borrowed.
    type Held = (SubStream<u64, u64>, Vec<crate::lender::Lend<u64>>);

    /// Two shards, chunks of two, one sub-stream each holding its chunk:
    /// shard 0 owns global seqs 0-1, shard 1 owns 2-3.
    fn two_shards_holding_a_chunk_each() -> (ShardedLender<u64, u64>, Held, Held) {
        let sharded: ShardedLender<u64, u64> = ShardedLender::new(count(4), 2, 2);
        let hold = |shard| {
            let mut sub = sharded.lend_on(shard);
            let tasks = vec![sub.next_task().unwrap(), sub.next_task().unwrap()];
            (sub, tasks)
        };
        let (first, second) = (hold(0), hold(1));
        assert_eq!(sharded.claim_log(), vec![0, 1]);
        (sharded, first, second)
    }

    /// Drains the merged output on a thread of its own — by `pull`, or by
    /// `next_timeout` when `timed` — and returns once that thread sleeps on
    /// the output of `asleep_on`. The drained values arrive on the channel;
    /// a consumer that panicked hangs it up.
    fn parked_merge(
        sharded: &ShardedLender<u64, u64>,
        asleep_on: usize,
        timed: bool,
    ) -> std::sync::mpsc::Receiver<Vec<u64>> {
        let sleeps_before = sharded.lenders[asleep_on].sleeps();
        let mut output = sharded.output();
        let (drained_tx, drained) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let mut values = Vec::new();
            loop {
                let answer = if timed {
                    output.next_timeout(2 * WATCHDOG).expect("woken, not timed out")
                } else {
                    output.pull(Request::Ask)
                };
                match answer {
                    Answer::Value(value) => values.push(value),
                    Answer::Done => break,
                    Answer::Err(err) => panic!("merged output failed: {err}"),
                }
            }
            let _ = drained_tx.send(values);
        });
        sharded.lenders[asleep_on].await_sleeper(sleeps_before);
        drained
    }

    /// What the parked consumer drained; panics if it is never woken.
    fn drained(consumer: std::sync::mpsc::Receiver<Vec<u64>>) -> Vec<u64> {
        consumer.recv_timeout(WATCHDOG).expect("the merged output was never woken")
    }

    #[test]
    fn zero_timeout_polls_the_merge_across_a_chunk_boundary_without_ever_sleeping() {
        let sharded: ShardedLender<u64, u64> = ShardedLender::new(count(4), 2, 2);
        let mut output = sharded.output();
        assert_eq!(output.next_timeout(Duration::ZERO), None, "chunk 0 is not claimed yet");
        let mut sub0 = sharded.lend_on(0);
        let held0 = [sub0.next_task().unwrap(), sub0.next_task().unwrap()];
        assert_eq!(output.next_timeout(Duration::ZERO), None, "claimed, nothing stored");
        sub0.push_result(held0[1].seq, 20).unwrap();
        assert_eq!(output.next_timeout(Duration::ZERO), None, "the in-order result is missing");
        sub0.push_result(held0[0].seq, 10).unwrap();
        assert_eq!(output.next_timeout(Duration::ZERO), Some(Answer::Value(10)));
        assert_eq!(output.next_timeout(Duration::ZERO), Some(Answer::Value(20)));
        // Across the boundary: chunk 1 is unclaimed, then claimed by shard 1.
        assert_eq!(output.next_timeout(Duration::ZERO), None, "chunk 1 is not claimed yet");
        let mut sub1 = sharded.lend_on(1);
        let held1 = [sub1.next_task().unwrap(), sub1.next_task().unwrap()];
        assert_eq!(output.next_timeout(Duration::ZERO), None);
        sub1.push_result(held1[0].seq, 30).unwrap();
        sub1.push_result(held1[1].seq, 40).unwrap();
        assert_eq!(output.next_timeout(Duration::ZERO), Some(Answer::Value(30)));
        assert_eq!(output.next_timeout(Duration::ZERO), Some(Answer::Value(40)));
        assert_eq!(output.next_timeout(Duration::ZERO), None, "the input has not said Done");
        assert!(sub1.next_task().is_none(), "the ask that finds the input exhausted");
        for _ in 0..2 {
            assert_eq!(output.next_timeout(Duration::ZERO), Some(Answer::Done));
        }
        sub0.complete();
        sub1.complete();

        let failed: ShardedLender<u64, u64> =
            ShardedLender::new(failing(StreamError::new("bad input")), 2, 2);
        let mut output = failed.output();
        assert_eq!(output.next_timeout(Duration::ZERO), None);
        assert!(failed.lend_on(1).next_task().is_none());
        for _ in 0..2 {
            assert!(matches!(output.next_timeout(Duration::ZERO), Some(Answer::Err(_))));
        }
        let sleeps = |lender: &ShardedLender<u64, u64>| -> usize {
            lender.lenders.iter().map(StreamLender::sleeps).sum()
        };
        assert_eq!((sleeps(&sharded), sleeps(&failed)), (0, 0), "a zero timeout never waits");
    }

    #[test]
    fn merge_asleep_before_a_chunk_boundary_crosses_it_on_the_in_order_result() {
        for timed in [false, true] {
            let (sharded, (mut sub0, held0), (mut sub1, held1)) = two_shards_holding_a_chunk_each();
            let consumer = parked_merge(&sharded, 0, timed);
            // Shard 1 finishes its whole chunk and shard 0 its second value:
            // nothing the merge can emit, and nobody sleeps on shard 1.
            sub1.push_result(held1[0].seq, 30).unwrap();
            sub1.push_result(held1[1].seq, 40).unwrap();
            sub0.push_result(held0[1].seq, 20).unwrap();
            assert!(consumer.try_recv().is_err(), "nothing to emit yet");
            // The result it waits for wakes it; it then crosses into shard
            // 1's chunk and finds those results without another wake-up.
            sub0.push_result(held0[0].seq, 10).unwrap();
            assert!(sub0.next_task().is_none(), "the ask that finds the input exhausted");
            assert_eq!(drained(consumer), vec![10, 20, 30, 40], "timed: {timed}");
            sub0.complete();
            sub1.complete();
        }
    }

    #[test]
    fn merge_asleep_after_a_chunk_boundary_is_woken_by_the_next_shard() {
        for timed in [false, true] {
            let (sharded, (mut sub0, held0), (mut sub1, held1)) = two_shards_holding_a_chunk_each();
            sub0.push_result(held0[0].seq, 10).unwrap();
            sub0.push_result(held0[1].seq, 20).unwrap();
            // The merge emits shard 0's chunk, crosses the boundary and
            // sleeps on shard 1's output.
            let consumer = parked_merge(&sharded, 1, timed);
            let signals = sharded.lenders[1].output_signals();
            sub1.push_result(held1[1].seq, 40).unwrap();
            assert_eq!(sharded.lenders[1].output_signals(), signals, "out of order: quiet");
            sub1.push_result(held1[0].seq, 30).unwrap();
            assert_eq!(sharded.lenders[1].output_signals(), signals + 1);
            assert!(sub1.next_task().is_none(), "the ask that finds the input exhausted");
            assert_eq!(drained(consumer), vec![10, 20, 30, 40], "timed: {timed}");
            sub0.complete();
            sub1.complete();
        }
    }
}
