//! The StreamLender (`pull-lend-stream`): Pando's core coordination
//! abstraction.
//!
//! A [`StreamLender`] consumes one input stream and *lends* its values to any
//! number of concurrent sub-streams — one per participating device — then
//! merges the results back into a single output stream. It encapsulates the
//! programming-model properties of paper Table 1:
//!
//! | Property | How it is provided |
//! |---|---|
//! | Streaming map | every input value is turned into exactly one output value |
//! | Ordered | outputs are emitted in the order of their inputs (reorder buffer) |
//! | Dynamic | [`StreamLender::lend`] may be called at any time |
//! | Unbounded | there is no a-priori limit on the number of sub-streams |
//! | Lazy | the input is only pulled when a sub-stream asks for work |
//! | Fault-tolerant | values borrowed by a crashed sub-stream are re-lent |
//! | Conservative | a value is lent to at most one sub-stream at a time |
//! | Adaptive | faster sub-streams ask more often and receive more values |
//!
//! The implementation mirrors Algorithm 1 of the paper: a sub-stream `ask` is
//! answered first from the *failed* queue, then by lazily pulling the lender's
//! input, and otherwise waits until either the last result has been received
//! or a failure makes a value available again.

use crate::error::StreamError;
use crate::protocol::{Answer, Request};
use crate::sink::Sink;
use crate::source::{BoxSource, Source};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A value lent to a sub-stream, tagged with its position in the input stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lend<T> {
    /// Position of the value in the input stream (0-based).
    pub seq: u64,
    /// The borrowed value.
    pub value: T,
}

impl<T> Lend<T> {
    /// Creates a lend record.
    pub fn new(seq: u64, value: T) -> Self {
        Self { seq, value }
    }

    /// Maps the carried value, keeping the sequence number.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Lend<U> {
        Lend { seq: self.seq, value: f(self.value) }
    }
}

/// Identifier of a sub-stream, unique within one [`StreamLender`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubStreamId(u64);

impl SubStreamId {
    /// The numeric value of the identifier.
    pub fn index(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for SubStreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sub-{}", self.0)
    }
}

/// How a sub-stream ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubStreamEnd {
    /// The sub-stream completed gracefully via [`SubStream::complete`].
    Completed,
    /// The sub-stream crashed (dropped or explicitly failed); its borrowed
    /// values were re-lent to other sub-streams.
    Crashed,
}

/// Aggregate statistics observed by a [`StreamLender`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LenderStats {
    /// Number of values read from the input so far.
    pub values_read: u64,
    /// Number of results emitted on the output so far.
    pub results_emitted: u64,
    /// Number of lends performed (including re-lends after failures).
    pub lends: u64,
    /// Number of values that had to be re-lent because a sub-stream crashed.
    pub relends: u64,
    /// Number of sub-streams created so far.
    pub substreams_created: u64,
    /// Number of sub-streams that completed gracefully.
    pub substreams_completed: u64,
    /// Number of sub-streams that crashed.
    pub substreams_crashed: u64,
}

struct State<T, R> {
    /// The upstream input source; `None` while checked out by a borrower.
    input: Option<BoxSource<T>>,
    input_checked_out: bool,
    input_done: bool,
    input_error: Option<StreamError>,
    /// Next sequence number to assign to a freshly read input value.
    next_seq: u64,
    /// Values borrowed by a sub-stream that crashed, awaiting re-lend.
    failed: VecDeque<Lend<T>>,
    /// Copy of every value currently lent, keyed by sequence number, so a
    /// crash can recover it.
    in_flight: HashMap<u64, T>,
    /// Which sub-stream currently holds which sequence numbers. A sub-stream
    /// is alive exactly while it has an entry in this map.
    borrowed_by: HashMap<SubStreamId, HashSet<u64>>,
    /// Results waiting to be emitted in order.
    results: BTreeMap<u64, R>,
    /// Next sequence number to emit on the output.
    emit_next: u64,
    /// Set once the output consumer aborts or the lender is shut down.
    output_closed: bool,
    next_substream_id: u64,
    stats: LenderStats,
}

/// Change callback registered with [`StreamLender::add_waker`]: invoked on
/// every lender state change: results arrived (once per
/// [`SubStreamSink::push_batch`]), a value became lendable or was emitted, a
/// sub-stream ended, the stream terminated.
pub type LenderWaker = Arc<dyn Fn() + Send + Sync>;

/// What the tests of the wake-up rules observe.
#[cfg(test)]
#[derive(Default)]
struct Probe {
    /// How often `output_ready` was signalled.
    output_signals: std::sync::atomic::AtomicUsize,
    /// How many waits on either condvar were begun. Bumped with the state
    /// lock held: a test that sees it move and then takes the lock knows the
    /// sleeper is inside its wait.
    sleeps: std::sync::atomic::AtomicUsize,
}

struct Shared<T, R> {
    state: Mutex<State<T, R>>,
    /// Where blocked *askers* sleep (a sub-stream in [`Shared::ask`], the
    /// input pump in `prefetch_one`): notified whenever work may have become
    /// available, the input was checked back in, or the stream terminated.
    changed: Condvar,
    /// Where the ordered *output* sleeps: signalled only by an event after
    /// which [`Shared::poll_output`] can answer — the result for `emit_next`
    /// was stored, the input reported `Done`/`Err`, the output closed or the
    /// lender shut down. Lends and out-of-order results do not touch it.
    output_ready: Condvar,
    #[cfg(test)]
    probe: Probe,
    /// External change callbacks, for event-driven consumers that cannot park
    /// on the condvar (a reactor multiplexing thousands of sub-streams).
    wakers: Mutex<Vec<LenderWaker>>,
}

impl<T, R> Shared<T, R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
{
    /// A state change askers and event-driven consumers may care about.
    fn notify(&self) {
        self.changed.notify_all();
        self.fire_wakers();
    }

    fn fire_wakers(&self) {
        let wakers = self.wakers.lock();
        for waker in wakers.iter() {
            waker();
        }
    }

    /// Wakes the ordered output: [`Shared::poll_output`] can answer now. All
    /// sleepers are woken — several [`LenderOutput`] handles may wait, and
    /// each re-polls under the lock.
    fn signal_output(&self) {
        #[cfg(test)]
        self.probe.output_signals.fetch_add(1, Ordering::SeqCst);
        self.output_ready.notify_all();
    }

    /// An asker's sleep: until `changed` is notified.
    fn wait_changed(&self, state: &mut MutexGuard<'_, State<T, R>>) {
        #[cfg(test)]
        self.probe.sleeps.fetch_add(1, Ordering::SeqCst);
        self.changed.wait(state);
    }

    /// The output's sleep: until `output_ready` is signalled or `deadline`
    /// passes; `true` if it passed.
    fn wait_output(
        &self,
        state: &mut MutexGuard<'_, State<T, R>>,
        deadline: Option<Instant>,
    ) -> bool {
        #[cfg(test)]
        self.probe.sleeps.fetch_add(1, Ordering::SeqCst);
        match deadline {
            Some(deadline) => self.output_ready.wait_until(state, deadline).timed_out(),
            None => {
                self.output_ready.wait(state);
                false
            }
        }
    }

    fn register_sub(&self) -> SubStreamId {
        let mut state = self.state.lock();
        let id = SubStreamId(state.next_substream_id);
        state.next_substream_id += 1;
        state.stats.substreams_created += 1;
        state.borrowed_by.insert(id, HashSet::new());
        drop(state);
        self.notify();
        id
    }

    /// The sub-stream `ask` of Algorithm 1.
    fn ask(&self, id: SubStreamId) -> Answer<Lend<T>> {
        let mut state = self.state.lock();
        loop {
            if state.output_closed || !state.borrowed_by.contains_key(&id) {
                return Answer::Done;
            }
            // 1. Answer with a failed value if one is pending.
            if let Some(lend) = Self::lend_from_failed(&mut state, id) {
                drop(state);
                self.notify();
                return Answer::Value(lend);
            }
            // 2. Lazily read a new value from the input.
            if !state.input_done {
                if !state.input_checked_out {
                    if let Some(lend) = self.pull_input_locked(&mut state, id) {
                        drop(state);
                        self.notify();
                        return Answer::Value(lend);
                    }
                    // Input terminated or nothing produced: loop to re-check.
                    continue;
                }
                // Another sub-stream is reading the input: wait for it.
                self.wait_changed(&mut state);
                continue;
            }
            // 3. Input exhausted: wait on others (a crash may still re-lend a
            //    value) unless everything has been resolved.
            if state.in_flight.is_empty() && state.failed.is_empty() {
                return Answer::Done;
            }
            self.wait_changed(&mut state);
        }
    }

    /// Non-blocking ask: `None` means "nothing available right now". The
    /// input is only consulted through [`Source::try_pull`], so an
    /// interactive input (a stubborn queue, a network endpoint) never blocks
    /// a caller that is merely coalescing a batch — blocking there could
    /// deadlock on a value the caller has borrowed but not yet sent.
    fn try_ask(&self, id: SubStreamId) -> Option<Lend<T>> {
        match self.try_ask_status(id) {
            Some(Answer::Value(lend)) => Some(lend),
            _ => None,
        }
    }

    /// Non-blocking ask that distinguishes "would block" from termination:
    /// `None` means nothing is available *right now* but more may come,
    /// `Some(Answer::Done)` means this sub-stream will never receive another
    /// value — exactly when the blocking [`Shared::ask`] would return `Done`.
    /// An event-driven dispatcher needs the distinction to know when to close
    /// its channel instead of waiting for a wake-up that never comes.
    fn try_ask_status(&self, id: SubStreamId) -> Option<Answer<Lend<T>>> {
        let mut state = self.state.lock();
        if state.output_closed || !state.borrowed_by.contains_key(&id) {
            return Some(Answer::Done);
        }
        if let Some(lend) = Self::lend_from_failed(&mut state, id) {
            drop(state);
            self.notify();
            return Some(Answer::Value(lend));
        }
        if state.input_done {
            // Same termination rule as the blocking ask: nothing in flight
            // anywhere and nothing waiting to be re-lent means no value can
            // ever appear again.
            if state.in_flight.is_empty() && state.failed.is_empty() {
                return Some(Answer::Done);
            }
            return None;
        }
        if state.input_checked_out {
            return None;
        }
        match self.pull_input_locked_with(&mut state, id, |input| input.try_pull()) {
            // The input would have to wait.
            None => None,
            Some(Some(lend)) => {
                drop(state);
                self.notify();
                Some(Answer::Value(lend))
            }
            // The input answered with a termination (or the value was
            // recovered because this sub-stream died mid-ask): re-evaluate,
            // which may now report Done.
            Some(None) => {
                if state.input_done && state.in_flight.is_empty() && state.failed.is_empty() {
                    return Some(Answer::Done);
                }
                None
            }
        }
    }

    fn lend_from_failed(
        state: &mut MutexGuard<'_, State<T, R>>,
        id: SubStreamId,
    ) -> Option<Lend<T>> {
        let lend = state.failed.pop_front()?;
        state.in_flight.insert(lend.seq, lend.value.clone());
        state
            .borrowed_by
            .get_mut(&id)
            .expect("caller checked the sub-stream is alive")
            .insert(lend.seq);
        state.stats.lends += 1;
        Some(lend)
    }

    /// Pulls the input while temporarily releasing the lock, so a slow input
    /// (for example standard input) does not block other sub-streams that
    /// could be answered from the failed queue.
    fn pull_input_locked(
        &self,
        state: &mut MutexGuard<'_, State<T, R>>,
        id: SubStreamId,
    ) -> Option<Lend<T>> {
        self.pull_input_locked_with(state, id, |input| Some(input.pull(Request::Ask)))
            .expect("blocking pull always answers")
    }

    /// Shared body of the blocking and non-blocking input reads: checks the
    /// input out, asks it through `ask` with the lock released, and books the
    /// answer. The outer `Option` is `None` only when `ask` reported "would
    /// block" (the input is left untouched).
    fn pull_input_locked_with(
        &self,
        state: &mut MutexGuard<'_, State<T, R>>,
        id: SubStreamId,
        ask: impl FnOnce(&mut BoxSource<T>) -> Option<Answer<T>>,
    ) -> Option<Option<Lend<T>>> {
        let mut input = state.input.take().expect("input present when not checked out");
        state.input_checked_out = true;
        let answer = MutexGuard::unlocked(state, || ask(&mut input));
        state.input = Some(input);
        state.input_checked_out = false;
        // The input is back: wake askers that waited for it so they re-try
        // it themselves (or see what this pull booked below — a termination,
        // a value recovered into the re-lend pool). Only the condvar fires —
        // not the external wakers: if the input would have had to wait no
        // value became available, and a waker fire here would re-kick the
        // very dispatcher whose failed ask we are reporting (a kick/ask/kick
        // busy loop).
        self.changed.notify_all();
        Some(match answer? {
            Answer::Value(value) => {
                let seq = state.next_seq;
                state.next_seq += 1;
                state.stats.values_read += 1;
                state.stats.lends += 1;
                state.in_flight.insert(seq, value.clone());
                // The asking sub-stream may have ended while the lock was
                // released (its channel died mid-ask). Re-lend in that case.
                match state.borrowed_by.get_mut(&id) {
                    Some(borrowed) => {
                        borrowed.insert(seq);
                        Some(Lend::new(seq, value))
                    }
                    None => {
                        let recovered =
                            state.in_flight.remove(&seq).expect("value inserted just above");
                        state.failed.push_back(Lend::new(seq, recovered));
                        state.stats.relends += 1;
                        None
                    }
                }
            }
            Answer::Done => {
                self.end_input(state, None);
                None
            }
            Answer::Err(err) => {
                self.end_input(state, Some(err));
                None
            }
        })
    }

    /// Books the end of the input. The output may be drained now: wake it.
    fn end_input(&self, state: &mut State<T, R>, error: Option<StreamError>) {
        state.input_done = true;
        state.input_error = error;
        self.signal_output();
    }

    /// Reads one value from the input, which the caller found checked in,
    /// and stages it in the re-lend pool; `false` if the input ended instead.
    fn prefetch_locked(&self, mut state: MutexGuard<'_, State<T, R>>) -> bool {
        let mut input = state.input.take().expect("input present when not checked out");
        state.input_checked_out = true;
        let answer = MutexGuard::unlocked(&mut state, || input.pull(Request::Ask));
        state.input = Some(input);
        state.input_checked_out = false;
        let produced = match answer {
            Answer::Value(value) => {
                let seq = state.next_seq;
                state.next_seq += 1;
                state.stats.values_read += 1;
                // Staged, not lent: the value waits in the re-lend pool until
                // a sub-stream asks, so `lends` is counted at hand-out time.
                state.failed.push_back(Lend::new(seq, value));
                true
            }
            Answer::Done => {
                self.end_input(&mut state, None);
                false
            }
            Answer::Err(err) => {
                self.end_input(&mut state, Some(err));
                false
            }
        };
        drop(state);
        self.notify();
        produced
    }

    /// Returns a frame's worth of results to the lender under one lock
    /// acquisition. The conservative rule is applied per record: a result
    /// for a value `id` no longer borrows (it was re-lent after a crash
    /// verdict, or answered twice) is skipped, the rest are stored. Returns
    /// how many were stored and why the first skipped one was refused.
    ///
    /// Askers and wakers hear about it once, the ordered output only if the
    /// result it is waiting for — `emit_next` — was among them. `records` is
    /// iterated with the lock held: it must not block or call back in.
    fn push_results(
        &self,
        id: SubStreamId,
        records: impl IntoIterator<Item = (u64, R)>,
    ) -> (usize, Option<StreamError>) {
        let mut guard = self.state.lock();
        let state = &mut *guard;
        let mut accepted = 0;
        let mut refused = None;
        let mut output_can_answer = false;
        for (seq, result) in records {
            let Some(borrowed) = state.borrowed_by.get_mut(&id) else {
                refused.get_or_insert_with(|| StreamError::protocol("sub-stream already ended"));
                break;
            };
            if !borrowed.remove(&seq) {
                refused.get_or_insert_with(|| {
                    StreamError::protocol(format!(
                        "result for value {seq} that was not borrowed by {id}"
                    ))
                });
                continue;
            }
            state.in_flight.remove(&seq);
            state.results.insert(seq, result);
            output_can_answer |= seq == state.emit_next;
            accepted += 1;
        }
        drop(guard);
        if output_can_answer {
            self.signal_output();
        }
        if accepted > 0 {
            self.notify();
        }
        (accepted, refused)
    }

    fn push_result(&self, id: SubStreamId, seq: u64, result: R) -> Result<(), StreamError> {
        match self.push_results(id, [(seq, result)]) {
            (_, Some(refusal)) => Err(refusal),
            _ => Ok(()),
        }
    }

    /// Ends a sub-stream; returns `false` if it had already ended.
    fn end_sub(&self, id: SubStreamId, how: SubStreamEnd) -> bool {
        let mut state = self.state.lock();
        let Some(borrowed) = state.borrowed_by.remove(&id) else {
            return false;
        };
        // Re-lend in input order: a hash set iterates in a per-process
        // random order, which would make two same-seed simulations diverge.
        let mut borrowed: Vec<u64> = borrowed.into_iter().collect();
        borrowed.sort_unstable();
        for seq in borrowed {
            if let Some(value) = state.in_flight.remove(&seq) {
                state.failed.push_back(Lend::new(seq, value));
                state.stats.relends += 1;
            }
        }
        match how {
            SubStreamEnd::Completed => state.stats.substreams_completed += 1,
            SubStreamEnd::Crashed => state.stats.substreams_crashed += 1,
        }
        drop(state);
        self.notify();
        true
    }

    fn borrowed_count(&self, id: SubStreamId) -> usize {
        self.state.lock().borrowed_by.get(&id).map(HashSet::len).unwrap_or(0)
    }

    fn poll_output(state: &mut MutexGuard<'_, State<T, R>>) -> Option<Answer<R>> {
        if state.output_closed {
            return Some(Answer::Done);
        }
        let emit_next = state.emit_next;
        if let Some(result) = state.results.remove(&emit_next) {
            state.emit_next += 1;
            state.stats.results_emitted += 1;
            return Some(Answer::Value(result));
        }
        let drained = state.input_done
            && state.in_flight.is_empty()
            && state.failed.is_empty()
            && state.results.is_empty()
            && state.emit_next == state.next_seq;
        if drained {
            return Some(match state.input_error.clone() {
                Some(err) => Answer::Err(err),
                None => Answer::Done,
            });
        }
        None
    }

    /// The one emit path of [`LenderOutput`]: polls the ordered output under
    /// `state`, sleeping between polls until it answers or `timeout` runs out
    /// (`None`: never). The clock is read only once a sleep is certain — a
    /// zero timeout, or an answer that is already there, reads none. Every
    /// answer fires the external wakers, with the lock released.
    fn next_output(
        &self,
        mut state: MutexGuard<'_, State<T, R>>,
        timeout: Option<Duration>,
    ) -> Option<Answer<R>> {
        let mut deadline = None;
        let mut timed_out = timeout == Some(Duration::ZERO);
        let answer = loop {
            let answer = Self::poll_output(&mut state);
            if answer.is_some() || timed_out {
                break answer;
            }
            if deadline.is_none() {
                deadline = timeout.map(|timeout| Instant::now() + timeout);
            }
            timed_out = self.wait_output(&mut state, deadline);
        };
        drop(state);
        if answer.is_some() {
            // An emit changes nothing an asker waits for (`results`,
            // `emit_next`), so `changed` stays quiet; event-driven consumers
            // hear of it as they always did.
            self.fire_wakers();
        }
        answer
    }
}

/// Splits an input stream between concurrent sub-streams and merges the
/// results back in input order. See the [module documentation](self) for the
/// properties it provides and the crate documentation for a full example.
pub struct StreamLender<T, R> {
    shared: Arc<Shared<T, R>>,
}

impl<T, R> Clone for StreamLender<T, R> {
    fn clone(&self) -> Self {
        Self { shared: self.shared.clone() }
    }
}

impl<T, R> std::fmt::Debug for StreamLender<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.state.lock();
        f.debug_struct("StreamLender")
            .field("next_seq", &state.next_seq)
            .field("emit_next", &state.emit_next)
            .field("input_done", &state.input_done)
            .field("active_substreams", &state.borrowed_by.len())
            .field("failed", &state.failed.len())
            .field("in_flight", &state.in_flight.len())
            .finish()
    }
}

impl<T, R> StreamLender<T, R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
{
    /// Creates a lender over `input`.
    pub fn new(input: impl Source<T> + 'static) -> Self {
        Self {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    input: Some(Box::new(input)),
                    input_checked_out: false,
                    input_done: false,
                    input_error: None,
                    next_seq: 0,
                    failed: VecDeque::new(),
                    in_flight: HashMap::new(),
                    borrowed_by: HashMap::new(),
                    results: BTreeMap::new(),
                    emit_next: 0,
                    output_closed: false,
                    next_substream_id: 0,
                    stats: LenderStats::default(),
                }),
                changed: Condvar::new(),
                output_ready: Condvar::new(),
                #[cfg(test)]
                probe: Probe::default(),
                wakers: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Registers a change callback invoked on every state change of the
    /// lender (a result arrived, a value became lendable, a sub-stream ended,
    /// the stream terminated). This is the waker hook used by event-driven
    /// consumers — for example a reactor that must re-poll starved
    /// sub-streams — instead of parking on the internal condvar.
    ///
    /// The callback must be cheap and must not call back into the lender or
    /// register further wakers.
    pub fn add_waker(&self, waker: LenderWaker) {
        self.shared.wakers.lock().push(waker);
    }

    /// Downgrades this handle to a [`WeakLender`] that does not keep the
    /// lender alive. Used by composite structures (the
    /// [`ShardedLender`](crate::shard::ShardedLender) splitter) that must
    /// reference their lenders without creating a reference cycle.
    pub fn downgrade(&self) -> WeakLender<T, R> {
        WeakLender { shared: Arc::downgrade(&self.shared) }
    }

    /// Returns `true` once the lender was shut down (explicitly or because
    /// its output consumer aborted): sub-streams are told `Done` on their
    /// next ask and no further value will ever be lent.
    pub fn is_shut_down(&self) -> bool {
        self.shared.state.lock().output_closed
    }

    /// Reads one value from the input — blocking if the input needs time —
    /// and stages it in the re-lend pool, where the next sub-stream ask picks
    /// it up. Returns `false` once no further value will ever be produced
    /// (input exhausted or errored, or the output closed).
    ///
    /// This is the *input pump* hook for event-driven deployments: reactor
    /// threads must never block, so when a sub-stream starves on an input
    /// that only answers blocking pulls (an interactive queue, a feedback
    /// loop), `prefetch_one` is called on demand — by a dedicated pump
    /// thread per shard in threaded deployments, or synchronously by the
    /// scheduler loop of the deterministic fleet simulator. Demand-driven
    /// pumping keeps the input lazy: at most the number of values actually
    /// asked for is read ahead.
    pub fn prefetch_one(&self) -> bool {
        let shared = &self.shared;
        let mut state = shared.state.lock();
        loop {
            if state.output_closed || state.input_done {
                return false;
            }
            if !state.input_checked_out {
                break;
            }
            // Another thread holds the input; wait for it to come back.
            shared.wait_changed(&mut state);
        }
        shared.prefetch_locked(state)
    }

    /// Like [`StreamLender::prefetch_one`] but never waits for the input:
    /// if it is currently checked out by another caller, returns `false`
    /// immediately — the holder observes any state change itself when its
    /// pull returns. Intended for termination broadcasts, where the input
    /// is known to answer instantly once the end has been recorded.
    pub fn try_prefetch_one(&self) -> bool {
        let state = self.shared.state.lock();
        if state.output_closed || state.input_done || state.input_checked_out {
            return false;
        }
        self.shared.prefetch_locked(state)
    }

    /// Creates a new sub-stream. Sub-streams may be created at any time, even
    /// while other sub-streams are processing values (the *dynamic* property).
    pub fn lend(&self) -> SubStream<T, R> {
        let id = self.shared.register_sub();
        SubStream { shared: self.shared.clone(), id, ended: false }
    }

    /// Returns the ordered output stream of results.
    ///
    /// The output may be consumed from any thread; it blocks while waiting for
    /// the next in-order result.
    pub fn output(&self) -> LenderOutput<T, R> {
        LenderOutput { shared: self.shared.clone() }
    }

    /// A snapshot of the lender's counters.
    pub fn stats(&self) -> LenderStats {
        self.shared.state.lock().stats.clone()
    }

    /// Number of sub-streams currently alive.
    pub fn active_substreams(&self) -> usize {
        self.shared.state.lock().borrowed_by.len()
    }

    /// Number of values currently lent out and not yet returned.
    pub fn in_flight(&self) -> usize {
        self.shared.state.lock().in_flight.len()
    }

    /// Number of values waiting to be re-lent after a sub-stream crash.
    pub fn failed_pending(&self) -> usize {
        self.shared.state.lock().failed.len()
    }

    /// Returns `true` once the input is exhausted and every read value has
    /// been emitted on the output.
    pub fn is_drained(&self) -> bool {
        let state = self.shared.state.lock();
        state.input_done
            && state.in_flight.is_empty()
            && state.failed.is_empty()
            && state.results.is_empty()
            && state.emit_next == state.next_seq
    }

    /// Shuts the lender down: the output terminates after the values already
    /// emitted, and sub-streams are told `Done` on their next ask.
    pub fn shutdown(&self) {
        let mut state = self.shared.state.lock();
        state.output_closed = true;
        drop(state);
        self.shared.signal_output();
        self.shared.notify();
    }
}

/// A non-owning handle on a [`StreamLender`], created by
/// [`StreamLender::downgrade`]. Upgrading yields the lender again as long as
/// at least one strong handle is still alive.
pub struct WeakLender<T, R> {
    shared: std::sync::Weak<Shared<T, R>>,
}

impl<T, R> Clone for WeakLender<T, R> {
    fn clone(&self) -> Self {
        Self { shared: self.shared.clone() }
    }
}

impl<T, R> std::fmt::Debug for WeakLender<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WeakLender").finish_non_exhaustive()
    }
}

impl<T, R> WeakLender<T, R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
{
    /// Attempts to upgrade to a strong [`StreamLender`] handle.
    pub fn upgrade(&self) -> Option<StreamLender<T, R>> {
        self.shared.upgrade().map(|shared| StreamLender { shared })
    }
}

/// A sub-stream lent to one participating device.
///
/// The device-facing loop is: call [`SubStream::next_task`] to borrow a value,
/// process it, then call [`SubStream::push_result`]. Dropping the sub-stream
/// without calling [`SubStream::complete`] is treated as a crash: every value
/// it still holds is re-lent to other sub-streams (crash-stop fault model).
pub struct SubStream<T, R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
{
    shared: Arc<Shared<T, R>>,
    id: SubStreamId,
    ended: bool,
}

impl<T, R> std::fmt::Debug for SubStream<T, R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubStream").field("id", &self.id).field("ended", &self.ended).finish()
    }
}

impl<T, R> SubStream<T, R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
{
    /// The identifier of this sub-stream.
    pub fn id(&self) -> SubStreamId {
        self.id
    }

    /// Borrows the next value to process, blocking until one is available.
    ///
    /// Returns `None` when no value will ever be available again (the input is
    /// exhausted and every outstanding value has produced a result), at which
    /// point the device should disconnect or the caller should invoke
    /// [`SubStream::complete`].
    pub fn next_task(&mut self) -> Option<Lend<T>> {
        match self.ask() {
            Answer::Value(lend) => Some(lend),
            _ => None,
        }
    }

    /// Non-blocking variant of [`SubStream::next_task`]: returns immediately
    /// with `None` if no value is available right now (the stream may still
    /// produce more later).
    pub fn try_next_task(&mut self) -> Option<Lend<T>> {
        if self.ended {
            return None;
        }
        self.shared.try_ask(self.id)
    }

    /// Non-blocking ask that also reports termination: `None` means "would
    /// block" (a wake-up will follow when the state changes),
    /// `Some(Answer::Done)` means no value will ever be available again —
    /// the same condition under which [`SubStream::ask`] answers `Done`.
    pub fn poll_task(&mut self) -> Option<Answer<Lend<T>>> {
        if self.ended {
            return Some(Answer::Done);
        }
        self.shared.try_ask_status(self.id)
    }

    /// The pull-stream `ask` on the sub-stream's task source, following the
    /// paper's Algorithm 1.
    pub fn ask(&mut self) -> Answer<Lend<T>> {
        if self.ended {
            return Answer::Done;
        }
        self.shared.ask(self.id)
    }

    /// Returns the result for a previously borrowed value.
    ///
    /// # Errors
    ///
    /// Returns a protocol error if `seq` was not borrowed by this sub-stream
    /// (for example it was already returned, or it was re-lent to another
    /// sub-stream after this one was considered crashed).
    pub fn push_result(&mut self, seq: u64, result: R) -> Result<(), StreamError> {
        if self.ended {
            return Err(StreamError::protocol("sub-stream already ended"));
        }
        self.shared.push_result(self.id, seq, result)
    }

    /// Ends the sub-stream gracefully. Values still borrowed (for example
    /// sitting in a network buffer) are re-lent to other sub-streams.
    pub fn complete(mut self) {
        self.end(SubStreamEnd::Completed);
    }

    /// Ends the sub-stream as crashed, explicitly. Equivalent to dropping it.
    pub fn fail(mut self) {
        self.end(SubStreamEnd::Crashed);
    }

    fn end(&mut self, how: SubStreamEnd) {
        if self.ended {
            return;
        }
        self.ended = true;
        self.shared.end_sub(self.id, how);
    }

    /// Number of values currently borrowed by this sub-stream.
    pub fn borrowed(&self) -> usize {
        self.shared.borrowed_count(self.id)
    }

    /// Splits the sub-stream into a pull-stream source of tasks and sink of
    /// results, the duplex shape used to wire a sub-stream to a network
    /// channel (paper Figure 9).
    pub fn into_duplex(mut self) -> (SubStreamSource<T, R>, SubStreamSink<T, R>) {
        // Ownership of the end-of-life decision moves to the guard shared by
        // the two halves, so disarm the `Drop` of `self`.
        self.ended = true;
        let guard = Arc::new(SubGuard {
            shared: self.shared.clone(),
            id: self.id,
            ended_clean: AtomicBool::new(false),
        });
        (SubStreamSource { guard: guard.clone() }, SubStreamSink { guard })
    }
}

impl<T, R> Drop for SubStream<T, R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
{
    fn drop(&mut self) {
        self.end(SubStreamEnd::Crashed);
    }
}

/// Shared end-of-life guard for the two duplex halves of a sub-stream.
struct SubGuard<T, R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
{
    shared: Arc<Shared<T, R>>,
    id: SubStreamId,
    ended_clean: AtomicBool,
}

impl<T, R> Drop for SubGuard<T, R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
{
    fn drop(&mut self) {
        let how = if self.ended_clean.load(Ordering::SeqCst) {
            SubStreamEnd::Completed
        } else {
            SubStreamEnd::Crashed
        };
        self.shared.end_sub(self.id, how);
    }
}

/// The sub-stream's task source as a pull-stream [`Source`], for composing
/// with channels and the [`Limiter`](crate::limit::Limiter).
pub struct SubStreamSource<T, R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
{
    guard: Arc<SubGuard<T, R>>,
}

impl<T, R> SubStreamSource<T, R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
{
    /// Non-blocking pull: returns immediately with `None` when no value is
    /// available right now (more may arrive later). Used by the batching
    /// dispatcher to coalesce whatever is ready into one frame without
    /// stalling on values that are still in flight elsewhere.
    pub fn try_pull(&mut self) -> Option<Lend<T>> {
        self.guard.shared.try_ask(self.guard.id)
    }

    /// Non-blocking pull that also reports termination, the shape an
    /// event-driven dispatcher needs: `None` means "would block" (poll again
    /// after the lender's waker fires), `Some(Answer::Done)` means this
    /// sub-stream will never be handed another value, so the dispatcher can
    /// close its channel.
    pub fn poll_pull(&mut self) -> Option<Answer<Lend<T>>> {
        self.guard.shared.try_ask_status(self.guard.id)
    }
}

impl<T, R> Source<Lend<T>> for SubStreamSource<T, R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
{
    fn pull(&mut self, request: Request) -> Answer<Lend<T>> {
        if request.is_termination() {
            // Termination of the task flow alone does not end the sub-stream:
            // results may still be arriving on the other half.
            return Answer::Done;
        }
        self.guard.shared.ask(self.guard.id)
    }
}

/// The sub-stream's result sink as a pull-stream [`Sink`].
///
/// Draining a source of `Lend<R>` into this sink returns each result to the
/// lender. When the drained source terminates, the sub-stream ends: gracefully
/// on a clean `Done`, with crash semantics on an error.
pub struct SubStreamSink<T, R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
{
    guard: Arc<SubGuard<T, R>>,
}

impl<T, R> SubStreamSink<T, R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
{
    /// Returns one result to the lender without draining a source, the shape
    /// used by a receive loop that demultiplexes batched result frames.
    ///
    /// A late result for a value that was already re-lent elsewhere is
    /// reported as a protocol error; callers following the conservative
    /// property simply drop it (the other copy is authoritative).
    ///
    /// # Errors
    ///
    /// Returns a protocol error if `seq` is not currently borrowed by this
    /// sub-stream.
    pub fn push(&self, seq: u64, result: R) -> Result<(), StreamError> {
        self.guard.shared.push_result(self.guard.id, seq, result)
    }

    /// Returns the `(seq, result)` records of one frame to the lender at
    /// once — one lock acquisition and at most one wake-up of the ordered
    /// output, however many records the frame carries — and reports how
    /// many were accepted. [`SubStreamSink::push`] is the one-record case.
    ///
    /// A late record (see [`SubStreamSink::push`]) is skipped, not an error
    /// for the frame: the records around it are accepted. `records` is
    /// consumed with the lender locked, so it must be a plain in-memory
    /// iterator.
    pub fn push_batch(&self, records: impl IntoIterator<Item = (u64, R)>) -> usize {
        self.guard.shared.push_results(self.guard.id, records).0
    }

    /// Ends the sub-stream explicitly: gracefully when `clean`, with crash
    /// semantics (borrowed values re-lent) otherwise. Idempotent with the
    /// guard's drop-based end-of-life.
    pub fn finish(&self, clean: bool) {
        if clean {
            self.guard.ended_clean.store(true, Ordering::SeqCst);
            self.guard.shared.end_sub(self.guard.id, SubStreamEnd::Completed);
        } else {
            self.guard.shared.end_sub(self.guard.id, SubStreamEnd::Crashed);
        }
    }
}

impl<T, R> Sink<Lend<R>> for SubStreamSink<T, R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
{
    fn drain(&mut self, mut source: BoxSource<Lend<R>>) -> Result<(), StreamError> {
        loop {
            match source.pull(Request::Ask) {
                Answer::Value(lend) => {
                    // A late result for a value that was already re-lent is
                    // dropped: the conservative property means the other copy
                    // is authoritative.
                    let _ = self.guard.shared.push_result(self.guard.id, lend.seq, lend.value);
                }
                Answer::Done => {
                    self.guard.ended_clean.store(true, Ordering::SeqCst);
                    self.guard.shared.end_sub(self.guard.id, SubStreamEnd::Completed);
                    return Ok(());
                }
                Answer::Err(err) => {
                    self.guard.shared.end_sub(self.guard.id, SubStreamEnd::Crashed);
                    return Err(err);
                }
            }
        }
    }
}

/// The ordered output stream of a [`StreamLender`]. Implements [`Source`].
pub struct LenderOutput<T, R> {
    shared: Arc<Shared<T, R>>,
}

impl<T, R> std::fmt::Debug for LenderOutput<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LenderOutput").finish_non_exhaustive()
    }
}

impl<T, R> LenderOutput<T, R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
{
    /// Pulls the next in-order result, waiting at most `timeout`.
    ///
    /// Returns `None` on timeout; the stream is left untouched, so the caller
    /// may retry. Useful for monitors that interleave other work.
    pub fn next_timeout(&mut self, timeout: Duration) -> Option<Answer<R>> {
        self.shared.next_output(self.shared.state.lock(), Some(timeout))
    }
}

impl<T, R> Source<R> for LenderOutput<T, R>
where
    T: Clone + Send + 'static,
    R: Send + 'static,
{
    fn pull(&mut self, request: Request) -> Answer<R> {
        let mut state = self.shared.state.lock();
        if request.is_termination() {
            state.output_closed = true;
            state.input_done = true;
            // Release the upstream input if it is resting in place.
            if let Some(mut input) = state.input.take() {
                MutexGuard::unlocked(&mut state, || {
                    let _ = input.pull(Request::Abort);
                });
                state.input = Some(input);
            }
            drop(state);
            self.shared.signal_output();
            self.shared.notify();
            return match request {
                Request::Fail(err) => Answer::Err(err),
                _ => Answer::Done,
            };
        }
        self.shared.next_output(state, None).expect("without a timeout the wait ends in an answer")
    }
}

/// What the wake-up tests of this module and of [`crate::shard`] read.
#[cfg(test)]
impl<T, R> StreamLender<T, R> {
    /// Waits begun inside this lender so far.
    pub(crate) fn sleeps(&self) -> usize {
        self.shared.probe.sleeps.load(Ordering::SeqCst)
    }

    /// How often the ordered output was signalled so far.
    pub(crate) fn output_signals(&self) -> usize {
        self.shared.probe.output_signals.load(Ordering::SeqCst)
    }

    /// Returns once a thread has begun a wait since `sleeps_before` was read
    /// and is inside it: the probe moves with the state lock held, so taking
    /// that lock after seeing it move finds the sleeper parked.
    pub(crate) fn await_sleeper(&self, sleeps_before: usize) {
        while self.sleeps() <= sleeps_before {
            std::thread::yield_now();
        }
        drop(self.shared.state.lock());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{count, failing, SourceExt};
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
    fn single_substream_processes_everything_in_order() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(50));
        let worker = square_worker(lender.lend());
        let output = lender.output().collect_values().unwrap();
        assert_eq!(worker.join().unwrap(), 50);
        assert_eq!(output, (1..=50u64).map(|x| x * x).collect::<Vec<_>>());
        let stats = lender.stats();
        assert_eq!(stats.values_read, 50);
        assert_eq!(stats.results_emitted, 50);
        assert_eq!(stats.substreams_completed, 1);
        assert_eq!(stats.substreams_crashed, 0);
        assert_eq!(stats.relends, 0);
        assert!(lender.is_drained());
    }

    #[test]
    fn many_substreams_share_the_work() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(200));
        let workers: Vec<_> = (0..4).map(|_| square_worker(lender.lend())).collect();
        let output = lender.output().collect_values().unwrap();
        let processed: Vec<u64> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        assert_eq!(processed.iter().sum::<u64>(), 200, "every value processed exactly once");
        assert_eq!(output, (1..=200u64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_terminates_immediately() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(0));
        let worker = square_worker(lender.lend());
        let output = lender.output().collect_values().unwrap();
        assert!(output.is_empty());
        assert_eq!(worker.join().unwrap(), 0);
    }

    #[test]
    fn output_without_any_substream_waits_until_one_joins() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(5));
        let output_handle = {
            let output = lender.output();
            thread::spawn(move || output.collect_values().unwrap())
        };
        // Give the output thread time to start waiting with no device around.
        thread::sleep(Duration::from_millis(30));
        let worker = square_worker(lender.lend());
        assert_eq!(output_handle.join().unwrap(), vec![1, 4, 9, 16, 25]);
        worker.join().unwrap();
    }

    #[test]
    fn crashed_substream_values_are_relent() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(10));
        // First sub-stream borrows eight values and crashes without answering.
        let mut doomed = lender.lend();
        let seqs: Vec<u64> = (0..8).map(|_| doomed.next_task().unwrap().seq).collect();
        assert_eq!(doomed.borrowed(), 8);
        assert_eq!(seqs, (0..8).collect::<Vec<_>>());
        drop(doomed); // crash-stop

        assert_eq!(lender.failed_pending(), 8);
        // They are re-lent in input order, the same in every process.
        let mut heir = lender.lend();
        let tasks: Vec<_> = (0..8).map(|_| heir.next_task().unwrap()).collect();
        assert_eq!(tasks.iter().map(|task| task.seq).collect::<Vec<_>>(), seqs);
        for task in tasks {
            heir.push_result(task.seq, task.value * task.value).unwrap();
        }
        let worker = square_worker(heir);
        let output = lender.output().collect_values().unwrap();
        worker.join().unwrap();
        assert_eq!(output, (1..=10u64).map(|x| x * x).collect::<Vec<_>>());
        let stats = lender.stats();
        assert_eq!(stats.relends, 8);
        assert_eq!(stats.substreams_crashed, 1);
        // Only 10 input values were ever read despite the crash (laziness +
        // conservative re-lend, not re-read).
        assert_eq!(stats.values_read, 10);
    }

    #[test]
    fn graceful_complete_with_outstanding_values_relends_them() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(4));
        let mut polite = lender.lend();
        let task = polite.next_task().unwrap();
        assert_eq!(task.seq, 0);
        polite.complete(); // leaves without finishing its borrowed value
        assert_eq!(lender.failed_pending(), 1);
        let worker = square_worker(lender.lend());
        let output = lender.output().collect_values().unwrap();
        worker.join().unwrap();
        assert_eq!(output, vec![1, 4, 9, 16]);
        assert_eq!(lender.stats().substreams_completed, 2);
    }

    #[test]
    fn results_are_ordered_even_with_out_of_order_completion() {
        let lender: StreamLender<u64, String> = StreamLender::new(count(3));
        let mut sub = lender.lend();
        let a = sub.next_task().unwrap();
        let b = sub.next_task().unwrap();
        let c = sub.next_task().unwrap();
        // Push results out of order.
        sub.push_result(c.seq, format!("r{}", c.value)).unwrap();
        sub.push_result(a.seq, format!("r{}", a.value)).unwrap();
        sub.push_result(b.seq, format!("r{}", b.value)).unwrap();
        // One more ask discovers that the input is exhausted.
        assert!(sub.next_task().is_none());
        sub.complete();
        let output = lender.output().collect_values().unwrap();
        assert_eq!(output, vec!["r1", "r2", "r3"]);
    }

    #[test]
    fn push_result_for_unborrowed_value_is_rejected() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(3));
        let mut sub = lender.lend();
        let task = sub.next_task().unwrap();
        sub.push_result(task.seq, 1).unwrap();
        let err = sub.push_result(task.seq, 1).unwrap_err();
        assert!(err.is_protocol());
        let err = sub.push_result(99, 1).unwrap_err();
        assert!(err.is_protocol());
    }

    #[test]
    fn dynamic_join_mid_stream() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(100));
        let first = square_worker(lender.lend());
        // A second device joins while the first is already processing.
        thread::sleep(Duration::from_millis(5));
        let second = square_worker(lender.lend());
        let output = lender.output().collect_values().unwrap();
        first.join().unwrap();
        second.join().unwrap();
        assert_eq!(output.len(), 100);
        assert_eq!(lender.stats().substreams_created, 2);
    }

    #[test]
    fn input_is_read_lazily() {
        use std::sync::atomic::AtomicU64;
        let reads = Arc::new(AtomicU64::new(0));
        let reads_clone = reads.clone();
        let input = crate::source::infinite(move |i| {
            reads_clone.fetch_add(1, Ordering::SeqCst);
            i
        });
        let lender: StreamLender<u64, u64> = StreamLender::new(input);
        // Nothing is read until a sub-stream asks.
        thread::sleep(Duration::from_millis(10));
        assert_eq!(reads.load(Ordering::SeqCst), 0);
        let mut sub = lender.lend();
        let _ = sub.next_task().unwrap();
        let _ = sub.next_task().unwrap();
        assert_eq!(reads.load(Ordering::SeqCst), 2, "exactly as many reads as asks");
        sub.complete();
        lender.shutdown();
    }

    #[test]
    fn conservative_lending_no_duplicate_processing() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(500));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let mut sub = lender.lend();
            let seen = seen.clone();
            handles.push(thread::spawn(move || {
                while let Some(task) = sub.next_task() {
                    seen.lock().push(task.seq);
                    sub.push_result(task.seq, task.value).unwrap();
                }
                sub.complete();
            }));
        }
        let output = lender.output().collect_values().unwrap();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(output.len(), 500);
        let mut seqs = seen.lock().clone();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 500, "no value processed twice in a failure-free run");
    }

    #[test]
    fn adaptive_faster_substream_processes_more() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(300));
        let fast = {
            let mut sub = lender.lend();
            thread::spawn(move || {
                let mut n = 0u64;
                while let Some(task) = sub.next_task() {
                    sub.push_result(task.seq, task.value).unwrap();
                    n += 1;
                }
                sub.complete();
                n
            })
        };
        let slow = {
            let mut sub = lender.lend();
            thread::spawn(move || {
                let mut n = 0u64;
                while let Some(task) = sub.next_task() {
                    thread::sleep(Duration::from_millis(1));
                    sub.push_result(task.seq, task.value).unwrap();
                    n += 1;
                }
                sub.complete();
                n
            })
        };
        let output = lender.output().collect_values().unwrap();
        let fast_n = fast.join().unwrap();
        let slow_n = slow.join().unwrap();
        assert_eq!(output.len(), 300);
        assert_eq!(fast_n + slow_n, 300);
        assert!(
            fast_n > slow_n,
            "faster device must receive more values (fast={fast_n}, slow={slow_n})"
        );
    }

    #[test]
    fn input_error_is_propagated_after_pending_results() {
        let lender: StreamLender<u64, u64> =
            StreamLender::new(failing(StreamError::new("bad input")));
        let worker = square_worker(lender.lend());
        let err = lender.output().collect_values().unwrap_err();
        assert_eq!(err.message(), "bad input");
        worker.join().unwrap();
    }

    #[test]
    fn output_abort_shuts_everything_down() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(1_000_000));
        let mut sub = lender.lend();
        let task = sub.next_task().unwrap();
        sub.push_result(task.seq, task.value).unwrap();
        let mut output = lender.output();
        assert_eq!(output.pull(Request::Ask), Answer::Value(1));
        assert_eq!(output.pull(Request::Abort), Answer::Done);
        // The sub-stream is told Done on its next ask.
        assert!(sub.next_task().is_none());
        sub.complete();
    }

    #[test]
    fn shutdown_terminates_output() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(10));
        lender.shutdown();
        assert_eq!(lender.output().collect_values().unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn try_next_task_does_not_block() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(1));
        let mut a = lender.lend();
        let mut b = lender.lend();
        let task = a.next_task().unwrap();
        // Input exhausted and the only value is borrowed by `a`: `b` must not
        // block here.
        assert!(b.try_next_task().is_none());
        a.push_result(task.seq, 7).unwrap();
        a.complete();
        b.complete();
        assert_eq!(lender.output().collect_values().unwrap(), vec![7]);
    }

    #[test]
    fn poll_task_distinguishes_would_block_from_done() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(1));
        let mut a = lender.lend();
        let mut b = lender.lend();
        let Some(Answer::Value(task)) = a.poll_task() else {
            panic!("a value is immediately available");
        };
        // The only value is borrowed by `a`: `b` must report "would block",
        // not termination — the value may be re-lent if `a` crashes.
        assert!(b.poll_task().is_none());
        a.push_result(task.seq, 7).unwrap();
        // Input exhausted and nothing in flight: now it is truly Done.
        assert!(matches!(b.poll_task(), Some(Answer::Done)));
        assert!(matches!(a.poll_task(), Some(Answer::Done)));
        a.complete();
        b.complete();
        assert_eq!(lender.output().collect_values().unwrap(), vec![7]);
    }

    #[test]
    fn poll_pull_reports_done_after_shutdown() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(5));
        let (mut source, sink) = lender.lend().into_duplex();
        assert!(matches!(source.poll_pull(), Some(Answer::Value(_))));
        lender.shutdown();
        assert!(matches!(source.poll_pull(), Some(Answer::Done)));
        sink.finish(true);
    }

    /// Wakers a lender has fired, counted.
    fn counted_wakers(lender: &StreamLender<u64, u64>) -> Arc<std::sync::atomic::AtomicUsize> {
        let fired = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let counter = fired.clone();
        lender.add_waker(Arc::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }));
        fired
    }

    #[test]
    fn wakers_fire_on_state_changes() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(2));
        let wakeups = counted_wakers(&lender);
        let mut sub = lender.lend();
        let before = wakeups.load(Ordering::SeqCst);
        assert!(before >= 1, "registering a sub-stream is a state change");
        let task = sub.next_task().unwrap();
        assert!(wakeups.load(Ordering::SeqCst) > before, "a lend is a state change");
        let before = wakeups.load(Ordering::SeqCst);
        sub.push_result(task.seq, 1).unwrap();
        assert!(wakeups.load(Ordering::SeqCst) > before, "a result is a state change");
        sub.complete();
        lender.shutdown();
    }

    #[test]
    fn prefetch_stages_values_for_later_asks() {
        // An input that only answers blocking pulls, like an interactive
        // queue: try_pull conservatively reports "would block".
        let input = |request: Request| -> Answer<u64> {
            static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            if request.is_termination() {
                return Answer::Done;
            }
            let n = NEXT.fetch_add(1, Ordering::SeqCst);
            if n < 3 {
                Answer::Value(n)
            } else {
                Answer::Done
            }
        };
        let lender: StreamLender<u64, u64> = StreamLender::new(input);
        let mut sub = lender.lend();
        // Nothing available without the pump: the blanket FnMut source cannot
        // answer non-blocking asks.
        assert!(sub.poll_task().is_none());
        assert!(lender.prefetch_one());
        assert!(lender.prefetch_one());
        let a = sub.try_next_task().expect("prefetched value is available");
        let b = sub.try_next_task().expect("second prefetched value is available");
        assert_eq!((a.seq, b.seq), (0, 1));
        assert!(lender.prefetch_one());
        assert!(!lender.prefetch_one(), "the input is exhausted");
        let c = sub.next_task().unwrap();
        sub.push_result(a.seq, a.value).unwrap();
        sub.push_result(b.seq, b.value).unwrap();
        sub.push_result(c.seq, c.value).unwrap();
        assert!(matches!(sub.poll_task(), Some(Answer::Done)));
        sub.complete();
        assert_eq!(lender.output().collect_values().unwrap(), vec![0, 1, 2]);
        assert_eq!(lender.stats().values_read, 3);
        assert_eq!(lender.stats().relends, 0, "prefetching is not a re-lend");
    }

    #[test]
    fn next_timeout_returns_none_without_results() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(5));
        let mut output = lender.output();
        assert!(output.next_timeout(Duration::from_millis(20)).is_none());
        let _keep_alive = lender.lend();
    }

    #[test]
    fn zero_timeout_polls_the_output_without_ever_sleeping() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(2));
        let mut output = lender.output();
        let mut sub = lender.lend();
        assert_eq!(output.next_timeout(Duration::ZERO), None, "nothing lent yet");
        let (a, b) = (sub.next_task().unwrap(), sub.next_task().unwrap());
        sub.push_result(b.seq, 20).unwrap();
        assert_eq!(output.next_timeout(Duration::ZERO), None, "the in-order result is missing");
        sub.push_result(a.seq, 10).unwrap();
        assert_eq!(output.next_timeout(Duration::ZERO), Some(Answer::Value(10)));
        assert_eq!(output.next_timeout(Duration::ZERO), Some(Answer::Value(20)));
        assert_eq!(output.next_timeout(Duration::ZERO), None, "the input has not said Done");
        assert!(sub.next_task().is_none());
        for _ in 0..2 {
            assert_eq!(output.next_timeout(Duration::ZERO), Some(Answer::Done));
        }
        sub.complete();

        let failed: StreamLender<u64, u64> =
            StreamLender::new(failing(StreamError::new("bad input")));
        let mut output = failed.output();
        assert_eq!(output.next_timeout(Duration::ZERO), None);
        assert!(failed.lend().next_task().is_none());
        for _ in 0..2 {
            assert!(matches!(output.next_timeout(Duration::ZERO), Some(Answer::Err(_))));
        }
        assert_eq!((lender.sleeps(), failed.sleeps()), (0, 0), "a zero timeout never waits");
    }

    #[test]
    fn lend_record_map_keeps_sequence() {
        let lend = Lend::new(4, 10u32).map(|v| v * 2);
        assert_eq!(lend, Lend::new(4, 20u32));
        assert_eq!(SubStreamId(3).to_string(), "sub-3");
        assert_eq!(SubStreamId(3).index(), 3);
    }

    #[test]
    fn duplex_adapters_complete_on_done() {
        use crate::duplex::Duplex;
        let lender: StreamLender<u64, u64> = StreamLender::new(count(20));
        let (sub_source, sub_sink) = lender.lend().into_duplex();
        // Worker that squares the lends it receives, as a duplex.
        let worker_duplex: Duplex<Lend<u64>, Lend<u64>> = {
            let (task_tx, task_rx) = crossbeam::channel::unbounded::<Lend<u64>>();
            let source = move |req: Request| -> Answer<Lend<u64>> {
                if req.is_termination() {
                    return Answer::Done;
                }
                match task_rx.recv() {
                    Ok(lend) => Answer::Value(lend.map(|v| v * v)),
                    Err(_) => Answer::Done,
                }
            };
            let sink = crate::sink::fn_sink(move |lend: Lend<u64>| {
                task_tx.send(lend).map_err(|_| StreamError::transport("worker gone"))
            });
            Duplex::new(source, sink)
        };
        let sub_duplex = Duplex::new(sub_source, sub_sink);
        let link = crate::duplex::connect(sub_duplex, worker_duplex);
        let output = lender.output().collect_values().unwrap();
        link.join().unwrap();
        assert_eq!(output, (1..=20u64).map(|x| x * x).collect::<Vec<_>>());
        assert_eq!(lender.stats().substreams_completed, 1);
    }

    #[test]
    fn duplex_adapter_crash_relends_values() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(6));
        let (mut sub_source, sub_sink) = lender.lend().into_duplex();
        // Borrow two values over the source half, then drop both halves
        // without pushing results: a crash.
        let a = sub_source.pull(Request::Ask);
        let b = sub_source.pull(Request::Ask);
        assert!(a.is_value() && b.is_value());
        drop(sub_source);
        drop(sub_sink);
        assert_eq!(lender.failed_pending(), 2);
        assert_eq!(lender.stats().substreams_crashed, 1);
        let worker = square_worker(lender.lend());
        let output = lender.output().collect_values().unwrap();
        worker.join().unwrap();
        assert_eq!(output, vec![1, 4, 9, 16, 25, 36]);
    }

    #[test]
    fn duplex_halves_support_nonblocking_batch_pumping() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(5));
        let (mut source, sink) = lender.lend().into_duplex();
        // Coalesce everything available without blocking.
        let mut batch = Vec::new();
        while let Some(lend) = source.try_pull() {
            batch.push(lend);
        }
        assert_eq!(batch.len(), 5, "all five values are immediately available");
        // Return results out of band, as a receive loop would.
        for lend in &batch {
            sink.push(lend.seq, lend.value + 100).unwrap();
        }
        // A second push for the same seq is a protocol error (conservative).
        assert!(sink.push(batch[0].seq, 0).is_err());
        sink.finish(true);
        drop(source);
        assert_eq!(lender.output().collect_values().unwrap(), vec![101, 102, 103, 104, 105]);
        assert_eq!(lender.stats().substreams_completed, 1);
        assert_eq!(lender.stats().substreams_crashed, 0);
    }

    #[test]
    fn sink_finish_unclean_relends_borrowed_values() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(3));
        let (mut source, sink) = lender.lend().into_duplex();
        let first = source.try_pull().unwrap();
        assert_eq!(first.seq, 0);
        sink.finish(false);
        assert_eq!(lender.failed_pending(), 1);
        assert_eq!(lender.stats().substreams_crashed, 1);
        // The crashed half no longer hands out values.
        assert!(source.try_pull().is_none());
        drop(sink);
        drop(source);
        let worker = square_worker(lender.lend());
        let output = lender.output().collect_values().unwrap();
        worker.join().unwrap();
        assert_eq!(output, vec![1, 4, 9]);
    }

    #[test]
    fn liveness_after_repeated_crashes() {
        // Paper liveness property: once read, an input is eventually output as
        // long as some device remains active.
        let lender: StreamLender<u64, u64> = StreamLender::new(count(30));
        // Three generations of crashing workers, then one reliable worker.
        for _ in 0..3 {
            let mut sub = lender.lend();
            for _ in 0..5 {
                if let Some(task) = sub.next_task() {
                    // Processes a couple then crashes with values in hand.
                    if task.seq % 2 == 0 {
                        sub.push_result(task.seq, task.value * task.value).unwrap();
                    }
                }
            }
            drop(sub);
        }
        let worker = square_worker(lender.lend());
        let output = lender.output().collect_values().unwrap();
        worker.join().unwrap();
        assert_eq!(output, (1..=30u64).map(|x| x * x).collect::<Vec<_>>());
        assert!(lender.stats().relends > 0);
    }

    // --- The wake discipline: who is woken, by what, how often -------------

    const WATCHDOG: Duration = Duration::from_secs(30);

    /// The two ways a consumer sleeps on the ordered output.
    #[derive(Clone, Copy, Debug)]
    enum Blocking {
        Pull,
        NextTimeout,
    }

    const BOTH: [Blocking; 2] = [Blocking::Pull, Blocking::NextTimeout];

    /// A thread parked inside a blocking call on the lender, and the answer
    /// it will come back with.
    struct Parked<A> {
        answer: std::sync::mpsc::Receiver<A>,
        thread: thread::JoinHandle<()>,
    }

    impl<A: Send + 'static> Parked<A> {
        /// Runs `call` on a thread of its own and returns once it sleeps
        /// inside `lender`.
        fn inside(
            lender: &StreamLender<u64, u64>,
            call: impl FnOnce() -> A + Send + 'static,
        ) -> Self {
            let sleeps_before = lender.sleeps();
            let (tx, answer) = std::sync::mpsc::channel();
            let thread = thread::spawn(move || {
                let _ = tx.send(call());
            });
            lender.await_sleeper(sleeps_before);
            Self { answer, thread }
        }

        fn is_asleep(&self) -> bool {
            matches!(self.answer.try_recv(), Err(std::sync::mpsc::TryRecvError::Empty))
        }

        /// The answer the sleeper was woken with; panics if nothing wakes it.
        fn woken(self) -> A {
            let answer = self.answer.recv_timeout(WATCHDOG).expect("the sleeper was never woken");
            self.thread.join().unwrap();
            answer
        }
    }

    /// A consumer asleep on the ordered output of `lender`.
    fn parked_output(lender: &StreamLender<u64, u64>, how: Blocking) -> Parked<Answer<u64>> {
        let mut output = lender.output();
        Parked::inside(lender, move || match how {
            Blocking::Pull => output.pull(Request::Ask),
            Blocking::NextTimeout => {
                output.next_timeout(2 * WATCHDOG).expect("woken, not timed out")
            }
        })
    }

    /// What an asker comes back with: its answer, and itself.
    type Asked = (Answer<Lend<u64>>, SubStream<u64, u64>);

    /// A sub-stream asleep in `ask`.
    fn parked_asker(
        lender: &StreamLender<u64, u64>,
        mut sub: SubStream<u64, u64>,
    ) -> Parked<Asked> {
        Parked::inside(lender, move || (sub.ask(), sub))
    }

    #[test]
    fn parked_output_is_woken_by_the_in_order_result_not_by_later_ones() {
        for how in BOTH {
            let lender: StreamLender<u64, u64> = StreamLender::new(count(3));
            let mut sub = lender.lend();
            let tasks: Vec<_> = (0..3).map(|_| sub.next_task().unwrap()).collect();
            let consumer = parked_output(&lender, how);
            let signals = lender.output_signals();
            sub.push_result(tasks[2].seq, 30).unwrap();
            sub.push_result(tasks[1].seq, 20).unwrap();
            assert_eq!(lender.output_signals(), signals, "{how:?}: out-of-order results are quiet");
            assert!(consumer.is_asleep(), "{how:?}: nothing to emit yet");
            sub.push_result(tasks[0].seq, 10).unwrap();
            assert_eq!(lender.output_signals(), signals + 1);
            assert_eq!(consumer.woken(), Answer::Value(10), "{how:?}");
            assert!(sub.next_task().is_none(), "the input is exhausted");
            sub.complete();
            assert_eq!(lender.output().collect_values().unwrap(), vec![20, 30]);
        }
    }

    #[test]
    fn parked_output_is_woken_by_input_done_with_everything_emitted() {
        for how in BOTH {
            let lender: StreamLender<u64, u64> = StreamLender::new(count(1));
            let mut sub = lender.lend();
            let task = sub.next_task().unwrap();
            sub.push_result(task.seq, 7).unwrap();
            assert_eq!(lender.output().pull(Request::Ask), Answer::Value(7));
            // Everything read was emitted, but the lazy input has not said
            // it is exhausted: the output must wait for that.
            let consumer = parked_output(&lender, how);
            assert!(sub.next_task().is_none(), "the ask that finds the input exhausted");
            assert_eq!(consumer.woken(), Answer::Done, "{how:?}");
            sub.complete();
        }
    }

    #[test]
    fn parked_output_is_woken_by_an_input_error() {
        for how in BOTH {
            let lender: StreamLender<u64, u64> =
                StreamLender::new(failing(StreamError::new("bad input")));
            let consumer = parked_output(&lender, how);
            let mut sub = lender.lend();
            assert!(sub.next_task().is_none());
            match consumer.woken() {
                Answer::Err(err) => assert_eq!(err.message(), "bad input", "{how:?}"),
                other => panic!("{how:?}: expected the input error, got {other:?}"),
            }
            sub.complete();
        }
    }

    #[test]
    fn parked_output_is_woken_by_shutdown() {
        for how in BOTH {
            let lender: StreamLender<u64, u64> = StreamLender::new(count(5));
            let consumer = parked_output(&lender, how);
            lender.shutdown();
            assert_eq!(consumer.woken(), Answer::Done, "{how:?}");
        }
    }

    #[test]
    fn parked_output_is_woken_when_another_handle_aborts_the_output() {
        for how in BOTH {
            let lender: StreamLender<u64, u64> = StreamLender::new(count(5));
            let consumer = parked_output(&lender, how);
            assert_eq!(lender.output().pull(Request::Abort), Answer::Done);
            assert_eq!(consumer.woken(), Answer::Done, "{how:?}");
        }
    }

    #[test]
    fn every_parked_output_handle_is_woken_to_re_poll() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(2));
        let mut sub = lender.lend();
        let (a, b) = (sub.next_task().unwrap(), sub.next_task().unwrap());
        let handles =
            [parked_output(&lender, Blocking::Pull), parked_output(&lender, Blocking::NextTimeout)];
        sub.push_result(b.seq, 2).unwrap();
        // One signal for two answers: the handle that loses the race for the
        // first finds the second through the winner's emit, so both must
        // have been woken.
        sub.push_result(a.seq, 1).unwrap();
        let mut got = handles.map(|handle| handle.woken().into_value());
        got.sort();
        assert_eq!(got, [Some(1), Some(2)]);
        sub.complete();
    }

    #[test]
    fn every_emit_fires_the_wakers_once_however_the_consumer_came_by_it() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(4));
        let (mut source, sink) = lender.lend().into_duplex();
        let tasks: Vec<_> = std::iter::from_fn(|| source.try_pull()).collect();
        let fired = counted_wakers(&lender);
        let fired_since = |before: usize| fired.load(Ordering::SeqCst) - before;
        let mut output = lender.output();

        // Already there, by `pull` and by `next_timeout` with and without
        // time to wait: the emit fires once, a poll that finds nothing never.
        sink.push_batch(tasks[..3].iter().map(|task| (task.seq, task.seq)));
        let before = fired.load(Ordering::SeqCst);
        assert_eq!(output.pull(Request::Ask), Answer::Value(0));
        assert_eq!(output.next_timeout(WATCHDOG), Some(Answer::Value(1)));
        assert_eq!(output.next_timeout(Duration::ZERO), Some(Answer::Value(2)));
        assert_eq!(fired_since(before), 3);
        assert_eq!(output.next_timeout(Duration::ZERO), None);
        assert_eq!(fired_since(before), 3);

        // Found by the last poll of a wait that timed out. The frame's
        // iterator runs with the lender locked, so holding it there until
        // the sleeper's deadline is behind us makes the sleeper time out
        // *into* the stored result: it cannot re-take the lock before the
        // result is in, and no signal reaches it while it still waits.
        let timeout = Duration::from_millis(50);
        let consumer = Parked::inside(&lender, move || output.next_timeout(timeout));
        let parked_at = Instant::now();
        let before = fired.load(Ordering::SeqCst);
        let late = std::iter::once_with(|| {
            while parked_at.elapsed() < 2 * timeout {
                thread::sleep(timeout);
            }
            (tasks[3].seq, 3)
        });
        assert_eq!(sink.push_batch(late), 1);
        assert_eq!(consumer.woken(), Some(Answer::Value(3)));
        assert_eq!(fired_since(before), 2, "once for the frame, once for the emit");
        sink.finish(true);
    }

    #[test]
    fn parked_asker_is_woken_when_the_input_is_checked_back_in() {
        // An input that holds its caller until the test lets it answer.
        let (entered_tx, entered) = std::sync::mpsc::channel();
        let (gate, gate_rx) = std::sync::mpsc::channel::<Answer<u64>>();
        let input = move |request: Request| -> Answer<u64> {
            if request.is_termination() {
                return Answer::Done;
            }
            entered_tx.send(()).unwrap();
            gate_rx.recv().unwrap_or(Answer::Done)
        };
        let lender: StreamLender<u64, u64> = StreamLender::new(input);
        let (mut holder, waiter) = (lender.lend(), lender.lend());
        let holding = thread::spawn(move || (holder.ask(), holder));
        entered.recv_timeout(WATCHDOG).expect("the holder reached the input");
        // The input is checked out: the second asker sleeps until it is back.
        let waiting = parked_asker(&lender, waiter);
        // It comes back exhausted. The holder books that and leaves with
        // `Done`; no value was lent and no result stored, so the check-in
        // itself is the only event that can wake the waiter.
        gate.send(Answer::Done).unwrap();
        let (answer, holder) = holding.join().unwrap();
        assert_eq!(answer, Answer::Done);
        let (answer, waiter) = waiting.woken();
        assert_eq!(answer, Answer::Done);
        holder.complete();
        waiter.complete();
    }

    #[test]
    fn parked_asker_is_woken_by_a_re_lend() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(1));
        let mut doomed = lender.lend();
        let task = doomed.next_task().unwrap();
        // The input is exhausted and its only value is in flight elsewhere:
        // the asker waits for a crash to make it lendable again.
        let waiting = parked_asker(&lender, lender.lend());
        drop(doomed);
        let (answer, mut rescuer) = waiting.woken();
        assert_eq!(answer, Answer::Value(task.clone()));
        rescuer.push_result(task.seq, 9).unwrap();
        rescuer.complete();
        assert_eq!(lender.output().collect_values().unwrap(), vec![9]);
    }

    #[test]
    fn parked_asker_is_woken_by_termination() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(1));
        let mut worker = lender.lend();
        let task = worker.next_task().unwrap();
        let waiting = parked_asker(&lender, lender.lend());
        // The last outstanding result: nothing can ever be lent again.
        worker.push_result(task.seq, 9).unwrap();
        let (answer, idle) = waiting.woken();
        assert_eq!(answer, Answer::Done);
        idle.complete();
        worker.complete();
    }

    #[test]
    fn push_batch_skips_a_late_record_and_signals_the_output_once() {
        let lender: StreamLender<u64, u64> = StreamLender::new(count(4));
        let (mut source, sink) = lender.lend().into_duplex();
        let tasks: Vec<_> = std::iter::from_fn(|| source.try_pull()).collect();
        assert_eq!(tasks.len(), 4);
        let wakeups = counted_wakers(&lender);
        let signals = lender.output_signals();
        // A frame without the result the output waits for is quiet there.
        assert_eq!(sink.push_batch([(3, 40)]), 1);
        assert_eq!(lender.output_signals(), signals);
        assert_eq!(wakeups.load(Ordering::SeqCst), 1, "wakers hear of a frame once");
        // Seq 9 was never borrowed (a late result, to the lender): it is
        // skipped, the records around it are stored, and the output — which
        // can now emit — is signalled once for the whole frame.
        assert_eq!(sink.push_batch([(0, 10), (9, 99), (1, 20), (2, 30)]), 3);
        assert_eq!(lender.output_signals(), signals + 1);
        assert_eq!(wakeups.load(Ordering::SeqCst), 2);
        // A frame of late results only changes nothing and wakes nobody.
        assert_eq!(sink.push_batch([(0, 11), (3, 41)]), 0);
        assert_eq!(lender.output_signals(), signals + 1);
        assert_eq!(wakeups.load(Ordering::SeqCst), 2);
        assert!(sink.push(0, 11).is_err(), "the one-record case reports the refusal");
        sink.finish(true);
        drop(source);
        assert_eq!(lender.output().collect_values().unwrap(), vec![10, 20, 30, 40]);
    }
}
