//! The synchronous-parallel-search monitor (paper §4.2, Figure 11).
//!
//! Crypto-currency mining introduces a feedback loop in the dataflow: the
//! next inputs to generate depend on the last valid result. The monitor
//! lazily produces mining attempts (block + nonce range) for the current
//! block, reads Pando's output stream, and moves on to the next block once a
//! valid nonce is found. Both the chain of blocks and the nonce space are
//! potentially infinite, which the lazy streaming model handles naturally.
//!
//! Attempts and outcomes travel through the typed
//! [`pando_workloads::app::CryptoCodec`] — native structs at both ends,
//! compact binary payloads on the wire.

use crate::master::Pando;
use pando_pull_stream::source::Source;
use pando_pull_stream::{Answer, Request};
use pando_workloads::app::CryptoCodec;
use pando_workloads::crypto::{self, MiningAttempt};
use parking_lot::Mutex;
use std::sync::Arc;

/// A block solved by the mining run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolvedBlock {
    /// The block header that was mined.
    pub block: String,
    /// The nonce that satisfies the difficulty.
    pub nonce: u64,
    /// Number of nonce ranges that were dispatched for this block.
    pub attempts: u64,
}

/// Drives a Pando deployment through the mining feedback loop.
#[derive(Debug)]
pub struct MiningMonitor {
    /// Blocks to mine, in order.
    pub blocks: Vec<String>,
    /// Difficulty in leading zero bits.
    pub difficulty_bits: u32,
    /// Number of nonces per work unit.
    pub range_size: u64,
}

#[derive(Debug)]
struct MonitorState {
    current_block: usize,
    next_nonce: u64,
    attempts_for_block: u64,
    /// Set once every block has been solved: the input stream then ends.
    finished: bool,
}

impl MiningMonitor {
    /// Creates a monitor for the given chain of blocks.
    ///
    /// # Panics
    ///
    /// Panics if `range_size` is zero.
    pub fn new(blocks: Vec<String>, difficulty_bits: u32, range_size: u64) -> Self {
        assert!(range_size > 0, "range size must be at least 1");
        Self { blocks, difficulty_bits, range_size }
    }

    /// Mines every block using the given Pando deployment (whose volunteers
    /// must already be joining or joined) and returns the solved blocks in
    /// order.
    ///
    /// The monitor generates as many concurrent attempts as the workers ask
    /// for (laziness), so the search parallelises across all participating
    /// devices.
    pub fn run(&self, pando: &Pando) -> Vec<SolvedBlock> {
        let state = Arc::new(Mutex::new(MonitorState {
            current_block: 0,
            next_nonce: 0,
            attempts_for_block: 0,
            finished: self.blocks.is_empty(),
        }));

        // Lazy input source: each ask produces the next nonce range for the
        // block currently being mined.
        let input_state = state.clone();
        let blocks = self.blocks.clone();
        let difficulty = self.difficulty_bits;
        let range = self.range_size;
        let input = move |request: Request| -> Answer<MiningAttempt> {
            if request.is_termination() {
                return Answer::Done;
            }
            let mut state = input_state.lock();
            if state.finished || state.current_block >= blocks.len() {
                return Answer::Done;
            }
            let start = state.next_nonce;
            state.next_nonce += range;
            state.attempts_for_block += 1;
            Answer::Value(MiningAttempt {
                block: blocks[state.current_block].clone(),
                nonce_start: start,
                nonce_end: start + range,
                difficulty_bits: difficulty,
            })
        };

        let mut output = pando.run_typed(CryptoCodec, input);
        let mut solved = Vec::new();
        loop {
            match output.pull(Request::Ask) {
                Answer::Value(outcome) => {
                    let Some(nonce) = outcome.nonce else {
                        continue;
                    };
                    let mut state = state.lock();
                    if state.current_block >= self.blocks.len() {
                        continue;
                    }
                    let block = self.blocks[state.current_block].clone();
                    // A stale solution for an already-advanced block can
                    // arrive out of order; verify against the current block.
                    if !crypto::verify(&block, nonce, self.difficulty_bits) {
                        continue;
                    }
                    solved.push(SolvedBlock { block, nonce, attempts: state.attempts_for_block });
                    state.current_block += 1;
                    state.next_nonce = 0;
                    state.attempts_for_block = 0;
                    if state.current_block >= self.blocks.len() {
                        state.finished = true;
                    }
                }
                Answer::Done => break,
                Answer::Err(_) => break,
            }
        }
        solved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PandoConfig;
    use crate::worker::WorkerBuilder;
    use bytes::Bytes;
    use pando_workloads::app::AppKind;

    #[test]
    #[should_panic(expected = "range size")]
    fn zero_range_is_rejected() {
        let _ = MiningMonitor::new(vec!["b".into()], 4, 0);
    }

    #[test]
    fn mines_a_chain_of_blocks_with_two_volunteers() {
        let pando = Pando::new(PandoConfig::local_test());
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let app = AppKind::CryptoMining.instantiate();
                WorkerBuilder::new()
                    .spawn(pando.open_volunteer_channel(), move |input: &Bytes| app.process(input))
            })
            .collect();

        let blocks = vec!["block-1".to_string(), "block-2".to_string()];
        let monitor = MiningMonitor::new(blocks.clone(), 12, 1_000);
        let solved = monitor.run(&pando);
        assert_eq!(solved.len(), 2);
        for (i, block) in blocks.iter().enumerate() {
            assert_eq!(&solved[i].block, block);
            assert!(crypto::verify(block, solved[i].nonce, 12));
            assert!(solved[i].attempts >= 1);
        }
        for worker in workers {
            let report = worker.join();
            assert!(report.processed > 0, "both devices contribute to the search");
        }
    }

    #[test]
    fn empty_chain_finishes_immediately() {
        let pando = Pando::new(PandoConfig::local_test());
        let worker = WorkerBuilder::new().spawn(pando.open_volunteer_channel(), |input: &Bytes| {
            Ok(bytes::Bytes::copy_from_slice(input))
        });
        let monitor = MiningMonitor::new(Vec::new(), 8, 100);
        assert!(monitor.run(&pando).is_empty());
        let _ = worker.join();
    }
}
