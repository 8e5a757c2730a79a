//! The Collatz-conjecture application (paper §4.1).
//!
//! For an input integer `n`, repeatedly apply `n -> n/2` when `n` is even and
//! `n -> 3n + 1` when it is odd, counting the steps until the value reaches 1.
//! The post-processing stage keeps the input with the largest step count. The
//! computation is done with [`crate::bignum::BigUint`] so that the
//! intermediate values may exceed 64 bits, as in the original BOINC project.

use crate::bignum::BigUint;

/// Result of one Collatz trajectory computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollatzResult {
    /// The starting value.
    pub start: u64,
    /// Number of steps needed to reach 1.
    pub steps: u64,
    /// Largest number of bits the trajectory reached.
    pub peak_bits: u64,
}

/// Counts the Collatz steps from `start` down to 1.
///
/// # Panics
///
/// Panics if `start` is zero: the Collatz map is defined on positive integers.
///
/// # Examples
///
/// ```
/// use pando_workloads::collatz::collatz_steps;
/// assert_eq!(collatz_steps(1).steps, 0);
/// assert_eq!(collatz_steps(6).steps, 8);
/// assert_eq!(collatz_steps(27).steps, 111);
/// ```
pub fn collatz_steps(start: u64) -> CollatzResult {
    assert!(start > 0, "the Collatz map is defined on positive integers");
    let mut value = BigUint::from_u64(start);
    let mut steps = 0u64;
    let mut peak_bits = value.bit_len() as u64;
    while !value.is_one() {
        if value.is_even() {
            value.div2();
        } else {
            value.mul_small(3);
            value.add_small(1);
        }
        steps += 1;
        peak_bits = peak_bits.max(value.bit_len() as u64);
    }
    CollatzResult { start, steps, peak_bits }
}

/// Finds, among `starts`, the value with the longest Collatz trajectory — the
/// post-processing stage of the pipeline (paper Figure 10: "Max").
pub fn longest_trajectory(starts: impl IntoIterator<Item = u64>) -> Option<CollatzResult> {
    starts.into_iter().map(collatz_steps).max_by_key(|r| r.steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_step_counts() {
        // Reference values of the standard Collatz step counts.
        let expected =
            [(1u64, 0u64), (2, 1), (3, 7), (4, 2), (5, 5), (6, 8), (7, 16), (27, 111), (97, 118)];
        for (start, steps) in expected {
            assert_eq!(collatz_steps(start).steps, steps, "steps({start})");
        }
    }

    #[test]
    #[should_panic(expected = "positive integers")]
    fn zero_is_rejected() {
        let _ = collatz_steps(0);
    }

    #[test]
    fn peak_exceeds_start_for_odd_inputs() {
        let result = collatz_steps(27);
        assert!(result.peak_bits > BigUint::from_u64(27).bit_len() as u64);
    }

    #[test]
    fn longest_trajectory_in_range() {
        let best = longest_trajectory(1..=100).unwrap();
        assert_eq!(best.start, 97);
        assert_eq!(best.steps, 118);
        assert!(longest_trajectory(std::iter::empty()).is_none());
    }

    #[test]
    fn trajectories_terminate_for_a_large_sample() {
        for start in 1..500u64 {
            let result = collatz_steps(start);
            assert!(result.steps < 1000, "start {start} took too many steps");
        }
    }
}
