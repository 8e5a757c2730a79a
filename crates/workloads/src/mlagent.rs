//! Hyper-parameter search for a reinforcement-learning agent (paper §4.1).
//!
//! The paper trains an autonomous agent in a simulated environment and
//! searches for the learning rate that makes it learn reward-producing
//! action sequences the fastest. The reproduction uses a classic grid-world:
//! the agent starts in a corner, must reach a goal while avoiding pits, and
//! is trained with tabular Q-learning. Each Pando input is one learning-rate
//! candidate; the output is the average reward over the final episodes, from
//! which the best hyper-parameter is selected downstream.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Size of the square grid world.
pub const GRID: usize = 8;

/// The four movement actions.
const ACTIONS: [(i32, i32); 4] = [(0, 1), (0, -1), (1, 0), (-1, 0)];

/// Result of training one hyper-parameter candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingOutcome {
    /// The learning rate that was evaluated.
    pub learning_rate: f64,
    /// Average reward per episode over the last quarter of training.
    pub final_reward: f64,
    /// Total number of environment steps simulated (the unit of Table 2).
    pub steps: u64,
    /// Number of episodes that reached the goal.
    pub successes: u32,
}

/// Configuration of one training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingConfig {
    /// Number of episodes to train for.
    pub episodes: u32,
    /// Maximum steps per episode before it is truncated.
    pub max_steps: u32,
    /// Discount factor.
    pub gamma: f64,
    /// Exploration rate (epsilon-greedy).
    pub epsilon: f64,
    /// Seed of the environment and exploration randomness.
    pub seed: u64,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        Self { episodes: 300, max_steps: 200, gamma: 0.97, epsilon: 0.15, seed: 7 }
    }
}

fn cell_reward(x: usize, y: usize) -> (f64, bool) {
    // Goal in the far corner, two pits on the way.
    if (x, y) == (GRID - 1, GRID - 1) {
        (10.0, true)
    } else if (x, y) == (3, 3) || (x, y) == (5, 2) {
        (-5.0, true)
    } else {
        (-0.05, false)
    }
}

/// Trains a tabular Q-learning agent with the given learning rate and returns
/// how well it ended up performing.
///
/// The computation is deterministic for a given `(learning_rate, config)`
/// pair, which keeps the distributed runs reproducible.
pub fn train(learning_rate: f64, config: &TrainingConfig) -> TrainingOutcome {
    let mut rng = StdRng::seed_from_u64(config.seed ^ learning_rate.to_bits());
    let mut q = vec![[0.0f64; 4]; GRID * GRID];
    let mut steps = 0u64;
    let mut successes = 0u32;
    let mut final_rewards = Vec::new();
    let evaluation_window = (config.episodes / 4).max(1);

    for episode in 0..config.episodes {
        let (mut x, mut y) = (0usize, 0usize);
        let mut episode_reward = 0.0;
        for _ in 0..config.max_steps {
            let state = y * GRID + x;
            let action = if rng.gen::<f64>() < config.epsilon {
                rng.gen_range(0..4)
            } else {
                (0..4).max_by(|&a, &b| q[state][a].partial_cmp(&q[state][b]).unwrap()).unwrap()
            };
            let (dx, dy) = ACTIONS[action];
            let nx = (x as i32 + dx).clamp(0, GRID as i32 - 1) as usize;
            let ny = (y as i32 + dy).clamp(0, GRID as i32 - 1) as usize;
            let (reward, terminal) = cell_reward(nx, ny);
            let next_state = ny * GRID + nx;
            let best_next = q[next_state].iter().cloned().fold(f64::MIN, f64::max);
            let target = if terminal { reward } else { reward + config.gamma * best_next };
            q[state][action] += learning_rate * (target - q[state][action]);
            episode_reward += reward;
            steps += 1;
            x = nx;
            y = ny;
            if terminal {
                if reward > 0.0 {
                    successes += 1;
                }
                break;
            }
        }
        if episode + evaluation_window >= config.episodes {
            final_rewards.push(episode_reward);
        }
    }
    TrainingOutcome {
        learning_rate,
        final_reward: final_rewards.iter().sum::<f64>() / final_rewards.len() as f64,
        steps,
        successes,
    }
}

/// The hyper-parameter grid searched in the examples: learning rates spread
/// logarithmically between 0.01 and 1.0.
pub fn learning_rate_candidates(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = if n <= 1 { 0.0 } else { i as f64 / (n - 1) as f64 };
            10f64.powf(-2.0 + 2.0 * t)
        })
        .collect()
}

/// Picks the candidate with the highest final reward (the post-processing
/// stage of the hyper-parameter search pipeline).
pub fn best_candidate(
    outcomes: impl IntoIterator<Item = TrainingOutcome>,
) -> Option<TrainingOutcome> {
    outcomes.into_iter().max_by(|a, b| a.final_reward.partial_cmp(&b.final_reward).unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_is_deterministic() {
        let config = TrainingConfig::default();
        assert_eq!(train(0.3, &config), train(0.3, &config));
    }

    #[test]
    fn reasonable_learning_rate_learns_the_task() {
        let config = TrainingConfig::default();
        let outcome = train(0.4, &config);
        assert!(outcome.successes > config.episodes / 4, "the agent should reach the goal often");
        assert!(
            outcome.final_reward > 0.0,
            "final reward {} should be positive",
            outcome.final_reward
        );
        assert!(outcome.steps > 0);
    }

    #[test]
    fn tiny_learning_rate_learns_worse() {
        let config = TrainingConfig::default();
        let good = train(0.4, &config);
        let bad = train(0.0001, &config);
        assert!(
            good.final_reward > bad.final_reward,
            "lr=0.4 ({}) must beat lr=0.0001 ({})",
            good.final_reward,
            bad.final_reward
        );
    }

    #[test]
    fn candidate_grid_is_log_spaced() {
        let candidates = learning_rate_candidates(5);
        assert_eq!(candidates.len(), 5);
        assert!((candidates[0] - 0.01).abs() < 1e-9);
        assert!((candidates[4] - 1.0).abs() < 1e-9);
        assert!(candidates.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(learning_rate_candidates(1), vec![0.01]);
    }

    #[test]
    fn best_candidate_selects_highest_reward() {
        let config = TrainingConfig { episodes: 120, ..TrainingConfig::default() };
        let outcomes: Vec<_> =
            learning_rate_candidates(4).into_iter().map(|lr| train(lr, &config)).collect();
        let best = best_candidate(outcomes.clone()).unwrap();
        assert!(outcomes.iter().all(|o| o.final_reward <= best.final_reward));
        assert!(best_candidate(std::iter::empty()).is_none());
    }

    #[test]
    fn different_learning_rates_give_different_results() {
        let config = TrainingConfig { episodes: 60, ..TrainingConfig::default() };
        assert_ne!(train(0.05, &config), train(0.8, &config));
    }
}
