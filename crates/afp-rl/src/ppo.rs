//! Masked Proximal Policy Optimization.
//!
//! The agent is trained with PPO [24] extended with invalid-action masking
//! [25]: the positional masks of the observation zero out the probability of
//! actions that would overlap blocks or break constraints, both when sampling
//! during rollouts and when computing the surrogate objective during updates.

use rand::Rng;

use afp_tensor::optim::{clip_grad_norm, Adam};
use afp_tensor::Tensor;

use crate::policy::ActorCritic;
use crate::rollout::{RolloutBuffer, Transition};

/// Logit value assigned to masked-out actions (effectively −∞).
const MASKED_LOGIT: f32 = -1.0e9;

/// Applies the action mask to raw logits: inadmissible actions get a huge
/// negative logit so their probability underflows to zero.
pub fn apply_mask(logits: &Tensor, mask: &[f32]) -> Tensor {
    assert_eq!(logits.len(), mask.len(), "mask / logit length mismatch");
    Tensor::from_vec(
        logits
            .data()
            .iter()
            .zip(mask.iter())
            .map(|(&l, &m)| if m > 0.0 { l } else { MASKED_LOGIT })
            .collect(),
        logits.shape(),
    )
}

/// Masked log-softmax over the action space.
pub fn masked_log_softmax(logits: &Tensor, mask: &[f32]) -> Tensor {
    apply_mask(logits, mask).log_softmax()
}

/// Samples an action from the masked categorical distribution, returning the
/// flat action index and its log-probability.
pub fn sample_masked_action<R: Rng + ?Sized>(
    logits: &Tensor,
    mask: &[f32],
    rng: &mut R,
) -> (usize, f32) {
    let log_probs = masked_log_softmax(logits, mask);
    let mut u: f32 = rng.gen();
    let mut chosen = None;
    for (i, &lp) in log_probs.data().iter().enumerate() {
        if mask[i] <= 0.0 {
            continue;
        }
        let p = lp.exp();
        if u < p {
            chosen = Some(i);
            break;
        }
        u -= p;
    }
    let index = chosen.unwrap_or_else(|| greedy_masked_action(logits, mask));
    (index, log_probs.get(index))
}

/// The highest-probability admissible action.
pub fn greedy_masked_action(logits: &Tensor, mask: &[f32]) -> usize {
    let mut best = 0;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &l) in logits.data().iter().enumerate() {
        if mask[i] > 0.0 && l > best_v {
            best_v = l;
            best = i;
        }
    }
    best
}

/// PPO hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PpoConfig {
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Discount factor γ.
    pub gamma: f32,
    /// GAE smoothing λ.
    pub gae_lambda: f32,
    /// PPO clip range ε.
    pub clip_range: f32,
    /// Entropy bonus coefficient.
    pub entropy_coef: f32,
    /// Value-loss coefficient.
    pub value_coef: f32,
    /// Number of optimization epochs per update.
    pub epochs: usize,
    /// Minibatch size.
    pub minibatch_size: usize,
    /// Global gradient-norm clip.
    pub max_grad_norm: f32,
}

impl PpoConfig {
    /// Hyper-parameters small enough for unit tests.
    pub fn small() -> Self {
        PpoConfig {
            learning_rate: 3e-4,
            gamma: 0.99,
            gae_lambda: 0.95,
            clip_range: 0.2,
            entropy_coef: 0.01,
            value_coef: 0.5,
            epochs: 2,
            minibatch_size: 8,
            max_grad_norm: 0.5,
        }
    }

    /// The Stable-Baselines3-style defaults used for the full training runs.
    pub fn paper() -> Self {
        PpoConfig {
            learning_rate: 3e-4,
            gamma: 0.99,
            gae_lambda: 0.95,
            clip_range: 0.2,
            entropy_coef: 0.01,
            value_coef: 0.5,
            epochs: 6,
            minibatch_size: 64,
            max_grad_norm: 0.5,
        }
    }
}

impl Default for PpoConfig {
    fn default() -> Self {
        PpoConfig::small()
    }
}

/// Diagnostics of one PPO update.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PpoStats {
    /// Mean clipped surrogate loss.
    pub policy_loss: f32,
    /// Mean value-function loss.
    pub value_loss: f32,
    /// Mean policy entropy.
    pub entropy: f32,
    /// Mean approximate KL divergence between the behaviour and updated
    /// policies (the quantity plotted in the paper's Fig. 6).
    pub approx_kl: f32,
    /// Number of gradient steps applied.
    pub gradient_steps: usize,
}

/// The PPO loss head over the masked action distribution, with buffers
/// reused from one transition to the next.
///
/// It reproduces, bit for bit, the dense formulation — `log_softmax` of
/// [`apply_mask`]'s logits, `categorical_entropy` of the same, the surrogate
/// and entropy gradients over every action, masked gradients zeroed, scaled
/// by `1 / minibatch` — while visiting only the admissible actions. A masked
/// action's logit is [`MASKED_LOGIT`], so its softmax term is exactly `+0.0`
/// whenever some admissible logit exceeds `MASKED_LOGIT + 104` (where `exp`
/// underflows), which every usable policy satisfies: it adds nothing to the
/// max, the softmax sum or the entropy, and its gradient ends at `+0.0`.
#[derive(Debug, Default)]
struct LossHead {
    /// Indices of the admissible actions, ascending.
    admissible: Vec<usize>,
    /// Their log-probabilities and probabilities.
    log_probs: Vec<f32>,
    probs: Vec<f32>,
    /// Entropy of the masked distribution.
    entropy: f32,
    grad: Tensor,
}

impl LossHead {
    /// The masked log-softmax and entropy of `logits`, kept for
    /// [`Self::grad_logits`]; returns the log-probability of `action`.
    fn evaluate(&mut self, logits: &Tensor, mask: &[f32], action: usize) -> f32 {
        assert_eq!(logits.len(), mask.len(), "mask / logit length mismatch");
        let logits = logits.data();
        self.admissible.clear();
        let mut max = f32::NEG_INFINITY;
        for (i, (&l, &m)) in logits.iter().zip(mask).enumerate() {
            if m > 0.0 {
                self.admissible.push(i);
                max = max.max(l);
            }
        }
        debug_assert!(
            max > MASKED_LOGIT + 104.0,
            "masking needs an admissible logit far above MASKED_LOGIT, got {max}"
        );
        let sum: f32 = self
            .admissible
            .iter()
            .map(|&i| (logits[i] - max).exp())
            .sum();
        let log_sum = sum.ln() + max;
        self.log_probs.clear();
        self.log_probs
            .extend(self.admissible.iter().map(|&i| logits[i] - log_sum));
        self.probs.clear();
        self.probs.extend(self.log_probs.iter().map(|&lp| lp.exp()));
        // `categorical_entropy` sums `p · log p` over every action; each
        // masked one adds a `+0.0`, which the trailing term stands for (the
        // terms are never positive, so where it lands does not matter).
        let any_masked = self.admissible.len() < logits.len();
        let plogp: f32 = self
            .probs
            .iter()
            .zip(&self.log_probs)
            .map(|(&p, &lp)| if p > 0.0 { p * lp } else { 0.0 })
            .chain(any_masked.then_some(0.0))
            .sum();
        if self.grad.len() != logits.len() {
            self.grad = Tensor::zeros(&[logits.len()]);
        }
        self.entropy = -plogp;
        let taken = if mask[action] > 0.0 {
            logits[action]
        } else {
            MASKED_LOGIT
        };
        taken - log_sum
    }

    /// `dLoss / dlogits` of the last [`Self::evaluate`]d transition, times
    /// `scale`: the surrogate term `d_loss_d_logp · (one_hot(action) −
    /// softmax)` minus `entropy_coef · dH/dlogits`, zero on masked actions.
    fn grad_logits(
        &mut self,
        action: usize,
        d_loss_d_logp: f32,
        entropy_coef: f32,
        scale: f32,
    ) -> &Tensor {
        let grad = self.grad.data_mut();
        grad.fill(0.0);
        let terms = self.log_probs.iter().zip(&self.probs);
        for (&i, (&lp, &p)) in self.admissible.iter().zip(terms) {
            let mut g = p * -d_loss_d_logp;
            if i == action {
                g += d_loss_d_logp;
            }
            // dH/dz_j = -p_j * (log p_j + H)
            g += -p * (lp + self.entropy) * -entropy_coef;
            grad[i] = g * scale;
        }
        &self.grad
    }
}

/// Runs PPO updates on an [`ActorCritic`] from collected rollouts.
#[derive(Debug)]
pub struct PpoTrainer {
    /// Hyper-parameters.
    pub config: PpoConfig,
    optimizer: Adam,
    head: LossHead,
}

impl PpoTrainer {
    /// Creates a trainer.
    pub fn new(config: PpoConfig) -> Self {
        let optimizer = Adam::new(config.learning_rate);
        PpoTrainer {
            config,
            optimizer,
            head: LossHead::default(),
        }
    }

    /// Performs one PPO update over the buffer and returns diagnostics.
    pub fn update<R: Rng + ?Sized>(
        &mut self,
        policy: &mut ActorCritic,
        buffer: &RolloutBuffer,
        rng: &mut R,
    ) -> PpoStats {
        if buffer.is_empty() {
            return PpoStats::default();
        }
        let (advantages, returns) = buffer.advantages_and_returns();
        let (adv_mean, adv_std) = RolloutBuffer::advantage_stats(&advantages);
        let n = buffer.len();
        let mut stats = PpoStats::default();
        let mut samples_seen = 0usize;

        for _epoch in 0..self.config.epochs {
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(self.config.minibatch_size.max(1)) {
                policy.zero_grad();
                for &idx in chunk {
                    let t = &buffer.transitions()[idx];
                    let advantage = (advantages[idx] - adv_mean) / adv_std;
                    let target_return = returns[idx];

                    // Scale by 1 / minibatch for a mean over the minibatch.
                    let scale = 1.0 / chunk.len() as f32;
                    let TransitionLoss {
                        policy_loss,
                        value_loss,
                        entropy,
                        ratio,
                    } = self.accumulate_transition(policy, t, advantage, target_return, scale);

                    stats.policy_loss += policy_loss;
                    stats.value_loss += value_loss;
                    stats.entropy += entropy;
                    // SB3-style approximate KL: E[(r − 1) − log r].
                    stats.approx_kl += (ratio - 1.0) - (ratio.max(1e-8)).ln();
                    samples_seen += 1;
                }
                let mut params = policy.params_mut();
                clip_grad_norm(&mut params, self.config.max_grad_norm);
                self.optimizer.step(&mut params);
                stats.gradient_steps += 1;
            }
        }
        let denom = samples_seen.max(1) as f32;
        stats.policy_loss /= denom;
        stats.value_loss /= denom;
        stats.entropy /= denom;
        stats.approx_kl /= denom;
        stats
    }

    /// One transition of a minibatch: evaluates the policy, returns the loss
    /// terms and accumulates `scale` times the gradient of
    /// `policy_loss + value_coef · value_loss − entropy_coef · entropy` into
    /// the policy's parameter gradients.
    fn accumulate_transition(
        &mut self,
        policy: &mut ActorCritic,
        t: &Transition,
        advantage: f32,
        target_return: f32,
        scale: f32,
    ) -> TransitionLoss {
        let out = policy.forward(&t.masks, &t.graph_embedding, &t.node_embedding);
        let log_prob = self.head.evaluate(&out.logits, &t.action_mask, t.action);
        let ratio = (log_prob - t.log_prob).exp();

        // Clipped surrogate loss and its gradient wrt the chosen action's
        // log-probability.
        let unclipped = ratio * advantage;
        let clipped =
            ratio.clamp(1.0 - self.config.clip_range, 1.0 + self.config.clip_range) * advantage;
        let policy_loss = -unclipped.min(clipped);
        let gradient_active = if advantage >= 0.0 {
            ratio <= 1.0 + self.config.clip_range
        } else {
            ratio >= 1.0 - self.config.clip_range
        };
        let d_loss_d_logp = if gradient_active {
            -advantage * ratio
        } else {
            0.0
        };

        // Value loss.
        let value_error = out.value - target_return;
        let value_loss = value_error * value_error;
        let grad_value = 2.0 * self.config.value_coef * value_error;

        let grad_logits =
            self.head
                .grad_logits(t.action, d_loss_d_logp, self.config.entropy_coef, scale);
        policy.backward(grad_logits, grad_value * scale);
        TransitionLoss {
            policy_loss,
            value_loss,
            entropy: self.head.entropy,
            ratio,
        }
    }
}

/// The loss terms of one transition.
#[derive(Debug, Clone, Copy)]
struct TransitionLoss {
    policy_loss: f32,
    value_loss: f32,
    entropy: f32,
    /// New over behaviour probability of the taken action.
    ratio: f32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyConfig;
    use afp_layout::{GRID_SIZE, STATE_CHANNELS};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn masking_removes_invalid_actions() {
        let logits = Tensor::from_slice(&[1.0, 5.0, 0.0, 2.0]);
        let mask = [1.0, 0.0, 1.0, 1.0];
        let log_probs = masked_log_softmax(&logits, &mask);
        assert!(log_probs.get(1) < -1e6);
        let p: f32 = log_probs.data().iter().map(|l| l.exp()).sum();
        assert!((p - 1.0).abs() < 1e-4);
        assert_eq!(greedy_masked_action(&logits, &mask), 3);
    }

    #[test]
    fn sampling_respects_mask() {
        let logits = Tensor::from_slice(&[0.0, 10.0, 0.0, 0.0]);
        let mask = [1.0, 0.0, 1.0, 0.0];
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let (a, lp) = sample_masked_action(&logits, &mask, &mut rng);
            assert!(a == 0 || a == 2, "sampled masked action {a}");
            assert!(lp <= 0.0);
        }
    }

    /// A fixed, non-degenerate observation shared by every synthetic
    /// transition: a spatially varying mask tensor so the deconvolutional head
    /// can tell grid cells apart.
    fn probe_masks() -> Tensor {
        let mut rng = StdRng::seed_from_u64(123);
        afp_tensor::Init::XavierUniform.sample(
            &mut rng,
            &[STATE_CHANNELS, GRID_SIZE, GRID_SIZE],
            64,
            64,
        )
    }

    /// Builds a tiny synthetic buffer whose transitions all prefer action 0.
    fn synthetic_buffer(
        policy: &mut ActorCritic,
        cfg: &PpoConfig,
        reward_for_zero: f32,
    ) -> RolloutBuffer {
        let mut rng = StdRng::seed_from_u64(7);
        let mut buffer = RolloutBuffer::new(cfg.gamma, cfg.gae_lambda);
        for _ in 0..6 {
            let masks = probe_masks();
            let g = Tensor::zeros(&[crate::policy::EMBEDDING_DIM]);
            let nb = Tensor::zeros(&[crate::policy::EMBEDDING_DIM]);
            let mut mask = vec![0.0f32; crate::action::ACTION_SPACE];
            mask[0] = 1.0;
            mask[1] = 1.0;
            let out = policy.forward(&masks, &g, &nb);
            let (action, log_prob) = sample_masked_action(&out.logits, &mask, &mut rng);
            let reward = if action == 0 { reward_for_zero } else { 0.0 };
            buffer.push(Transition {
                masks,
                graph_embedding: g,
                node_embedding: nb,
                action_mask: mask,
                action,
                log_prob,
                value: out.value,
                reward,
                done: true,
            });
        }
        buffer
    }

    #[test]
    fn ppo_update_shifts_probability_towards_rewarded_action() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut policy = ActorCritic::new(PolicyConfig::small(), &mut rng);
        let cfg = PpoConfig {
            learning_rate: 3e-3,
            epochs: 4,
            minibatch_size: 3,
            // Keep the value-loss gradient small so the shared CNN is not
            // dragged around by the critic while we probe the actor.
            value_coef: 0.05,
            entropy_coef: 0.0,
            ..PpoConfig::small()
        };
        let mut trainer = PpoTrainer::new(cfg.clone());

        let masks = probe_masks();
        let g = Tensor::zeros(&[crate::policy::EMBEDDING_DIM]);
        let nb = Tensor::zeros(&[crate::policy::EMBEDDING_DIM]);
        let mut mask = vec![0.0f32; crate::action::ACTION_SPACE];
        mask[0] = 1.0;
        mask[1] = 1.0;

        let before = {
            let out = policy.forward(&masks, &g, &nb);
            masked_log_softmax(&out.logits, &mask).get(0)
        };
        for _ in 0..10 {
            let buffer = synthetic_buffer(&mut policy, &cfg, 10.0);
            let stats = trainer.update(&mut policy, &buffer, &mut rng);
            assert!(stats.gradient_steps > 0);
            assert!(stats.approx_kl.is_finite());
        }
        let after = {
            let out = policy.forward(&masks, &g, &nb);
            masked_log_softmax(&out.logits, &mask).get(0)
        };
        assert!(
            after > before,
            "probability of the rewarded action did not increase: {before} → {after}"
        );
    }

    /// The loss head against the dense formulation it replaced, kept here
    /// as the oracle: masked logits, `log_softmax`, `categorical_entropy`
    /// and gradients over every action, masked ones zeroed, then scaled.
    /// The taken action's log-probability, the entropy and every gradient
    /// must match in `f32` bits, for masks from one admissible action to
    /// all of them.
    #[test]
    fn loss_head_matches_the_dense_formulation_bit_for_bit() {
        use afp_tensor::loss::categorical_entropy;
        use rand::Rng;

        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(17);
        let mut head = LossHead::default();
        let n = crate::action::ACTION_SPACE;
        for case in 0..40 {
            let logits =
                Tensor::from_vec((0..n).map(|_| rng.gen_range(-6.0f32..6.0)).collect(), &[n]);
            let admissible_share = [0.0, 0.02, 0.3, 0.9, 1.0][case % 5];
            let mut mask: Vec<f32> = (0..n)
                .map(|_| {
                    if rng.gen::<f64>() < admissible_share {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect();
            let action = rng.gen_range(0..n);
            mask[action] = 1.0;
            // A lone admissible `-0.0` logit: its `p · log p` is `-0.0`, so
            // the masked actions' `+0.0` terms decide the entropy's sign.
            let mut logits = logits;
            if case % 10 == 0 {
                logits.data_mut()[action] = -0.0;
            }
            let d = rng.gen_range(-2.0f32..2.0);
            let (coef, scale) = (rng.gen_range(0.0f32..0.1), 1.0 / rng.gen_range(1..9) as f32);

            let masked = apply_mask(&logits, &mask);
            let log_probs = masked.log_softmax();
            let (entropy, entropy_grad) = categorical_entropy(&masked);
            let mut dense = log_probs.map(f32::exp).scale(-d);
            dense.data_mut()[action] += d;
            dense.add_scaled_inplace(&entropy_grad, -coef);
            for (g, &m) in dense.data_mut().iter_mut().zip(&mask) {
                if m <= 0.0 {
                    *g = 0.0;
                }
            }
            let dense = dense.scale(scale);

            let log_prob = head.evaluate(&logits, &mask, action);
            assert_eq!(
                log_prob.to_bits(),
                log_probs.get(action).to_bits(),
                "case {case}"
            );
            assert_eq!(head.entropy.to_bits(), entropy.to_bits(), "case {case}");
            let grad = head.grad_logits(action, d, coef, scale);
            assert_eq!(bits(grad.data()), bits(dense.data()), "case {case}");
        }
    }

    /// End-to-end gradient check of the PPO loss on `PolicyConfig::small`:
    /// the parameter gradients one transition accumulates through the
    /// masked log-softmax, the clipped surrogate, the entropy bonus and the
    /// value loss must match central finite differences of the loss the
    /// same call reports, for the parameters with the largest gradients and
    /// for a spread of the others.
    #[test]
    fn ppo_loss_gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut policy = ActorCritic::new(PolicyConfig::small(), &mut rng);
        // Nonzero biases: with the zero initial biases, outputs fed only by
        // ReLU-dead inputs sit exactly on a kink, where a central difference
        // averages the two one-sided slopes.
        for p in policy.params_mut() {
            if p.name.ends_with("bias") {
                p.value =
                    afp_tensor::Init::XavierUniform.sample(&mut rng, p.value.shape(), 400, 400);
            }
        }
        let cfg = PpoConfig {
            entropy_coef: 0.05,
            ..PpoConfig::small()
        };
        let mut trainer = PpoTrainer::new(cfg.clone());
        let init = afp_tensor::Init::XavierUniform;
        let g = init.sample(&mut rng, &[crate::policy::EMBEDDING_DIM], 32, 32);
        let nb = init.sample(&mut rng, &[crate::policy::EMBEDDING_DIM], 32, 32);
        let mask: Vec<f32> = (0..crate::action::ACTION_SPACE)
            .map(|i| if i % 3 == 0 || i % 7 == 0 { 1.0 } else { 0.0 })
            .collect();
        let out = policy.forward(&probe_masks(), &g, &nb);
        let action = greedy_masked_action(&out.logits, &mask);
        let log_prob = masked_log_softmax(&out.logits, &mask).get(action);
        let objective = |l: &TransitionLoss| {
            l.policy_loss + cfg.value_coef * l.value_loss - cfg.entropy_coef * l.entropy
        };
        // (advantage, behaviour log-probability offset): a ratio inside the
        // clip range either way, and one clipped (surrogate gradient zero).
        for (advantage, offset) in [(1.5f32, 0.05f32), (-0.7, -0.1), (1.0, 0.5)] {
            let t = Transition {
                masks: probe_masks(),
                graph_embedding: g.clone(),
                node_embedding: nb.clone(),
                action_mask: mask.clone(),
                action,
                log_prob: log_prob - offset,
                value: out.value,
                reward: 0.0,
                done: true,
            };
            let target = out.value + 0.8;
            policy.zero_grad();
            let loss = trainer.accumulate_transition(&mut policy, &t, advantage, target, 1.0);
            assert!(loss.ratio.is_finite());
            let analytic: Vec<Vec<f32>> = policy
                .params()
                .iter()
                .map(|p| p.grad.data().to_vec())
                .collect();
            // Every parameter tensor: its largest gradient and a few fixed
            // picks, so zero gradients are checked too.
            let mut picks = Vec::new();
            for (pi, grads) in analytic.iter().enumerate() {
                let top = (0..grads.len())
                    .max_by(|&a, &b| grads[a].abs().total_cmp(&grads[b].abs()))
                    .expect("nonempty parameter");
                picks.push((pi, top));
                for j in [0, grads.len() / 3, grads.len() - 1] {
                    picks.push((pi, j));
                }
            }
            // A central difference across a ReLU kink averages two slopes;
            // such a pick shows as one-sided differences that disagree, and
            // is skipped. Most picks must be smooth.
            let eps = 1e-2f32;
            let close = |x: f32, y: f32| (x - y).abs() <= 0.05 * x.abs().max(y.abs()).max(1e-2);
            let (mut checked, mut kinked) = (0, 0);
            for (pi, j) in picks {
                let orig = policy.params()[pi].value.data()[j];
                let mut at = |v: f32, policy: &mut ActorCritic| {
                    policy.params_mut()[pi].value.data_mut()[j] = v;
                    objective(&trainer.accumulate_transition(policy, &t, advantage, target, 1.0))
                };
                let plus = at(orig + eps, &mut policy);
                let minus = at(orig - eps, &mut policy);
                let centre = at(orig, &mut policy);
                if !close((plus - centre) / eps, (centre - minus) / eps) {
                    kinked += 1;
                    continue;
                }
                let numeric = (plus - minus) / (2.0 * eps);
                let a = analytic[pi][j];
                assert!(
                    close(numeric, a),
                    "advantage {advantage}: parameter {pi}[{j}] analytic {a} numeric {numeric}"
                );
                checked += 1;
            }
            assert!(
                checked >= 3 * kinked,
                "advantage {advantage}: {kinked} picks kinked, {checked} checked"
            );
        }
    }

    #[test]
    fn update_on_empty_buffer_is_a_noop() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut policy = ActorCritic::new(PolicyConfig::small(), &mut rng);
        let mut trainer = PpoTrainer::new(PpoConfig::small());
        let buffer = RolloutBuffer::new(0.99, 0.95);
        let stats = trainer.update(&mut policy, &buffer, &mut rng);
        assert_eq!(stats.gradient_steps, 0);
    }
}
