//! RL machinery of the `rl_fewshot` workload and its probes.
//!
//! The untraced run calls `FloorplanAgent::{fine_tune, solve, run_episode}`
//! directly. The traced run cannot see inside those calls, so it replays
//! them here step by step through the same public functions
//! (`ActorCritic::forward`, `FloorplanEnv::{step, observe}`,
//! `PpoTrainer::update`, the masked action samplers), with a span around
//! each call. The replay must reproduce the library bit for bit: the traced
//! run executes its first round through the library as well and fails the
//! run if the two digests differ.

use std::time::Instant;

use afp_circuit::{Circuit, CircuitGraph, NODE_FEATURE_DIM, SHAPES_PER_BLOCK};
use afp_gnn::RgcnEncoder;
use afp_layout::{Floorplan, StateMasks, GRID_SIZE, STATE_CHANNELS};
use afp_rl::{
    greedy_masked_action, masked_log_softmax, sample_masked_action, AblationFlags, Action,
    ActorCritic, AgentConfig, EpisodeSummary, FloorplanAgent, FloorplanEnv, PpoTrainer,
    RolloutBuffer, Termination, Transition,
};
use afp_tensor::layers::{Conv2d, ConvTranspose2d, Dense};
use afp_tensor::{Layer, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{median, Digest, Layers};
use crate::trace::Tracer;

/// Clones an agent through its state dicts with a new sampling seed (the
/// policy type is not `Clone`), as the Table I harness does per seed.
pub fn clone_agent(agent: &FloorplanAgent, seed: u64) -> FloorplanAgent {
    let mut config = agent.config().clone();
    config.seed = seed;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut encoder = RgcnEncoder::new(NODE_FEATURE_DIM, &mut rng);
    encoder
        .load_state_dict(&agent.encoder().state_dict())
        .expect("identical encoder architecture");
    let mut copy = FloorplanAgent::with_encoder(encoder, config);
    copy.policy_mut()
        .load_state_dict(&agent.policy().state_dict())
        .expect("identical policy architecture");
    copy
}

/// Digest of every encoder and policy weight.
pub fn agent_digest(agent: &FloorplanAgent) -> u64 {
    let mut d = Digest::default();
    for (_, t) in agent.encoder().state_dict().iter() {
        d.f32s(t.data());
    }
    for p in agent.policy().params() {
        d.f32s(p.value.data());
    }
    d.value()
}

/// Episode outcome counters of the traced replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct RlCounters {
    pub decisions: u64,
    pub episodes: u64,
    pub dead_ends: u64,
    pub mask_violations: u64,
    pub solves: u64,
    pub solve_retries: u64,
}

/// `FloorplanAgent::run_episode`, replayed with a span per layer call and
/// an explicit check that every chosen action is admissible in its mask.
pub fn traced_episode(
    agent: &mut FloorplanAgent,
    env: &mut FloorplanEnv,
    explore: bool,
    mut buffer: Option<&mut RolloutBuffer>,
    rng: &mut StdRng,
    t: &mut Tracer,
    c: &mut RlCounters,
) -> EpisodeSummary {
    assert_eq!(
        agent.config().ablation,
        AblationFlags::default(),
        "the replay feeds every mask channel, as the full method does"
    );
    let name = env.circuit().name.clone();
    let graph = env.graph().clone();
    let embedding = t.span("rl.embed", || agent.embed(&name, &graph));
    c.episodes += 1;
    let Some(mut obs) = t.span("rl.env_observe", || env.reset()) else {
        return EpisodeSummary {
            total_reward: 0.0,
            final_reward: env.final_episode_reward(),
            termination: Termination::Completed,
            steps: 0,
        };
    };
    let mut total_reward = 0.0;
    let mut steps = 0;
    loop {
        let masks = Tensor::from_vec(
            obs.masks.to_tensor_data(),
            &[STATE_CHANNELS, GRID_SIZE, GRID_SIZE],
        );
        let node_embedding = embedding.node(obs.node_index);
        let out = t.span("rl.policy_fwd", || {
            agent
                .policy_mut()
                .forward(&masks, &embedding.graph_embedding, &node_embedding)
        });
        let (action, log_prob) = if explore {
            sample_masked_action(&out.logits, &obs.action_mask, rng)
        } else {
            let a = greedy_masked_action(&out.logits, &obs.action_mask);
            (a, masked_log_softmax(&out.logits, &obs.action_mask).get(a))
        };
        if obs.action_mask[action] <= 0.0 {
            c.mask_violations += 1;
        }
        let outcome = t.span("rl.env_step", || env.step(Action::from_index(action)));
        c.decisions += 1;
        total_reward += outcome.reward;
        steps += 1;
        if let Some(buf) = buffer.as_deref_mut() {
            buf.push(Transition {
                masks,
                graph_embedding: embedding.graph_embedding.clone(),
                node_embedding,
                action_mask: obs.action_mask.clone(),
                action,
                log_prob,
                value: out.value,
                reward: outcome.reward as f32,
                done: outcome.done,
            });
        }
        if outcome.done {
            if outcome.termination == Termination::DeadEnd {
                c.dead_ends += 1;
            }
            return EpisodeSummary {
                total_reward,
                final_reward: env.final_episode_reward(),
                termination: outcome.termination,
                steps,
            };
        }
        obs = t
            .span("rl.env_observe", || env.observe())
            .expect("episode not done");
    }
}

/// `FloorplanAgent::fine_tune`, replayed: one `rl.rollout` span per
/// episode and one `rl.ppo_update` span per PPO update.
pub fn traced_fine_tune(
    agent: &mut FloorplanAgent,
    circuit: &Circuit,
    episodes: usize,
    t: &mut Tracer,
    c: &mut RlCounters,
) {
    let ppo = agent.config().ppo.clone();
    let mut rng = StdRng::seed_from_u64(agent.config().seed.wrapping_add(17));
    let mut trainer = PpoTrainer::new(ppo.clone());
    let mut env = FloorplanEnv::new(circuit.clone());
    let mut buffer = RolloutBuffer::new(ppo.gamma, ppo.gae_lambda);
    for episode in 0..episodes {
        let id = t.begin("rl.rollout");
        traced_episode(agent, &mut env, true, Some(&mut buffer), &mut rng, t, c);
        t.end(id);
        if (episode + 1) % 4 == 0 || episode + 1 == episodes {
            t.span("rl.ppo_update", || {
                trainer.update(agent.policy_mut(), &buffer, &mut rng)
            });
            buffer.clear();
        }
    }
}

/// `FloorplanAgent::solve`, replayed: a greedy rollout, then seeded
/// stochastic retries while rollouts dead-end; returns the best floorplan.
pub fn traced_solve(
    agent: &mut FloorplanAgent,
    circuit: &Circuit,
    t: &mut Tracer,
    c: &mut RlCounters,
) -> Floorplan {
    let mut rng = StdRng::seed_from_u64(agent.config().seed);
    let mut best: Option<(Floorplan, f64)> = None;
    c.solves += 1;
    for attempt in 0..=FloorplanAgent::SOLVE_RETRY_ROLLOUTS {
        if attempt > 0 {
            c.solve_retries += 1;
        }
        let mut env = FloorplanEnv::new(circuit.clone());
        let id = t.begin("rl.rollout");
        let summary = traced_episode(agent, &mut env, attempt > 0, None, &mut rng, t, c);
        t.end(id);
        let placed = env.floorplan().num_placed();
        let better = match &best {
            None => true,
            Some((b, r)) => {
                placed > b.num_placed() || (placed == b.num_placed() && summary.final_reward > *r)
            }
        };
        if better {
            best = Some((env.floorplan().clone(), summary.final_reward));
        }
        if summary.termination == Termination::Completed {
            break;
        }
    }
    best.expect("at least one rollout attempted").0
}

/// Folds the RL counters into the per-layer metrics.
pub fn counter_layers(c: &RlCounters, layers: &mut Layers) {
    layers.insert("rl.decisions", c.decisions as f64);
    layers.insert(
        "rl.dead_end_rate",
        c.dead_ends as f64 / c.episodes.max(1) as f64,
    );
    layers.insert(
        "rl.solve_retry_rate",
        c.solve_retries as f64 / c.solves.max(1) as f64,
    );
}

/// Per-layer metric names of [`tensor_probe`] for the small policy.
pub const TENSOR_SMALL: [&str; 8] = [
    "tensor.conv.fwd_ms",
    "tensor.dense.fwd_ms",
    "tensor.deconv.fwd_ms",
    "tensor.conv.bwd_ms",
    "tensor.dense.bwd_ms",
    "tensor.deconv.bwd_ms",
    "tensor.fwd_macs",
    "tensor.fwd_gmac_per_s",
];

/// Per-layer metric names of [`tensor_probe`] for the paper-width policy.
pub const TENSOR_PAPER: [&str; 8] = [
    "tensor.paper.conv.fwd_ms",
    "tensor.paper.dense.fwd_ms",
    "tensor.paper.deconv.fwd_ms",
    "tensor.paper.conv.bwd_ms",
    "tensor.paper.dense.bwd_ms",
    "tensor.paper.deconv.bwd_ms",
    "tensor.paper.fwd_macs",
    "tensor.paper.fwd_gmac_per_s",
];

/// Times each layer kind of the actor-critic architecture through the
/// public `afp_tensor` layers, forward and backward, on a real observation.
/// Reports, under `names`, per-policy-pass milliseconds per layer kind
/// (conv, dense, deconv; forward then backward), the computed
/// multiply-accumulate count of one forward pass and the rate it ran at.
///
/// The probe builds its own copy of `ActorCritic`'s layer list. It returns
/// whether that copy has as many parameters as `policy`, so a change to the
/// network's architecture fails the run instead of leaving the probe timing
/// the old shapes.
pub fn tensor_probe(
    policy: &ActorCritic,
    masks: &Tensor,
    reps: usize,
    names: &[&'static str; 8],
    layers: &mut Layers,
) -> bool {
    let config = policy.config();
    let mut rng = StdRng::seed_from_u64(7);
    let side = GRID_SIZE;
    let mut convs: Vec<Conv2d> = Vec::new();
    let mut macs = 0f64;
    let mut in_ch = STATE_CHANNELS;
    for &out_ch in &config.conv_channels {
        convs.push(Conv2d::new(in_ch, out_ch, 3, 1, 1, &mut rng));
        macs += (out_ch * in_ch * 9 * side * side) as f64;
        in_ch = out_ch;
    }
    let flat = in_ch * side * side;
    let state_dim = config.state_dim();
    let [c0, c1, c2] = config.deconv_channels;
    let mut dense = [
        Dense::new(flat, config.cnn_feature_dim, &mut rng),
        Dense::new(state_dim, c0 * 16, &mut rng),
        Dense::new(state_dim, config.value_hidden, &mut rng),
        Dense::new(config.value_hidden, 1, &mut rng),
    ];
    macs += (flat * config.cnn_feature_dim
        + state_dim * c0 * 16
        + state_dim * config.value_hidden
        + config.value_hidden) as f64;
    let mut deconvs = [
        ConvTranspose2d::new(c0, c0, 4, 2, 1, &mut rng),
        ConvTranspose2d::new(c0, c1, 4, 2, 1, &mut rng),
        ConvTranspose2d::new(c1, c2, 4, 2, 1, &mut rng),
    ];
    // Transposed convs upsample 4 → 8 → 16 → 32; MACs count input positions.
    macs += ((c0 * c0 * 16 * 16) + (c0 * c1 * 16 * 64) + (c1 * c2 * 16 * 256)) as f64;
    let mut head = Conv2d::new(c2, SHAPES_PER_BLOCK, 1, 1, 0, &mut rng);
    macs += (c2 * SHAPES_PER_BLOCK * side * side) as f64;
    let probe_params: usize = convs.iter().map(|l| l.num_parameters()).sum::<usize>()
        + dense.iter().map(|l| l.num_parameters()).sum::<usize>()
        + deconvs.iter().map(|l| l.num_parameters()).sum::<usize>()
        + head.num_parameters();

    let timed = |f: &mut dyn FnMut() -> Tensor| {
        let started = Instant::now();
        let out = f();
        (out, started.elapsed().as_secs_f64() * 1e3)
    };
    let grad_like = |t: &Tensor| t.map(|_| 1e-3);
    let mut samples: [Vec<f64>; 6] = Default::default();
    for _ in 0..reps {
        let mut fwd = [0.0f64; 3]; // conv, dense, deconv
        let mut bwd = [0.0f64; 3];
        let mut x = masks.clone();
        for conv in convs.iter_mut() {
            let (y, ms) = timed(&mut || conv.forward(&x));
            fwd[0] += ms;
            x = y;
        }
        let flat_in = x.reshape(&[flat]);
        let (features, ms) = timed(&mut || dense[0].forward(&flat_in));
        fwd[1] += ms;
        let mut state = features.data().to_vec();
        state.resize(state_dim, 0.01);
        let state = Tensor::from_vec(state, &[state_dim]);
        let (seed_act, ms) = timed(&mut || dense[1].forward(&state));
        fwd[1] += ms;
        let (hidden, ms) = timed(&mut || dense[2].forward(&state));
        fwd[1] += ms;
        let (value, ms) = timed(&mut || dense[3].forward(&hidden));
        fwd[1] += ms;
        let mut y = seed_act.reshape(&[c0, 4, 4]);
        for deconv in deconvs.iter_mut() {
            let (out, ms) = timed(&mut || deconv.forward(&y));
            fwd[2] += ms;
            y = out;
        }
        let (logits, ms) = timed(&mut || head.forward(&y));
        fwd[0] += ms;

        let g = grad_like(&logits);
        let (mut g, ms) = timed(&mut || head.backward(&g));
        bwd[0] += ms;
        for deconv in deconvs.iter_mut().rev() {
            let (out, ms) = timed(&mut || deconv.backward(&g));
            bwd[2] += ms;
            g = out;
        }
        let gs = g.reshape(&[c0 * 16]);
        let (_, ms) = timed(&mut || dense[1].backward(&gs));
        bwd[1] += ms;
        let gv = grad_like(&value);
        let (gh, ms) = timed(&mut || dense[3].backward(&gv));
        bwd[1] += ms;
        let (_, ms) = timed(&mut || dense[2].backward(&gh));
        bwd[1] += ms;
        let gf = grad_like(&features);
        let (gx, ms) = timed(&mut || dense[0].backward(&gf));
        bwd[1] += ms;
        let mut g = gx.reshape(&[in_ch, side, side]);
        for conv in convs.iter_mut().rev() {
            let (out, ms) = timed(&mut || conv.backward(&g));
            bwd[0] += ms;
            g = out;
        }
        for k in 0..3 {
            samples[k].push(fwd[k]);
            samples[3 + k].push(bwd[k]);
        }
    }
    let mut fwd_ms = 0.0;
    for (k, name) in names[..6].iter().enumerate() {
        let m = median(&samples[k]);
        if k < 3 {
            fwd_ms += m;
        }
        layers.insert(name, m);
    }
    layers.insert(names[6], macs);
    layers.insert(names[7], macs / (fwd_ms * 1e-3) / 1e9);
    probe_params == policy.num_parameters()
}

/// The paper-width network (`AgentConfig::paper()`, about 34M parameters),
/// whose five-layer conv stack and 65536→512 dense layer the small policy
/// lacks: one greedy episode on `circuit` through the replay (mean policy
/// forward time), the tensor-layer probe and a backward probe. Returns
/// whether every greedy action respected its mask, and whether the tensor
/// probe's layers match the paper-width policy.
pub fn paper_probe(circuit: &Circuit, layers: &mut Layers) -> (bool, bool) {
    let mut agent = FloorplanAgent::new(AgentConfig::paper());
    let mut t = Tracer::default();
    let mut c = RlCounters::default();
    let mut env = FloorplanEnv::new(circuit.clone());
    let mut rng = StdRng::seed_from_u64(0);
    traced_episode(&mut agent, &mut env, false, None, &mut rng, &mut t, &mut c);
    let fwd = t.totals().get("rl.policy_fwd").copied().unwrap_or_default();
    layers.insert("rl.paper.policy_fwd_ms", fwd.mean_ms());
    let masks = first_masks(circuit);
    let shapes_ok = tensor_probe(agent.policy(), &masks, 3, &TENSOR_PAPER, layers);
    layers.insert(
        "rl.paper.policy_bwd_ms",
        policy_bwd_probe(&agent, circuit, 3),
    );
    (c.mask_violations == 0, shapes_ok)
}

/// Times one `ActorCritic::backward` after a forward pass on a real
/// observation, on a copy of the agent's policy.
pub fn policy_bwd_probe(agent: &FloorplanAgent, circuit: &Circuit, reps: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(11);
    let mut policy = ActorCritic::new(agent.config().policy.clone(), &mut rng);
    policy
        .load_state_dict(&agent.policy().state_dict())
        .expect("identical policy architecture");
    let mut encoder = RgcnEncoder::new(NODE_FEATURE_DIM, &mut rng);
    encoder
        .load_state_dict(&agent.encoder().state_dict())
        .expect("identical encoder architecture");
    let embedding = encoder.encode(&CircuitGraph::from_circuit(circuit));
    let mut env = FloorplanEnv::new(circuit.clone());
    let obs = env.reset().expect("circuit has blocks");
    let masks = Tensor::from_vec(
        obs.masks.to_tensor_data(),
        &[STATE_CHANNELS, GRID_SIZE, GRID_SIZE],
    );
    let node = embedding.node(obs.node_index);
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let out = policy.forward(&masks, &embedding.graph_embedding, &node);
            let grad = out.logits.map(|_| 1e-4);
            let started = Instant::now();
            policy.backward(&grad, 1e-3);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// A real observation tensor of `circuit`'s first step.
pub fn first_masks(circuit: &Circuit) -> Tensor {
    let mut env = FloorplanEnv::new(circuit.clone());
    let obs = env.reset().expect("circuit has blocks");
    Tensor::from_vec(
        obs.masks.to_tensor_data(),
        &[STATE_CHANNELS, GRID_SIZE, GRID_SIZE],
    )
}

/// Mean `StateMasks::build` time on the perf harness's mid-episode Bias-2
/// state, and mean R-GCN encode time over `circuits`, on an encoder copy.
pub fn mask_and_encode_probe(agent: &FloorplanAgent, circuits: &[Circuit], layers: &mut Layers) {
    let (circuit, floorplan, block, shapes) = afp_bench::perf::masks_workload();
    let reps = 200;
    let started = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(StateMasks::build(&circuit, &floorplan, block, &shapes));
    }
    layers.insert(
        "layout.state_masks_us",
        started.elapsed().as_secs_f64() * 1e6 / reps as f64,
    );

    let mut rng = StdRng::seed_from_u64(13);
    let mut encoder = RgcnEncoder::new(NODE_FEATURE_DIM, &mut rng);
    encoder
        .load_state_dict(&agent.encoder().state_dict())
        .expect("identical encoder architecture");
    let graphs: Vec<CircuitGraph> = circuits.iter().map(CircuitGraph::from_circuit).collect();
    let reps = 20;
    let started = Instant::now();
    for _ in 0..reps {
        for g in &graphs {
            std::hint::black_box(encoder.encode(g));
        }
    }
    layers.insert(
        "gnn.encode_us",
        started.elapsed().as_secs_f64() * 1e6 / (reps * graphs.len()) as f64,
    );
}
