//! `rl_fewshot`: the paper's R-GCN + PPO method as Table I runs it, with
//! the routing step of Table II's layout pipeline, and the only workload that
//! trains.
//!
//! Set-up pre-trains the R-GCN and curriculum-trains the small-config agent
//! at `Table1Config::quick` settings. Each job clones that reference agent,
//! fine-tunes it for k ∈ {0, 1, 8} episodes (equal shares) on a sizing
//! variant of one of the six evaluation circuits, and runs
//! `LayoutPipeline::with_agent(..).run` (solve, then `complete_layout`).

use std::time::Instant;

use afp_bench::table1::{train_reference_agent, Table1Config};
use afp_circuit::generators::evaluation_set;
use afp_circuit::Circuit;
use afp_core::LayoutPipeline;
use afp_gnn::pretrain;
use afp_rl::{train_with_encoder, FloorplanAgent};
use afp_route::{complete_layout, ProceduralConfig};

use super::rl::{self, RlCounters};
use super::{finish_trace, routed_job, run_round, timed_rounds, Done};
use crate::common::{draw_seed, job_rng, sized_variant, Plan, RunOutput};
use crate::trace::Tracer;

/// Fine-tuning budgets, in equal shares: p50 falls in the k = 1 mode and
/// p90 in the k = 8 mode, never on the jump between modes.
pub const BUDGETS: [usize; 3] = [0, 1, 8];
const SETUP_REPEATS: usize = 5;

pub struct Job {
    circuit: Circuit,
    k: usize,
    seed: u64,
}

/// One round: every evaluation circuit at every budget, constraints
/// stripped as the Table I protocol evaluates them.
pub fn rounds(plan: &Plan) -> Vec<Vec<Job>> {
    let set = evaluation_set();
    (0..plan.rounds)
        .map(|round| {
            let mut jobs = Vec::new();
            for (ci, bench) in set.iter().enumerate() {
                for (ki, &k) in BUDGETS.iter().enumerate() {
                    let slot = ci * BUDGETS.len() + ki;
                    let mut rng = job_rng(plan.seed, round, slot);
                    let circuit = sized_variant(&bench.circuit, &mut rng);
                    jobs.push(Job {
                        circuit,
                        k,
                        seed: draw_seed(&mut rng),
                    });
                }
            }
            jobs
        })
        .collect()
}

fn library_job(reference: &FloorplanAgent, job: &Job) -> Done {
    let mut agent = rl::clone_agent(reference, job.seed);
    if job.k > 0 {
        agent.fine_tune(&job.circuit, job.k);
    }
    let result = LayoutPipeline::with_agent(agent).run(&job.circuit);
    routed_job(
        &job.circuit,
        &result.floorplan,
        result.layout.drc_violations.len(),
    )
}

fn traced_job(
    reference: &FloorplanAgent,
    job: &Job,
    t: &mut Tracer,
    c: &mut RlCounters,
    drc: &mut Vec<usize>,
) -> Done {
    let id = t.begin("job");
    let mut agent = t.span("rl.clone_agent", || rl::clone_agent(reference, job.seed));
    if job.k > 0 {
        let ft = t.begin("rl.fine_tune");
        rl::traced_fine_tune(&mut agent, &job.circuit, job.k, t, c);
        t.end(ft);
    }
    let solve = t.begin("rl.solve");
    let floorplan = rl::traced_solve(&mut agent, &job.circuit, t, c);
    t.end(solve);
    let layout = t.span("route.complete_layout", || {
        complete_layout(&job.circuit, &floorplan, &ProceduralConfig::default())
    });
    drc.push(layout.drc_violations.len());
    let done = routed_job(&job.circuit, &floorplan, layout.drc_violations.len());
    t.end(id);
    done
}

pub fn run(plan: &Plan) -> RunOutput {
    let mut out = RunOutput::default();
    let config = Table1Config::quick();
    let mut reference = None;
    let mut weights = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let agent = out.setup(|| train_reference_agent(&config));
        weights.push(rl::agent_digest(&agent));
        reference = Some(agent);
    }
    let reference = reference.expect("at least one set-up");
    out.check(
        "setup_weights_repeat",
        weights.iter().all(|&w| w == weights[0]),
    );
    out.digest.u64(weights[0]);

    let rounds = rounds(plan);
    if !plan.trace {
        timed_rounds(&rounds, &mut out, |job| library_job(&reference, job));
        return out;
    }

    // Traced: the set-up replayed with spans, every round through the
    // replay, then the first round through the library for reference.
    let mut t = Tracer::default();
    let started = Instant::now();
    let pretrained = t.span("gnn.pretrain", || pretrain(&config.pretrain));
    let pretrain_s = started.elapsed().as_secs_f64();
    let trained = t.span("rl.curriculum_train", || {
        train_with_encoder(
            pretrained.model.into_encoder(),
            &afp_circuit::generators::training_set(),
            &config.train,
        )
    });
    out.check(
        "traced_setup_matches_library",
        rl::agent_digest(&trained.agent) == weights[0],
    );
    let mut counters = RlCounters::default();
    let mut drc = Vec::new();
    let mut replay = (0, 0.0);
    for (i, round) in rounds.iter().enumerate() {
        let r = run_round(round, &mut out, |job| {
            t.set_job(job.seed);
            traced_job(&reference, job, &mut t, &mut counters, &mut drc)
        });
        if i == 0 {
            replay = r;
        }
    }
    let library = run_round(&rounds[0], &mut RunOutput::default(), |job| {
        library_job(&reference, job)
    });
    out.check("actions_respect_masks", counters.mask_violations == 0);

    let totals = t.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let job_s = get("job").total_s;
    let l = &mut out.layers;
    l.insert("gnn.pretrain_s", pretrain_s);
    l.insert("rl.policy_fwd_ms", get("rl.policy_fwd").mean_ms());
    l.insert("rl.rollout_ms", get("rl.rollout").mean_ms());
    l.insert("rl.env_step_us", get("rl.env_step").mean_us());
    l.insert("rl.env_observe_us", get("rl.env_observe").mean_us());
    l.insert("rl.ppo_update_ms", get("rl.ppo_update").mean_ms());
    l.insert("rl.ppo_share", get("rl.ppo_update").total_s / job_s);
    l.insert(
        "route.complete_layout_ms",
        get("route.complete_layout").mean_ms(),
    );
    l.insert("route.share", get("route.complete_layout").total_s / job_s);
    l.insert(
        "route.drc_violations",
        drc.iter().sum::<usize>() as f64 / drc.len().max(1) as f64,
    );
    rl::counter_layers(&counters, l);

    let probe_circuit = &rounds[0][0].circuit;
    let shapes_ok = rl::tensor_probe(
        reference.policy(),
        &rl::first_masks(probe_circuit),
        30,
        &rl::TENSOR_SMALL,
        &mut out.layers,
    );
    out.check("tensor_probe_matches_policy", shapes_ok);
    out.layers.insert(
        "rl.policy_bwd_ms",
        rl::policy_bwd_probe(&reference, probe_circuit, 30),
    );
    let circuits: Vec<Circuit> = evaluation_set().into_iter().map(|b| b.circuit).collect();
    rl::mask_and_encode_probe(&reference, &circuits, &mut out.layers);
    let (paper_masks_ok, paper_shapes_ok) = rl::paper_probe(probe_circuit, &mut out.layers);
    out.check("paper_actions_respect_masks", paper_masks_ok);
    out.check("paper_tensor_probe_matches_policy", paper_shapes_ok);
    finish_trace(
        &t,
        &mut out,
        "rl_fewshot",
        plan.seed,
        "job",
        library,
        replay,
    );
    out
}
