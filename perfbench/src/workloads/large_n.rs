//! The large-n layout probe: `LayoutPipeline::with_baseline(Sa(SaConfig::table1()))`
//! on one sizing variant of `synthetic_circuit(n)` at each of n = 200, 500
//! and 1000, where the incremental PackCache / RealizeCache / MetricsScratch
//! layers and `complete_layout` at scale carry the work.
//!
//! Its timings are too host-sensitive to gate (see NOTES.md), so it runs
//! once, after the job list, in `serve_table1`'s traced run, which keeps its
//! layers measured.

use std::time::Instant;

use afp_bench::perf::{synthetic_circuit, LARGE_N_SIZES};
use afp_circuit::Circuit;
use afp_core::LayoutPipeline;
use afp_metaheuristics::{
    simulated_annealing_controlled_traced, Baseline, CostCache, Problem, RunControl, SaConfig,
};
use afp_route::{complete_layout, ProceduralConfig};

use super::{routed_job, Done};
use crate::common::{draw_seed, job_rng, sized_variant, RunOutput};
use crate::trace::Tracer;

struct Job {
    circuit: Circuit,
    n: usize,
    seed: u64,
}

fn library_job(job: &Job) -> Done {
    let mut pipeline = LayoutPipeline::with_baseline(Baseline::Sa(SaConfig::table1()), job.seed);
    let result = pipeline.run(&job.circuit);
    routed_job(
        &job.circuit,
        &result.floorplan,
        result.layout.drc_violations.len(),
    )
}

/// Cost-stack counters summed over the probe's jobs.
#[derive(Default)]
struct StackTally {
    pack_replayed: u64,
    pack_total: u64,
    snap_reused: u64,
    snap_total: u64,
    drc: Vec<usize>,
    /// (n, seconds per SA evaluation) per job.
    move_s: Vec<(usize, f64)>,
}

/// The pipeline replayed: `Baseline::Sa` through an explicit `CostCache`
/// (exactly what `Baseline::run_controlled_seeded` does) so the cache
/// counters are visible, then `complete_layout`.
fn traced_job(job: &Job, t: &mut Tracer, tally: &mut StackTally) -> Done {
    let id = t.begin("job");
    let floorplan_span = t.begin("core.floorplan");
    let started = Instant::now();
    let problem = Problem::new(&job.circuit);
    let mut cache = CostCache::new(&problem);
    let config = SaConfig {
        seed: job.seed,
        ..SaConfig::table1()
    };
    let (result, _) = simulated_annealing_controlled_traced(
        &problem,
        &config,
        None,
        &mut cache,
        &RunControl::unbounded(),
    );
    let secs = started.elapsed().as_secs_f64();
    t.end(floorplan_span);
    tally
        .move_s
        .push((job.n, secs / result.evaluations.max(1) as f64));
    let realize = cache.realize_stats();
    let pack = realize.pack_stats();
    tally.pack_replayed += pack.x_replayed + pack.y_replayed;
    tally.pack_total += pack.x_replayed + pack.y_replayed + pack.x_swept + pack.y_swept;
    tally.snap_reused += realize.kept_blocks + realize.replayed_blocks;
    tally.snap_total += realize.kept_blocks + realize.replayed_blocks + realize.searched_blocks;

    let layout = t.span("route.complete_layout", || {
        complete_layout(
            &job.circuit,
            &result.floorplan,
            &ProceduralConfig::default(),
        )
    });
    tally.drc.push(layout.drc_violations.len());
    let done = routed_job(&job.circuit, &result.floorplan, layout.drc_violations.len());
    t.end(id);
    done
}

/// Runs one replayed job per size and adds the large-n layer metrics to
/// `out`. The n = 200 job also runs through `LayoutPipeline::run`, and the
/// run is marked incorrect unless the replay matches it bit for bit.
pub fn probe(seed: u64, out: &mut RunOutput) {
    let jobs: Vec<Job> = LARGE_N_SIZES
        .iter()
        .enumerate()
        .map(|(slot, &n)| {
            let mut rng = job_rng(seed, 0, slot);
            Job {
                circuit: sized_variant(&synthetic_circuit(n), &mut rng),
                n,
                seed: draw_seed(&mut rng),
            }
        })
        .collect();
    let mut t = Tracer::default();
    let mut tally = StackTally::default();
    let replayed: Vec<Done> = jobs
        .iter()
        .map(|job| traced_job(job, &mut t, &mut tally))
        .collect();
    out.check(
        "large_n_replay_matches_pipeline",
        library_job(&jobs[0]) == replayed[0],
    );

    let totals = t.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let move_us = |n: usize| {
        let (_, s) = tally
            .move_s
            .iter()
            .find(|(m, _)| *m == n)
            .expect("one job per size");
        s * 1e6
    };
    let l = &mut out.layers;
    l.insert("core.floorplan_ms", get("core.floorplan").mean_ms());
    l.insert("layout.sa_move_us.n200", move_us(200));
    l.insert("layout.sa_move_us.n1000", move_us(1000));
    l.insert(
        "layout.pack_replay_rate",
        tally.pack_replayed as f64 / tally.pack_total.max(1) as f64,
    );
    l.insert(
        "layout.snap_replay_rate",
        tally.snap_reused as f64 / tally.snap_total.max(1) as f64,
    );
    l.insert(
        "route.complete_layout_ms",
        get("route.complete_layout").mean_ms(),
    );
    l.insert(
        "route.share",
        get("route.complete_layout").total_s / get("job").total_s,
    );
    l.insert(
        "route.drc_violations",
        tally.drc.iter().sum::<usize>() as f64 / tally.drc.len().max(1) as f64,
    );
}
