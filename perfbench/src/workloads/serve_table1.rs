//! `serve_table1`: the Table I baselines served through `afp-serve`.
//!
//! The catalogue of distinct problems is the run list of the Table I quick
//! sweep: the six evaluation circuits (constraints stripped, as in Table I)
//! × the five `Baseline::all_table1()` solvers × the `Table1Config::quick()`
//! seeds. Jobs are a seeded Zipf draw over that catalogue. They go through
//! `JobEngine::submit` + `run_pending` in fixed windows of 16 from one
//! client thread, with warm starts on and two pool workers. The cache has
//! the library's default capacity, below the catalogue's size, so hits run
//! beside cold solves, warm-started solves, inserts and evictions.
//!
//! The `ServeDaemon` admission path is deliberately not driven: its drain
//! thread starts a round as soon as the first submission lands, so round
//! composition — and with it warm-start hints, evictions and every quality
//! number — depends on thread timing. Fixed windows through `run_pending`
//! repeat bit for bit.

use std::collections::BTreeMap;
use std::time::Instant;

use afp_bench::table1::Table1Config;
use afp_circuit::generators::evaluation_set;
use afp_circuit::{Circuit, ConstraintSet};
use afp_metaheuristics::{
    simulated_annealing_controlled_traced, Baseline, BaselineResult, CostCache, Problem,
    RunControl, SaConfig,
};
use afp_serve::{JobEngine, JobId, JobRequest, JobSpec, JobState, ServeConfig};
use rand::Rng;

use super::finish_trace;
use crate::common::{job_rng, Digest, JobRecord, Plan, Quality, RunOutput};
use crate::host::{thread_cpu_s, ThreadTimes};
use crate::trace::Tracer;

/// Jobs per window: eight per pool worker, so every `run_pending` hands
/// each worker several solves to balance, while a run still holds
/// thousands of windows whose cache reads and writes interleave.
const WINDOW: usize = 16;
const WINDOWS_PER_ROUND: usize = 4;
/// One pool worker per hardware thread of a 2-thread host.
const WORKERS: usize = 2;
/// The popularity exponent of web-cache request streams: Breslau et al.,
/// "Web Caching and Zipf-like Distributions: Evidence and Implications"
/// (IEEE INFOCOM 1999), measured 0.64–0.83 over six proxy traces.
const ZIPF_EXPONENT: f64 = 0.8;
/// The set-up takes well under a millisecond; its median over this many
/// repeats is reported.
const SETUP_REPEATS: usize = 201;
/// Cold misses per solver re-solved directly and compared bit for bit.
const COLD_CHECKS_PER_SOLVER: usize = 2;

/// Short solver key plus the names of its two per-layer metrics.
fn solver_names(b: &Baseline) -> (&'static str, &'static str, &'static str) {
    match b {
        Baseline::Sa(_) => ("sa", "meta.solve_ms.sa", "meta.evals_per_s.sa"),
        Baseline::Ga(_) => ("ga", "meta.solve_ms.ga", "meta.evals_per_s.ga"),
        Baseline::Pso(_) => ("pso", "meta.solve_ms.pso", "meta.evals_per_s.pso"),
        Baseline::RlSa(_) => ("rlsa", "meta.solve_ms.rlsa", "meta.evals_per_s.rlsa"),
        Baseline::SpRl(_) => ("sprl", "meta.solve_ms.sprl", "meta.evals_per_s.sprl"),
    }
}

/// The distinct problems in popularity order: every (circuit, solver,
/// seed) run of the Table I quick sweep. Rank `r` maps to solver `r % 5`,
/// circuit `(r / 5) % 6` and seed `r / 30`, so every popularity tier holds
/// every solver and circuit. The catalogue is the same for every workload
/// seed; the seed draws the traffic over it.
fn problems(seeds: usize) -> Vec<JobSpec> {
    let circuits: Vec<Circuit> = evaluation_set()
        .into_iter()
        .map(|b| {
            let mut c = b.circuit;
            c.constraints = ConstraintSet::new();
            c
        })
        .collect();
    let solvers = Baseline::all_table1();
    let n = circuits.len() * solvers.len() * seeds;
    (0..n)
        .map(|r| {
            let solver = &solvers[r % solvers.len()];
            let circuit = &circuits[(r / solvers.len()) % circuits.len()];
            let seed = (r / (solvers.len() * circuits.len())) as u64;
            JobSpec::new(circuit.clone(), solver.clone(), seed)
        })
        .collect()
}

/// Problem ranks of every window, drawn from a Zipf law.
fn windows(plan: &Plan, problems: usize) -> Vec<Vec<Vec<usize>>> {
    let mut cumulative = Vec::with_capacity(problems);
    let mut total = 0.0;
    for r in 0..problems {
        total += 1.0 / ((r + 1) as f64).powf(ZIPF_EXPONENT);
        cumulative.push(total);
    }
    (0..plan.rounds)
        .map(|round| {
            (0..WINDOWS_PER_ROUND)
                .map(|w| {
                    let mut rng = job_rng(plan.seed, round, w);
                    (0..WINDOW)
                        .map(|_| {
                            let u = rng.gen::<f64>() * total;
                            cumulative.partition_point(|&c| c < u).min(problems - 1)
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn engine() -> JobEngine {
    JobEngine::new(&ServeConfig {
        workers: WORKERS,
        warm_start: true,
        // The library default (64), below the catalogue's 90 problems.
        ..ServeConfig::default()
    })
}

fn result_digest(result: &BaselineResult) -> u64 {
    let mut d = Digest::default();
    d.floorplan(&result.floorplan);
    d.f64(result.reward);
    d.usize(result.evaluations);
    d.value()
}

/// Per-run serve tallies the per-layer metrics are built from.
#[derive(Default)]
struct Tally {
    hits: u64,
    warm: u64,
    cold: u64,
    cold_solve_s: f64,
    /// First cold (not hit, not warm-started) outcomes per solver, kept for
    /// the bit-identity check against a direct solve.
    cold_samples: BTreeMap<&'static str, Vec<(JobSpec, u64)>>,
}

/// Runs one round of windows on `engine`, recording every job. Returns the
/// round's digest and wall time.
fn serve_round(
    engine: &JobEngine,
    problems: &[JobSpec],
    round: &[Vec<usize>],
    out: &mut RunOutput,
    tally: &mut Tally,
    mut t: Option<&mut Tracer>,
) -> (u64, f64) {
    let mut digest = Digest::default();
    // Only submission through the return of `run_pending` is timed; the
    // benchmark's own scoring of the outcomes is not. CPU time follows the
    // critical path: the client thread's while it submits (the workers are
    // parked), then the busiest thread's while `run_pending` runs.
    let mut wall = 0.0;
    let mut cpu = 0.0;
    for window in round {
        let span = t.as_deref_mut().map(|t| t.begin("window"));
        let started = Instant::now();
        let started_cpu = thread_cpu_s();
        let mut submitted: Vec<(JobId, Instant, f64, usize)> = Vec::with_capacity(window.len());
        for &rank in window {
            let spec = problems[rank].clone();
            if let Some(t) = t.as_deref_mut() {
                t.span("serve.fingerprint", || spec.fingerprint());
            }
            let at = Instant::now();
            let at_cpu = thread_cpu_s();
            let id = match t.as_deref_mut() {
                Some(t) => t.span("serve.submit", || engine.submit(JobRequest::new(spec))),
                None => engine.submit(JobRequest::new(spec)),
            };
            submitted.push((id, at, at_cpu, rank));
        }
        let pending = ThreadTimes::now();
        match t.as_deref_mut() {
            Some(t) => t.span("serve.run_pending", || engine.run_pending()),
            None => engine.run_pending(),
        };
        let drained = ThreadTimes::now();
        let done = Instant::now();
        let run_cpu = drained.busiest_since(&pending);
        wall += done.duration_since(started).as_secs_f64();
        cpu += pending.own_s() - started_cpu + run_cpu;
        if let (Some(t), Some(span)) = (t.as_deref_mut(), span) {
            t.end(span);
        }
        for (id, at, at_cpu, rank) in submitted {
            let spec = &problems[rank];
            let latency_s = done.duration_since(at).as_secs_f64();
            let cpu_s = pending.own_s() - at_cpu + run_cpu;
            let mut job_digest = Digest::default();
            let (quality, failed) = match engine.state(id) {
                JobState::Done(outcome) => {
                    let r = &outcome.result;
                    let quality = Quality::of(&spec.circuit, &r.floorplan);
                    let rd = result_digest(r);
                    quality.fold(&mut job_digest);
                    job_digest.u64(rd);
                    job_digest
                        .u64(u64::from(outcome.cache_hit) | u64::from(outcome.warm_started) << 1);
                    if outcome.cache_hit {
                        tally.hits += 1;
                    } else if outcome.warm_started {
                        tally.warm += 1;
                    } else {
                        tally.cold += 1;
                        tally.cold_solve_s += r.runtime_s;
                        let samples = tally
                            .cold_samples
                            .entry(solver_names(&spec.solver).0)
                            .or_default();
                        if samples.len() < COLD_CHECKS_PER_SOLVER {
                            samples.push((spec.clone(), rd));
                        }
                    }
                    let interrupted = r.stop != afp_metaheuristics::StopReason::Completed;
                    (quality, interrupted)
                }
                _ => {
                    job_digest.u64(u64::MAX);
                    (Quality::default(), true)
                }
            };
            digest.u64(job_digest.value());
            out.jobs.push(JobRecord {
                latency_s,
                cpu_s,
                quality,
                failed,
                digest: job_digest.value(),
            });
        }
    }
    out.round_wall_s.push(wall);
    out.round_cpu_s.push(cpu);
    out.digest.u64(digest.value());
    (digest.value(), wall)
}

/// Re-solves the sampled cold misses with `Baseline::run_controlled_seeded`
/// (no warm start) and requires bit-identical results.
fn check_cold_samples(tally: &Tally, out: &mut RunOutput) {
    let mut checked = 0;
    let mut identical = true;
    for samples in tally.cold_samples.values() {
        for (spec, served) in samples {
            let (direct, _) = spec.solver.run_controlled_seeded(
                &spec.circuit,
                spec.seed,
                &RunControl::unbounded(),
                None,
            );
            identical &= result_digest(&direct) == *served;
            checked += 1;
        }
    }
    out.check("cold_misses_match_direct_solves", identical && checked > 0);
}

/// Each Table I solver once on the 19-block Bias-2 (constraints stripped):
/// solve time and evaluation rate per solver, SA's memo hit rate and time
/// per move. SA goes through an explicit `CostCache`, exactly as
/// `Baseline::Sa` does, so the memo counters are visible.
fn meta_probe(out: &mut RunOutput) {
    let mut circuit = afp_circuit::generators::bias19();
    circuit.constraints = afp_circuit::ConstraintSet::new();
    let l = &mut out.layers;
    for solver in Baseline::all_table1() {
        let (_, solve_ms, evals_per_s) = solver_names(&solver);
        let started = Instant::now();
        let result = solver.run(&circuit, 1);
        let secs = started.elapsed().as_secs_f64();
        l.insert(solve_ms, secs * 1e3);
        l.insert(evals_per_s, result.evaluations as f64 / secs);
    }
    let problem = Problem::new(&circuit);
    let mut cache = CostCache::new(&problem);
    let config = SaConfig {
        seed: 1,
        ..SaConfig::table1()
    };
    let started = Instant::now();
    let (result, _) = simulated_annealing_controlled_traced(
        &problem,
        &config,
        None,
        &mut cache,
        &RunControl::unbounded(),
    );
    let secs = started.elapsed().as_secs_f64();
    l.insert(
        "meta.memo_hit_rate",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    l.insert(
        "layout.sa_move_us.n19",
        secs * 1e6 / result.evaluations.max(1) as f64,
    );
}

pub fn run(plan: &Plan) -> RunOutput {
    let mut out = RunOutput::default();
    let seeds = Table1Config::quick().seeds;
    let mut setup = None;
    for _ in 0..SETUP_REPEATS {
        drop(setup.take());
        setup = Some(out.setup(|| (engine(), problems(seeds))));
    }
    let (engine, problems) = setup.expect("at least one set-up");
    let windows = windows(plan, problems.len());
    let mut tally = Tally::default();

    if !plan.trace {
        for round in &windows {
            serve_round(&engine, &problems, round, &mut out, &mut tally, None);
        }
        check_cold_samples(&tally, &mut out);
        fold_counters(&engine, &mut out);
        return out;
    }

    // Traced: every round with spans, then every round again untraced on
    // a fresh engine as the library reference (one 64-job round is too
    // short to compare on its own).
    let mut t = Tracer::default();
    let mut replay_wall = 0.0;
    for round in &windows {
        replay_wall += serve_round(
            &engine,
            &problems,
            round,
            &mut out,
            &mut tally,
            Some(&mut t),
        )
        .1;
    }
    let replay = (out.digest.value(), replay_wall);
    let pool = engine.pool().stats();
    let stats = engine.cache_stats();
    fold_counters(&engine, &mut out);
    // The reference run gets the memory and the CPUs to itself.
    drop(engine);
    let reference_engine = self::engine();
    let mut reference = RunOutput::default();
    let mut library_wall = 0.0;
    for round in &windows {
        library_wall += serve_round(
            &reference_engine,
            &problems,
            round,
            &mut reference,
            &mut Tally::default(),
            None,
        )
        .1;
    }
    let library = (reference.digest.value(), library_wall);
    let jobs = out.jobs.len().max(1) as f64;
    let totals = t.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let l = &mut out.layers;
    l.insert("serve.submit_us", get("serve.submit").mean_us());
    l.insert("serve.fingerprint_us", get("serve.fingerprint").mean_us());
    l.insert("serve.run_pending_ms", get("serve.run_pending").mean_ms());
    l.insert("serve.hit_rate", tally.hits as f64 / jobs);
    l.insert("serve.warm_seed_rate", tally.warm as f64 / jobs);
    l.insert("serve.cold_rate", tally.cold as f64 / jobs);
    l.insert("serve.evictions", stats.evictions as f64);
    l.insert(
        "serve.cold_solve_ms",
        tally.cold_solve_s * 1e3 / tally.cold.max(1) as f64,
    );
    l.insert("par.batches", pool.batches as f64);
    l.insert("par.inline_batches", pool.inline_batches as f64);
    l.insert("par.threads_woken", pool.threads_woken as f64);
    l.insert("par.clamped_batches", pool.clamped_batches as f64);
    check_cold_samples(&tally, &mut out);
    meta_probe(&mut out);
    super::large_n::probe(plan.seed, &mut out);
    finish_trace(
        &t,
        &mut out,
        "serve_table1",
        plan.seed,
        "window",
        library,
        replay,
    );
    out
}

/// Folds the cache counters into the run digest: hits, misses, warm seeds,
/// insertions and evictions must repeat exactly too.
fn fold_counters(engine: &JobEngine, out: &mut RunOutput) {
    let s = engine.cache_stats();
    for v in [s.hits, s.misses, s.warm_seeds, s.insertions, s.evictions] {
        out.digest.u64(v);
    }
}
