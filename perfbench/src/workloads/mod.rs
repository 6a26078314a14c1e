//! The workloads and the probes their traced runs add. Each workload builds
//! a fixed job list from the workload seed, runs it to the end (never to a
//! time limit), checks its outputs and returns a [`RunOutput`].

pub mod large_n;
pub mod rl;
pub mod rl_fewshot;
pub mod serve_table1;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use afp_circuit::Circuit;
use afp_layout::Floorplan;

use crate::common::{Digest, JobRecord, Quality, RunOutput};
use crate::host::ThreadTimes;
use crate::trace::Tracer;

/// What a job hands back: its floorplan's quality and a digest of the job's
/// own outputs (the floorplan's placements plus counters such as DRC
/// violations), both folded into the run digest.
pub type Done = (Quality, u64);

/// The outcome of a job that floorplanned and routed `circuit`.
pub fn routed_job(circuit: &Circuit, floorplan: &Floorplan, drc_violations: usize) -> Done {
    let mut d = Digest::default();
    d.floorplan(floorplan);
    d.usize(drc_violations);
    (Quality::of(circuit, floorplan), d.value())
}

/// Runs one round of jobs one after another, timing each job and the
/// round. A panicking job is recorded as failed. A job whose floorplan
/// leaves blocks unplaced (every rollout dead-ended) completed as designed
/// and counts as infeasible, not failed. Returns the round's digest (also
/// folded into the run digest) and its wall time.
pub fn run_round<J>(
    round: &[J],
    out: &mut RunOutput,
    mut run: impl FnMut(&J) -> Done,
) -> (u64, f64) {
    let mut digest = Digest::default();
    let round_started = Instant::now();
    let mut round_cpu = 0.0;
    for job in round {
        let started = Instant::now();
        let cpu = ThreadTimes::now();
        let result = catch_unwind(AssertUnwindSafe(|| run(job)));
        let latency_s = started.elapsed().as_secs_f64();
        let cpu_s = ThreadTimes::now().busiest_since(&cpu);
        round_cpu += cpu_s;
        let mut job_digest = Digest::default();
        let (quality, failed) = match result {
            Ok((quality, extra)) => {
                quality.fold(&mut job_digest);
                job_digest.u64(extra);
                (quality, false)
            }
            Err(_) => {
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
    let wall = round_started.elapsed().as_secs_f64();
    out.round_wall_s.push(wall);
    out.round_cpu_s.push(round_cpu);
    out.digest.u64(digest.value());
    (digest.value(), wall)
}

/// Runs the untraced timed phase: the first job once untimed (it warms
/// the allocator and caches), then every round; the run fails unless the
/// timed first job reproduces the warm-up's outputs bit for bit — the
/// determinism gate inside a run.
pub fn timed_rounds<J>(rounds: &[Vec<J>], out: &mut RunOutput, mut run: impl FnMut(&J) -> Done) {
    let mut warm_up = RunOutput::default();
    run_round(&rounds[0][..1], &mut warm_up, &mut run);
    for round in rounds {
        run_round(round, out, &mut run);
    }
    let ok = warm_up.jobs[0].digest == out.jobs[0].digest;
    out.check("first_job_repeats_bit_identical", ok);
}

/// Closes a traced run: checks the replay against the library round, adds
/// coverage (the share of `root` spans their child spans cover) and
/// overhead, and writes the spans and their self times.
pub fn finish_trace(
    tracer: &Tracer,
    out: &mut RunOutput,
    workload: &str,
    seed: u64,
    root: &'static str,
    library_round: (u64, f64),
    replay_round: (u64, f64),
) {
    out.check(
        "traced_replay_matches_library",
        library_round.0 == replay_round.0,
    );
    out.layers.insert("trace.coverage", tracer.coverage(root));
    out.layers
        .insert("trace.overhead", replay_round.1 / library_round.1 - 1.0);
    for (name, t) in tracer.totals() {
        out.self_times.push(format!(
            "{{\"span\":\"{name}\",\"count\":{},\"total_s\":{:.6},\"self_s\":{:.6}}}",
            t.count, t.total_s, t.self_s
        ));
    }
    let path = Path::new("perfbench")
        .join("out")
        .join(format!("trace-{workload}-{seed}.jsonl"));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
}
