//! Fixed-work benchmark of the analog-floorplan workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Run from the repository root. `--seconds` sets how many rounds of the
//! workload's fixed job mix run (rounds = seconds ÷ the round's nominal
//! length, at least one), so the work done depends only on the arguments,
//! never on how fast the host is. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of a traced
//! run with `--trace 1`. See `perfbench/NOTES.md`.

mod common;
mod host;
mod trace;
mod workloads;

use std::process::ExitCode;

use common::{mean, median, percentile, Plan, RunOutput};

/// A workload: its name, nominal seconds per round on a 2-thread x86-64
/// host, and its runner.
struct Workload {
    name: &'static str,
    round_s: f64,
    run: fn(&Plan) -> RunOutput,
}

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "rl_fewshot",
        round_s: 5.0,
        run: workloads::rl_fewshot::run,
    },
    Workload {
        name: "serve_table1",
        round_s: 0.055,
        run: workloads::serve_table1::run,
    },
];

const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("cpu_throughput_per_s", "1/s"),
    ("cpu_latency_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("dead_space_pct", "%"),
    ("hpwl_norm", "ratio"),
    ("reward_cost", "reward"),
    ("feasible_rate", "ratio"),
];

const PER_LAYER: [(&str, &str); 65] = [
    ("tensor.conv.fwd_ms", "ms"),
    ("tensor.dense.fwd_ms", "ms"),
    ("tensor.deconv.fwd_ms", "ms"),
    ("tensor.conv.bwd_ms", "ms"),
    ("tensor.dense.bwd_ms", "ms"),
    ("tensor.deconv.bwd_ms", "ms"),
    ("tensor.fwd_macs", "count"),
    ("tensor.fwd_gmac_per_s", "GMAC/s"),
    ("tensor.paper.conv.fwd_ms", "ms"),
    ("tensor.paper.dense.fwd_ms", "ms"),
    ("tensor.paper.deconv.fwd_ms", "ms"),
    ("tensor.paper.conv.bwd_ms", "ms"),
    ("tensor.paper.dense.bwd_ms", "ms"),
    ("tensor.paper.deconv.bwd_ms", "ms"),
    ("tensor.paper.fwd_macs", "count"),
    ("tensor.paper.fwd_gmac_per_s", "GMAC/s"),
    ("rl.policy_fwd_ms", "ms"),
    ("rl.policy_bwd_ms", "ms"),
    ("rl.paper.policy_fwd_ms", "ms"),
    ("rl.paper.policy_bwd_ms", "ms"),
    ("rl.ppo_update_ms", "ms"),
    ("rl.ppo_share", "ratio"),
    ("rl.rollout_ms", "ms"),
    ("rl.env_step_us", "us"),
    ("rl.env_observe_us", "us"),
    ("rl.decisions", "count"),
    ("rl.dead_end_rate", "ratio"),
    ("rl.solve_retry_rate", "ratio"),
    ("layout.state_masks_us", "us"),
    ("gnn.pretrain_s", "s"),
    ("gnn.encode_us", "us"),
    ("layout.sa_move_us.n19", "us"),
    ("layout.sa_move_us.n200", "us"),
    ("layout.sa_move_us.n1000", "us"),
    ("layout.pack_replay_rate", "ratio"),
    ("layout.snap_replay_rate", "ratio"),
    ("core.floorplan_ms", "ms"),
    ("meta.solve_ms.sa", "ms"),
    ("meta.solve_ms.ga", "ms"),
    ("meta.solve_ms.pso", "ms"),
    ("meta.solve_ms.rlsa", "ms"),
    ("meta.solve_ms.sprl", "ms"),
    ("meta.evals_per_s.sa", "1/s"),
    ("meta.evals_per_s.ga", "1/s"),
    ("meta.evals_per_s.pso", "1/s"),
    ("meta.evals_per_s.rlsa", "1/s"),
    ("meta.evals_per_s.sprl", "1/s"),
    ("meta.memo_hit_rate", "ratio"),
    ("route.complete_layout_ms", "ms"),
    ("route.share", "ratio"),
    ("route.drc_violations", "count"),
    ("serve.submit_us", "us"),
    ("serve.fingerprint_us", "us"),
    ("serve.run_pending_ms", "ms"),
    ("serve.hit_rate", "ratio"),
    ("serve.warm_seed_rate", "ratio"),
    ("serve.cold_rate", "ratio"),
    ("serve.evictions", "count"),
    ("serve.cold_solve_ms", "ms"),
    ("par.batches", "count"),
    ("par.inline_batches", "count"),
    ("par.threads_woken", "count"),
    ("par.clamped_batches", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })
}

/// One metric entry. A value that is not finite is written the way
/// Python's `json` module reads it (`NaN`, `Infinity`), never as a number
/// that could pass for a measurement.
fn metric(name: &str, value: f64, unit: &str) -> String {
    let value = match value {
        v if v.is_nan() => "NaN".to_string(),
        v if v.is_infinite() => format!("{}Infinity", if v < 0.0 { "-" } else { "" }),
        v => v.to_string(),
    };
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

/// Builds the result line. End-to-end metrics come from an untraced run;
/// per-layer metrics from a traced one. Timings are critical-path CPU time
/// (see NOTES.md for why); quality means are taken over the jobs that
/// placed every block, and `feasible_rate` over all jobs.
fn result_line(out: &RunOutput, trace: bool) -> String {
    let jobs = &out.jobs;
    let failed = jobs.iter().filter(|j| j.failed).count();
    let fields: Vec<String> = if trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| metric(name, out.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let placed = || {
            jobs.iter()
                .filter(|j| j.quality.placed_all)
                .map(|j| j.quality)
        };
        let cpu: f64 = out.round_cpu_s.iter().sum();
        let cpu_latencies: Vec<f64> = jobs.iter().map(|j| j.cpu_s * 1e3).collect();
        let values = [
            median(&out.setup_s),
            jobs.len() as f64 / cpu,
            median(&cpu_latencies),
            host::peak_rss_mb(),
            mean(placed().map(|q| q.dead_space_pct)),
            mean(placed().map(|q| q.hpwl_norm)),
            mean(placed().map(|q| q.reward_cost)),
            jobs.iter().filter(|j| j.quality.feasible).count() as f64 / jobs.len().max(1) as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), v)| metric(name, v, unit))
            .collect()
    };
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        out.correct(),
        jobs.len(),
        fields.join(",")
    )
}

/// Wall-clock figures of the timed phase, printed beside the metrics for
/// reading, not gated: the jobs per wall second, the p50 job latency and,
/// where at least ten jobs lie beyond it, the p90.
fn wall_clock(out: &RunOutput) -> String {
    let wall: f64 = out.round_wall_s.iter().sum();
    let latencies: Vec<f64> = out.jobs.iter().map(|j| j.latency_s * 1e3).collect();
    let p90 = if latencies.len() >= 100 {
        format!("{:.3}", percentile(&latencies, 0.9))
    } else {
        "null".to_string()
    };
    format!(
        "\"wall_clock\":{{\"throughput_per_s\":{:.4},\"latency_ms_p50\":{:.3},\"latency_ms_p90\":{p90},\"jobs\":{}}}",
        out.jobs.len() as f64 / wall,
        median(&latencies),
        out.jobs.len()
    )
}

fn run(args: &Args) -> Result<(), String> {
    let w = workload(&args.workload)?;
    let plan = Plan {
        seed: args.seed,
        rounds: ((args.seconds / w.round_s).round() as usize).max(1),
        trace: args.trace,
    };
    let mut out = (w.run)(&plan);
    out.check_jobs();
    println!(
        "{{\"host\":{{\"threads\":{},\"cpu_model\":\"{}\",\"calibration_ms\":{:.3}}},\"workload\":\"{}\",\"seed\":{},\"rounds\":{},\"digest\":\"{:016x}\",{}}}",
        host::threads(),
        host::cpu_model(),
        host::calibration_ms(),
        w.name,
        plan.seed,
        plan.rounds,
        out.digest.value(),
        wall_clock(&out)
    );
    for line in &out.self_times {
        println!("{line}");
    }
    for (name, ok) in &out.checks {
        if !ok {
            eprintln!("check failed: {name}");
        }
    }
    println!("{}", result_line(&out, args.trace));
    Ok(())
}

/// Runs every workload twice at one round with one seed and requires
/// identical digests, runs each traced once (whose checks include the
/// replay-equals-library digest), and checks that `BENCHMARK.json` names
/// exactly the metrics this program reports.
fn self_test() -> Result<(), String> {
    let mut ok = true;
    for w in &WORKLOADS {
        let plan = Plan {
            seed: 1,
            rounds: 1,
            trace: false,
        };
        let mut a = (w.run)(&plan);
        let mut b = (w.run)(&plan);
        let mut traced = (w.run)(&Plan {
            trace: true,
            ..plan
        });
        for out in [&mut a, &mut b, &mut traced] {
            out.check_jobs();
        }
        let same = a.digest == b.digest;
        let checks = a.correct() && b.correct() && traced.correct();
        println!(
            "{}: digest {:016x} vs {:016x} {}; checks {}; failures {}",
            w.name,
            a.digest.value(),
            b.digest.value(),
            if same { "equal" } else { "DIFFER" },
            if checks { "pass" } else { "FAIL" },
            a.jobs.iter().filter(|j| j.failed).count(),
        );
        for (name, pass) in a.checks.iter().chain(&traced.checks) {
            if !pass {
                println!("  failed check: {name}");
            }
        }
        ok &= same && checks;
    }
    let spec = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let names = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|(n, _)| *n)
        .chain(WORKLOADS.iter().map(|w| w.name));
    for name in names {
        if !spec.contains(&format!("\"name\": \"{name}\"")) {
            println!("BENCHMARK.json does not list {name}");
            ok = false;
        }
    }
    let listed = spec.matches("\"name\":").count();
    let expected = END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len();
    if listed != expected {
        println!("BENCHMARK.json lists {listed} names, this program reports {expected}");
        ok = false;
    }
    if ok {
        Ok(())
    } else {
        Err("self-test failed".to_string())
    }
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        if args.self_test {
            self_test()
        } else {
            run(&args)
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
