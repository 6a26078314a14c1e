//! Shared pieces of every workload: the output digest behind the
//! determinism gate, per-job records and their quality aggregates, and the
//! order statistics the metrics are reported as.

use std::collections::BTreeMap;

use afp_circuit::Circuit;
use afp_layout::{constraints, metrics, Floorplan, RewardWeights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over 64-bit words. Every quality number and counter a run
/// produces is folded in, so two runs of the same commit and seed must end
/// with the same value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn usize(&mut self, value: usize) {
        self.u64(value as u64);
    }

    pub fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    pub fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.u64(u64::from(v.to_bits()));
        }
    }

    pub fn floorplan(&mut self, floorplan: &Floorplan) {
        self.usize(floorplan.num_placed());
        for p in floorplan.placed() {
            self.usize(p.block.index());
            self.usize(p.shape_index);
            self.usize(p.cell.x);
            self.usize(p.cell.y);
            self.usize(p.grid_w);
            self.usize(p.grid_h);
            self.f64(p.rect.x0);
            self.f64(p.rect.y0);
            self.f64(p.rect.x1);
            self.f64(p.rect.y1);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// The quality of one finished floorplan, as every workload reports it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    /// Every block of the circuit is placed.
    pub placed_all: bool,
    /// Every block placed and no constraint violated.
    pub feasible: bool,
    pub dead_space_pct: f64,
    /// HPWL over `hpwl_lower_bound`.
    pub hpwl_norm: f64,
    /// Negated Eq. 5 episode reward.
    pub reward_cost: f64,
}

impl Quality {
    /// Scores a floorplan the way `LayoutPipeline::floorplan` does: Eq. 5
    /// with the default weights against the circuit's HPWL lower bound.
    pub fn of(circuit: &Circuit, floorplan: &Floorplan) -> Self {
        let m = metrics::metrics(circuit, floorplan);
        let bound = metrics::hpwl_lower_bound(circuit);
        let reward = metrics::episode_reward(circuit, floorplan, bound, &RewardWeights::default());
        let placed_all = floorplan.num_placed() == circuit.num_blocks();
        Quality {
            placed_all,
            feasible: placed_all && constraints::count_violations(circuit, floorplan) == 0,
            dead_space_pct: m.dead_space * 100.0,
            hpwl_norm: m.hpwl_um / bound,
            reward_cost: -reward,
        }
    }

    pub fn fold(&self, digest: &mut Digest) {
        digest.u64(u64::from(self.placed_all) | u64::from(self.feasible) << 1);
        digest.f64(self.dead_space_pct);
        digest.f64(self.hpwl_norm);
        digest.f64(self.reward_cost);
    }
}

/// One timed job.
#[derive(Debug, Clone, Copy)]
pub struct JobRecord {
    pub latency_s: f64,
    /// CPU time of the busiest thread over the same interval as
    /// `latency_s` (see `host::ThreadTimes::busiest_since`).
    pub cpu_s: f64,
    pub quality: Quality,
    /// The job panicked, or (serve) was cancelled, rejected or interrupted.
    pub failed: bool,
    /// Digest of the job's outputs.
    pub digest: u64,
}

/// Named per-layer values; absent names are reported as 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one workload run hands back to the reporter.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// CPU seconds of each repeated set-up, on the thread that ran it.
    pub setup_s: Vec<f64>,
    pub jobs: Vec<JobRecord>,
    /// Wall time of each round of the timed phase.
    pub round_wall_s: Vec<f64>,
    /// Busiest-thread CPU time of each round of the timed phase.
    pub round_cpu_s: Vec<f64>,
    pub digest: Digest,
    /// Correctness checks by name; any `false` marks the run incorrect.
    pub checks: Vec<(String, bool)>,
    pub layers: Layers,
    /// Span self-time summary lines of a traced run.
    pub self_times: Vec<String>,
}

impl RunOutput {
    /// Runs one set-up and records the CPU time of the thread that ran it
    /// (a thread it spawns starts up on its own clock, at its own pace).
    pub fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = crate::host::thread_cpu_s();
        let built = f();
        self.setup_s.push(crate::host::thread_cpu_s() - started);
        built
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The checks every run makes on its job records: no job failed, and
    /// some job placed every block, so the quality means are taken over at
    /// least one floorplan.
    pub fn check_jobs(&mut self) {
        let failed = self.jobs.iter().any(|j| j.failed);
        let placed = self.jobs.iter().any(|j| j.quality.placed_all);
        self.check("no_job_failed", !failed);
        self.check("some_job_placed_every_block", placed);
    }
}

/// Workload size: how many rounds of the fixed per-round job mix to run.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub rounds: usize,
    pub trace: bool,
}

/// A per-job RNG stream derived from the workload seed, so inserting or
/// reordering jobs never shifts another job's inputs.
pub fn job_rng(seed: u64, round: usize, slot: usize) -> StdRng {
    let mixed = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((round as u64) << 32 | slot as u64);
    StdRng::seed_from_u64(mixed)
}

/// A sizing variant of `base` (areas jittered by up to ±10%) with its
/// constraints stripped, as the Table I protocol evaluates circuits (paper
/// §V-B: "No constraints are imposed on any circuit").
pub fn sized_variant(base: &Circuit, rng: &mut StdRng) -> Circuit {
    let mut c = afp_circuit::generators::random_variant(base, 0.1, rng);
    c.constraints = afp_circuit::ConstraintSet::new();
    c
}

/// A job seed drawn from the job's own stream.
pub fn draw_seed(rng: &mut StdRng) -> u64 {
    rng.gen_range(0..u32::MAX as u64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile of `values` (`q` in `[0, 1]`).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Arithmetic mean; NaN over no values, so an empty set never reads as a
/// perfect score.
pub fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    sum / n as f64
}
