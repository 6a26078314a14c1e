//! The host record printed beside every run's metrics (never gated): thread
//! count, CPU model and a fixed calibration kernel's time, so a reader can
//! tell host noise from a code change. Plus the process's peak RSS and the
//! CPU clocks the timings are read from.

use std::hint::black_box;
use std::time::Instant;

use crate::common::median;

/// A fixed integer-and-float kernel (no allocation, no memory traffic to
/// speak of); its median time over five repeats tracks how fast this host
/// ran during the run.
pub fn calibration_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let mut x: u64 = black_box(0x2545_f491_4f6c_dd1d);
            let mut acc = 0.0f64;
            for _ in 0..2_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc += (x >> 11) as f64 * 1e-16;
            }
            black_box(acc);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

extern "C" {
    fn getrusage(who: i32, usage: *mut i64) -> i32;
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `timeval`s (4 words) then 14
    // `long`s, the first of which is `ru_maxrss` in KiB.
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is 144 writable bytes, the size of `struct rusage` on
    // 64-bit Linux, and RUSAGE_SELF (0) only writes into that struct.
    let rc = unsafe { getrusage(0, usage.as_mut_ptr()) };
    if rc != 0 {
        return 0.0;
    }
    usage[4] as f64 / 1024.0
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut i64) -> i32;
}

fn clock_s(clock: i32) -> f64 {
    let mut ts = [0i64; 2];
    // SAFETY: `ts` is a writable `struct timespec` (two 64-bit words on
    // 64-bit Linux), the only memory `clock_gettime` writes.
    let rc = unsafe { clock_gettime(clock, ts.as_mut_ptr()) };
    assert_eq!(rc, 0, "the CPU clocks are always available");
    ts[0] as f64 + ts[1] as f64 * 1e-9
}

/// CPU time consumed so far by the calling thread, in seconds. Unlike wall
/// time it excludes the time the thread waited for a CPU.
pub fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time of every thread of the process at one instant: the calling
/// thread from its own clock, every other thread from the run time the
/// kernel keeps for it (`/proc/self/task/<tid>/schedstat`, nanoseconds).
/// The other threads are read while parked, when that figure is exact.
pub struct ThreadTimes {
    own_s: f64,
    others: Vec<(String, f64)>,
}

impl ThreadTimes {
    pub fn now() -> Self {
        let own_tid = std::fs::read_link("/proc/thread-self")
            .ok()
            .and_then(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()));
        let mut others = Vec::new();
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let tid = task.file_name().to_string_lossy().into_owned();
                if Some(&tid) == own_tid.as_ref() {
                    continue;
                }
                let run_ns = std::fs::read_to_string(task.path().join("schedstat"))
                    .ok()
                    .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok());
                if let Some(ns) = run_ns {
                    others.push((tid, ns as f64 * 1e-9));
                }
            }
        }
        ThreadTimes {
            own_s: thread_cpu_s(),
            others,
        }
    }

    /// The calling thread's CPU seconds at the snapshot.
    pub fn own_s(&self) -> f64 {
        self.own_s
    }

    /// CPU seconds of the busiest thread since `earlier`: the interval's
    /// critical path when the threads run side by side, as the pool's
    /// workers do. It grows when work moves from parallel to serial and
    /// shrinks when a split gets more even; it leaves out the time a
    /// thread waited for a CPU or sat parked.
    pub fn busiest_since(&self, earlier: &ThreadTimes) -> f64 {
        self.others
            .iter()
            .map(|(tid, s)| {
                let before = earlier.others.iter().find(|(t, _)| t == tid);
                s - before.map_or(0.0, |(_, b)| *b)
            })
            .fold(self.own_s - earlier.own_s, f64::max)
    }
}
