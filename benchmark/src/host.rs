//! What the benchmark knows about the machine it runs on: CPU pinning,
//! process accounting, and the noise evidence every output carries.
//!
//! Nothing here normalises a measurement. The evidence is printed beside
//! the numbers so a reader can tell a disturbed run from a quiet one.
//! Linux only: it reads `/proc` and calls three libc functions the
//! standard library does not wrap.

use serde::Serialize;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

/// Words of a `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU time of the whole process so far, in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Process accounting at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User CPU seconds.
    pub cpu_user_s: f64,
    /// System CPU seconds.
    pub cpu_sys_s: f64,
    /// Minor page faults.
    pub minor_faults: i64,
    /// Involuntary context switches.
    pub invol_ctx_switches: i64,
}

impl Usage {
    /// Reads the process's accounting now.
    pub fn now() -> Usage {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a valid, writable rusage for the duration of the call.
        if unsafe { getrusage(RUSAGE_SELF, &mut ru) } != 0 {
            return Usage::default();
        }
        let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
        Usage {
            cpu_user_s: secs(ru.ru_utime),
            cpu_sys_s: secs(ru.ru_stime),
            minor_faults: ru.ru_minflt,
            invol_ctx_switches: ru.ru_nivcsw,
        }
    }

    /// What accrued between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            cpu_user_s: self.cpu_user_s - earlier.cpu_user_s,
            cpu_sys_s: self.cpu_sys_s - earlier.cpu_sys_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
            invol_ctx_switches: self.invol_ctx_switches - earlier.invol_ctx_switches,
        }
    }
}

/// Peak resident set size (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current resident set, so that a later
/// [`peak_rss_mb`] covers only what follows. Where the kernel or the
/// sandbox does not allow it, the peak goes on covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Jiffies of one CPU from `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
struct CpuTicks {
    busy: u64,
    steal: u64,
    total: u64,
}

/// Per-CPU jiffies, indexed by CPU id.
fn read_proc_stat() -> Vec<(usize, CpuTicks)> {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let mut out = Vec::new();
    for line in text.lines() {
        let mut fields = line.split_whitespace();
        let Some(id) = fields
            .next()
            .and_then(|name| name.strip_prefix("cpu"))
            .and_then(|n| n.parse::<usize>().ok())
        else {
            continue;
        };
        // user nice system idle iowait irq softirq steal
        let v: Vec<u64> = fields.take(8).filter_map(|f| f.parse().ok()).collect();
        if v.len() < 8 {
            continue;
        }
        let total: u64 = v.iter().sum();
        let idle = v[3] + v[4];
        out.push((
            id,
            CpuTicks {
                busy: total - idle,
                steal: v[7],
                total,
            },
        ));
    }
    out
}

fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Pins the process (and every thread it spawns later) to the allowed CPU
/// that was least busy over a 200 ms `/proc/stat` sample. Returns the CPU,
/// or `None` when pinning is not possible here.
pub fn pin_to_quietest_cpu() -> Option<usize> {
    let allowed = allowed_cpus();
    let before = read_proc_stat();
    std::thread::sleep(Duration::from_millis(200));
    let after = read_proc_stat();
    let busy_delta = |cpu: usize| {
        let find = |s: &[(usize, CpuTicks)]| s.iter().find(|(id, _)| *id == cpu).map(|(_, t)| *t);
        match (find(&before), find(&after)) {
            (Some(b), Some(a)) => a.busy.saturating_sub(b.busy),
            _ => u64::MAX,
        }
    };
    let cpu = allowed
        .iter()
        .copied()
        .min_by_key(|&c| (busy_delta(c), c))?;
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// A fixed CPU-and-memory loop, timed: the same work before and after the
/// run. A canary that slows down says the host, not the program, changed.
pub fn canary_ms() -> f64 {
    const WORDS: usize = 4 << 20; // 32 MB, beyond any cache here
    const STEPS: usize = 6 << 20;
    // Ones, not zeroes: the pages are touched here, outside the timed loop.
    let mut buf = vec![1u64; WORDS];
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut buf[(x as usize) & (WORDS - 1)];
        *slot = slot.wrapping_add(x);
    }
    std::hint::black_box(&buf);
    started.elapsed().as_secs_f64() * 1e3
}

/// `/proc/stat` at the start of a run, to be compared at its end.
pub struct StatBaseline(Vec<(usize, CpuTicks)>);

impl StatBaseline {
    /// Samples now.
    pub fn now() -> Self {
        StatBaseline(read_proc_stat())
    }
}

/// Host-noise evidence of one run. Reported, never used to correct.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Noise {
    /// The CPU the process is pinned to; `None` means not pinned.
    pub pinned_cpu: Option<usize>,
    /// Busy share of every *other* CPU over the run, percent.
    pub other_cpus_busy_pct: f64,
    /// Steal share over all CPUs over the run, percent.
    pub steal_pct: f64,
    /// Canary loop before the run, milliseconds.
    pub canary_before_ms: f64,
    /// Canary loop after the run, milliseconds.
    pub canary_after_ms: f64,
}

impl Noise {
    /// Closes the evidence over a run that started at `baseline`.
    pub fn close(
        pinned_cpu: Option<usize>,
        baseline: &StatBaseline,
        canary_before_ms: f64,
        canary_after_ms: f64,
    ) -> Noise {
        let after = read_proc_stat();
        let (mut other_busy, mut other_total, mut steal, mut total) = (0u64, 0u64, 0u64, 0u64);
        for (id, a) in &after {
            let Some((_, b)) = baseline.0.iter().find(|(bid, _)| bid == id) else {
                continue;
            };
            steal += a.steal.saturating_sub(b.steal);
            total += a.total.saturating_sub(b.total);
            if Some(*id) != pinned_cpu {
                other_busy += a.busy.saturating_sub(b.busy);
                other_total += a.total.saturating_sub(b.total);
            }
        }
        let pct = |part: u64, whole: u64| {
            if whole == 0 {
                0.0
            } else {
                100.0 * part as f64 / whole as f64
            }
        };
        Noise {
            pinned_cpu,
            other_cpus_busy_pct: pct(other_busy, other_total),
            steal_pct: pct(steal, total),
            canary_before_ms,
            canary_after_ms,
        }
    }
}

/// Where a number came from: the machine-shape fields ROADMAP item 1 asks
/// every bench JSON to carry.
#[derive(Clone, Debug, Serialize)]
pub struct Provenance {
    /// Commit of the checkout, `unknown` outside a git repository.
    pub git_sha: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Kernel release.
    pub kernel: String,
    /// CPUs online.
    pub nproc: usize,
    /// CPUs this process may use.
    pub machine_parallelism: usize,
    /// cgroup v2 `cpu.max`.
    pub cgroup_cpu_max: String,
    /// Selected sketch kernel and detected ISA.
    pub sketch_kernel: String,
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The commit `HEAD` points at, read from `.git` without starting a process.
fn git_sha() -> Option<String> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()?
        .join(".git");
    let head = std::fs::read_to_string(root.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(reference) => std::fs::read_to_string(root.join(reference))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(root.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
            }),
    }
}

impl Provenance {
    /// Collects the provenance of this process.
    pub fn collect() -> Provenance {
        let unknown = || "unknown".to_string();
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
        Provenance {
            git_sha: git_sha().unwrap_or_else(unknown),
            rustc: rustc.unwrap_or_else(unknown),
            kernel: read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(unknown),
            nproc: read_proc_stat().len(),
            machine_parallelism: allowed_cpus().len(),
            cgroup_cpu_max: read_trimmed("/sys/fs/cgroup/cpu.max").unwrap_or_else(unknown),
            sketch_kernel: hifind_sketch::simd::kernel_info_string(),
        }
    }
}
