//! Sharded vs. serial record-plane throughput per sketch kernel, written
//! to `results/BENCH_parallel_record.json`.
//!
//! For every kernel this CPU can run (scalar always, AVX2 when CPUID says
//! so) the bench measures the serial [`SketchRecorder`] (`record_all`, the
//! one batched record path) against [`ParallelRecorder`] at 1, 2, 4 and 8
//! workers on the same synthetic
//! SYN/SYN-ACK mix (best-of interleaved passes, each including the
//! interval-close drain/merge). Interval closes are taken through
//! [`ParallelRecorder::end_interval_with_stats`], so each row carries the
//! per-phase merge breakdown (per-shard drain wait, single cache-blocked
//! combine time, counter bytes touched) instead of one opaque merge blob.
//! Every kernel's run cross-checks that a sharded interval's merged
//! snapshot is bit-identical to the serial one — exiting nonzero on any
//! divergence, which is what the CI smoke step keys on.
//!
//! Run: `cargo run --release -p hifind-bench --bin parallel_record`
//! (`-- --quick` shrinks the workload for CI smoke).
//!
//! Thread-parallel scaling only shows on multi-core hardware; the JSON
//! records `machine_parallelism` so a single-core result (where sharding
//! adds channel overhead and no concurrency) is not misread as a
//! regression.

use hifind::parallel::ParallelRecorder;
use hifind::{HiFindConfig, SketchRecorder};
use hifind_bench::harness::{section, write_json};
use hifind_bench::overhead::synthetic_packets;
use hifind_flow::Packet;
use hifind_sketch::simd::{detect_isa, kernel_for, set_kernel, Isa};
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

/// Serial recording throughput measured at the commit before the sharded
/// record plane and the single-pass hash plan landed (same machine, same
/// workload: 500k packets, seed 6, `HiFindConfig::paper(9)`, best of 5).
/// Kept in the JSON so the speedup columns are meaningful without
/// checking out the old commit.
const PRE_PR_SERIAL_PPS: f64 = 1_188_384.86;

/// Serial record-only throughput and 8-worker merge wall time measured at
/// the PR 4 commit (scalar per-packet recording, pairwise merges) — the
/// baselines the SIMD acceptance criteria compare against.
const PR4_SERIAL_RECORD_ONLY_PPS: f64 = 1_670_725.35;
const PR4_MERGE_MS_8_WORKERS: f64 = 226.59;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[derive(Clone, Debug, Serialize)]
struct ParallelPoint {
    workers: usize,
    /// Best-of recording throughput, interval close included.
    pps: f64,
    /// `pps / serial_pps` of this kernel's serial row.
    speedup_vs_serial: f64,
    /// Per-shard drain wait in ms (time blocked receiving each shard's
    /// snapshot, shard order) at the best pass.
    recv_ms: Vec<f64>,
    /// The single cache-blocked combine of all shard snapshots, ms.
    combine_ms: f64,
    /// Counter bytes that combine touched (every source grid read once,
    /// destination read + written once).
    combine_bytes: u64,
    /// `combine_bytes / combine_ms` as GB/s — the merge's effective
    /// memory bandwidth.
    combine_gb_per_s: f64,
    /// Total interval-close wall (drain + combine): what the pre-SIMD
    /// bench reported as its single `merge_ms` blob.
    merge_ms: f64,
}

/// One kernel's complete row set.
#[derive(Clone, Debug, Serialize)]
struct KernelReport {
    /// Kernel these rows ran on (`scalar` / `avx2`).
    kernel: String,
    /// Serial throughput with interval close, batched `record_all` path.
    serial_pps: f64,
    /// Batched record loop alone (no interval close) — the headline
    /// record-path number.
    serial_record_only_pps: f64,
    /// `serial_record_only_pps / baseline_pr4_serial_record_only_pps`.
    speedup_vs_pr4: f64,
    parallel: Vec<ParallelPoint>,
}

#[derive(Clone, Debug, Serialize)]
struct ParallelRecordReport {
    packets: usize,
    runs: usize,
    quick: bool,
    /// `std::thread::available_parallelism()` on the measuring machine —
    /// with 1, worker threads time-slice one core and sharding can only
    /// add overhead; the speedups below are machine-bound, not a property
    /// of the implementation.
    machine_parallelism: usize,
    /// ISA CPUID detection reported on this machine.
    detected_isa: String,
    /// Kernel the process would dispatch to by default (env override or
    /// CPUID); each `kernels` row says which kernel it actually ran.
    default_kernel: String,
    /// Serial throughput measured before the hash-plan change landed (see
    /// [`PRE_PR_SERIAL_PPS`]).
    baseline_pre_pr_serial_pps: f64,
    /// PR 4 scalar baselines the SIMD work is measured against.
    baseline_pr4_serial_record_only_pps: f64,
    baseline_pr4_merge_ms_8_workers: f64,
    /// One entry per kernel this machine can run.
    kernels: Vec<KernelReport>,
    /// Whether the sharded/serial snapshot cross-check ran and matched
    /// for every kernel.
    divergence_checked: bool,
}

/// One timed serial pass over the batched `record_all` path; returns
/// (pps with interval close, record-only pps).
fn serial_pass(rec: &mut SketchRecorder, pkts: &[Packet]) -> (f64, f64) {
    let start = Instant::now();
    rec.record_all(std::hint::black_box(pkts));
    let record_done = Instant::now();
    let _ = rec.take_snapshot();
    let end = Instant::now();
    (
        pkts.len() as f64 / (end - start).as_secs_f64(),
        pkts.len() as f64 / (record_done - start).as_secs_f64(),
    )
}

/// One timed parallel pass; returns (pps, merge breakdown of the close).
fn parallel_pass(
    rec: &mut ParallelRecorder,
    pkts: &[Packet],
) -> (f64, hifind::parallel::MergeStats, f64) {
    let start = Instant::now();
    for p in pkts {
        rec.record(std::hint::black_box(p));
    }
    let record_done = Instant::now();
    let (_snap, stats) = rec.end_interval_with_stats().expect("shard workers alive");
    let end = Instant::now();
    (
        pkts.len() as f64 / (end - start).as_secs_f64(),
        stats,
        (end - record_done).as_secs_f64() * 1e3,
    )
}

/// Serial and sharded snapshots must be bit-identical for the same
/// packets; returns false (→ nonzero exit) on divergence.
fn divergence_check(cfg: &HiFindConfig, pkts: &[Packet]) -> bool {
    let mut serial = SketchRecorder::new(cfg).expect("paper config");
    let mut batched = SketchRecorder::new(cfg).expect("paper config");
    let mut sharded = ParallelRecorder::new(cfg, 3).expect("paper config");
    for p in pkts {
        serial.record(p);
        sharded.record(p);
    }
    batched.record_all(pkts);
    let merged = sharded.end_interval().expect("shard workers alive");
    let expected = serial.take_snapshot();
    let ok = merged == expected && batched.take_snapshot() == expected;
    let _ = sharded.finish();
    ok
}

/// Measures every row for the currently-selected kernel.
fn bench_kernel(
    name: &str,
    cfg: &HiFindConfig,
    pkts: &[Packet],
    runs: usize,
) -> Option<KernelReport> {
    section(&format!("record plane on the {name} kernel"));
    if !divergence_check(cfg, &pkts[..pkts.len().min(50_000)]) {
        eprintln!("FAIL: sharded/batched snapshot diverges from serial on {name}");
        return None;
    }
    println!("divergence check: batched == sharded == serial (bit-identical)");

    // Long-lived recorders, one warm-up pass each, then interleaved
    // best-of rounds so machine-wide drift hits every configuration.
    let mut serial = SketchRecorder::new(cfg).expect("paper config");
    let mut sharded: Vec<ParallelRecorder> = WORKER_COUNTS
        .iter()
        .map(|&w| ParallelRecorder::new(cfg, w).expect("paper config"))
        .collect();
    serial_pass(&mut serial, pkts);
    for rec in &mut sharded {
        parallel_pass(rec, pkts);
    }

    let mut serial_pps = 0.0f64;
    let mut serial_record_only_pps = 0.0f64;
    struct Best {
        pps: f64,
        stats: hifind::parallel::MergeStats,
        merge_ms: f64,
    }
    let mut best: Vec<Best> = WORKER_COUNTS
        .iter()
        .map(|_| Best {
            pps: 0.0,
            stats: hifind::parallel::MergeStats::default(),
            merge_ms: 0.0,
        })
        .collect();
    for _ in 0..runs {
        let (with_close, record_only) = serial_pass(&mut serial, pkts);
        serial_pps = serial_pps.max(with_close);
        serial_record_only_pps = serial_record_only_pps.max(record_only);
        for (i, rec) in sharded.iter_mut().enumerate() {
            let (pps, stats, merge_ms) = parallel_pass(rec, pkts);
            if pps > best[i].pps {
                best[i] = Best {
                    pps,
                    stats,
                    merge_ms,
                };
            }
        }
    }
    for rec in sharded {
        let _ = rec.finish();
    }

    println!(
        "serial:      {:>7.2}M packets/s with interval close; batched record \
         loop alone {:.2}M ({:.2}x the pre-SIMD scalar baseline {:.2}M)",
        serial_pps / 1e6,
        serial_record_only_pps / 1e6,
        serial_record_only_pps / PR4_SERIAL_RECORD_ONLY_PPS,
        PR4_SERIAL_RECORD_ONLY_PPS / 1e6,
    );
    let parallel: Vec<ParallelPoint> = WORKER_COUNTS
        .iter()
        .zip(&best)
        .map(|(&workers, b)| {
            let recv_ms: Vec<f64> = b.stats.recv_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
            let combine_ms = b.stats.combine_ns as f64 / 1e6;
            let combine_gb_per_s = if b.stats.combine_ns > 0 {
                b.stats.combine_bytes as f64 / (b.stats.combine_ns as f64 / 1e9) / 1e9
            } else {
                0.0
            };
            println!(
                "{workers:>2} workers:  {:>7.2}M packets/s ({:.2}x serial); close: drain \
                 {:.2} ms + combine {:.2} ms ({:.2} GB touched at {combine_gb_per_s:.1} GB/s)",
                b.pps / 1e6,
                b.pps / serial_pps,
                recv_ms.iter().sum::<f64>(),
                combine_ms,
                b.stats.combine_bytes as f64 / 1e9,
            );
            ParallelPoint {
                workers,
                pps: b.pps,
                speedup_vs_serial: b.pps / serial_pps,
                recv_ms,
                combine_ms,
                combine_bytes: b.stats.combine_bytes,
                combine_gb_per_s,
                merge_ms: b.merge_ms,
            }
        })
        .collect();

    Some(KernelReport {
        kernel: name.to_string(),
        serial_pps,
        serial_record_only_pps,
        speedup_vs_pr4: serial_record_only_pps / PR4_SERIAL_RECORD_ONLY_PPS,
        parallel,
    })
}

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let (packets, runs) = if quick { (100_000, 2) } else { (500_000, 5) };
    let machine_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = HiFindConfig::paper(9);
    let pkts = synthetic_packets(packets, 6);

    section("parallel record plane: serial vs sharded throughput, per kernel");
    println!("machine parallelism: {machine_parallelism} core(s)");
    let default_kernel = hifind_sketch::simd::kernel().isa();
    println!(
        "kernels: detected_isa={} default={}",
        detect_isa().name(),
        default_kernel.name()
    );

    // Scalar first (always runnable), then AVX2 when the CPU has it. In
    // quick mode only the default kernel runs, keeping the CI smoke short.
    let mut candidates = vec![Isa::Scalar, Isa::Avx2];
    if quick {
        candidates = vec![default_kernel];
    }
    let mut kernels = Vec::new();
    for isa in candidates {
        if kernel_for(isa).is_none() {
            println!("skipping {}: not supported by this CPU", isa.name());
            continue;
        }
        assert!(set_kernel(isa), "kernel_for said {isa} was runnable");
        match bench_kernel(isa.name(), &cfg, &pkts, runs) {
            Some(report) => kernels.push(report),
            None => return ExitCode::FAILURE,
        }
    }
    // Leave the process-wide selection back at the default.
    set_kernel(default_kernel);

    let report = ParallelRecordReport {
        packets,
        runs,
        quick,
        machine_parallelism,
        detected_isa: detect_isa().name().to_string(),
        default_kernel: default_kernel.name().to_string(),
        baseline_pre_pr_serial_pps: PRE_PR_SERIAL_PPS,
        baseline_pr4_serial_record_only_pps: PR4_SERIAL_RECORD_ONLY_PPS,
        baseline_pr4_merge_ms_8_workers: PR4_MERGE_MS_8_WORKERS,
        kernels,
        divergence_checked: true,
    };
    if !quick {
        write_json("BENCH_parallel_record", &report);
    }
    ExitCode::SUCCESS
}
