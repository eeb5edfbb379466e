//! Telemetry-overhead measurement on the record path.
//!
//! An attached registry adds a packet count plus one clock read per 256
//! packets to [`hifind::HiFind::record`]; the acceptance bar is that this
//! costs less than 5% of recording throughput. This module measures both
//! sides so the `telemetry_overhead` binary can record a baseline
//! (`results/BENCH_telemetry_overhead.json`) and a release-only test can
//! enforce the bar.

use hifind::parallel::ParallelRecorder;
use hifind::{HiFind, HiFindConfig};
use hifind_flow::rng::SplitMix64;
use hifind_flow::{Ip4, Packet};
use hifind_obsv::{ApiState, EventLog, HistoryConfig, HistoryStore, HttpServer, ObsvHub};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Shard workers used for the parallel-path overhead measurement. Two is
/// the smallest count that exercises real cross-thread dispatch.
const OVERHEAD_WORKERS: usize = 2;

/// The idle operator plane held alive across a measurement: an embedded
/// HTTP server bound to a loopback port nobody scrapes, an open event
/// log on a temp file, and an in-memory history ring. A production
/// deployment runs all three next to the recorder, so the overhead
/// numbers are only honest if the measurement does too — the plane's
/// threads must not perturb the record path just by existing.
struct IdlePlane {
    server: HttpServer,
    events_path: std::path::PathBuf,
}

impl IdlePlane {
    fn start(cfg: &HiFindConfig) -> Option<IdlePlane> {
        let events_path = std::env::temp_dir().join(format!(
            "hifind-overhead-events-{}.jsonl",
            std::process::id()
        ));
        let events = EventLog::open(&events_path, cfg.fingerprint()).ok()?;
        let history = Arc::new(HistoryStore::open(HistoryConfig::in_memory(4), cfg, None).ok()?);
        let hub = Arc::new(ObsvHub::new(*cfg, history, Some(events)));
        let server = HttpServer::bind(
            "127.0.0.1:0",
            ApiState {
                hub,
                registry: None,
            },
        )
        .ok()?;
        Some(IdlePlane {
            server,
            events_path,
        })
    }

    fn stop(self) {
        self.server.stop();
        std::fs::remove_file(&self.events_path).ok();
    }
}

/// A synthetic SYN/SYN-ACK mix sized for throughput measurement (this
/// module and `parallel_record` record the same shape).
pub fn synthetic_packets(n: usize, seed: u64) -> Vec<Packet> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|i| {
            let client = Ip4::new(rng.next_u32());
            let server = Ip4::new(0x8169_0000 | (rng.next_u32() & 0xFFFF));
            if rng.chance(0.45) {
                Packet::syn_ack(i as u64, client, 4000, server, 80)
            } else {
                Packet::syn(i as u64, client, 4000, server, 80)
            }
        })
        .collect()
}

/// One timed pass over `pkts` through [`HiFind::record`]. Returns packets
/// per second.
fn timed_pass(ids: &mut HiFind, pkts: &[Packet]) -> f64 {
    let start = Instant::now();
    for p in pkts {
        ids.record(std::hint::black_box(p));
    }
    pkts.len() as f64 / start.elapsed().as_secs_f64()
}

/// Best-of-`runs` packets-per-second for the baseline and instrumented
/// sides.
///
/// Both sides run over the *same* long-lived pipeline, toggling telemetry
/// on and off between passes, so the sketch arrays sit on the same pages
/// for every measurement — only the record code path differs. (Separate
/// objects proved to differ by ±8% for a whole process lifetime purely on
/// page placement.) Passes alternate sides so machine-wide drift hits
/// both equally, and each side's *maximum* is kept: throughput noise is
/// one-sided (preemption only ever slows a run down), so best-of
/// estimates the noise-free capability better than mean or median.
pub fn paired_record_pps(pkts: &[Packet], runs: usize) -> (f64, f64) {
    let mut ids = HiFind::new(HiFindConfig::paper(9)).expect("paper config");
    let registry = hifind::telemetry::Registry::new();

    // One full untimed pass warms caches, branch predictors, and every
    // page of the sketch arrays.
    timed_pass(&mut ids, pkts);

    let mut baseline = 0.0f64;
    let mut instrumented = 0.0f64;
    for _ in 0..runs {
        baseline = baseline.max(timed_pass(&mut ids, pkts));
        ids.attach_telemetry(registry.clone())
            .expect("fresh registry has no conflicting metrics");
        instrumented = instrumented.max(timed_pass(&mut ids, pkts));
        ids.detach_telemetry();
    }
    (baseline, instrumented)
}

/// One timed pass over `pkts` through [`ParallelRecorder::record`],
/// including the interval close that drains and merges the shards (the
/// cost a real deployment pays once per interval). Returns packets per
/// second.
fn timed_parallel_pass(rec: &mut ParallelRecorder, pkts: &[Packet]) -> f64 {
    let start = Instant::now();
    for p in pkts {
        rec.record(std::hint::black_box(p));
    }
    let _ = rec.end_interval();
    pkts.len() as f64 / start.elapsed().as_secs_f64()
}

/// Best-of-`runs` packets-per-second for the sharded record plane, with
/// the `hifind_record_*` telemetry detached and attached. Same protocol
/// as [`paired_record_pps`]: one long-lived recorder, interleaved sides,
/// best-of to shed one-sided scheduling noise.
pub fn paired_parallel_record_pps(pkts: &[Packet], runs: usize) -> (f64, f64) {
    let cfg = HiFindConfig::paper(9);
    let mut rec = ParallelRecorder::new(&cfg, OVERHEAD_WORKERS).expect("paper config");
    let registry = hifind::telemetry::Registry::new();

    timed_parallel_pass(&mut rec, pkts);

    let mut baseline = 0.0f64;
    let mut instrumented = 0.0f64;
    for _ in 0..runs {
        baseline = baseline.max(timed_parallel_pass(&mut rec, pkts));
        rec.attach_telemetry(&registry)
            .expect("registry has no conflicting metrics");
        instrumented = instrumented.max(timed_parallel_pass(&mut rec, pkts));
        rec.detach_telemetry();
    }
    let _ = rec.finish();
    (baseline, instrumented)
}

/// The result blob written to `results/BENCH_telemetry_overhead.json`.
#[derive(Clone, Debug, Serialize)]
pub struct OverheadReport {
    /// Packets per timed pass.
    pub packets: usize,
    /// Timed passes per side (best-of taken, interleaved).
    pub runs: usize,
    /// Whether the idle operator plane (embedded HTTP server + open event
    /// log + in-memory history) was up for the whole measurement.
    pub idle_operator_plane: bool,
    /// Best-of recording throughput with telemetry detached.
    pub baseline_pps: f64,
    /// Best-of recording throughput with a live registry attached.
    pub instrumented_pps: f64,
    /// `(baseline − instrumented) / baseline`, in percent. Negative means
    /// the instrumented side happened to run faster (noise).
    pub overhead_pct: f64,
    /// Shard workers used for the parallel-path measurement.
    pub parallel_workers: usize,
    /// Best-of sharded recording throughput (including the interval-close
    /// merge) with the `hifind_record_*` telemetry detached.
    pub parallel_baseline_pps: f64,
    /// Best-of sharded recording throughput with the telemetry attached.
    pub parallel_instrumented_pps: f64,
    /// Telemetry overhead on the parallel path, in percent (same 5%
    /// budget as the serial path; the shard counters batch locally and
    /// flush once per interval, so the true cost is near zero).
    pub parallel_overhead_pct: f64,
}

/// Measures baseline vs. instrumented recording throughput, with the
/// idle operator plane running alongside (as a real deployment would).
pub fn measure_overhead(packets: usize, runs: usize) -> OverheadReport {
    let pkts = synthetic_packets(packets, 6);
    let plane = IdlePlane::start(&HiFindConfig::paper(9));
    let idle_operator_plane = plane.is_some();
    let (baseline_pps, instrumented_pps) = paired_record_pps(&pkts, runs);
    let (parallel_baseline_pps, parallel_instrumented_pps) =
        paired_parallel_record_pps(&pkts, runs);
    if let Some(plane) = plane {
        plane.stop();
    }
    OverheadReport {
        packets,
        runs,
        idle_operator_plane,
        baseline_pps,
        instrumented_pps,
        overhead_pct: (baseline_pps - instrumented_pps) / baseline_pps * 100.0,
        parallel_workers: OVERHEAD_WORKERS,
        parallel_baseline_pps,
        parallel_instrumented_pps,
        parallel_overhead_pct: (parallel_baseline_pps - parallel_instrumented_pps)
            / parallel_baseline_pps
            * 100.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Acceptance bar: attached telemetry costs < 5% on the serial and the
    /// sharded record path. Packet counting and amortized timing, both
    /// flushed once per 256-packet window, keep the serial cost near 1%;
    /// the shard counters batch locally and flush once per interval. 5%
    /// leaves headroom for machine noise; interleaved best-of runs absorb
    /// the rest. One measurement serves both budgets, so no second
    /// measurement's shard workers compete for the same cores.
    #[test]
    #[ignore = "release-only throughput gate; CI runs it with --release -- --ignored"]
    fn telemetry_overhead_is_under_five_percent() {
        // Many short runs: best-of converges on each side's capability
        // even when single runs wobble by ±10% on a busy machine.
        let report = measure_overhead(100_000, 15);
        assert!(
            report.overhead_pct < 5.0,
            "telemetry overhead {:.2}% exceeds the 5% budget \
             (baseline {:.2}M pps, instrumented {:.2}M pps)",
            report.overhead_pct,
            report.baseline_pps / 1e6,
            report.instrumented_pps / 1e6,
        );
        assert!(
            report.parallel_overhead_pct < 5.0,
            "parallel telemetry overhead {:.2}% exceeds the 5% budget \
             (baseline {:.2}M pps, instrumented {:.2}M pps, {} workers)",
            report.parallel_overhead_pct,
            report.parallel_baseline_pps / 1e6,
            report.parallel_instrumented_pps / 1e6,
            report.parallel_workers,
        );
    }
}
