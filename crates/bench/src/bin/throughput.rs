//! **§5.5.3** — high-speed traffic monitoring: recording throughput and
//! per-interval detection time, including the paper's ×60 time-compression
//! stress test.
//!
//! Paper software reference points: 11M insertions/s for one reversible
//! sketch (≈3.7 Gbps at worst-case 40-byte packets); detection takes 0.34 s
//! per one-minute interval on average; compressing the trace ×60 keeps the
//! maximum detection time under the interval length.
//!
//! Run: `cargo run --release -p hifind-bench --bin throughput`

use hifind::{HiFind, HiFindConfig, RunReport, SketchRecorder};
use hifind_bench::harness::{scale, section, seed, write_json};
use hifind_flow::rng::SplitMix64;
use hifind_sketch::{ReversibleSketch, RsConfig};
use hifind_trafficgen::{presets, Scenario};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Throughput {
    rs_insertions_per_sec: f64,
    rs_gbps_worst_case: f64,
    recorder_packets_per_sec: f64,
    recorder_gbps_worst_case: f64,
    detection_avg_s: f64,
    detection_max_s: f64,
    compressed_detection_avg_s: f64,
    compressed_detection_max_s: f64,
}

fn main() {
    // --- Single reversible-sketch insertion throughput -----------------
    let mut rs = ReversibleSketch::new(RsConfig::paper_48bit(seed())).expect("paper config");
    let mut rng = SplitMix64::new(1);
    let keys: Vec<u64> = (0..1_000_000)
        .map(|_| rng.next_u64() & ((1 << 48) - 1))
        .collect();
    // Warm up, then measure.
    for &k in keys.iter().take(100_000) {
        rs.update(k, 1);
    }
    let start = Instant::now();
    let mut reps = 0u64;
    while start.elapsed().as_secs_f64() < 2.0 {
        for &k in &keys {
            rs.update(k, 1);
        }
        reps += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let ins_per_sec = (reps * keys.len() as u64) as f64 / elapsed;
    let gbps = ins_per_sec * 40.0 * 8.0 / 1e9;

    section("§5.5.3: recording throughput");
    println!(
        "one 48-bit reversible sketch: {:.1}M insertions/s (≈{gbps:.1} Gbps at \
         worst-case 40-byte packets)",
        ins_per_sec / 1e6
    );
    println!("paper software reference: 11M insertions/s ≈ 3.7 Gbps (different hardware)");

    // --- Full recorder throughput ---------------------------------------
    let cfg = HiFindConfig::paper(seed());
    let mut recorder = SketchRecorder::new(&cfg).expect("paper config");
    let scenario = presets::nu_like(seed()).scaled(scale());
    eprintln!("[throughput] generating NU-like...");
    let (trace, _) = scenario.generate();
    let start = Instant::now();
    for p in trace.iter() {
        recorder.record(p);
    }
    let rec_elapsed = start.elapsed().as_secs_f64();
    let pkts_per_sec = trace.len() as f64 / rec_elapsed;
    let rec_gbps = pkts_per_sec * 40.0 * 8.0 / 1e9;
    println!(
        "full recorder (6 sketches): {:.1}M packets/s (≈{rec_gbps:.1} Gbps worst case)",
        pkts_per_sec / 1e6
    );

    // --- Detection time per interval ------------------------------------
    // RunReport times each pipeline phase internally, so the harness reads
    // the numbers off the report instead of stopwatching end_interval().
    let mut ids = HiFind::new(cfg).expect("paper config");
    let mut report = RunReport::new();
    ids.run_trace_with(&trace, Some(&mut report))
        .expect("in-thread recording cannot fail");
    let total = &report.phase_latency.total;
    let avg = total.mean_ns() as f64 / 1e9;
    let max = total.max_ns as f64 / 1e9;
    println!(
        "\ndetection per one-minute interval: avg {avg:.3} s, max {max:.3} s over {} intervals",
        report.intervals.len()
    );
    println!(
        "phase means: forecast {:.1} ms, detect {:.1} ms, classify {:.1} ms, \
         flood-filter {:.1} ms",
        report.phase_latency.forecast.mean_ns() as f64 / 1e6,
        report.phase_latency.detect.mean_ns() as f64 / 1e6,
        report.phase_latency.classify.mean_ns() as f64 / 1e6,
        report.phase_latency.flood_filter.mean_ns() as f64 / 1e6,
    );
    println!("paper reference: avg 0.34 s, max 12.91 s — well under the interval");

    // --- Stress: time compression -----------------------------------------
    // The paper compresses its full day ×60 (24 minutes of wall time); our
    // preset is 30 minutes long, so ×10 gives the equivalent effect —
    // every remaining interval carries 10× the traffic and 10× the
    // concurrent anomalies.
    let compressed = Scenario::time_compressed(&trace, 10);
    let mut ids = HiFind::new(cfg).expect("paper config");
    let mut creport = RunReport::new();
    ids.run_trace_with(&compressed, Some(&mut creport))
        .expect("in-thread recording cannot fail");
    let cavg = creport.phase_latency.total.mean_ns() as f64 / 1e9;
    let cmax = creport.phase_latency.total.max_ns as f64 / 1e9;
    println!("stress (trace time-compressed ×10): avg {cavg:.3} s, max {cmax:.3} s per interval");
    println!("paper reference: avg 35.61 s, max 46.90 s — still under one minute");

    // The full per-interval report (phase latencies, alert counts, sketch
    // health) in the same machine-readable shape `hifind detect
    // --metrics-json` emits.
    write_json("throughput_run_report", &report);
    write_json(
        "throughput",
        &Throughput {
            rs_insertions_per_sec: ins_per_sec,
            rs_gbps_worst_case: gbps,
            recorder_packets_per_sec: pkts_per_sec,
            recorder_gbps_worst_case: rec_gbps,
            detection_avg_s: avg,
            detection_max_s: max,
            compressed_detection_avg_s: cavg,
            compressed_detection_max_s: cmax,
        },
    );
}
