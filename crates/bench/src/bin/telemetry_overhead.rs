//! What does an attached telemetry registry cost the record path? The
//! end-to-end benchmark never attaches one, so only this bin answers it:
//! instrumented vs. uninstrumented recording throughput, written to
//! `results/BENCH_telemetry_overhead.json`.
//!
//! An attached registry adds a packet count and one amortized latency
//! observation per 256 packets to [`hifind::HiFind::record`]; the budget
//! is < 5% of recording throughput (enforced by a release-only test in
//! `src/overhead.rs`). This binary records the measured numbers so
//! regressions show up as a diff.
//!
//! The whole measurement runs with the idle operator plane alive — an
//! embedded HTTP server nobody scrapes, an open structured event log,
//! and an in-memory history ring — so the recorded numbers reflect a
//! real `--http`/`--event-log` deployment, not a stripped-down process.
//!
//! Run: `cargo run --release -p hifind-bench --bin telemetry_overhead`

use hifind_bench::harness::{section, write_json, Provenance};
use hifind_bench::overhead::{measure_overhead, OverheadReport};
use serde::Serialize;

#[derive(Serialize)]
struct TelemetryOverheadBench {
    provenance: Provenance,
    overhead: OverheadReport,
}

fn main() {
    let provenance = Provenance::collect(false);
    section("telemetry overhead on the record path");
    let report = measure_overhead(500_000, 5);
    println!(
        "idle operator plane (HTTP server + event log): {}",
        if report.idle_operator_plane {
            "up"
        } else {
            "unavailable"
        }
    );
    println!(
        "baseline:     {:>7.2}M packets/s (best of {} runs, {} packets each)",
        report.baseline_pps / 1e6,
        report.runs,
        report.packets
    );
    println!(
        "instrumented: {:>7.2}M packets/s",
        report.instrumented_pps / 1e6
    );
    println!("overhead:     {:>7.2}% (budget: 5%)", report.overhead_pct);
    println!(
        "parallel ({} workers): {:>7.2}M → {:>7.2}M packets/s, {:.2}% overhead",
        report.parallel_workers,
        report.parallel_baseline_pps / 1e6,
        report.parallel_instrumented_pps / 1e6,
        report.parallel_overhead_pct
    );
    write_json(
        "BENCH_telemetry_overhead",
        &TelemetryOverheadBench {
            provenance,
            overhead: report,
        },
    );
}
