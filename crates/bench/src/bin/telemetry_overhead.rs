//! Telemetry record-path overhead: instrumented vs. uninstrumented
//! recording throughput, written to `results/BENCH_telemetry_overhead.json`.
//!
//! The `telemetry` feature adds a branch and one amortized latency
//! observation per 256 packets to [`hifind::HiFind::record`]; the budget
//! is < 5% of recording throughput (enforced by a test in
//! `src/overhead.rs`). This binary records the measured numbers so
//! regressions show up as a diff.
//!
//! The whole measurement runs with the idle operator plane alive — an
//! embedded HTTP server nobody scrapes, an open structured event log,
//! and an in-memory history ring — so the recorded numbers reflect a
//! real `--http`/`--event-log` deployment, not a stripped-down process.
//!
//! Run: `cargo run --release -p hifind-bench --features telemetry --bin telemetry_overhead`
//!
//! Without `--features telemetry` only the baseline side is measured.

use hifind_bench::harness::{section, write_json};
use hifind_bench::overhead::measure_overhead;

fn main() {
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
    if report.telemetry_compiled {
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
    } else {
        println!("instrumented: not compiled (re-run with --features telemetry)");
    }
    write_json("BENCH_telemetry_overhead", &report);
}
