//! Aggregated detection over multiple routers (paper Figure 3 / §5.3.2).
//!
//! The trace is split across three edge routers *per packet* — as
//! per-packet load balancing does — so a connection's SYN and SYN/ACK have
//! a 2/3 chance of crossing different routers. Each router records only
//! sketches; the central site combines them (sketch linearity) and detects
//! on the aggregate, producing exactly the single-router results.
//!
//! Run with: `cargo run --release --example distributed_ids`

use hifind::{DetectionCore, HiFind, HiFindConfig, IntervalSnapshot, SketchRecorder};
use hifind_trafficgen::{presets, split_per_packet};
use std::process::ExitCode;

fn main() -> ExitCode {
    let cfg = HiFindConfig::paper(11);
    let scenario = presets::nu_like(7).scaled(0.05);
    eprintln!("generating {}...", scenario.name);
    let (trace, _) = scenario.generate();
    eprintln!("  {}", trace.stats());

    // Reference: all traffic through one router.
    let mut single = HiFind::new(cfg).expect("valid configuration");
    let single_log = single.run_trace(&trace);

    // Distributed: three routers, per-packet random assignment.
    let parts = split_per_packet(&trace, 3, 1234);
    for (i, p) in parts.iter().enumerate() {
        eprintln!("  router {i}: {} packets", p.len());
    }
    let mut routers: Vec<SketchRecorder> = (0..3)
        .map(|_| SketchRecorder::new(&cfg).expect("valid configuration"))
        .collect();
    let mut site = DetectionCore::new(cfg).expect("valid configuration");
    let windows: Vec<Vec<_>> = parts
        .iter()
        .map(|t| t.intervals(cfg.interval_ms).collect())
        .collect();
    let intervals = windows.iter().map(Vec::len).max().unwrap_or(0);
    let mut shipped_bytes = 0usize;
    for iv in 0..intervals {
        let mut snapshots: Vec<IntervalSnapshot> = routers
            .iter_mut()
            .zip(&windows)
            .map(|(router, wins)| {
                if let Some(w) = wins.get(iv) {
                    for p in w.packets {
                        router.record(p);
                    }
                }
                router.take_snapshot()
            })
            .collect();
        shipped_bytes += snapshots
            .iter()
            .map(IntervalSnapshot::wire_size_bytes)
            .sum::<usize>();
        // The central site: fold every router's snapshot into the first
        // (sketch linearity), then detect once on the sum.
        let (sum, rest) = snapshots.split_first_mut().expect("three routers");
        sum.combine_many(&rest.iter().collect::<Vec<_>>())
            .expect("same configuration");
        site.process_snapshot(sum);
    }

    let mut single_ids: Vec<_> = single_log
        .final_alerts()
        .iter()
        .map(|a| a.identity())
        .collect();
    let mut agg_ids: Vec<_> = site
        .log()
        .final_alerts()
        .iter()
        .map(|a| a.identity())
        .collect();
    single_ids.sort();
    agg_ids.sort();

    println!(
        "\nsingle-router final alerts: {}",
        single_log.final_alerts().len()
    );
    println!(
        "aggregated  final alerts: {}",
        site.log().final_alerts().len()
    );
    println!(
        "sketch data shipped to the central site: {:.1} MB per router-interval \
         (fixed — independent of traffic volume;\n  with the paper's 4-byte hardware \
         counters: {:.1} MB; a 10 Gbps router would otherwise ship ~75 GB of \
         packets per minute)",
        shipped_bytes as f64 / 1e6 / (3 * intervals.max(1)) as f64,
        hifind::metrics::SketchMemoryModel::paper(hifind::metrics::PAPER_COUNTER_BYTES).total_mb(),
    );
    if single_ids != agg_ids {
        eprintln!("FAIL: aggregated detections differ from the single-router run");
        return ExitCode::FAILURE;
    }
    println!("identical detections: YES");
    ExitCode::SUCCESS
}
