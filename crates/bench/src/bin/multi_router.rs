//! **§5.3.2** — does HiFIND detect on three routers' combined sketches
//! exactly what it detects on one router, and how far does TRW run per
//! router degrade? The end-to-end benchmark's oracle proves the first
//! half on its own two-agent fleets, but it never runs TRW or the paper's
//! three-router split of the NU-like preset.
//!
//! The trace is split per packet across three routers (paper Figure 3),
//! so each connection's SYN and SYN/ACK traverse different routers with
//! probability 2/3. HiFIND combines the routers' sketches (linearity) and
//! detects on the aggregate — identical results to the single-router run.
//! TRW applied per router with summed results degrades: successes and
//! failures of the same source are scattered, producing both false
//! positives and false negatives.
//!
//! What shipping those sketches costs (codec bytes, wire
//! bytes per router interval) is the end-to-end benchmark's
//! `codec.payload_bytes`, `codec_v2.*` and `wire_bytes_per_router_interval`
//! rows; the loopback TCP identity check is
//! `crates/collect/tests/loopback.rs`.
//!
//! Exits nonzero if the aggregated and single-router final alerts differ.
//!
//! Run: `cargo run --release -p hifind-bench --bin multi_router`

use hifind::{DetectionCore, HiFind, HiFindConfig, IntervalSnapshot, SketchRecorder};
use hifind_baselines::{Trw, TrwConfig};
use hifind_bench::harness::{scale, section, seed, write_json, Provenance};
use hifind_flow::Ip4;
use hifind_trafficgen::{presets, split_per_packet};
use serde::Serialize;
use std::collections::BTreeSet;
use std::process::ExitCode;

#[derive(Serialize)]
struct MultiRouter {
    provenance: Provenance,
    single_final: usize,
    aggregated_final: usize,
    identical: bool,
    trw_single: usize,
    trw_split_union: usize,
    trw_missed_vs_single: usize,
    trw_extra_vs_single: usize,
}

fn main() -> ExitCode {
    let provenance = Provenance::collect(false);
    let scenario = presets::nu_like(seed()).scaled(scale());
    eprintln!("[multi_router] generating NU-like...");
    let (trace, _) = scenario.generate();
    let cfg = HiFindConfig::paper(seed());
    let parts = split_per_packet(&trace, 3, seed() ^ 0x60D);

    // HiFIND single-router reference.
    let mut single = HiFind::new(cfg).expect("paper config");
    let single_log = single.run_trace(&trace);

    // HiFIND distributed: per-router recorders; each interval the site
    // folds every snapshot into the first (COMBINE) and detects on the sum.
    let mut routers: Vec<SketchRecorder> = (0..3)
        .map(|_| SketchRecorder::new(&cfg).expect("paper config"))
        .collect();
    let mut site = DetectionCore::new(cfg).expect("paper config");
    let windows: Vec<Vec<_>> = parts
        .iter()
        .map(|t| t.intervals(cfg.interval_ms).collect())
        .collect();
    let intervals = windows.iter().map(Vec::len).max().unwrap_or(0);
    for iv in 0..intervals {
        let mut snaps: Vec<IntervalSnapshot> = routers
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
        let (sum, rest) = snaps.split_first_mut().expect("three routers");
        sum.combine_many(&rest.iter().collect::<Vec<_>>())
            .expect("same configuration");
        site.process_snapshot(sum);
    }

    let s: BTreeSet<_> = single_log
        .final_alerts()
        .iter()
        .map(|a| a.identity())
        .collect();
    let a: BTreeSet<_> = site
        .log()
        .final_alerts()
        .iter()
        .map(|a| a.identity())
        .collect();

    // TRW: whole-trace reference vs per-router detection summed up.
    eprintln!("[multi_router] running TRW (single + per-router)...");
    let (trw_single, _) = Trw::detect(&trace, TrwConfig::default());
    let trw_single: BTreeSet<Ip4> = trw_single.into_iter().map(|al| al.source).collect();
    let mut trw_union: BTreeSet<Ip4> = BTreeSet::new();
    for part in &parts {
        let (alerts, _) = Trw::detect(part, TrwConfig::default());
        trw_union.extend(alerts.into_iter().map(|al| al.source));
    }

    section("§5.3.2: aggregated detection over 3 routers (per-packet load balancing)");
    println!("HiFIND single router:      {} final alerts", s.len());
    println!(
        "HiFIND aggregated sketches: {} final alerts → identical: {}",
        a.len(),
        s == a
    );
    println!();
    println!("TRW on the undivided trace: {} scanners", trw_single.len());
    println!(
        "TRW per-router, summed:     {} scanners ({} missed vs single, {} extra)",
        trw_union.len(),
        trw_single.difference(&trw_union).count(),
        trw_union.difference(&trw_single).count()
    );
    println!(
        "\npaper claim: HiFIND aggregate ≡ single router; TRW per-router has high\n\
         false positives/negatives because SYN and SYN/ACK of one connection are\n\
         seen by different routers (a SYN without its SYN/ACK looks like a failure)."
    );
    if s != a {
        eprintln!("FAIL: aggregated final alerts differ from the single-router run");
        return ExitCode::FAILURE;
    }

    write_json(
        "BENCH_multi_router",
        &MultiRouter {
            provenance,
            single_final: s.len(),
            aggregated_final: a.len(),
            identical: s == a,
            trw_single: trw_single.len(),
            trw_split_union: trw_union.len(),
            trw_missed_vs_single: trw_single.difference(&trw_union).count(),
            trw_extra_vs_single: trw_union.difference(&trw_single).count(),
        },
    );
    ExitCode::SUCCESS
}
