//! How do fan-in throughput and per-tier COMBINE latency change from a
//! flat collector to 2- and 3-tier aggregation trees over 64 agents, at
//! fan-out 4, 8 and 16 (ROADMAP item 1b)? The end-to-end benchmark stops
//! at two agents and one aggregator, so only this bin answers it.
//!
//! The same 64-agent per-packet split of one trace is replayed over real
//! loopback TCP through three topologies:
//!
//! - **flat**: 64 agents → root collector
//! - **2-tier**: 64 agents → ⌈64/f⌉ aggregators → root
//! - **3-tier**: 64 agents → ⌈64/f⌉ → ⌈⌈64/f⌉/f⌉ aggregators → root
//!
//! at fan-out f ∈ {4, 8, 16}. Sketch linearity makes every topology's
//! detection identical to the single-router reference; each run asserts
//! that, then reports leaf-frame throughput and the mean COMBINE latency
//! per tier (from each node's `hifind_collect_combine_seconds`).
//!
//! Run: `cargo run --release -p hifind-bench --bin hierarchy [-- --quick]`

use hifind::{HiFind, HiFindConfig};
use hifind_bench::harness::{section, seed, write_json, Provenance};
use hifind_collect::{
    AgentConfig, Aggregator, AggregatorConfig, AggregatorHandle, Collector, CollectorConfig,
    RouterAgent,
};
use hifind_flow::{Packet, Trace};
use hifind_telemetry::registry::MetricValue;
use hifind_telemetry::Registry;
use hifind_trafficgen::{presets, split_per_packet};
use serde::Serialize;
use std::collections::BTreeSet;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const AGENTS: usize = 64;
const FAN_OUTS: [usize; 3] = [4, 8, 16];

type AlertIdentity = (
    hifind::report::AlertKind,
    Option<u32>,
    Option<u32>,
    Option<u16>,
);

/// Mean COMBINE latency across one tier's nodes, read from their
/// `hifind_collect_combine_seconds` histograms.
#[derive(Serialize)]
struct TierLatency {
    tier: String,
    nodes: usize,
    combines: u64,
    mean_combine_us: f64,
}

#[derive(Serialize)]
struct TopologyResult {
    topology: String,
    tiers: usize,
    fan_out: usize,
    agents: usize,
    intervals: usize,
    elapsed_ms: u64,
    /// Frames the leaf agents pushed into the tree.
    leaf_frames: u64,
    leaf_frames_per_sec: f64,
    /// Frames the root actually assembled (its direct children's).
    root_frames_received: u64,
    final_alerts: usize,
    identical_to_single: bool,
    /// Root first, then each aggregation tier top-down.
    tier_latencies: Vec<TierLatency>,
}

#[derive(Serialize)]
struct HierarchyBench {
    provenance: Provenance,
    agents: usize,
    fan_outs: Vec<usize>,
    results: Vec<TopologyResult>,
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let provenance = Provenance::collect(quick);
    let scale = std::env::var("HIFIND_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(if quick { 0.01 } else { 0.05 });
    // `small` sketches are the realistic per-frame payload (~1.4 MB on
    // the wire); the stretched interval keeps the run to 6 intervals so
    // all seven topologies finish in a couple of minutes.
    let mut cfg = HiFindConfig::small(seed());
    cfg.interval_ms = 600_000;
    cfg.threshold_per_sec = 0.25;

    eprintln!("[hierarchy] generating NU-like at scale {scale}...");
    let (trace, _) = presets::nu_like(seed()).scaled(scale).generate();
    let base = trace.iter().next().expect("non-empty trace").ts_ms / cfg.interval_ms;
    let last = trace.iter().last().expect("non-empty trace").ts_ms / cfg.interval_ms;
    let intervals = (last - base + 1) as usize;

    let mut single = HiFind::new(cfg).expect("config");
    let reference: BTreeSet<AlertIdentity> = single
        .run_trace(&trace)
        .final_alerts()
        .iter()
        .map(|a| a.identity())
        .collect();

    let windows: Vec<Vec<Vec<Packet>>> = split_per_packet(&trace, AGENTS, seed() ^ 0x60D)
        .iter()
        .map(|part| global_windows(part, cfg.interval_ms, base, intervals))
        .collect();

    let mut results = Vec::new();
    section("hierarchical aggregation: flat vs 2-tier vs 3-tier");
    let flat = run_topology(cfg, &windows, intervals, 1, AGENTS, &reference);
    print_result(&flat);
    results.push(flat);
    for fan_out in FAN_OUTS {
        for tiers in [2usize, 3] {
            let r = run_topology(cfg, &windows, intervals, tiers, fan_out, &reference);
            print_result(&r);
            results.push(r);
        }
    }

    write_json(
        "BENCH_hierarchy",
        &HierarchyBench {
            provenance,
            agents: AGENTS,
            fan_outs: FAN_OUTS.to_vec(),
            results,
        },
    );
}

/// Buckets `part`'s packets into the merged trace's interval grid so all
/// agents end the same number of intervals in lockstep.
fn global_windows(part: &Trace, interval_ms: u64, base: u64, n: usize) -> Vec<Vec<Packet>> {
    let mut windows = vec![Vec::new(); n];
    for p in part.iter() {
        windows[(p.ts_ms / interval_ms - base) as usize].push(*p);
    }
    windows
}

/// Runs one topology end to end and reads each tier's combine histogram.
fn run_topology(
    cfg: HiFindConfig,
    windows: &[Vec<Vec<Packet>>],
    intervals: usize,
    tiers: usize,
    fan_out: usize,
    reference: &BTreeSet<AlertIdentity>,
) -> TopologyResult {
    // Every node gets generous alignment headroom: this bench measures
    // merge cost and throughput, not degradation policy.
    let deadline = Duration::from_secs(600);
    let window = intervals as u64 + 1;

    // Aggregation-tier widths, leaf-most first (the root is not listed).
    // Children connect to parent `child_id / fan_out` in contiguous
    // chunks, so each tier is ⌈below / fan_out⌉ wide.
    let mut widths = Vec::new();
    let mut below = AGENTS;
    for _ in 1..tiers {
        below = below.div_ceil(fan_out);
        widths.push(below);
    }
    let root_children = *widths.last().unwrap_or(&AGENTS);

    let root_registry = Registry::new();
    let mut ccfg = CollectorConfig::new(root_children);
    ccfg.straggler_deadline = deadline;
    ccfg.reorder_window = window;
    let root = Collector::bind("127.0.0.1:0", cfg, ccfg, Some(root_registry.clone()))
        .expect("bind root collector");

    // Build aggregation tiers top-down so every node knows its upstream
    // address at bind time. `tier_handles[0]` sits just below the root;
    // the agents dial the last tier built.
    let mut tier_handles: Vec<Vec<AggregatorHandle>> = Vec::new();
    let mut tier_registries: Vec<Vec<Registry>> = Vec::new();
    let mut upstreams = vec![root.local_addr().to_string()];
    for (depth, &width) in widths.iter().rev().enumerate() {
        // Width of the tier feeding this one: the next entry down in
        // `widths`, or the agents for the leaf-most tier.
        let below_total = if depth + 1 < widths.len() {
            widths[widths.len() - depth - 2]
        } else {
            AGENTS
        };
        let mut handles = Vec::new();
        let mut registries = Vec::new();
        for node in 0..width {
            let lo = node * fan_out;
            let hi = ((node + 1) * fan_out).min(below_total);
            let registry = Registry::new();
            let mut acfg = AggregatorConfig::new(node as u32, hi - lo);
            acfg.straggler_deadline = deadline;
            acfg.reorder_window = window;
            let up = if upstreams.len() == 1 {
                0
            } else {
                node / fan_out
            };
            let agg = Aggregator::bind(
                "127.0.0.1:0",
                upstreams[up].clone(),
                cfg,
                acfg,
                Some(registry.clone()),
            )
            .expect("bind aggregator");
            handles.push(agg);
            registries.push(registry);
        }
        upstreams = handles.iter().map(|a| a.local_addr().to_string()).collect();
        tier_handles.push(handles);
        tier_registries.push(registries);
    }

    // Drive the agents concurrently, one thread each, interval-locked.
    let start = Instant::now();
    let tick = Arc::new(Barrier::new(AGENTS));
    let agent_threads: Vec<_> = windows
        .iter()
        .cloned()
        .enumerate()
        .map(|(id, wins)| {
            let addr = if tiers == 1 {
                upstreams[0].clone()
            } else {
                upstreams[id / fan_out].clone()
            };
            let tick = Arc::clone(&tick);
            std::thread::spawn(move || {
                let mut agent =
                    RouterAgent::new(addr, &cfg, AgentConfig::new(id as u32)).expect("config");
                for window in &wins {
                    tick.wait();
                    for p in window {
                        agent.record(p);
                    }
                    agent.end_interval();
                }
                agent.finish()
            })
        })
        .collect();
    let mut leaf_frames = 0u64;
    for t in agent_threads {
        let stats = t.join().expect("agent thread");
        assert_eq!(stats.frames_dropped, 0, "agents must not drop frames");
        leaf_frames += stats.frames_shipped;
    }

    // Tear down bottom-up: each tier finishes naturally once its children
    // disconnect, then ships its tail upstream.
    let mut tier_latencies = Vec::new();
    for (depth, handles) in tier_handles.into_iter().enumerate().rev() {
        for agg in handles {
            let report = agg.wait().expect("aggregator threads");
            assert_eq!(report.frames_rejected, 0, "clean run rejects nothing");
            assert_eq!(report.frames_unshipped, 0, "clean run ships everything");
        }
        tier_latencies.push(tier_latency(
            format!("tier{}", depth + 1),
            &tier_registries[depth],
        ));
    }
    let report = root.wait().expect("collector threads");
    let elapsed = start.elapsed();
    tier_latencies.push(tier_latency("root".to_string(), &[root_registry]));
    tier_latencies.reverse(); // root first, then top-down

    let networked: BTreeSet<AlertIdentity> = report
        .log
        .final_alerts()
        .iter()
        .map(|a| a.identity())
        .collect();
    assert_eq!(
        &networked, reference,
        "{tiers}-tier fan-out {fan_out} diverged from the single-router reference"
    );

    TopologyResult {
        topology: match tiers {
            1 => "flat".to_string(),
            n => format!("{n}-tier"),
        },
        tiers,
        fan_out,
        agents: AGENTS,
        intervals,
        elapsed_ms: elapsed.as_millis() as u64,
        leaf_frames,
        leaf_frames_per_sec: leaf_frames as f64 / elapsed.as_secs_f64(),
        root_frames_received: report.frames_received,
        final_alerts: networked.len(),
        identical_to_single: &networked == reference,
        tier_latencies,
    }
}

/// Sums one tier's combine histograms into a mean latency.
fn tier_latency(tier: String, registries: &[Registry]) -> TierLatency {
    let mut combines = 0u64;
    let mut total = 0.0f64;
    for registry in registries {
        if let Some(MetricValue::Histogram(h)) =
            registry.snapshot().get("hifind_collect_combine_seconds")
        {
            combines += h.count;
            total += h.sum;
        }
    }
    TierLatency {
        tier,
        nodes: registries.len(),
        combines,
        mean_combine_us: if combines == 0 {
            0.0
        } else {
            total / combines as f64 * 1e6
        },
    }
}

fn print_result(r: &TopologyResult) {
    println!(
        "{:<7} fan-out {:>2}: {:>5} leaf frames in {:>5} ms ({:>8.1} frames/s), identical: {}",
        r.topology,
        r.fan_out,
        r.leaf_frames,
        r.elapsed_ms,
        r.leaf_frames_per_sec,
        r.identical_to_single
    );
    for t in &r.tier_latencies {
        println!(
            "        {:<6} ({:>2} nodes): {:>4} combines, mean {:>8.1} µs",
            t.tier, t.nodes, t.combines, t.mean_combine_us
        );
    }
}
