//! Tree-structured collection at scale, over real loopback TCP.
//!
//! Sketch linearity (paper §3.1) makes interior aggregation exact: the
//! sum of sums equals the flat sum, bit for bit. The headline test here
//! drives 1000 router agents through a 3-tier tree — 1000 agents → 10
//! aggregators → 1 root collector — and asserts the root's detection is
//! alert-for-alert *and* snapshot-for-snapshot identical to one router
//! that saw all traffic. A second test pins the engine's scaling claim:
//! hundreds of concurrent connections without a thread per connection.

use hifind::report::Phase;
use hifind::{HiFind, HiFindConfig, IntervalOutcome, IntervalSnapshot, SketchRecorder};
use hifind_collect::codec_v2;
use hifind_collect::{
    AgentConfig, Aggregator, AggregatorConfig, CollectObserver, Collector, CollectorConfig,
    RouterAgent,
};
use hifind_flow::{Packet, Trace};
use hifind_telemetry::registry::MetricValue;
use hifind_telemetry::Registry;
use hifind_trafficgen::{presets, split_per_packet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Buckets `part`'s packets into the merged trace's interval grid, so
/// every router ends exactly `n` intervals in lockstep.
fn global_windows(part: &Trace, interval_ms: u64, base: u64, n: usize) -> Vec<Vec<Packet>> {
    let mut windows = vec![Vec::new(); n];
    for p in part.iter() {
        let idx = (p.ts_ms / interval_ms - base) as usize;
        windows[idx].push(*p);
    }
    windows
}

type AlertIdentity = (
    hifind::report::AlertKind,
    Option<u32>,
    Option<u32>,
    Option<u16>,
);

fn alert_identities(log: &hifind::report::AlertLog, phase: Phase) -> Vec<AlertIdentity> {
    let mut ids: Vec<_> = log.alerts(phase).iter().map(|a| a.identity()).collect();
    ids.sort();
    ids
}

/// Captures the combined snapshot of every closed interval, encoded as a
/// codec-v2 keyframe so equality is byte-exact.
#[derive(Default)]
struct SnapshotTap {
    closed: Mutex<Vec<(u64, Vec<u8>)>>,
}

impl CollectObserver for SnapshotTap {
    fn interval_closed(
        &self,
        interval: u64,
        snapshot: &IntervalSnapshot,
        _outcome: &IntervalOutcome,
        _contributors: usize,
        _expected: usize,
    ) {
        let keyframe = codec_v2::encode_keyframe(snapshot);
        self.closed.lock().unwrap().push((interval, keyframe));
    }
}

const AGENTS: usize = 1000;
const MID_TIER: usize = 10;
const FAN_IN: usize = AGENTS / MID_TIER;

#[test]
#[ignore = "heavyweight (1000 agents over loopback); CI runs it in release via --include-ignored"]
fn thousand_agents_through_three_tiers_equal_flat_run() {
    let t0 = std::time::Instant::now();
    let stage = |name: &str| eprintln!("[hierarchy {:>6.1}s] {name}", t0.elapsed().as_secs_f64());
    let seed = 2026;
    // CI-sized sketches, sensitive threshold: identical detection with
    // zero alerts on both sides would be a vacuous pass. The sketches are
    // shrunk well below `small` and the interval stretched to bound the
    // frame volume — 1000 agents × 6 intervals is 6000 frames either way,
    // and at `small` sizes each one costs ~1.4 MB and ~20 ms to decode.
    let mut cfg = HiFindConfig::small(seed);
    cfg.interval_ms = 600_000;
    cfg.threshold_per_sec = 0.25;
    cfg.rs64.buckets = 1 << 8;
    cfg.rs48.buckets = 1 << 6;
    cfg.twod.x_buckets = 1 << 6;
    cfg.os.buckets = 1 << 10;
    cfg.active_service_bloom_bits = 1 << 14;
    let (trace, _) = presets::nu_like(seed).scaled(0.05).generate();
    assert!(!trace.is_empty());
    stage("trace generated");
    let base = trace.iter().next().unwrap().ts_ms / cfg.interval_ms;
    let last = trace.iter().last().unwrap().ts_ms / cfg.interval_ms;
    let n = (last - base + 1) as usize;

    // Flat reference: one recorder saw all traffic; one core detected on
    // its snapshots. Also keep the per-interval snapshots for the
    // bit-identity assertion.
    let mut single = HiFind::new(cfg).expect("config");
    let single_log = single.run_trace(&trace);
    let mut flat_recorder = SketchRecorder::new(&cfg).expect("config");
    let flat_windows = global_windows(&trace, cfg.interval_ms, base, n);
    let flat_frames: Vec<Vec<u8>> = flat_windows
        .iter()
        .map(|window| {
            for p in window {
                flat_recorder.record(p);
            }
            codec_v2::encode_keyframe(&flat_recorder.take_snapshot())
        })
        .collect();
    stage("flat reference done");

    // Agents are driven sequentially below (CI cores are scarce), so the
    // last mid-tier node's first upstream frame lands many minutes after
    // the first one's. Intervals close on *completeness* — every expected
    // child contributing — so a straggler deadline far beyond the whole
    // drive costs nothing here; it only must never fire.
    let deadline = Duration::from_secs(3600);

    // Root collector expects the 10 mid-tier node ids as its "routers".
    let tap = Arc::new(SnapshotTap::default());
    let mut root_cfg = CollectorConfig::new(MID_TIER);
    root_cfg.straggler_deadline = deadline;
    root_cfg.reorder_window = 64;
    root_cfg.observer = Some(tap.clone());
    let root = Collector::bind("127.0.0.1:0", cfg, root_cfg, None).expect("bind root");
    let upstream = root.local_addr().to_string();

    // Ten mid-tier aggregators, each fanning in 100 agents.
    let aggs: Vec<_> = (0..MID_TIER)
        .map(|node| {
            let mut acfg = AggregatorConfig::new(node as u32, FAN_IN);
            acfg.straggler_deadline = deadline;
            acfg.reorder_window = 64;
            Aggregator::bind("127.0.0.1:0", upstream.clone(), cfg, acfg, None).expect("bind mid")
        })
        .collect();
    let mid_addrs: Vec<String> = aggs.iter().map(|a| a.local_addr().to_string()).collect();

    // 1000 agents, driven sequentially (CI cores are scarce; the tree's
    // reorder windows absorb the resulting skew). Each agent replays its
    // per-packet split of the same trace on the shared interval grid.
    for (id, part) in split_per_packet(&trace, AGENTS, seed ^ 0x60D)
        .iter()
        .enumerate()
    {
        let windows = global_windows(part, cfg.interval_ms, base, n);
        let mut agent = RouterAgent::new(
            mid_addrs[id / FAN_IN].clone(),
            &cfg,
            AgentConfig::new(id as u32),
        )
        .expect("config");
        for window in &windows {
            for p in window {
                agent.record(p);
            }
            agent.end_interval();
        }
        let stats = agent.finish();
        assert_eq!(stats.frames_shipped, n as u64, "agent {id} shipped all");
        assert_eq!(stats.frames_dropped, 0, "agent {id} dropped none");
        if (id + 1) % 200 == 0 {
            stage(&format!("{} agents driven", id + 1));
        }
    }

    // Every mid-tier node saw exactly its 100 children, assembled every
    // interval completely, and shipped every sum upstream.
    for agg in aggs {
        let report = agg.wait().expect("aggregator threads");
        let node = report.node_id;
        assert_eq!(report.frames_received, (FAN_IN * n) as u64, "node {node}");
        assert_eq!(report.intervals_forwarded, n as u64, "node {node}");
        assert_eq!(report.complete_intervals, n as u64, "node {node}");
        assert_eq!(report.partial_intervals, 0, "node {node}");
        assert_eq!(report.gap_intervals, 0, "node {node}");
        assert_eq!(report.frames_rejected, 0, "node {node}");
        assert_eq!(report.frames_unshipped, 0, "node {node}");
        assert_eq!(report.children_seen.len(), FAN_IN, "node {node}");
    }
    stage("mid tier drained");
    let report = root.wait().expect("collector threads");
    stage("root drained");

    // The root saw ten complete "routers" — the aggregators.
    assert_eq!(report.intervals_flushed, n as u64);
    assert_eq!(report.complete_intervals, n as u64);
    assert_eq!(report.partial_intervals, 0);
    assert_eq!(report.gap_intervals, 0);
    assert_eq!(report.frames_received, (MID_TIER * n) as u64);
    assert_eq!(report.frames_rejected, 0);
    let mut routers = report.routers_seen.clone();
    routers.sort_unstable();
    assert_eq!(routers, (0..MID_TIER as u32).collect::<Vec<_>>());

    // Snapshot-for-snapshot: the root's combined interval sketches are
    // byte-identical to the flat recorder's (sketch linearity through two
    // levels of interior summation).
    let mut closed = tap.closed.lock().unwrap().clone();
    closed.sort_by_key(|(iv, _)| *iv);
    assert_eq!(closed.len(), n);
    for (iv, frame) in &closed {
        assert_eq!(
            frame, &flat_frames[*iv as usize],
            "interval {iv} diverged from the flat run"
        );
    }

    // Alert-for-alert, at every phase of the pipeline.
    for phase in [Phase::Raw, Phase::AfterClassification, Phase::Final] {
        assert_eq!(
            alert_identities(&single_log, phase),
            alert_identities(&report.log, phase),
            "phase {phase:?} diverged between flat and 3-tier runs"
        );
    }
    assert!(
        !alert_identities(&single_log, Phase::Raw).is_empty(),
        "trace must actually trigger detection for the equivalence to mean anything"
    );
}

/// Threads this process is running, per the kernel.
#[cfg(target_os = "linux")]
fn num_threads() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // Field 20 (1-based), counted after the parenthesised comm field,
    // which may itself contain spaces.
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 2..];
    after_comm
        .split_whitespace()
        .nth(17)
        .expect("num_threads field")
        .parse()
        .expect("numeric num_threads")
}

#[cfg(target_os = "linux")]
#[test]
fn engine_serves_hundreds_of_connections_without_thread_per_connection() {
    const CONNS: usize = 300;
    let seed = 5;
    let cfg = HiFindConfig::small(seed);
    let registry = Registry::new();
    let mut ccfg = CollectorConfig::new(CONNS);
    ccfg.straggler_deadline = Duration::from_secs(60);
    let handle =
        Collector::bind("127.0.0.1:0", cfg, ccfg, Some(registry.clone())).expect("bind loopback");
    let addr = handle.local_addr();

    let before = num_threads();
    let mut streams = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        streams.push(
            std::net::TcpStream::connect(addr)
                .unwrap_or_else(|e| panic!("connection {i} refused: {e}")),
        );
    }
    // Wait until the engine has accepted them all.
    let connected = |r: &Registry| match r.snapshot().get("hifind_collect_routers_connected") {
        Some(MetricValue::Gauge { value }) => *value,
        other => panic!("routers_connected: {other:?}"),
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while connected(&registry) < CONNS as i64 {
        assert!(
            std::time::Instant::now() < deadline,
            "engine accepted only {} of {CONNS} connections",
            connected(&registry)
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let during = num_threads();
    assert!(
        during <= before + 2,
        "thread count grew from {before} to {during} under {CONNS} connections — \
         the engine must not spawn per-connection threads"
    );
    drop(streams);
    let report = handle.stop().expect("collector threads");
    assert_eq!(report.frames_received, 0);
}
