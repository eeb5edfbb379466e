//! End-to-end networked collection over real loopback TCP.
//!
//! The paper's §5.3.2 claim, operationalised: three router agents, each
//! seeing a per-packet split of the same NU-like trace, ship their sketch
//! snapshots over TCP to one collector — and the aggregate detection is
//! alert-for-alert identical to a single router that saw everything. A
//! second test kills one agent mid-run and checks the collector degrades
//! to quorum detection instead of stalling. A third plays the same raw
//! child scripts against a root and an interior tier node and checks the
//! two roles account for them identically.

use hifind::report::Phase;
use hifind::{HiFind, HiFindConfig, IntervalOutcome, IntervalSnapshot, SketchRecorder};
use hifind_collect::{
    codec_v2, wire, AgentConfig, Aggregator, AggregatorConfig, AggregatorHandle, CollectObserver,
    Collector, CollectorConfig, CollectorHandle, RouterAgent, WireError,
};
use hifind_flow::{Ip4, Packet, Trace};
use hifind_telemetry::registry::MetricValue;
use hifind_telemetry::Registry;
use hifind_trafficgen::{presets, split_per_packet};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Buckets `part`'s packets into the merged trace's interval grid, so
/// every router ends exactly `n` intervals in lockstep — window `i`
/// always means the same wall-clock slice on every router.
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

fn counter(registry: &Registry, name: &str) -> u64 {
    match registry
        .snapshot()
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
    {
        MetricValue::Counter { value } => value,
        ref other => panic!("{name}: expected counter, got {other:?}"),
    }
}

#[test]
fn three_agents_over_tcp_equal_single_router() {
    let seed = 2026;
    // CI-sized sketches (identical semantics to paper-scale), and a
    // sensitive threshold so the scaled-down trace still raises alerts —
    // identical detection with zero alerts on both sides would be a
    // vacuous pass. Paper-length intervals keep the interval count (and
    // so the number of inference runs) small.
    let mut cfg = HiFindConfig::small(seed);
    cfg.interval_ms = 60_000;
    cfg.threshold_per_sec = 0.25;
    let (trace, _) = presets::nu_like(seed).scaled(0.05).generate();
    assert!(!trace.is_empty());

    // Reference: one router saw all traffic.
    let mut single = HiFind::new(cfg).expect("paper config");
    let single_log = single.run_trace(&trace);

    // Networked: the same packets split per packet across three agents.
    let base = trace.iter().next().unwrap().ts_ms / cfg.interval_ms;
    let last = trace.iter().last().unwrap().ts_ms / cfg.interval_ms;
    let n = (last - base + 1) as usize;
    let registry = Registry::new();
    // This test is about alignment identity, not deadline policy: a huge
    // straggler deadline means a slow CI box can never force a partial
    // flush and turn the assertions flaky.
    let mut ccfg = CollectorConfig::new(3);
    ccfg.straggler_deadline = Duration::from_secs(60);
    let handle =
        Collector::bind("127.0.0.1:0", cfg, ccfg, Some(registry.clone())).expect("bind loopback");
    let addr = handle.local_addr().to_string();
    // Real routers tick intervals off the same wall clock; the barrier
    // models that, keeping inter-agent skew under the reorder window.
    let tick = std::sync::Arc::new(std::sync::Barrier::new(3));
    let agents: Vec<_> = split_per_packet(&trace, 3, seed ^ 0x60D)
        .iter()
        .enumerate()
        .map(|(id, part)| {
            let windows = global_windows(part, cfg.interval_ms, base, n);
            let addr = addr.clone();
            let tick = std::sync::Arc::clone(&tick);
            std::thread::spawn(move || {
                let mut agent =
                    RouterAgent::new(addr, &cfg, AgentConfig::new(id as u32)).expect("config");
                for window in &windows {
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
    for agent in agents {
        let stats = agent.join().expect("agent thread");
        assert_eq!(stats.frames_shipped, n as u64, "every interval shipped");
        assert_eq!(stats.frames_dropped, 0);
    }
    let report = handle.wait().expect("collector threads");

    // Every interval aligned and complete; nothing late, lost or partial.
    assert_eq!(report.intervals_flushed, n as u64, "{report:?}");
    assert_eq!(report.complete_intervals, n as u64, "{report:?}");
    assert_eq!(report.partial_intervals, 0);
    assert_eq!(report.gap_intervals, 0);
    assert_eq!(report.frames_received, 3 * n as u64);
    assert_eq!(report.frames_late, 0);
    assert_eq!(report.frames_rejected, 0);
    assert_eq!(report.straggler_slots, 0);
    let mut routers = report.routers_seen.clone();
    routers.sort_unstable();
    assert_eq!(routers, vec![0, 1, 2]);

    // The §5.3.2 equivalence, now across real sockets: identical alerts
    // at every phase of the pipeline.
    for phase in [Phase::Raw, Phase::AfterClassification, Phase::Final] {
        assert_eq!(
            alert_identities(&single_log, phase),
            alert_identities(&report.log, phase),
            "phase {phase:?} diverged between single-router and networked runs"
        );
    }
    assert!(
        !alert_identities(&single_log, Phase::Raw).is_empty(),
        "trace must actually trigger detection for the equivalence to mean anything"
    );

    // Telemetry saw the run too.
    assert_eq!(
        counter(&registry, "hifind_collect_frames_received_total"),
        3 * n as u64
    );
    assert!(counter(&registry, "hifind_collect_bytes_received_total") > 0);
    assert_eq!(
        counter(&registry, "hifind_collect_frames_rejected_total"),
        0
    );
}

/// A compact five-interval trace: two benign intervals establish the
/// forecast baseline, then a SYN flood loud enough that two of three
/// routers still carry it far over the threshold.
fn flood_trace(cfg: &HiFindConfig) -> Trace {
    let mut t = Trace::new();
    let victim: Ip4 = [129, 105, 0, 1].into();
    for iv in 0..5u64 {
        let b = iv * cfg.interval_ms;
        for i in 0..30u32 {
            let c: Ip4 = [9, 9, 9, (i % 100) as u8].into();
            t.push(Packet::syn(b + u64::from(i) * 7, c, 4000, victim, 80));
            t.push(Packet::syn_ack(
                b + u64::from(i) * 7 + 1,
                c,
                4000,
                victim,
                80,
            ));
        }
        if iv >= 2 {
            for i in 0..400u32 {
                t.push(Packet::syn(
                    b + 300 + u64::from(i),
                    Ip4::new(0x5100_0000 + i),
                    2000,
                    victim,
                    80,
                ));
            }
        }
    }
    t.sort_by_time();
    t
}

#[test]
fn dead_agent_degrades_to_quorum_instead_of_stalling() {
    let seed = 77;
    let cfg = HiFindConfig::small(seed);
    let trace = flood_trace(&cfg);
    let mut ccfg = CollectorConfig::new(3);
    ccfg.straggler_deadline = Duration::from_millis(300);
    ccfg.linger = Duration::from_millis(200);
    let registry = Registry::new();
    let handle =
        Collector::bind("127.0.0.1:0", cfg, ccfg, Some(registry.clone())).expect("bind loopback");
    let addr = handle.local_addr().to_string();
    let parts = split_per_packet(&trace, 3, seed);
    let windows: Vec<_> = parts
        .iter()
        .map(|p| global_windows(p, cfg.interval_ms, 0, 5))
        .collect();
    let threads: Vec<_> = windows
        .into_iter()
        .enumerate()
        .map(|(id, windows)| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut agent =
                    RouterAgent::new(addr, &cfg, AgentConfig::new(id as u32)).expect("config");
                for (iv, window) in windows.iter().enumerate() {
                    // Router 2 dies after shipping two intervals: its
                    // socket drops and it never reports again.
                    if id == 2 && iv >= 2 {
                        return agent.finish();
                    }
                    for p in window {
                        agent.record(p);
                    }
                    agent.end_interval();
                }
                agent.finish()
            })
        })
        .collect();
    for t in threads {
        t.join().expect("agent thread");
    }

    // This join is itself the liveness assertion: a collector that waited
    // forever for router 2 would hang the test (CI enforces a timeout).
    let report = handle.wait().expect("collector threads");
    assert_eq!(report.intervals_flushed, 5, "all intervals still detected");
    assert_eq!(report.complete_intervals, 2);
    assert_eq!(
        report.partial_intervals, 3,
        "quorum detection after deadline"
    );
    assert_eq!(
        report.straggler_slots, 3,
        "one missing router × 3 intervals"
    );
    assert_eq!(report.frames_received, 2 * 5 + 2);
    // Telemetry exposes the degradation for operators.
    assert_eq!(
        counter(&registry, "hifind_collect_straggler_slots_total"),
        3
    );
    // And the pipeline kept emitting: the flood is loud enough that two
    // of three routers still carry it over the threshold.
    assert!(
        report
            .log
            .count(Phase::Final, hifind::report::AlertKind::SynFlooding)
            >= 1,
        "quorum view must still detect the flood: {:?}",
        report.log
    );
}

/// What the parity test's observer was told, per hook.
#[derive(Default)]
struct Told {
    rejected: AtomicU64,
    closed: AtomicU64,
    gaps_synthesized: AtomicU64,
    forwarded: AtomicU64,
    tier_gaps: AtomicU64,
}

impl CollectObserver for Told {
    fn frame_rejected(&self, _error: &WireError) {
        self.rejected.fetch_add(1, Ordering::SeqCst);
    }
    fn interval_closed(
        &self,
        _interval: u64,
        _snapshot: &IntervalSnapshot,
        _outcome: &IntervalOutcome,
        _contributors: usize,
        _expected: usize,
    ) {
        self.closed.fetch_add(1, Ordering::SeqCst);
    }
    fn gap_synthesized(&self, _interval: u64, _outcome: &IntervalOutcome) {
        self.gaps_synthesized.fetch_add(1, Ordering::SeqCst);
    }
    fn snapshot_forwarded(
        &self,
        _node_id: u32,
        _interval: u64,
        _snapshot: &IntervalSnapshot,
        _contributors: usize,
        _expected: usize,
    ) {
        self.forwarded.fetch_add(1, Ordering::SeqCst);
    }
    fn tier_gap(&self, _node_id: u32, _interval: u64) {
        self.tier_gaps.fetch_add(1, Ordering::SeqCst);
    }
}

/// The counters every tier node keeps, whatever its sink does; both
/// roles' reports are mapped onto this for comparison.
#[derive(Debug, PartialEq)]
struct Shared {
    complete: u64,
    partial: u64,
    gaps: u64,
    straggler_slots: u64,
    frames_received: u64,
    frames_late: u64,
    frames_rejected: u64,
    children_seen: Vec<u32>,
}

/// One frame of a child script: `(child id, interval, mis-seeded?)`.
type Step = (u32, u64, bool);

#[derive(Clone, Copy, Debug)]
enum Role {
    Root,
    Interior,
}

enum Node {
    Root(CollectorHandle),
    Interior(AggregatorHandle),
}

/// Plays `script` against one tier node expecting two children, one
/// frame at a time (each on its child's own connection, waiting until
/// the node has accounted for it), then `stop()`s the node. Returns the
/// shared counters, every `hifind_collect_*` counter series both roles
/// export, and what the observer was told.
fn play(role: Role, script: &[Step]) -> (Shared, Vec<(String, u64)>, Arc<Told>) {
    let cfg = HiFindConfig::small(31);
    let snapshot = |cfg: &HiFindConfig| SketchRecorder::new(cfg).unwrap().take_snapshot();
    let (good, rogue) = (snapshot(&cfg), snapshot(&HiFindConfig::small(32)));
    let told = Arc::new(Told::default());
    let registry = Registry::new();
    let patience = Duration::from_secs(60); // only stop() may flush short-handed
    let mut ccfg = CollectorConfig::new(2);
    ccfg.straggler_deadline = patience;
    ccfg.reorder_window = 64;
    ccfg.observer = Some(told.clone());
    // The interior node needs somewhere to forward to; its upstream is a
    // plain root that is not under test.
    let upstream = Collector::bind("127.0.0.1:0", cfg, CollectorConfig::new(1), None).unwrap();
    let node = match role {
        Role::Root => {
            Node::Root(Collector::bind("127.0.0.1:0", cfg, ccfg, Some(registry.clone())).unwrap())
        }
        Role::Interior => {
            let mut acfg = AggregatorConfig::new(9, 2);
            acfg.straggler_deadline = patience;
            acfg.reorder_window = 64;
            acfg.observer = Some(told.clone());
            let parent = upstream.local_addr().to_string();
            Node::Interior(
                Aggregator::bind("127.0.0.1:0", parent, cfg, acfg, Some(registry.clone())).unwrap(),
            )
        }
    };
    let addr = match &node {
        Node::Root(h) => h.local_addr(),
        Node::Interior(h) => h.local_addr(),
    };

    let accounted = || {
        counter(&registry, "hifind_collect_frames_received_total")
            + counter(&registry, "hifind_collect_frames_late_total")
            + counter(&registry, "hifind_collect_frames_rejected_total")
    };
    let mut connections: Vec<(u32, TcpStream)> = Vec::new();
    for (sent, &(child, interval, mis_seeded)) in script.iter().enumerate() {
        if !connections.iter().any(|(id, _)| *id == child) {
            connections.push((child, TcpStream::connect(addr).unwrap()));
        }
        let stream = &mut connections
            .iter_mut()
            .find(|(id, _)| *id == child)
            .unwrap()
            .1;
        let snapshot = if mis_seeded { &rogue } else { &good };
        let keyframe = codec_v2::encode_keyframe(snapshot);
        let frame = wire::encode_frame_v2(child, interval, snapshot.fingerprint, &keyframe);
        stream.write_all(&frame.unwrap()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while accounted() < sent as u64 + 1 {
            assert!(Instant::now() < deadline, "frame {sent} never accounted");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    let shared = match node {
        Node::Root(node) => {
            let r = node.stop().unwrap();
            assert_eq!(
                r.intervals_flushed,
                r.complete_intervals + r.partial_intervals + r.gap_intervals
            );
            Shared {
                complete: r.complete_intervals,
                partial: r.partial_intervals,
                gaps: r.gap_intervals,
                straggler_slots: r.straggler_slots,
                frames_received: r.frames_received,
                frames_late: r.frames_late,
                frames_rejected: r.frames_rejected,
                children_seen: r.routers_seen,
            }
        }
        Node::Interior(node) => {
            let r = node.stop().unwrap();
            assert_eq!(r.node_id, 9);
            assert_eq!(
                r.intervals_forwarded,
                r.complete_intervals + r.partial_intervals,
                "a gap forwards nothing"
            );
            assert_eq!(r.frames_unshipped, 0);
            Shared {
                complete: r.complete_intervals,
                partial: r.partial_intervals,
                gaps: r.gap_intervals,
                straggler_slots: r.straggler_slots,
                frames_received: r.frames_received,
                frames_late: r.frames_late,
                frames_rejected: r.frames_rejected,
                children_seen: r.children_seen,
            }
        }
    };
    drop(connections);
    upstream.stop().unwrap();
    // Every scripted frame is validated (a mis-seeded one is turned away
    // by the fingerprint gate), and every validation is timed once.
    let decodes = registry
        .snapshot()
        .metrics
        .iter()
        .find_map(|m| match &m.value {
            MetricValue::Histogram(h) if m.name == "hifind_collect_decode_seconds" => Some(h.count),
            _ => None,
        });
    assert_eq!(decodes, Some(script.len() as u64), "{role:?}");
    // Counters only: the decode and combine histograms are timing, the gauge depends on
    // when connections closed, and the two forwarding series exist at the
    // interior alone (asserted through the observer instead).
    let series = registry
        .snapshot()
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("hifind_collect_"))
        .filter(|m| !m.name.contains("forwarded") && !m.name.contains("tier_gaps"))
        .filter_map(|m| match m.value {
            MetricValue::Counter { value } => Some((m.name.clone(), value)),
            _ => None,
        })
        .collect();
    (shared, series, told)
}

/// The same child script must be accounted identically by a root and by
/// an interior node: they are one tier node, and only what a flushed
/// interval *does* differs by role.
#[test]
fn root_and_interior_nodes_account_a_child_script_identically() {
    struct Case {
        name: &'static str,
        script: &'static [Step],
        expect: Shared,
    }
    let shared =
        |complete, partial, gaps, straggler_slots, received, late, rejected, seen: &[u32]| Shared {
            complete,
            partial,
            gaps,
            straggler_slots,
            frames_received: received,
            frames_late: late,
            frames_rejected: rejected,
            children_seen: seen.to_vec(),
        };
    let cases = [
        Case {
            name: "complete interval",
            script: &[(1, 0, false), (2, 0, false)],
            expect: shared(1, 0, 0, 0, 2, 0, 0, &[1, 2]),
        },
        Case {
            name: "duplicate frame is late",
            script: &[(1, 0, false), (2, 0, false), (1, 0, false)],
            expect: shared(1, 0, 0, 0, 2, 1, 0, &[1, 2]),
        },
        Case {
            name: "mis-seeded child is rejected and the observer notified",
            script: &[(1, 0, false), (3, 0, true), (2, 0, false)],
            expect: shared(1, 0, 0, 0, 2, 0, 1, &[1, 2]),
        },
        Case {
            name: "one silent child, then stop: partial",
            script: &[(1, 0, false)],
            expect: shared(0, 1, 0, 1, 1, 0, 0, &[1]),
        },
        Case {
            name: "skipped interval is a gap",
            script: &[(1, 0, false), (2, 0, false), (1, 2, false), (2, 2, false)],
            expect: shared(2, 0, 1, 2, 4, 0, 0, &[1, 2]),
        },
    ];
    for case in &cases {
        let (root, root_series, root_told) = play(Role::Root, case.script);
        let (interior, interior_series, interior_told) = play(Role::Interior, case.script);
        assert_eq!(root, case.expect, "{}: root", case.name);
        assert_eq!(interior, case.expect, "{}: interior", case.name);
        assert_eq!(root_series, interior_series, "{}: series", case.name);
        assert!(!root_series.is_empty(), "{}: no series compared", case.name);

        let told = |t: &Told| {
            let get = |a: &AtomicU64| a.load(Ordering::SeqCst);
            (
                get(&t.rejected),
                get(&t.closed),
                get(&t.gaps_synthesized),
                get(&t.forwarded),
                get(&t.tier_gaps),
            )
        };
        let e = &case.expect;
        let flushed_with_payload = e.complete + e.partial;
        assert_eq!(
            told(&root_told),
            (e.frames_rejected, flushed_with_payload, e.gaps, 0, 0),
            "{}: root hooks (rejected, closed, gap_synthesized, forwarded, tier_gap)",
            case.name
        );
        assert_eq!(
            told(&interior_told),
            (e.frames_rejected, 0, 0, flushed_with_payload, e.gaps),
            "{}: interior hooks (rejected, closed, gap_synthesized, forwarded, tier_gap)",
            case.name
        );
    }
}
