//! End-to-end integration tests: generator → recorder → pipeline →
//! evaluation, exercising the public API the way the experiment harness
//! does (at unit-test scale).

use hifind::evaluate::evaluate;
use hifind::{
    AlertKind, AlertLog, DetectionCore, HiFind, HiFindConfig, IntervalSnapshot, Phase,
    SketchRecorder,
};
use hifind_flow::{Ip4, Packet, Trace};
use hifind_trafficgen::{presets, split_per_packet, EventClass};

fn test_config() -> HiFindConfig {
    // Paper semantics, paper-sized sketches, one-minute intervals — only
    // the workload is scaled down.
    HiFindConfig::paper(0xE2E)
}

#[test]
fn nu_like_detection_recall_and_phases() {
    let scenario = presets::nu_like(1).scaled(0.012);
    let (trace, truth) = scenario.generate();
    let mut ids = HiFind::new(test_config()).unwrap();
    let log = ids.run_trace(&trace);

    // Phase counts shrink monotonically per kind.
    for kind in [AlertKind::SynFlooding, AlertKind::HScan, AlertKind::VScan] {
        assert!(log.count(Phase::Raw, kind) >= log.count(Phase::AfterClassification, kind));
        assert!(
            log.count(Phase::AfterClassification, kind) >= log.count(Phase::Final, kind)
                || kind.is_scan(), // scans are untouched by phase 3
        );
    }

    let summary = evaluate(log.final_alerts(), &truth);
    assert!(
        summary.flooding.recall() > 0.5,
        "flooding recall too low: {}",
        summary.flooding
    );
    assert!(
        summary.hscan.recall() > 0.4,
        "hscan recall too low: {}",
        summary.hscan
    );
    assert!(
        summary.vscan.recall() > 0.5,
        "vscan recall too low: {}",
        summary.vscan
    );
    // False positives are bounded (the odd congestion episode may survive).
    assert!(
        summary.flooding.false_positives() <= 4,
        "too many flooding FPs: {}",
        summary.flooding
    );
}

#[test]
fn lbl_like_no_flooding_after_phase3() {
    let scenario = presets::lbl_like(2).scaled(0.02);
    let (trace, truth) = scenario.generate();
    assert_eq!(truth.iter().filter(|e| e.class.is_flooding()).count(), 0);
    let mut ids = HiFind::new(test_config()).unwrap();
    let log = ids.run_trace(&trace);
    // The paper's LBL row: raw flooding alerts exist (congestion noise),
    // phase 3 kills them all (or nearly so).
    assert!(
        log.count(Phase::Final, AlertKind::SynFlooding) <= 1,
        "phase 3 must remove benign flooding noise: {:?}",
        log.final_alerts()
    );
    // Scans are still found.
    assert!(log.count(Phase::Final, AlertKind::HScan) >= 5);
}

/// Detects on the per-interval sum of the routers' snapshots, as the
/// collection root does: each interval, fold every router's snapshot into
/// the first one with `combine_many`, then run the one detection core.
fn detect_aggregated(cfg: HiFindConfig, parts: &[Trace]) -> AlertLog {
    let mut routers: Vec<SketchRecorder> = parts
        .iter()
        .map(|_| SketchRecorder::new(&cfg).unwrap())
        .collect();
    let mut core = DetectionCore::new(cfg).unwrap();
    let windows: Vec<Vec<_>> = parts
        .iter()
        .map(|t| t.intervals(cfg.interval_ms).collect())
        .collect();
    let n = windows.iter().map(Vec::len).max().unwrap();
    for iv in 0..n {
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
        let (sum, rest) = snaps.split_first_mut().unwrap();
        sum.combine_many(&rest.iter().collect::<Vec<_>>()).unwrap();
        core.process_snapshot(sum);
    }
    core.log().clone()
}

/// A hand-built trace: background handshakes to a victim service, then
/// from interval 1 on a spoofed SYN flood against it and a port-445 scan.
fn flood_and_scan(cfg: &HiFindConfig) -> Trace {
    let mut t = Trace::new();
    let victim: Ip4 = [129, 105, 0, 1].into();
    let scanner: Ip4 = [66, 6, 6, 6].into();
    for iv in 0..5u64 {
        let base = iv * cfg.interval_ms;
        for i in 0..30u32 {
            let c: Ip4 = [9, 9, 9, (i % 100) as u8].into();
            let ts = base + u64::from(i) * 7;
            t.push(Packet::syn(ts, c, 4000 + i as u16, victim, 80));
            t.push(Packet::syn_ack(ts + 1, c, 4000 + i as u16, victim, 80));
        }
        if iv >= 1 {
            for i in 0..250u32 {
                let spoofed = Ip4::new(0x5100_0000 + i);
                t.push(Packet::syn(
                    base + 200 + u64::from(i),
                    spoofed,
                    2000,
                    victim,
                    80,
                ));
                let dst: Ip4 = [129, 105, (i >> 8) as u8, i as u8].into();
                t.push(Packet::syn(
                    base + 300 + u64::from(i),
                    scanner,
                    2100,
                    dst,
                    445,
                ));
            }
        }
    }
    t.sort_by_time();
    t
}

/// Splits `trace` per packet over three routers and asserts detection on
/// their aggregate equals single-router detection; returns the aggregate's
/// log.
fn assert_aggregate_equals_single(cfg: HiFindConfig, trace: &Trace) -> AlertLog {
    let mut single = HiFind::new(cfg).unwrap();
    let single_log = single.run_trace(trace);
    let aggregate = detect_aggregated(cfg, &split_per_packet(trace, 3, 99));

    let mut a: Vec<_> = single_log
        .final_alerts()
        .iter()
        .map(|x| x.identity())
        .collect();
    let mut b: Vec<_> = aggregate
        .final_alerts()
        .iter()
        .map(|x| x.identity())
        .collect();
    a.sort();
    b.sort();
    assert_eq!(a, b, "aggregate must equal single-router detection");
    aggregate
}

#[test]
fn aggregated_detection_equals_single_router_on_preset() {
    let (trace, _) = presets::nu_like(3).scaled(0.01).generate();
    assert_aggregate_equals_single(test_config(), &trace);

    // The hand-built split: the aggregate still finds both attacks.
    let cfg = HiFindConfig::small(50);
    let aggregate = assert_aggregate_equals_single(cfg, &flood_and_scan(&cfg));
    assert!(
        aggregate.count(Phase::Final, AlertKind::SynFlooding) >= 1,
        "aggregate must still detect the flood"
    );
    assert!(aggregate.count(Phase::Final, AlertKind::HScan) >= 1);
}

#[test]
fn snapshots_survive_serialization_between_router_and_site() {
    // Routers ship snapshots over the wire; detection on deserialized
    // snapshots must equal detection on the originals.
    let cfg = test_config();
    let (trace, _) = presets::dos_resilience(4).scaled(0.05).generate();
    let mut recorder = SketchRecorder::new(&cfg).unwrap();
    let mut site_direct = DetectionCore::new(cfg).unwrap();
    let mut site_wire = DetectionCore::new(cfg).unwrap();
    for window in trace.intervals(cfg.interval_ms) {
        for p in window.packets {
            recorder.record(p);
        }
        let snap = recorder.take_snapshot();
        let wire = serde_json::to_vec(&snap).unwrap();
        let shipped: hifind::IntervalSnapshot = serde_json::from_slice(&wire).unwrap();
        site_direct.process_snapshot(&snap);
        site_wire.process_snapshot(&shipped);
    }
    assert_eq!(
        site_direct.log().final_alerts(),
        site_wire.log().final_alerts()
    );
}

#[test]
fn dos_resilience_scan_found_under_spoofed_smokescreen() {
    let (trace, truth) = presets::dos_resilience(5).scaled(0.12).generate();
    let scan = truth.of_class(EventClass::HScan).next().unwrap();
    let mut ids = HiFind::new(test_config()).unwrap();
    let log = ids.run_trace(&trace);
    assert!(
        log.final_alerts()
            .iter()
            .any(|a| a.kind == AlertKind::SynFlooding),
        "the smokescreen flood itself must be reported"
    );
    assert!(
        log.final_alerts()
            .iter()
            .any(|a| a.kind == AlertKind::HScan && a.sip == scan.sip),
        "the real scan must not be masked by the flood: {:?}",
        log.final_alerts()
    );
    // And memory stayed fixed regardless of the spoofed-source count.
    let expected = SketchRecorder::new(&test_config()).unwrap().memory_bytes();
    assert_eq!(ids.recorder().memory_bytes(), expected);
}

#[test]
fn alerts_carry_actionable_mitigation_keys() {
    // The reversible sketch's point: alerts name the culprit flows.
    let (trace, truth) = presets::nu_like(6).scaled(0.012).generate();
    let mut ids = HiFind::new(test_config()).unwrap();
    let log = ids.run_trace(&trace);
    for alert in log.final_alerts() {
        match alert.kind {
            AlertKind::SynFlooding => {
                assert!(alert.dip.is_some() && alert.dport.is_some());
            }
            AlertKind::HScan => {
                assert!(alert.sip.is_some() && alert.dport.is_some());
            }
            AlertKind::VScan => {
                assert!(alert.sip.is_some() && alert.dip.is_some());
            }
        }
    }
    // At least one detected hscan names a real injected attacker.
    let any_named = log
        .final_alerts()
        .iter()
        .filter(|a| a.kind == AlertKind::HScan)
        .any(|a| {
            truth
                .of_class(EventClass::HScan)
                .any(|e| e.sip == a.sip && e.dport == a.dport)
        });
    assert!(any_named);
}
