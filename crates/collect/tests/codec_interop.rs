//! Legacy v1 input into v2 receivers.
//!
//! Every node sends codec v2. Receivers still decode the bare v1 frames
//! of legacy agents (which never send a hello) and the v1-tagged backlog
//! frames of old agent checkpoints. Each test here pins one of those
//! paths over real loopback TCP, plus the rule that replaced the old v1
//! fallback: an upstream that never answers the hello costs retries,
//! never a downgrade.

use hifind::report::Phase;
use hifind::{HiFind, HiFindConfig, SketchRecorder};
use hifind_collect::wire::{self, CODEC_V1, CODEC_V2};
use hifind_collect::{
    AgentCheckpoint, AgentConfig, BacklogFrame, Collector, CollectorConfig, RouterAgent,
};
use hifind_flow::{Ip4, Packet, Trace};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// A compact five-interval trace: two benign intervals establish the
/// forecast baseline, then a SYN flood loud enough to alert through a
/// three-way split.
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

/// Buckets a packet list into per-interval windows.
fn windows_of(packets: &[Packet], interval_ms: u64, n: usize) -> Vec<Vec<Packet>> {
    let mut windows = vec![Vec::new(); n];
    for p in packets {
        windows[(p.ts_ms / interval_ms) as usize].push(*p);
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

/// A legacy v1 agent: one connection, no hello, one bare v1 frame per
/// interval. `before_interval` runs ahead of each window (a fleet
/// barrier, say).
fn legacy_v1_sender(
    addr: &str,
    cfg: &HiFindConfig,
    router_id: u32,
    windows: &[Vec<Packet>],
    mut before_interval: impl FnMut(),
) {
    let mut recorder = SketchRecorder::new(cfg).expect("config");
    let mut stream = TcpStream::connect(addr).expect("connect");
    for (interval, window) in windows.iter().enumerate() {
        before_interval();
        for p in window {
            recorder.record(p);
        }
        let frame = wire::encode_frame(router_id, interval as u64, &recorder.take_snapshot())
            .expect("frame encodes");
        stream.write_all(&frame).expect("write frame");
    }
    // Half-close and wait for the collector's EOF, so no frame can be
    // lost to a reset.
    stream.shutdown(Shutdown::Write).expect("shutdown");
    let _ = stream.read_to_end(&mut Vec::new());
}

/// A legacy agent that never heard of v2 ships plain v1 frames into a
/// v2 collector, which must count and decode them unchanged.
#[test]
fn v1_pinned_agent_interops_with_v2_collector() {
    let cfg = HiFindConfig::small(60);
    let trace = flood_trace(&cfg);
    let handle = Collector::bind("127.0.0.1:0", cfg, CollectorConfig::new(1), None).expect("bind");
    let addr = handle.local_addr().to_string();
    let packets: Vec<Packet> = trace.iter().copied().collect();
    legacy_v1_sender(
        &addr,
        &cfg,
        0,
        &windows_of(&packets, cfg.interval_ms, 5),
        || {},
    );
    let report = handle.wait().expect("collector threads");
    assert_eq!(report.frames_received, 5);
    assert_eq!(report.frames_codec_v1, 5);
    assert_eq!(report.frames_v2_keyframes + report.frames_v2_deltas, 0);
    assert_eq!(report.frames_rejected, 0);
    assert!(
        report
            .log
            .count(Phase::Final, hifind::report::AlertKind::SynFlooding)
            >= 1,
        "legacy framing must still detect the flood"
    );
}

/// A v2 session on loopback actually reaches the delta steady state:
/// frames flow, acks flow back, and the encoder starts emitting deltas.
#[test]
fn v2_session_reaches_delta_steady_state() {
    let cfg = HiFindConfig::small(62);
    let mut ccfg = CollectorConfig::new(1);
    ccfg.straggler_deadline = Duration::from_secs(30);
    let handle = Collector::bind("127.0.0.1:0", cfg, ccfg, None).expect("bind");
    let addr = handle.local_addr().to_string();
    let mut agent = RouterAgent::new(addr, &cfg, AgentConfig::new(0)).expect("config");
    let victim: Ip4 = [129, 105, 0, 1].into();
    // A warm first interval populates the cumulative service Bloom — the
    // state whose unchanged bulk is exactly what deltas elide.
    for i in 0..200u32 {
        let server = Ip4::new(0x8169_0000 + i);
        let c: Ip4 = [9, 9, (i % 50) as u8, 1].into();
        agent.record(&Packet::syn(0, c, 4000, server, 80));
        agent.record(&Packet::syn_ack(1, c, 4000, server, 80));
    }
    agent.end_interval();
    let mut deltas_seen = false;
    for iv in 1..30u64 {
        for i in 0..20u32 {
            let c: Ip4 = [9, 9, 9, (i % 100) as u8].into();
            agent.record(&Packet::syn(iv * cfg.interval_ms, c, 4000, victim, 80));
        }
        agent.end_interval();
        if agent.stats().frames_v2_deltas > 0 {
            deltas_seen = true;
            break;
        }
        // Give the collector's ack a moment to cross the loopback.
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        deltas_seen,
        "acks never promoted the session to deltas: {:?}",
        agent.stats()
    );
    let stats = agent.finish();
    assert!(
        stats.frames_v2_keyframes >= 1,
        "the chain starts on a keyframe"
    );
    let report = handle.wait().expect("collector threads");
    assert_eq!(report.frames_rejected, 0);
    assert!(report.frames_v2_deltas >= 1, "{report:?}");
    assert_eq!(
        report.frames_v2_deltas + report.frames_v2_keyframes,
        report.frames_received
    );
}

/// A mixed fleet — one legacy v1 sender, two v2 agents — against one
/// collector produces detection identical to a single router that saw
/// all traffic, while the collector counts each codec separately.
#[test]
fn mixed_codec_fleet_matches_single_router_detection() {
    let cfg = HiFindConfig::small(63);
    let trace = flood_trace(&cfg);

    let mut single = HiFind::new(cfg).expect("config");
    let single_log = single.run_trace(&trace);

    let mut ccfg = CollectorConfig::new(3);
    ccfg.straggler_deadline = Duration::from_secs(60);
    let handle = Collector::bind("127.0.0.1:0", cfg, ccfg, None).expect("bind");
    let addr = handle.local_addr().to_string();
    // Deterministic round-robin split; the codec an interval travels in
    // must never affect what it adds to the sum.
    let mut parts: [Vec<Packet>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (i, p) in trace.iter().enumerate() {
        parts[i % 3].push(*p);
    }
    let tick = Arc::new(Barrier::new(3));
    let threads: Vec<_> = parts
        .into_iter()
        .enumerate()
        .map(|(id, part)| {
            let windows = windows_of(&part, cfg.interval_ms, 5);
            let addr = addr.clone();
            let tick = Arc::clone(&tick);
            std::thread::spawn(move || {
                if id == 0 {
                    legacy_v1_sender(&addr, &cfg, 0, &windows, || {
                        tick.wait();
                    });
                    return;
                }
                let mut agent =
                    RouterAgent::new(addr, &cfg, AgentConfig::new(id as u32)).expect("config");
                for window in &windows {
                    tick.wait();
                    for p in window {
                        agent.record(p);
                    }
                    agent.end_interval();
                }
                let stats = agent.finish();
                assert_eq!(stats.frames_shipped, 5);
                assert_eq!(stats.frames_dropped, 0);
            })
        })
        .collect();
    for t in threads {
        t.join().expect("sender thread");
    }
    let report = handle.wait().expect("collector threads");
    assert_eq!(report.frames_received, 15);
    assert_eq!(report.frames_rejected, 0);
    assert_eq!(
        report.frames_codec_v1, 5,
        "exactly the legacy sender's share"
    );
    assert_eq!(
        report.frames_v2_keyframes + report.frames_v2_deltas,
        10,
        "the v2 agents' share"
    );
    for phase in [Phase::Raw, Phase::AfterClassification, Phase::Final] {
        assert_eq!(
            alert_identities(&single_log, phase),
            alert_identities(&report.log, phase),
            "phase {phase:?} diverged between single-router and mixed-codec runs"
        );
    }
    assert!(!alert_identities(&single_log, Phase::Raw).is_empty());
}

/// A checkpoint written by a legacy agent holds v1-tagged frames. The
/// resumed agent ships them verbatim into its v2 session, then carries
/// on in v2 on the same connection.
#[test]
fn legacy_v1_checkpoint_backlog_ships_verbatim() {
    let cfg = HiFindConfig::small(64);
    let victim: Ip4 = [129, 105, 0, 1].into();
    let mut recorder = SketchRecorder::new(&cfg).expect("config");
    let backlog = (0..3u64)
        .map(|iv| {
            for i in 0..25u32 {
                recorder.record(&Packet::syn(
                    iv,
                    Ip4::new(0x0909_0900 + i),
                    4000,
                    victim,
                    80,
                ));
            }
            let snapshot = recorder.take_snapshot();
            BacklogFrame {
                codec: CODEC_V1,
                frame: wire::encode_frame(0, iv, &snapshot).expect("frame encodes"),
            }
        })
        .collect();
    let ckpt = AgentCheckpoint {
        fingerprint: cfg.fingerprint(),
        router_id: 0,
        interval: 3,
        backlog,
    };
    let handle = Collector::bind("127.0.0.1:0", cfg, CollectorConfig::new(1), None).expect("bind");
    let mut resumed = RouterAgent::resume(
        handle.local_addr().to_string(),
        &cfg,
        AgentConfig::new(0),
        &ckpt,
    )
    .expect("resume");
    resumed.flush();
    resumed.end_interval();
    let stats = resumed.finish();
    assert_eq!(stats.frames_shipped, 4);
    assert_eq!(
        stats.frames_v2_keyframes, 1,
        "only the fresh interval is v2"
    );
    let report = handle.wait().expect("collector threads");
    assert_eq!(report.frames_received, 4, "{report:?}");
    assert_eq!(report.frames_codec_v1, 3, "the backlog ships verbatim");
    assert_eq!(report.frames_v2_keyframes, 1);
    assert_eq!(report.frames_rejected, 0);
}

/// An upstream that takes the hello and never answers costs failed,
/// backed-off connect attempts with the backlog kept. It never causes a
/// downgrade: no connection carries anything but the hello.
#[test]
fn unanswered_hello_is_a_failed_attempt_not_a_downgrade() {
    let cfg = HiFindConfig::small(65);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    listener.set_nonblocking(true).expect("nonblocking");
    let addr = listener.local_addr().expect("addr").to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let mute = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut connections = Vec::new();
            loop {
                match listener.accept() {
                    Ok((mut stream, _)) => {
                        stream.set_nonblocking(false).expect("blocking");
                        stream
                            .set_read_timeout(Some(Duration::from_secs(10)))
                            .expect("timeout");
                        let mut bytes = Vec::new();
                        let _ = stream.read_to_end(&mut bytes);
                        connections.push(bytes);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        if stop.load(Ordering::SeqCst) {
                            return connections;
                        }
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(e) => panic!("accept failed: {e}"),
                }
            }
        })
    };
    let mut acfg = AgentConfig::new(0);
    acfg.max_attempts = 2;
    acfg.initial_backoff = Duration::from_millis(10);
    acfg.io_timeout = Duration::from_millis(300);
    let mut agent = RouterAgent::new(addr, &cfg, acfg).expect("config");
    agent.record(&Packet::syn(
        0,
        [9, 9, 9, 1].into(),
        4000,
        [129, 105, 0, 1].into(),
        80,
    ));
    let report = agent.end_interval();
    assert_eq!(report.shipped, 0);
    assert!(agent.stats().send_failures >= 1, "{:?}", agent.stats());
    assert_eq!(agent.backlog_len(), 1, "the interval waits for a real peer");
    drop(agent);
    stop.store(true, Ordering::SeqCst);
    let connections = mute.join().expect("listener thread");
    assert!(!connections.is_empty());
    for bytes in &connections {
        assert_eq!(bytes.len(), 13, "one hello and nothing else: {bytes:02x?}");
        assert_eq!(&bytes[..4], b"HFSH");
        assert_eq!(wire::parse_hello(bytes).expect("hello"), vec![CODEC_V2]);
        assert!(!bytes.windows(4).any(|w| w == wire::MAGIC));
    }
}
