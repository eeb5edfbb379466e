//! Crash/resume equivalence for the collection site.
//!
//! The durability contract: a collection site killed after any interval
//! and restarted from its checkpoint must end the run with exactly the
//! final alerts an uninterrupted site would have raised. The property
//! test drives that through the *serialized* checkpoint (container
//! header, CRC, varint payload), not just the in-memory state, so the
//! codec itself is inside the proved loop. A second test restarts a real
//! TCP collector mid-stream, a third checks a multi-interval outage
//! raises nothing spurious once traffic returns, a fourth resumes a
//! router agent from a serialized checkpoint that still owes frames, and
//! a fifth checks that a sharded agent's backlog, and a sharded agent
//! resumed from it, are byte-identical to an inline agent's.

use hifind::pipeline::DetectionCore;
use hifind::report::Phase;
use hifind::{HiFind, HiFindConfig, IntervalSnapshot, SketchRecorder};
use hifind_collect::checkpoint::{
    decode_agent_checkpoint, decode_core_checkpoint, encode_agent_checkpoint,
    encode_core_checkpoint, read_core_checkpoint,
};
use hifind_collect::{
    codec_v2, wire, AgentCheckpoint, AgentConfig, CheckpointPolicy, Collector, CollectorConfig,
    RouterAgent,
};
use hifind_flow::{Ip4, Packet, Trace};
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

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

/// A unique scratch path under the system temp dir (no global state, so
/// parallel tests and reruns never collide).
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hifind_{tag}_{}.ckpt", std::process::id()))
}

/// Five intervals of benign traffic with a SYN flood from interval 2 on —
/// loud enough that the scaled-down config still alerts, so equivalence
/// claims are never vacuous.
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

/// Buckets the trace into per-interval windows starting at interval 0.
fn windows(trace: &Trace, interval_ms: u64, n: usize) -> Vec<Vec<Packet>> {
    let mut out = vec![Vec::new(); n];
    for p in trace.iter() {
        out[(p.ts_ms / interval_ms) as usize].push(*p);
    }
    out
}

/// One snapshot per interval of the flood trace under `cfg`.
fn flood_snapshots(cfg: &HiFindConfig) -> Vec<IntervalSnapshot> {
    let trace = flood_trace(cfg);
    let mut rec = SketchRecorder::new(cfg).expect("small config");
    windows(&trace, cfg.interval_ms, 5)
        .iter()
        .map(|window| {
            for p in window {
                rec.record(p);
            }
            rec.take_snapshot()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Kill the site after `kill` intervals, serialize its checkpoint
    /// through the binary container, restore, and finish the run: every
    /// phase of the alert log must be identity-identical to the
    /// uninterrupted run — across seeds (distinct sketch hash functions)
    /// and every possible kill point.
    #[test]
    fn resume_equivalence_over_kill_points(
        seed_pick in any::<u64>(),
        kill_pick in any::<u64>(),
    ) {
        let seed = [11u64, 77, 2026, 0xBEEF][(seed_pick % 4) as usize];
        let cfg = HiFindConfig::small(seed);
        let snaps = flood_snapshots(&cfg);
        let kill = (kill_pick % (snaps.len() as u64 + 1)) as usize;

        let mut reference = DetectionCore::new(cfg).expect("small config");
        for s in &snaps {
            reference.process_snapshot(s);
        }
        prop_assert!(
            !alert_identities(reference.log(), Phase::Raw).is_empty(),
            "the flood must trigger detection for equivalence to mean anything"
        );

        let mut first = DetectionCore::new(cfg).expect("small config");
        for s in &snaps[..kill] {
            first.process_snapshot(s);
        }
        let bytes = encode_core_checkpoint(&first.checkpoint());
        drop(first); // the site is dead; only the serialized bytes survive
        let decoded = decode_core_checkpoint(&bytes).expect("own checkpoint decodes");
        let mut resumed = DetectionCore::restore(cfg, &decoded).expect("restore");
        prop_assert_eq!(resumed.intervals_processed(), kill as u64);
        for s in &snaps[kill..] {
            resumed.process_snapshot(s);
        }

        for phase in [Phase::Raw, Phase::AfterClassification, Phase::Final] {
            prop_assert_eq!(
                alert_identities(reference.log(), phase),
                alert_identities(resumed.log(), phase),
                "phase {:?} diverged after kill at {}", phase, kill
            );
        }
    }
}

/// A real TCP collector is stopped after checkpointing, a second one
/// resumes from the file on a fresh port, and the agent is re-pointed at
/// it: the combined run's final alerts equal an uninterrupted single
/// router's.
#[test]
fn collector_restart_resumes_from_checkpoint() {
    let seed = 77;
    let cfg = HiFindConfig::small(seed);
    let trace = flood_trace(&cfg);
    let windows = windows(&trace, cfg.interval_ms, 5);
    let path = scratch("restart");
    let kill_after = 2usize;

    let mut single = HiFind::new(cfg).expect("small config");
    let reference = single.run_trace(&trace);
    assert!(
        !alert_identities(&reference, Phase::Raw).is_empty(),
        "the flood must trigger detection"
    );

    // First life: checkpoint after every flushed interval, then die.
    let mut ccfg = CollectorConfig::new(1);
    ccfg.straggler_deadline = Duration::from_secs(30);
    ccfg.linger = Duration::from_millis(100);
    ccfg.checkpoint = Some(CheckpointPolicy {
        path: path.clone(),
        every_intervals: 1,
    });
    let handle = Collector::bind("127.0.0.1:0", cfg, ccfg.clone(), None).expect("bind");
    let mut agent = RouterAgent::new(handle.local_addr().to_string(), &cfg, AgentConfig::new(0))
        .expect("agent config");
    for window in &windows[..kill_after] {
        for p in window {
            agent.record(p);
        }
        let ship = agent.end_interval();
        assert_eq!(ship.shipped, 1, "loopback ship");
    }
    // Give the aligner a moment to flush both intervals, then kill the
    // site. `stop` force-flushes and writes a final checkpoint, modelling
    // a clean SIGTERM; the bytes on disk are all that survives.
    std::thread::sleep(Duration::from_millis(300));
    let first_report = handle.stop().expect("first collector run");
    assert_eq!(first_report.intervals_flushed, kill_after as u64);
    assert!(
        first_report.checkpoints_written >= 1,
        "periodic checkpointing ran: {first_report:?}"
    );
    let on_disk = read_core_checkpoint(&path).expect("checkpoint readable");
    assert_eq!(on_disk.interval, kill_after as u64);

    // Second life: resume from the file on a fresh port; the agent is
    // re-pointed and ships the remaining intervals.
    ccfg.resume_from = Some(path.clone());
    let handle = Collector::bind("127.0.0.1:0", cfg, ccfg, None).expect("resume bind");
    agent.set_collector_addr(handle.local_addr().to_string());
    for window in &windows[kill_after..] {
        for p in window {
            agent.record(p);
        }
        agent.end_interval();
    }
    let stats = agent.finish();
    assert_eq!(stats.frames_shipped, windows.len() as u64);
    let report = handle.wait().expect("resumed collector run");
    std::fs::remove_file(&path).ok();

    assert_eq!(report.resumed_at_interval, Some(kill_after as u64));
    assert_eq!(
        report.intervals_flushed,
        (windows.len() - kill_after) as u64
    );
    for phase in [Phase::Raw, Phase::AfterClassification, Phase::Final] {
        assert_eq!(
            alert_identities(&reference, phase),
            alert_identities(&report.log, phase),
            "phase {phase:?} diverged across the restart"
        );
    }
}

/// A collection outage (three intervals with no frames at all) over
/// steady traffic must not turn into alerts when traffic returns: the
/// collector advances past the gap without feeding synthetic zeros to
/// the forecasters. Regression for the gap-synthesis bug.
#[test]
fn outage_gap_raises_no_spurious_alerts() {
    let seed = 9;
    let cfg = HiFindConfig::small(seed);
    let mut ccfg = CollectorConfig::new(1);
    ccfg.straggler_deadline = Duration::from_millis(200);
    ccfg.linger = Duration::from_millis(200);
    let handle = Collector::bind("127.0.0.1:0", cfg, ccfg, None).expect("bind");
    let addr = handle.local_addr().to_string();

    // Steady benign traffic, identical every interval; the agent's
    // interval counter is driven past the outage by empty end_interval
    // calls *not* being sent — we ship intervals 0..3 and 6..9 by
    // encoding frames directly with explicit interval indices.
    let mut rec = SketchRecorder::new(&cfg).expect("small config");
    let mut steady = move || {
        for i in 0..40u32 {
            let c: Ip4 = [9, 9, (i % 3) as u8, (i % 100) as u8].into();
            let s: Ip4 = [129, 105, 0, (i % 5) as u8].into();
            rec.record(&Packet::syn(u64::from(i), c, 4000 + i as u16, s, 80));
            rec.record(&Packet::syn_ack(
                u64::from(i) + 1,
                c,
                4000 + i as u16,
                s,
                80,
            ));
        }
        rec.take_snapshot()
    };
    use std::io::Write as _;
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    for iv in [0u64, 1, 2, 6, 7, 8] {
        let snapshot = steady();
        let keyframe = hifind_collect::codec_v2::encode_keyframe(&snapshot);
        let frame = hifind_collect::wire::encode_frame_v2(0, iv, snapshot.fingerprint, &keyframe)
            .expect("frame encodes");
        stream.write_all(&frame).expect("ship");
    }
    drop(stream);
    let report = handle.wait().expect("collector run");

    assert_eq!(report.gap_intervals, 3, "{report:?}");
    assert_eq!(
        report.intervals_flushed, 9,
        "gaps advance the interval grid"
    );
    assert!(
        alert_identities(&report.log, Phase::Raw).is_empty(),
        "steady traffic across an outage must stay silent: {:?}",
        report.log
    );
}

/// A resumed agent ships the keyframes its serialized checkpoint still
/// owed verbatim, then carries on with fresh intervals on the same
/// session.
#[test]
fn resumed_agent_ships_its_checkpointed_backlog_verbatim() {
    let cfg = HiFindConfig::small(64);
    let victim: Ip4 = [129, 105, 0, 1].into();
    let mut recorder = SketchRecorder::new(&cfg).expect("config");
    let backlog = (0..3u64)
        .map(|iv| {
            for i in 0..25u32 {
                let src = Ip4::new(0x0909_0900 + i);
                recorder.record(&Packet::syn(iv, src, 4000, victim, 80));
            }
            let snapshot = recorder.take_snapshot();
            let keyframe = codec_v2::encode_keyframe(&snapshot);
            wire::encode_frame_v2(0, iv, snapshot.fingerprint, &keyframe).expect("frame encodes")
        })
        .collect();
    let ckpt = AgentCheckpoint {
        fingerprint: cfg.fingerprint(),
        router_id: 0,
        interval: 3,
        backlog,
    };
    let ckpt = decode_agent_checkpoint(&encode_agent_checkpoint(&ckpt)).expect("round trip");
    let handle = Collector::bind("127.0.0.1:0", cfg, CollectorConfig::new(1), None).expect("bind");
    let addr = handle.local_addr().to_string();
    let mut resumed = RouterAgent::resume(addr, &cfg, AgentConfig::new(0), &ckpt).expect("resume");
    resumed.flush();
    resumed.end_interval();
    let stats = resumed.finish();
    assert_eq!(stats.frames_shipped, 4);
    assert_eq!(
        stats.frames_v2_keyframes, 1,
        "only the fresh interval is encoded"
    );
    let report = handle.wait().expect("collector threads");
    assert_eq!(report.frames_received, 4, "{report:?}");
    assert_eq!(report.frames_v2_keyframes, 4, "the backlog ships verbatim");
    assert_eq!(report.complete_intervals, 4);
    assert_eq!(report.frames_rejected, 0);
}

/// A sharded agent's frames are byte-identical to an inline agent's, and
/// an agent resumed from the sharded agent's checkpoint on two shard
/// threads ships exactly those bytes.
#[test]
fn sharded_agent_frames_and_resume_match_inline_agent() {
    let cfg = HiFindConfig::small(65);
    // A port nothing listens on: every flush fails at once and the frames
    // stay in the backlog.
    let dead = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("port")
        .to_string();
    let agent_cfg = |workers| AgentConfig {
        max_attempts: 1,
        initial_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(1),
        io_timeout: Duration::from_millis(200),
        workers,
        ..AgentConfig::new(0)
    };
    let mut inline = RouterAgent::new(dead.clone(), &cfg, agent_cfg(0)).expect("inline agent");
    let mut sharded = RouterAgent::new(dead, &cfg, agent_cfg(2)).expect("sharded agent");
    for iv in 0..4u32 {
        // Enough packets per interval that both shards fill batches and
        // learn active services, so the Bloom union is exercised too.
        for i in 0..2500u32 {
            let client = Ip4::new(0x0a00_0000 + i * 7919 + iv);
            let server = Ip4::new(0x8169_0000 + i % 7);
            let p = match i % 3 {
                0 => Packet::syn_ack(u64::from(i), client, 4000, server, 80),
                _ => Packet::syn(u64::from(i), client, 4000, server, 80),
            };
            inline.record(&p);
            sharded.record(&p);
        }
        inline.end_interval();
        sharded.end_interval();
    }
    let ckpt = sharded.checkpoint();
    assert_eq!(ckpt.backlog.len(), 4);
    assert_eq!(ckpt.backlog, inline.checkpoint().backlog);
    let owed: usize = ckpt.backlog.iter().map(Vec::len).sum();

    let handle = Collector::bind("127.0.0.1:0", cfg, CollectorConfig::new(1), None).expect("bind");
    let addr = handle.local_addr().to_string();
    let resumed = RouterAgent::resume(addr, &cfg, agent_cfg(2), &ckpt).expect("resume");
    assert_eq!(resumed.checkpoint().backlog, ckpt.backlog);
    let stats = resumed.finish();
    assert_eq!(stats.frames_shipped, 4);
    assert_eq!(
        stats.bytes_shipped, owed as u64,
        "the backlog ships verbatim"
    );
    let report = handle.wait().expect("collector threads");
    assert_eq!(report.frames_received, 4, "{report:?}");
    assert_eq!(report.frames_rejected, 0);
}
