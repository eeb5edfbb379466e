//! Codec v2 session behaviour over real loopback TCP.
//!
//! Every node sends codec v2 and every receiving tier accepts only v2.
//! These tests pin the session rules that ride on that: acks promote a
//! live session to deltas, and an upstream that never answers the hello
//! costs retries, never a downgrade.

use hifind::HiFindConfig;
use hifind_collect::wire::{self, CODEC_V2};
use hifind_collect::{AgentConfig, Collector, CollectorConfig, RouterAgent};
use hifind_flow::{Ip4, Packet};
use std::io::{ErrorKind, Read};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
