//! Codec v2 session behaviour over real loopback TCP.
//!
//! Every node sends codec v2 keyframes and every receiving tier accepts
//! only v2. These tests pin the session rules that ride on that: after
//! the accept a receiving tier writes nothing, a frame it refuses costs
//! that frame only, a checkpoint written before delta frames were
//! retired still resumes, and an upstream that never answers the hello
//! costs retries, never a downgrade.

use hifind::{HiFindConfig, IntervalSnapshot, SketchRecorder};
use hifind_collect::checkpoint::{decode_agent_checkpoint, encode_agent_checkpoint};
use hifind_collect::codec_v2;
use hifind_collect::wire::{self, CODEC_V2};
use hifind_collect::{
    AgentConfig, CodecError, CollectObserver, Collector, CollectorConfig, CollectorHandle,
    RouterAgent, WireError,
};
use hifind_flow::{Ip4, Packet};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Interval `iv` of a small steady mix, as one recorder would close it.
fn snapshot(cfg: &HiFindConfig, iv: u64) -> IntervalSnapshot {
    let mut rec = SketchRecorder::new(cfg).expect("config");
    let victim: Ip4 = [129, 105, 0, 1].into();
    for i in 0..20u32 {
        let c: Ip4 = [9, 9, 9, (i % 100) as u8].into();
        rec.record(&Packet::syn(iv * cfg.interval_ms, c, 4000, victim, 80));
    }
    rec.take_snapshot()
}

/// Router 0's keyframe frame for interval `iv`, its flags byte set to
/// `flags` (zero for a valid keyframe).
fn frame(cfg: &HiFindConfig, iv: u64, flags: u8) -> Vec<u8> {
    let snap = snapshot(cfg, iv);
    let mut payload = codec_v2::encode_keyframe(&snap);
    payload[0] = flags;
    wire::encode_frame_v2(0, iv, snap.fingerprint, &payload).expect("frame encodes")
}

/// A one-router collector that waits long for stragglers.
fn collector(cfg: HiFindConfig, observer: Option<Arc<dyn CollectObserver>>) -> CollectorHandle {
    let mut ccfg = CollectorConfig::new(1);
    ccfg.straggler_deadline = Duration::from_secs(30);
    ccfg.observer = observer;
    Collector::bind("127.0.0.1:0", cfg, ccfg, None).expect("bind")
}

/// A session is one-way after the accept: a peer that sends a hello and
/// twenty frames reads exactly the accept, then end of stream once the
/// collector is done with it.
#[test]
fn v2_session_is_one_way_after_the_accept() {
    let cfg = HiFindConfig::small(62);
    let handle = collector(cfg, None);
    let mut peer = TcpStream::connect(handle.local_addr()).expect("connect");
    peer.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("timeout");
    peer.write_all(&wire::encode_hello(&[CODEC_V2]))
        .expect("hello");
    for iv in 0..20 {
        peer.write_all(&frame(&cfg, iv, 0)).expect("frame");
    }
    peer.shutdown(Shutdown::Write).expect("half-close");
    let mut answers = Vec::new();
    peer.read_to_end(&mut answers)
        .expect("read to end of stream");
    assert_eq!(answers.len(), wire::ACCEPT_LEN, "{answers:02x?}");
    assert_eq!(answers, wire::encode_accept(CODEC_V2));
    drop(peer);
    let report = handle.wait().expect("collector threads");
    assert_eq!(report.frames_received, 20, "{report:?}");
    assert_eq!(report.frames_rejected, 0);
    assert_eq!(report.complete_intervals, 20);
}

/// Every rejection the collector reports, as a `BadFlags` flag (or not).
#[derive(Default)]
struct Rejections(Mutex<Vec<bool>>);

impl CollectObserver for Rejections {
    fn frame_rejected(&self, err: &WireError) {
        let bad_flags = matches!(err, WireError::Codec(CodecError::BadFlags { flags: 1 }));
        self.0.lock().unwrap().push(bad_flags);
    }
}

/// A payload flagged as a delta frame (flags byte 1) is a counted
/// `BadFlags` rejection of that frame alone: the connection goes on
/// serving the frames after it.
#[test]
fn a_delta_flagged_frame_is_a_bad_flags_rejection_and_the_session_survives() {
    let cfg = HiFindConfig::small(63);
    let rejections = Arc::new(Rejections::default());
    let handle = collector(
        cfg,
        Some(Arc::clone(&rejections) as Arc<dyn CollectObserver>),
    );
    let mut peer = TcpStream::connect(handle.local_addr()).expect("connect");
    peer.write_all(&wire::encode_hello(&[CODEC_V2]))
        .expect("hello");
    for (iv, flags) in [(0, 0), (1, 1), (1, 0), (2, 0)] {
        peer.write_all(&frame(&cfg, iv, flags)).expect("frame");
    }
    drop(peer);
    let report = handle.wait().expect("collector threads");
    assert_eq!(report.frames_rejected, 1, "{report:?}");
    assert_eq!(report.frames_received, 3);
    assert_eq!(report.complete_intervals, 3);
    assert_eq!(*rejections.0.lock().unwrap(), vec![true]);
}

/// An agent checkpoint written by the build that still shipped delta
/// frames: router 0 of `HiFindConfig::small(67)`, interval 3, three
/// backlogged keyframes recorded by [`record_parent_intervals`].
const PARENT_AGENT_CHECKPOINT: &[u8] =
    include_bytes!("data/agent_checkpoint_before_keyframes_only.bin");

/// What the agent behind [`PARENT_AGENT_CHECKPOINT`] recorded: three
/// intervals it could not ship.
fn record_parent_intervals(agent: &mut RouterAgent, cfg: &HiFindConfig) {
    let victim: Ip4 = [129, 105, 0, 1].into();
    for iv in 0..3u64 {
        for i in 0..25u32 {
            let src = Ip4::new(0x0909_0900 + i);
            agent.record(&Packet::syn(iv * cfg.interval_ms, src, 4000, victim, 80));
            agent.record(&Packet::syn_ack(
                iv * cfg.interval_ms,
                src,
                4000,
                victim,
                80,
            ));
        }
        agent.end_interval();
    }
}

/// A checkpoint in the format written before delta frames were retired
/// decodes, holds exactly the keyframes this build encodes for the same
/// intervals, and resumes: its backlog ships and is accepted whole.
#[test]
fn an_agent_checkpoint_from_before_keyframes_only_still_resumes() {
    let cfg = HiFindConfig::small(67);
    let ckpt = decode_agent_checkpoint(PARENT_AGENT_CHECKPOINT).expect("decodes");
    assert_eq!(
        (ckpt.router_id, ckpt.interval, ckpt.backlog.len()),
        (0, 3, 3)
    );

    // The same intervals, recorded now with no upstream to ship to.
    let dead = TcpListener::bind("127.0.0.1:0")
        .expect("bind")
        .local_addr()
        .expect("addr");
    let mut acfg = AgentConfig::new(0);
    acfg.max_attempts = 1;
    acfg.initial_backoff = Duration::from_millis(1);
    acfg.io_timeout = Duration::from_millis(200);
    let mut fresh = RouterAgent::new(dead.to_string(), &cfg, acfg).expect("config");
    record_parent_intervals(&mut fresh, &cfg);
    assert_eq!(
        encode_agent_checkpoint(&fresh.checkpoint()),
        PARENT_AGENT_CHECKPOINT,
        "keyframes and the checkpoint around them are byte-identical"
    );

    let handle = collector(cfg, None);
    let addr = handle.local_addr().to_string();
    let mut resumed = RouterAgent::resume(addr, &cfg, AgentConfig::new(0), &ckpt).expect("resume");
    resumed.flush();
    resumed.end_interval();
    let stats = resumed.finish();
    assert_eq!(stats.frames_shipped, 4, "{stats:?}");
    let report = handle.wait().expect("collector threads");
    assert_eq!(report.frames_received, 4, "{report:?}");
    assert_eq!(report.frames_rejected, 0);
    assert_eq!(report.complete_intervals, 4);
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
