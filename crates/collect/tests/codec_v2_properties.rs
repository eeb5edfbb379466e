//! Property-based tests of the v2 codec: sparse keyframes, and the
//! equivalence guarantees the compression rests on.
//!
//! The contract under test: however the encoder chooses to represent a
//! stage (dense or sparse), the receiver reconstructs the **exact**
//! `IntervalSnapshot` — so detection over a v2 stream is alert-for-alert
//! identical to detection on the recorded snapshots — and any corruption
//! dies as a typed error, never a panic or a silently wrong snapshot.

use hifind::pipeline::DetectionCore;
use hifind::{HiFindConfig, IntervalSnapshot, SketchRecorder};
use hifind_collect::codec_v2;
use hifind_collect::{wire, Aggregator, AggregatorConfig, AggregatorHandle, CollectObserver};
use hifind_flow::rng::SplitMix64;
use hifind_flow::{Ip4, Packet};
use hifind_hashing::BloomFilter;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Records a seed-derived packet mix for one interval into `rec`.
fn record_interval(rec: &mut SketchRecorder, rng: &mut SplitMix64, packets: u32) {
    for _ in 0..packets {
        let src = Ip4::new(rng.next_u32());
        let dst = Ip4::new(0x8169_0000 | (rng.next_u32() & 0xFF));
        let sport = 1024 + (rng.next_u32() % 60000) as u16;
        let dport = [80u16, 443, 22, 445][(rng.next_u32() % 4) as usize];
        let ts = rng.next_u64() % 10_000;
        match rng.next_u32() % 8 {
            0 => rec.record(&Packet::syn_ack(ts, dst, dport, src, sport)),
            1 => rec.record(&Packet::fin(ts, src, sport, dst, dport)),
            _ => rec.record(&Packet::syn(ts, src, sport, dst, dport)),
        }
    }
}

/// Every sum a tier node forwards, with its interval.
#[derive(Default)]
struct Forwarded(Mutex<Vec<(u64, IntervalSnapshot)>>);

impl CollectObserver for Forwarded {
    fn snapshot_forwarded(
        &self,
        _: u32,
        interval: u64,
        sum: &IntervalSnapshot,
        _: usize,
        _: usize,
    ) {
        if let Ok(mut sums) = self.0.lock() {
            sums.push((interval, sum.clone()));
        }
    }
}

impl Forwarded {
    fn sums(&self) -> Vec<(u64, IntervalSnapshot)> {
        let mut sums = self.0.lock().unwrap().clone();
        sums.sort_by_key(|(interval, _)| *interval);
        sums
    }
}

/// A tier node of `cfg` summing `children` children, with a dead
/// upstream: each sum it closes reaches `observer` and nowhere else.
fn summing_node(cfg: HiFindConfig, children: usize, observer: Arc<Forwarded>) -> AggregatorHandle {
    let dead = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let mut node = AggregatorConfig::new(99, children);
    node.straggler_deadline = Duration::from_secs(60);
    node.reorder_window = 64;
    node.linger = Duration::from_millis(100);
    node.observer = Some(observer);
    node.ship.max_attempts = 1;
    node.ship.initial_backoff = Duration::from_millis(1);
    node.ship.io_timeout = Duration::from_millis(200);
    Aggregator::bind("127.0.0.1:0", dead.to_string(), cfg, node, None).unwrap()
}

/// `template` (an empty snapshot) with random counters: a few cells per
/// sparse stage, every cell of the occasional dense stage, and the
/// wire's edge values among them.
fn random_counters(template: &IntervalSnapshot, rng: &mut SplitMix64) -> IntervalSnapshot {
    let mut snap = template.clone();
    for grid in [
        &mut snap.rs_sip_dport,
        &mut snap.rs_sip_dport_verifier,
        &mut snap.rs_dip_dport,
        &mut snap.rs_dip_dport_verifier,
        &mut snap.rs_sip_dip,
        &mut snap.rs_sip_dip_verifier,
        &mut snap.os,
        &mut snap.twod_sipdport_dip,
        &mut snap.twod_sipdip_dport,
    ] {
        for stage in 0..grid.stages() {
            let row = grid.stage_mut(stage);
            let dense = row.len() <= 1 << 12 && rng.chance(0.2);
            let hits = if dense {
                row.len()
            } else {
                rng.below(6) as usize
            };
            for k in 0..hits {
                let at = if dense {
                    k
                } else {
                    rng.below(row.len() as u64) as usize
                };
                row[at] = match rng.below(6) {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    2 => -1 - rng.below(100) as i64,
                    3 => 1 + rng.below(100) as i64,
                    _ => rng.next_u64() as i64,
                };
            }
        }
    }
    snap
}

/// What one child ships for one interval, and what it decodes to.
struct Shipped {
    frame: Vec<u8>,
    decoded: IntervalSnapshot,
}

/// `snap` as child `child`'s keyframe frame for `interval`, with its
/// decode.
fn ship(child: u32, interval: u64, snap: &IntervalSnapshot) -> Shipped {
    let payload = codec_v2::encode_keyframe(snap);
    let decoded = codec_v2::decode_keyframe(&payload).unwrap();
    let frame = wire::encode_frame_v2(child, interval, snap.fingerprint, &payload).unwrap();
    Shipped { frame, decoded }
}

/// The oracle: decoded snapshots summed with `combine_many`, in the
/// order given.
fn combined(decoded: &[&IntervalSnapshot]) -> IntervalSnapshot {
    let mut sum = decoded[0].clone();
    sum.combine_many(&decoded[1..]).unwrap();
    sum
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The receive path — each frame validated and parsed once, then its
    /// runs added straight into the interval's pending sum — produces
    /// bit for bit what decoding every frame to a snapshot and combining
    /// them with `combine_many` produces: grids (saturating at the
    /// `i64` edges), Bloom words, `inserted` and packet counters
    /// (wrapping). Stages are dense and sparse, and re-sent frames are
    /// counted late exactly as before.
    ///
    /// Saturating addition is not associative, so a sum whose cells hit
    /// the rails depends on the order the node added its children in
    /// (`align::tests::a_saturating_sum_depends_on_arrival_order`). Every
    /// child's frames therefore share one connection, which fixes that
    /// order to the order they were written in (the node keys a child by
    /// the router id in each frame's header, not by its connection), and
    /// the oracle sums in the same order.
    #[test]
    fn fused_receive_equals_decode_then_combine(
        seed in any::<u64>(),
        children in 1u32..=8,
        intervals in 2u64..=4,
    ) {
        let cfg = HiFindConfig::small(61);
        let template = SketchRecorder::new(&cfg).unwrap().take_snapshot();
        let seeds = template.active_services.hash_seeds().to_vec();
        let mut rng = SplitMix64::new(seed);
        let forwarded = Arc::new(Forwarded::default());
        let node = summing_node(cfg, children as usize, Arc::clone(&forwarded));
        // The node finishes once as many connections as it has children
        // have come and gone; all frames ride the first.
        let mut links: Vec<TcpStream> = (0..children)
            .map(|_| TcpStream::connect(node.local_addr()).unwrap())
            .collect();
        let link = &mut links[0];
        let mut words = vec![vec![0u64; template.active_services.bit_words().len()]; children as usize];
        let mut inserted: Vec<u64> = (0..children).map(|_| u64::MAX - rng.below(4)).collect();
        let mut shipped: Vec<Vec<Shipped>> = (0..children).map(|_| Vec::new()).collect();
        let mut resent = 0u64;
        let mut want = Vec::new();
        for iv in 0..intervals {
            for c in 0..children as usize {
                let mut snap = random_counters(&template, &mut rng);
                for _ in 0..rng.below(40) {
                    let bit = rng.below(words[c].len() as u64 * 64);
                    words[c][(bit / 64) as usize] |= 1 << (bit % 64);
                }
                inserted[c] = inserted[c].wrapping_add(rng.below(5));
                snap.active_services =
                    BloomFilter::from_parts(words[c].clone(), seeds.clone(), inserted[c]).unwrap();
                snap.syn_count = rng.next_u64() >> rng.below(64);
                snap.syn_ack_count = rng.next_u64();
                snap.fin_rst_count = rng.below(1000);
                let out = ship(c as u32, iv, &snap);
                link.write_all(&out.frame).unwrap();
                shipped[c].push(out);
                // A duplicate of this frame, or a late copy of the last.
                if rng.chance(0.3) {
                    let back = (rng.below(2) as usize).min(shipped[c].len() - 1);
                    let again = &shipped[c][shipped[c].len() - 1 - back].frame;
                    link.write_all(again).unwrap();
                    resent += 1;
                }
            }
            let decoded: Vec<&IntervalSnapshot> =
                shipped.iter().map(|s| &s[iv as usize].decoded).collect();
            want.push(combined(&decoded));
        }
        drop(links);
        let report = node.wait().unwrap();
        prop_assert_eq!(report.frames_rejected, 0);
        prop_assert_eq!(report.frames_received, u64::from(children) * intervals);
        prop_assert_eq!(report.frames_late, resent);
        let got = forwarded.sums();
        prop_assert_eq!(got.len(), want.len());
        for ((iv, sum), want) in got.iter().zip(&want) {
            prop_assert!(sum == want, "interval {} sum differs from decode + combine_many", iv);
        }
    }

    /// Every single-byte flip of a framed v2 keyframe either fails typed
    /// or — only for unauthenticated header metadata (router id,
    /// interval) — decodes to the exact original snapshot. Nothing
    /// panics, nothing misdecodes.
    #[test]
    fn v2_single_byte_corruption_is_typed_or_harmless(
        seed in any::<u64>(),
        pos_pick in any::<u64>(),
        mask in 1u8..=255,
        second in any::<bool>(),
    ) {
        let cfg = HiFindConfig::small(42);
        let mut rng = SplitMix64::new(seed);
        let mut rec = SketchRecorder::new(&cfg).expect("small config");
        record_interval(&mut rec, &mut rng, 150);
        let first = rec.take_snapshot();
        record_interval(&mut rec, &mut rng, 60);
        let next = rec.take_snapshot();
        let (interval, target) = if second { (1u64, &next) } else { (0u64, &first) };
        let payload = codec_v2::encode_keyframe(target);
        let mut frame =
            wire::encode_frame_v2(7, interval, target.fingerprint, &payload).expect("framable");
        let pos = (pos_pick % frame.len() as u64) as usize;
        frame[pos] ^= mask;

        let outcome = wire::parse_header(
            &<[u8; wire::HEADER_LEN]>::try_from(&frame[..wire::HEADER_LEN]).unwrap(),
            wire::DEFAULT_MAX_PAYLOAD,
        )
        .and_then(|header| wire::parse_payload(&header, &frame[wire::HEADER_LEN..], None));
        // An Err outcome is typed by construction; the assertion there is
        // simply "no panic".
        if let Ok(decoded) = outcome {
            prop_assert!(
                (8..20).contains(&pos),
                "flip at {} outside unauthenticated header metadata was accepted",
                pos
            );
            prop_assert_eq!(&decoded.into_snapshot(), target);
        }
    }
}

/// The headline equivalence claim: a detection core fed through a chain
/// of v2 frames produces a checkpoint — alerts, forecaster state,
/// streaks, all of it — identical to one fed the recorded snapshots
/// directly.
#[test]
fn detection_over_v2_chain_is_alert_identical_to_the_recorded_snapshots() {
    let cfg = HiFindConfig::small(50);
    let mut rec = SketchRecorder::new(&cfg).unwrap();
    let mut core_direct = DetectionCore::new(cfg).unwrap();
    let mut core_v2 = DetectionCore::new(cfg).unwrap();
    let victim: Ip4 = [129, 105, 0, 1].into();
    for iv in 0..8u64 {
        // Benign background plus, from interval 2 on, a SYN flood big
        // enough to alert — the exact signal that must survive v2.
        for i in 0..25u32 {
            let c: Ip4 = [9, 9, 9, (i % 100) as u8].into();
            rec.record(&Packet::syn(iv, c, 4000 + i as u16, victim, 80));
            rec.record(&Packet::syn_ack(iv, c, 4000 + i as u16, victim, 80));
        }
        if iv >= 2 {
            for i in 0..300u32 {
                rec.record(&Packet::syn(
                    iv,
                    Ip4::new(0x5000_0000 + i),
                    2000,
                    victim,
                    80,
                ));
            }
        }
        let snap = rec.take_snapshot();

        let frame = ship(3, iv, &snap).frame;
        let header = wire::parse_header(
            &<[u8; wire::HEADER_LEN]>::try_from(&frame[..wire::HEADER_LEN]).unwrap(),
            wire::DEFAULT_MAX_PAYLOAD,
        )
        .unwrap();
        let via_v2 = wire::parse_payload(&header, &frame[wire::HEADER_LEN..], None)
            .unwrap()
            .into_snapshot();

        assert!(via_v2 == snap, "interval {iv} diverged through its frame");
        core_direct.process_snapshot(&snap);
        core_v2.process_snapshot(&via_v2);
    }
    let direct = core_direct.checkpoint();
    let ck2 = core_v2.checkpoint();
    assert!(
        !direct.final_alerts.is_empty(),
        "the flood must actually alert for the equivalence to mean anything"
    );
    assert_eq!(
        direct, ck2,
        "detection over the v2 chain must be alert-for-alert identical"
    );
}

/// An interval snapshot is cheap on the wire in v2: the keyframe of a
/// quiet interval, cumulative Bloom filter and all, stays far below the
/// v1 encoding of the same snapshot.
#[test]
fn quiet_interval_keyframes_are_small_next_to_v1() {
    let cfg = HiFindConfig::small(51);
    let mut rec = SketchRecorder::new(&cfg).unwrap();
    let mut rng = SplitMix64::new(7);
    record_interval(&mut rec, &mut rng, 200);
    let mut worst: f64 = 0.0;
    for _ in 0..4 {
        let snap = rec.take_snapshot();
        let v1_len = hifind_collect::codec::encode_snapshot(&snap).len();
        let keyframe = codec_v2::encode_keyframe(&snap);
        assert_eq!(codec_v2::decode_keyframe(&keyframe).unwrap(), snap);
        worst = worst.max(keyframe.len() as f64 / v1_len as f64);
        record_interval(&mut rec, &mut rng, 30);
    }
    // 1.99 % as measured at this seed.
    assert!(
        worst < 0.025,
        "a quiet-interval keyframe should be <2.5% of v1, got {worst:.4}"
    );
}

/// A frame that fails its checks late — in its Bloom mode byte, in a
/// trailing byte, in a last run that overruns its stage, in a flags byte
/// that marks a delta frame, all under a valid CRC — leaves the pending
/// sum bit-identical, and the connection goes on serving later frames.
/// Nothing is answered but the hello: no frame, good or bad, is acked.
#[test]
fn a_frame_that_fails_late_changes_nothing_and_is_not_acked() {
    let cfg = HiFindConfig::small(62);
    let template = SketchRecorder::new(&cfg).unwrap().take_snapshot();
    let fp = cfg.fingerprint();
    let mut rng = SplitMix64::new(62);
    let (a0, a1) = (
        random_counters(&template, &mut rng),
        random_counters(&template, &mut rng),
    );
    // Child B's interval 0: one counter, in the last bucket of the last
    // grid's last stage, and an empty filter — so the payload ends in
    // that run's `len, value` bytes, then a Bloom section of known size.
    let mut b0 = template.clone();
    let last = &mut b0.twod_sipdip_dport;
    let stage = last.stages() - 1;
    let buckets = last.buckets();
    last.stage_mut(stage)[buckets - 1] = 1;
    let b1 = random_counters(&template, &mut rng);
    let good = codec_v2::encode_keyframe(&b0);
    // words (two varint bytes), seeds, inserted, mode, run count, seeds.
    let bloom_len = 2 + 1 + 1 + 1 + 1 + 8 * template.active_services.hash_seeds().len();
    let (mode_at, len_at) = (good.len() - bloom_len + 4, good.len() - bloom_len - 2);
    assert_eq!(
        (good[mode_at], good[mode_at + 1]),
        (1, 0),
        "empty sparse words"
    );
    assert_eq!(
        (good[len_at], good[len_at + 1]),
        (1, 2),
        "one run of the value 1"
    );
    let mut bad_mode = good.clone();
    bad_mode[mode_at] = 7;
    let mut trailing = good.clone();
    trailing.push(0);
    let mut overrun = good.clone();
    overrun[len_at] = 2;
    let mut delta_flagged = codec_v2::encode_keyframe(&b1);
    delta_flagged[0] = 1;

    let forwarded = Arc::new(Forwarded::default());
    let node = summing_node(cfg, 2, Arc::clone(&forwarded));
    let hello = wire::encode_hello(&[wire::CODEC_V2]);
    let frame = |child, interval, payload: &[u8]| {
        wire::encode_frame_v2(child, interval, fp, payload).unwrap()
    };
    let mut a = TcpStream::connect(node.local_addr()).unwrap();
    a.write_all(&hello).unwrap();
    a.write_all(&frame(1, 0, &codec_v2::encode_keyframe(&a0)))
        .unwrap();
    // Interval 0's sum is pending before any of B's frames arrive.
    std::thread::sleep(Duration::from_millis(150));
    let mut b = TcpStream::connect(node.local_addr()).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    b.write_all(&hello).unwrap();
    for payload in [&bad_mode, &trailing, &overrun] {
        b.write_all(&frame(2, 0, payload)).unwrap();
    }
    b.write_all(&frame(2, 1, &delta_flagged)).unwrap();
    b.write_all(&frame(2, 0, &good)).unwrap();
    b.write_all(&frame(2, 1, &codec_v2::encode_keyframe(&b1)))
        .unwrap();
    a.write_all(&frame(1, 1, &codec_v2::encode_keyframe(&a1)))
        .unwrap();
    b.shutdown(Shutdown::Write).unwrap();
    let mut answers = Vec::new();
    b.read_to_end(&mut answers).unwrap();
    drop((a, b));
    let report = node.wait().unwrap();

    assert_eq!(
        answers,
        wire::encode_accept(wire::CODEC_V2),
        "B's hello is answered and nothing else"
    );
    assert_eq!(report.frames_rejected, 4);
    assert_eq!(report.frames_received, 4);
    assert_eq!(report.frames_late, 0);
    let sums = forwarded.sums();
    assert_eq!(sums.len(), 2);
    assert!(
        sums[0].1 == combined(&[&a0, &b0]),
        "interval 0 sum was disturbed"
    );
    assert!(
        sums[1].1 == combined(&[&a1, &b1]),
        "interval 1 sum was disturbed"
    );
}
