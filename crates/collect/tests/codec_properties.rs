//! Property-based tests of the frame format around codec-v2 keyframes.
//!
//! Two guarantees carry the distributed design: (1) a frame round trip is
//! lossless down to the counter level, so networked aggregation combines
//! exactly what the routers recorded; (2) arbitrary corruption of a frame
//! yields a *typed* error (or an intact payload when only unauthenticated
//! header metadata was hit) — never a panic and never a silently wrong
//! snapshot.

use hifind::{HiFindConfig, IntervalSnapshot, SketchRecorder};
use hifind_collect::codec_v2::{encode_keyframe, ChainStore};
use hifind_collect::wire::{self, DEFAULT_MAX_PAYLOAD};
use hifind_collect::{FrameHeader, WireError, HEADER_LEN};
use hifind_flow::rng::SplitMix64;
use hifind_flow::{Ip4, Packet};
use proptest::prelude::*;

/// Builds a snapshot by recording a seed-derived packet mix (SYNs with a
/// sprinkle of SYN/ACKs and FIN/RSTs) under a fixed small config.
fn arb_snapshot(seed: u64, packets: u32) -> IntervalSnapshot {
    let cfg = HiFindConfig::small(42);
    let mut rng = SplitMix64::new(seed);
    let mut rec = SketchRecorder::new(&cfg).expect("small config");
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
    rec.take_snapshot()
}

/// `snap` as one complete keyframe frame.
fn frame_of(router_id: u32, interval: u64, snap: &IntervalSnapshot) -> Vec<u8> {
    wire::encode_frame_v2(
        router_id,
        interval,
        snap.fingerprint,
        &encode_keyframe(snap),
    )
    .expect("frame encodes")
}

/// Reads the one frame `bytes` should hold, as a receiver slices it off
/// its stream: no bytes at all is a clean end of stream, fewer than a
/// header or than the header's declared payload a truncation.
fn read_one(bytes: &[u8]) -> Result<Option<(FrameHeader, IntervalSnapshot)>, WireError> {
    if bytes.is_empty() {
        return Ok(None);
    }
    let Some(header) = bytes.get(..HEADER_LEN) else {
        return Err(WireError::TruncatedFrame {
            expected: HEADER_LEN,
            got: bytes.len(),
        });
    };
    let header = wire::parse_header(header.try_into().unwrap(), DEFAULT_MAX_PAYLOAD)?;
    let (snap, _) = wire::decode_payload_v2(&header, &bytes[HEADER_LEN..], &mut ChainStore::new())?;
    Ok(Some((header, snap)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Frame round trip is exact: header metadata survives verbatim and
    /// the decoded snapshot is bit-identical, so combining shipped
    /// snapshots equals combining the originals.
    #[test]
    fn frame_round_trip_is_lossless(
        seed in any::<u64>(),
        packets in 0u32..600,
        router_id in any::<u32>(),
        interval in any::<u64>(),
    ) {
        let snap = arb_snapshot(seed, packets);
        let frame = frame_of(router_id, interval, &snap);
        let (header, decoded) = read_one(&frame)
            .expect("well-formed frame")
            .expect("not EOF");
        prop_assert_eq!(header.router_id, router_id);
        prop_assert_eq!(header.interval, interval);
        prop_assert_eq!(header.fingerprint, snap.fingerprint);
        prop_assert_eq!(&decoded, &snap);

        // Aggregation over the wire == aggregation in memory.
        let other = arb_snapshot(seed ^ 0xA5A5, packets / 2 + 1);
        let other_frame = frame_of(router_id, interval, &other);
        let (_, other_decoded) = read_one(&other_frame).unwrap().unwrap();
        let mut wire_sum = decoded;
        wire_sum.combine_into(&other_decoded).expect("same config");
        let mut mem_sum = snap;
        mem_sum.combine_into(&other).expect("same config");
        prop_assert_eq!(wire_sum, mem_sum);
    }

    /// Flipping any single byte of a frame either fails with a typed
    /// error or — only when the flip hit unauthenticated header metadata
    /// (router id, interval index) — still yields the exact
    /// original payload. Corruption can never panic, and can never forge
    /// counter values (the CRC covers the payload, the fingerprint field
    /// is cross-checked against the payload's own).
    #[test]
    fn single_byte_corruption_is_typed_or_harmless(
        seed in any::<u64>(),
        pos_pick in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let snap = arb_snapshot(seed, 120);
        let mut frame = frame_of(7, 3, &snap);
        let pos = (pos_pick % frame.len() as u64) as usize;
        frame[pos] ^= mask;
        match read_one(&frame) {
            Ok(Some((_, decoded))) => {
                prop_assert!(
                    (8..20).contains(&pos),
                    "flip at {pos} outside unauthenticated header metadata was accepted"
                );
                prop_assert_eq!(decoded, snap);
            }
            Ok(None) => prop_assert!(false, "a corrupt frame is not a clean EOF"),
            Err(err) => match pos {
                0..=3 => prop_assert!(matches!(err, WireError::BadMagic(_)), "{err:?}"),
                // Any flip moves the version off 2 — onto 1, the retired
                // dense codec, as onto anything else.
                4..=5 => {
                    prop_assert!(matches!(err, WireError::UnsupportedVersion(_)), "{err:?}")
                }
                6 => prop_assert!(matches!(err, WireError::UnknownCodec(_)), "{err:?}"),
                7 => prop_assert!(matches!(err, WireError::ReservedBytes(_)), "{err:?}"),
                20..=27 => prop_assert!(
                    matches!(err, WireError::FingerprintMismatch { .. }),
                    "{err:?}"
                ),
                32..=35 => prop_assert!(matches!(err, WireError::CrcMismatch { .. }), "{err:?}"),
                p if p >= HEADER_LEN => prop_assert!(
                    matches!(
                        err,
                        WireError::CrcMismatch { .. } | WireError::TruncatedFrame { .. }
                    ),
                    "{err:?}"
                ),
                // payload_len flips (28..=31) surface as whichever check
                // trips first; any typed error is acceptable.
                _ => {}
            },
        }
    }

    /// A frame cut anywhere mid-stream is a `TruncatedFrame`; a cut at a
    /// frame boundary is a clean end of stream.
    #[test]
    fn truncation_is_typed_and_eof_is_clean(seed in any::<u64>(), cut_pick in any::<u64>()) {
        let snap = arb_snapshot(seed, 60);
        let frame = frame_of(1, 0, &snap);
        let cut = (cut_pick % frame.len() as u64) as usize;
        if cut == 0 {
            prop_assert!(read_one(&[]).expect("clean EOF").is_none());
        } else {
            let err = read_one(&frame[..cut]).expect_err("mid-frame cut must fail");
            prop_assert!(matches!(err, WireError::TruncatedFrame { .. }), "{err:?}");
        }
    }
}
