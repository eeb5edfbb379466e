//! Property-based equivalence between the serial and sharded record
//! planes: for arbitrary traces and worker counts, a pipeline built
//! `HiFind::with_workers(cfg, n)` must produce byte-identical interval snapshots and the same alert log
//! as `run_trace` — sketch linearity promises it, these tests hold it to
//! that promise.

use hifind::parallel::ParallelRecorder;
use hifind::{HiFind, HiFindConfig, Phase, SketchRecorder};
use hifind_flow::rng::SplitMix64;
use hifind_flow::{Ip4, Packet, Trace};
use proptest::prelude::*;

/// Builds a small mixed trace from a seed: benign handshakes plus a flood
/// and a scan with seed-dependent parameters, and a sprinkle of FIN/RST.
fn arb_trace(seed: u64) -> Trace {
    let mut rng = SplitMix64::new(seed);
    let cfg = HiFindConfig::small(0);
    let mut t = Trace::new();
    let victim: Ip4 = [129, 105, 0, 1].into();
    let scanner = Ip4::new(0x4200_0000 | rng.next_u32() & 0xFFFF);
    for iv in 0..4u64 {
        let base = iv * cfg.interval_ms;
        for i in 0..30u32 {
            let c = Ip4::new(0x0C00_0000 | rng.next_u32() & 0xFFFF);
            let ts = base + rng.below(cfg.interval_ms);
            t.push(Packet::syn(ts, c, 4000 + i as u16, victim, 80));
            t.push(Packet::syn_ack(ts + 1, c, 4000 + i as u16, victim, 80));
            if rng.chance(0.2) {
                t.push(Packet::fin(ts + 2, c, 4000 + i as u16, victim, 80));
            }
        }
        if iv >= 2 {
            for i in 0..(120 + rng.below(120) as u32) {
                t.push(Packet::syn(
                    base + rng.below(cfg.interval_ms),
                    Ip4::new(0x5000_0000 + i),
                    2000,
                    victim,
                    80,
                ));
                let dst: Ip4 = [129, 105, (i >> 8) as u8, i as u8].into();
                t.push(Packet::syn(
                    base + rng.below(cfg.interval_ms),
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

/// Asserts the two logs agree at every phase.
fn assert_logs_equal(serial: &hifind::AlertLog, parallel: &hifind::AlertLog) {
    for phase in [Phase::Raw, Phase::AfterClassification, Phase::Final] {
        assert_eq!(
            serial.alerts(phase),
            parallel.alerts(phase),
            "alert divergence at {phase:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// a pipeline built `with_workers(n)` yields the same alert log as `run_trace`
    /// for arbitrary traces and every interesting worker count (including
    /// a count that does not divide the batch flow evenly).
    #[test]
    fn parallel_trace_alerts_match_serial(
        seed in any::<u64>(),
        workers_idx in 0usize..4,
    ) {
        let workers = [1usize, 2, 4, 7][workers_idx];
        let cfg = HiFindConfig::small(13);
        let trace = arb_trace(seed);
        let mut serial = HiFind::new(cfg).unwrap();
        let serial_log = serial.run_trace(&trace);
        let mut parallel = HiFind::with_workers(cfg, workers).unwrap();
        let parallel_log = parallel.run_trace_with(&trace, None).unwrap();
        assert_logs_equal(&serial_log, &parallel_log);
        prop_assert_eq!(
            serial.intervals_processed(),
            parallel.intervals_processed()
        );
    }

    /// Every per-interval merged snapshot is bit-identical to the serial
    /// recorder's — not just the alerts derived from it.
    #[test]
    fn parallel_snapshots_match_serial_every_interval(
        seed in any::<u64>(),
        workers_idx in 0usize..4,
    ) {
        let workers = [1usize, 2, 4, 7][workers_idx];
        let cfg = HiFindConfig::small(17);
        let trace = arb_trace(seed);
        let mut serial = SketchRecorder::new(&cfg).unwrap();
        let mut sharded = ParallelRecorder::new(&cfg, workers).unwrap();
        for window in trace.intervals(cfg.interval_ms) {
            for p in window.packets {
                serial.record(p);
                sharded.record(p);
            }
            prop_assert_eq!(sharded.end_interval().unwrap(), serial.take_snapshot());
        }
        sharded.finish().unwrap();
    }
}

#[test]
fn empty_trace_matches_serial() {
    let cfg = HiFindConfig::small(19);
    let trace = Trace::new();
    for workers in [1usize, 2, 4, 7] {
        let mut serial = HiFind::new(cfg).unwrap();
        let serial_log = serial.run_trace(&trace);
        let mut parallel = HiFind::with_workers(cfg, workers).unwrap();
        let parallel_log = parallel.run_trace_with(&trace, None).unwrap();
        assert_logs_equal(&serial_log, &parallel_log);
    }
}

#[test]
fn one_packet_trace_matches_serial() {
    let cfg = HiFindConfig::small(23);
    let mut trace = Trace::new();
    trace.push(Packet::syn(
        5,
        [10, 0, 0, 9].into(),
        4000,
        [129, 105, 0, 1].into(),
        80,
    ));
    for workers in [1usize, 2, 4, 7] {
        let mut serial = HiFind::new(cfg).unwrap();
        let serial_log = serial.run_trace(&trace);
        let mut parallel = HiFind::with_workers(cfg, workers).unwrap();
        let parallel_log = parallel.run_trace_with(&trace, None).unwrap();
        assert_logs_equal(&serial_log, &parallel_log);
        assert_eq!(serial.intervals_processed(), parallel.intervals_processed());
    }
}
