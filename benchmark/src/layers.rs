//! Splitting composite spans: after a traced run, the captured inputs are
//! replayed through each layer's public functions in isolation, on the
//! same pinned CPU, and every call is timed on its own.
//!
//! A span such as `agent.end_interval` covers snapshot, encode, frame and
//! socket write at once; only replaying the parts apart tells how much of
//! it each layer owns. All figures are medians over the replayed windows
//! of every router.

use crate::drive::detector_config;
use crate::stats::median;
use crate::suite::Input;
use hifind::{HashPlan, IntervalSnapshot, PlanBatch, SketchRecorder};
use hifind_collect::codec_v2::{ChainStore, SnapshotEncoder};
use hifind_collect::{codec, wire};
use hifind_flow::Packet;
use hifind_sketch::{KarySketch, ReversibleSketch, TwoDSketch};
use std::time::Instant;

/// Windows replayed per router: enough for a median, and a bound on the
/// replay's own run time on a workload with many windows.
const REPLAYED_WINDOWS: usize = 5;

/// Batch size of `SketchRecorder::record_all`, mirrored for the
/// stand-alone sketch replays.
const BATCH: usize = 256;

/// Isolated per-layer costs (medians).
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub plan_hash_ns_per_pkt: f64,
    pub record_ns_per_pkt: f64,
    pub record_batch_ns_per_pkt: f64,
    pub reversible_update_ns_per_pkt: f64,
    pub kary_update_ns_per_pkt: f64,
    pub twod_update_ns_per_pkt: f64,
    pub take_snapshot_ms: f64,
    pub snapshot_mb: f64,
    pub v2_encode_ms: f64,
    pub v2_decode_ms: f64,
    pub v2_payload_bytes: f64,
    pub v2_delta_share: f64,
    pub v1_encode_ms: f64,
    pub v1_decode_ms: f64,
    pub v1_payload_bytes: f64,
    pub frame_ms: f64,
    pub parse_ms: f64,
    pub combine_ms: f64,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn per_packet_ns(start: Instant, packets: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / packets as f64
}

/// The plan columns of one window, as `PlanBatch` lays them out.
#[derive(Default)]
struct Columns {
    values: Vec<i64>,
    sip_dport: Vec<u64>,
    sip_dport_mix: Vec<u64>,
    dip_dport: Vec<u64>,
    dip_dport_mix: Vec<u64>,
    sip_dip: Vec<u64>,
    sip_dip_mix: Vec<u64>,
    dip_mix: Vec<u64>,
    dport_mix: Vec<u64>,
    os_mix: Vec<u64>,
    os_ones: Vec<i64>,
}

impl Columns {
    fn of(window: &[Packet]) -> Columns {
        let mut c = Columns::default();
        for plan in window.iter().filter_map(HashPlan::for_packet) {
            c.values.push(plan.value);
            c.sip_dport.push(plan.sip_dport);
            c.sip_dport_mix.push(plan.sip_dport_mix);
            c.dip_dport.push(plan.dip_dport);
            c.dip_dport_mix.push(plan.dip_dport_mix);
            c.sip_dip.push(plan.sip_dip);
            c.sip_dip_mix.push(plan.sip_dip_mix);
            c.dip_mix.push(plan.dip_mix);
            c.dport_mix.push(plan.dport_mix);
            if plan.is_syn {
                c.os_mix.push(plan.dip_dport_mix);
                c.os_ones.push(1);
            }
        }
        c
    }
}

/// Runs `f` over `len` items in recorder-sized batches.
fn batched(len: usize, mut f: impl FnMut(std::ops::Range<usize>)) {
    let mut at = 0;
    while at < len {
        let end = (at + BATCH).min(len);
        f(at..end);
        at = end;
    }
}

/// Replays every router's windows through each layer in isolation.
pub fn replay(input: &Input) -> Layers {
    let cfg = detector_config();
    let mut s = Samples::default();
    let mut steady: Vec<Vec<IntervalSnapshot>> = Vec::new();
    for windows in &input.per_router {
        let windows = &windows[..windows.len().min(REPLAYED_WINDOWS)];
        let Ok(mut recorder) = SketchRecorder::new(&cfg) else {
            return Layers::default();
        };
        s.snapshot_mb = recorder.memory_bytes() as f64 / (1u64 << 20) as f64;
        // First pass: saturate the cumulative active-service filter, as
        // the warm-up does for the measured run.
        for window in windows {
            recorder.record_all(window);
            recorder.take_snapshot();
        }
        let mut snapshots = Vec::with_capacity(windows.len());
        for window in windows {
            // A window of a few packets times the clock, not the layer.
            let timed = window.len() >= 1000;
            let start = Instant::now();
            for p in window {
                recorder.record(p);
            }
            if timed {
                s.record.push(per_packet_ns(start, window.len()));
            }
            let start = Instant::now();
            let snapshot = recorder.take_snapshot();
            s.take_snapshot.push(ms_since(start));

            let start = Instant::now();
            recorder.record_all(window);
            if timed {
                s.record_batch.push(per_packet_ns(start, window.len()));
            }
            recorder.take_snapshot();

            if timed {
                let mut batch = PlanBatch::with_capacity(BATCH);
                let start = Instant::now();
                for plan in window.iter().filter_map(HashPlan::for_packet) {
                    batch.push(&plan);
                    if batch.len() >= BATCH {
                        std::hint::black_box(&batch);
                        batch.clear();
                    }
                }
                s.plan.push(per_packet_ns(start, window.len()));
                standalone_sketches(&cfg, window, &mut s);
            }
            snapshots.push(snapshot);
        }
        codecs(&snapshots, &mut s);
        steady.push(snapshots);
    }
    if steady.len() > 1 {
        for w in 0..steady[0].len() {
            let mut sum = steady[0][w].clone();
            let others: Vec<&IntervalSnapshot> = steady[1..].iter().map(|r| &r[w]).collect();
            let start = Instant::now();
            let _ = sum.combine_many(&others);
            s.combine.push(ms_since(start));
        }
    }
    s.finish()
}

/// Nanoseconds of the second of two runs of `pass`. A fresh sketch is
/// zeroed pages the kernel has not handed over yet; the first run touches
/// them all, so the second times the updates and not the page faults.
/// (Updates add up, so running them twice does no harm.)
fn second_run_ns(mut pass: impl FnMut()) -> f64 {
    pass();
    let start = Instant::now();
    pass();
    start.elapsed().as_nanos() as f64
}

fn standalone_sketches(cfg: &hifind::HiFindConfig, window: &[Packet], s: &mut Samples) {
    let c = Columns::of(window);
    let n = c.values.len();
    let packets = window.len() as f64;
    let reversible = [
        (cfg.rs_sip_dport_config(), &c.sip_dport, &c.sip_dport_mix),
        (cfg.rs_dip_dport_config(), &c.dip_dport, &c.dip_dport_mix),
        (cfg.rs_sip_dip_config(), &c.sip_dip, &c.sip_dip_mix),
    ];
    let mut ns = 0.0;
    for (config, keys, mixes) in reversible {
        let Ok(mut sketch) = ReversibleSketch::new(config) else {
            return;
        };
        ns += second_run_ns(|| {
            batched(n, |r| {
                sketch.update_batch(&keys[r.clone()], &mixes[r.clone()], &c.values[r])
            })
        });
        std::hint::black_box(&sketch);
    }
    s.reversible.push(ns / packets);

    if let Ok(mut sketch) = KarySketch::new(cfg.os) {
        let ns = second_run_ns(|| {
            batched(c.os_mix.len(), |r| {
                sketch.update_batch_premixed(&c.os_mix[r.clone()], &c.os_ones[r])
            })
        });
        s.kary.push(ns / packets);
        std::hint::black_box(&sketch);
    }

    let twod = [
        (cfg.twod_sipdport_dip_config(), &c.sip_dport_mix, &c.dip_mix),
        (cfg.twod_sipdip_dport_config(), &c.sip_dip_mix, &c.dport_mix),
    ];
    let mut ns = 0.0;
    for (config, xs, ys) in twod {
        let Ok(mut sketch) = TwoDSketch::new(config) else {
            return;
        };
        ns += second_run_ns(|| {
            batched(n, |r| {
                sketch.update_batch_premixed(&xs[r.clone()], &ys[r.clone()], &c.values[r])
            })
        });
        std::hint::black_box(&sketch);
    }
    s.twod.push(ns / packets);
}

/// Encodes and decodes one router's snapshots as a session would: two
/// passes, every interval acked before the next is encoded.
fn codecs(snapshots: &[IntervalSnapshot], s: &mut Samples) {
    let mut encoder = SnapshotEncoder::default();
    // One chain store per decode of an interval: each sees every interval
    // once, in order, as a receiver would.
    let mut warming_store = ChainStore::new();
    let mut codec_store = ChainStore::new();
    let mut wire_store = ChainStore::new();
    for (i, snapshot) in snapshots.iter().chain(snapshots).enumerate() {
        let interval = i as u64;
        let start = Instant::now();
        let encoded = encoder.encode(interval, snapshot, interval.checked_sub(1));
        s.v2_encode.push(ms_since(start));
        s.v2_bytes.push(encoded.payload.len() as f64);
        s.v2_delta.push(if encoded.is_delta { 1.0 } else { 0.0 });

        let start = Instant::now();
        let framed = wire::encode_frame_v2(0, interval, snapshot.fingerprint, &encoded.payload);
        s.frame.push(ms_since(start));

        // Untimed, so that the two timed decodes below both find the
        // payload in cache and differ only in what the wire path adds.
        std::hint::black_box(warming_store.decode(0, interval, &encoded.payload).is_ok());
        let start = Instant::now();
        let decoded = codec_store.decode(0, interval, &encoded.payload);
        let decode_ms = ms_since(start);
        if decoded.is_ok() {
            s.v2_decode.push(decode_ms);
        }
        std::hint::black_box(&decoded);

        if let (Ok(frame), true) = (framed, decoded.is_ok()) {
            let start = Instant::now();
            let mut header = [0u8; wire::HEADER_LEN];
            header.copy_from_slice(&frame[..wire::HEADER_LEN]);
            let parsed = wire::parse_header(&header, wire::DEFAULT_MAX_PAYLOAD).and_then(|h| {
                wire::decode_payload_v2(&h, &frame[wire::HEADER_LEN..], &mut wire_store)
            });
            // The same payload decoded once more, behind the header checks:
            // what this decode cost beyond the last is the parse.
            if parsed.is_ok() {
                s.parse.push(ms_since(start) - decode_ms);
            }
            std::hint::black_box(&parsed);
        }

        if i < snapshots.len() {
            let start = Instant::now();
            let payload = codec::encode_snapshot(snapshot);
            s.v1_encode.push(ms_since(start));
            s.v1_bytes.push(payload.len() as f64);
            let start = Instant::now();
            let decoded = codec::decode_snapshot(&payload);
            s.v1_decode.push(ms_since(start));
            std::hint::black_box(&decoded);
        }
    }
}

#[derive(Default)]
struct Samples {
    plan: Vec<f64>,
    record: Vec<f64>,
    record_batch: Vec<f64>,
    reversible: Vec<f64>,
    kary: Vec<f64>,
    twod: Vec<f64>,
    take_snapshot: Vec<f64>,
    snapshot_mb: f64,
    v2_encode: Vec<f64>,
    v2_decode: Vec<f64>,
    v2_bytes: Vec<f64>,
    v2_delta: Vec<f64>,
    v1_encode: Vec<f64>,
    v1_decode: Vec<f64>,
    v1_bytes: Vec<f64>,
    frame: Vec<f64>,
    parse: Vec<f64>,
    combine: Vec<f64>,
}

impl Samples {
    fn finish(self) -> Layers {
        // A layer with nothing to replay (one router has nothing to
        // combine; a near-empty window times nothing) reports zero.
        let m = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        Layers {
            plan_hash_ns_per_pkt: m(&self.plan),
            record_ns_per_pkt: m(&self.record),
            record_batch_ns_per_pkt: m(&self.record_batch),
            reversible_update_ns_per_pkt: m(&self.reversible),
            kary_update_ns_per_pkt: m(&self.kary),
            twod_update_ns_per_pkt: m(&self.twod),
            take_snapshot_ms: m(&self.take_snapshot),
            snapshot_mb: self.snapshot_mb,
            v2_encode_ms: m(&self.v2_encode),
            v2_decode_ms: m(&self.v2_decode),
            v2_payload_bytes: mean(&self.v2_bytes),
            v2_delta_share: mean(&self.v2_delta),
            v1_encode_ms: m(&self.v1_encode),
            v1_decode_ms: m(&self.v1_decode),
            v1_payload_bytes: mean(&self.v1_bytes),
            frame_ms: m(&self.frame),
            parse_ms: m(&self.parse),
            combine_ms: m(&self.combine),
        }
    }
}
