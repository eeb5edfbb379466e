//! One run of one workload: set-up, the measured section, the oracle, and
//! the metrics that come out of them.

use crate::drive::{Cycle, DriveError, Plant, Teardown};
use crate::host::{self, Noise, Provenance, StatBaseline, Usage};
use crate::layers::{self, Layers};
use crate::oracle::{self, OracleReport};
use crate::stats::{at_kind_medians, median, percentile};
use crate::suite::{self, Input, Spec, Topology};
use crate::trace::{self, Span, Tracer};
use hifind_collect::{AgentStats, AggregatorReport, CollectionReport};
use serde::{Serialize, Value};
use std::path::PathBuf;
use std::time::Instant;

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    // A layer with nothing to measure reports zero, never NaN: JSON has none.
    Metric {
        name,
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Everything a run found out.
pub struct Outcome {
    pub options: Options,
    pub provenance: Provenance,
    pub noise: Noise,
    pub generate_s: f64,
    pub packets_per_pass: usize,
    pub measured_passes: usize,
    pub samples: usize,
    pub measured_wall_s: f64,
    /// Wall time of each measured pass: how even the run was.
    pub pass_wall_s: Vec<f64>,
    /// Largest heap peak of any measured interval.
    pub max_peak_heap_mb: f64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub oracle: OracleReport,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub trace_file: Option<PathBuf>,
}

impl Outcome {
    /// Whether the run's outputs were all correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }
}

/// One measured pass.
struct Pass {
    wall_s: f64,
    /// Whether spans were recorded during it.
    traced: bool,
}

struct Measured {
    cycles: Vec<Cycle>,
    passes: Vec<Pass>,
    wall_s: f64,
    usage: Usage,
    wire_bytes: u64,
    peak_rss_mb: f64,
}

fn play_pass(
    plant: &mut Plant,
    input: &Input,
    tracer: &mut Tracer,
    into: &mut Vec<Cycle>,
) -> Result<(), DriveError> {
    for w in 0..input.windows.len() {
        into.push(plant.cycle(input, w, tracer)?);
    }
    Ok(())
}

/// Runs one workload once.
pub fn run(options: Options) -> Result<Outcome, DriveError> {
    let spec = options.spec;
    let provenance = Provenance::collect();
    let pinned_cpu = host::pin_to_quietest_cpu();
    match pinned_cpu {
        Some(cpu) => println!("pinned to cpu {cpu}: every number below is a ONE-CORE number"),
        None => println!("pinned=false WARNING: could not pin to one CPU; this run must not be compared with any other"),
    }
    let baseline = StatBaseline::now();
    let canary_before = host::canary_ms();

    let input = suite::generate(spec, options.seed);

    // Set-up: from just after generation to the first measured interval.
    let setup_started = Instant::now();
    let mut tracer = Tracer::new(false);
    let mut plant = Plant::build(spec)?;
    let mut warmup = Vec::with_capacity(spec.warmup_passes * spec.windows);
    for _ in 0..spec.warmup_passes {
        play_pass(&mut plant, &input, &mut tracer, &mut warmup)?;
    }
    let setup_s = setup_started.elapsed().as_secs_f64();

    let passes = spec.passes(options.seconds, options.quick);
    let measured = measure(&mut plant, &input, &mut tracer, passes, options.trace)?;
    let intervals_played = plant.intervals_played();
    let teardown = plant.finish();

    // Untimed from here on.
    let verdicts: Vec<_> = warmup
        .iter()
        .chain(&measured.cycles)
        .map(|c| &c.verdict)
        .collect();
    let oracle = oracle::check(spec, &input, &verdicts, &teardown.final_alerts);
    let layers = options.trace.then(|| layers::replay(&input));
    let canary_after = host::canary_ms();
    let noise = Noise::close(pinned_cpu, &baseline, canary_before, canary_after);

    let end_to_end = end_to_end_metrics(spec, setup_s, &measured);
    let per_layer = match &layers {
        Some(l) => per_layer_metrics(spec, &input, &measured, tracer.spans(), l, &teardown),
        None => Vec::new(),
    };
    let trace_file = if options.trace {
        write_trace(&options, &provenance, &noise, tracer.spans())
    } else {
        None
    };

    let (failed, failures) = account(
        spec,
        intervals_played,
        &warmup,
        &measured.cycles,
        &teardown,
        &oracle,
    );
    Ok(Outcome {
        options,
        provenance,
        noise,
        generate_s: input.generate_s,
        packets_per_pass: input.packets_per_pass(),
        measured_passes: passes,
        samples: measured.cycles.len(),
        measured_wall_s: measured.wall_s,
        pass_wall_s: measured.passes.iter().map(|p| p.wall_s).collect(),
        max_peak_heap_mb: measured
            .cycles
            .iter()
            .map(|c| c.peak_heap_mb)
            .fold(0.0, f64::max),
        end_to_end,
        per_layer,
        oracle,
        attempted: spec.routers as u64 * intervals_played,
        failed,
        failures,
        trace_file,
    })
}

/// The measured section: `passes` whole passes, fixed before it starts.
/// A traced run records spans on every other pass, so the same process
/// yields the traced and the untraced rate that `trace.overhead_pct` compares.
fn measure(
    plant: &mut Plant,
    input: &Input,
    tracer: &mut Tracer,
    passes: usize,
    trace: bool,
) -> Result<Measured, DriveError> {
    let mut cycles = Vec::with_capacity(passes * input.windows.len());
    let mut totals = Vec::with_capacity(passes);
    let bytes_before = plant.wire_bytes();
    // Trace generation, the canary and the first keyframes of the warm-up
    // all peak higher than the steady state does: both peaks are those of
    // the measured section alone (`VmHWM` where the kernel lets it be reset).
    host::reset_peak_rss();
    let usage_before = Usage::now();
    let started = Instant::now();
    for pass in 0..passes {
        let traced = trace && pass % 2 == 0;
        tracer.set_enabled(traced);
        let wall = Instant::now();
        play_pass(plant, input, tracer, &mut cycles)?;
        totals.push(Pass {
            wall_s: wall.elapsed().as_secs_f64(),
            traced,
        });
    }
    let wall_s = started.elapsed().as_secs_f64();
    tracer.set_enabled(false);
    Ok(Measured {
        cycles,
        passes: totals,
        wall_s,
        usage: Usage::now().since(&usage_before),
        wire_bytes: plant.wire_bytes() - bytes_before,
        peak_rss_mb: host::peak_rss_mb(),
    })
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// `of(cycle)` for every measured interval, each counted at the median of
/// the intervals of its kind: those that played the same window and
/// received as many keyframes.
///
/// Every interval counts, the one in nine whose frames are keyframes too
/// (it costs half of a delta interval), each kind as often as it came up.
/// The median within a kind is there for the host: what disturbs a run
/// comes in bursts of a few seconds (a neighbour on the memory bus adds a
/// third to ten cycles in a row). A plain total moves by all of that, and a
/// plain 90th percentile is made of nothing else wherever the windows are
/// all of one kind: on idle-tiered it read the host's worst tenth.
fn typical(cycles: &[Cycle], windows: usize, of: impl Fn(&Cycle) -> f64) -> Vec<f64> {
    let by_kind: Vec<_> = cycles
        .iter()
        .enumerate()
        .map(|(i, c)| ((i % windows, c.keyframes), of(c)))
        .collect();
    at_kind_medians(&by_kind)
}

fn end_to_end_metrics(spec: &Spec, setup_s: f64, m: &Measured) -> Vec<Metric> {
    let router_intervals = (spec.routers * m.cycles.len()) as f64;
    let total = |of: fn(&Cycle) -> f64| typical(&m.cycles, spec.windows, of).iter().sum::<f64>();
    let close = typical(&m.cycles, spec.windows, |c| ms(c.close_to_alert_ns));
    let values = [
        setup_s,
        router_intervals / total(|c| c.wall_ns as f64 / 1e9),
        percentile(&close, 0.5),
        percentile(&close, 0.9),
        total(|c| ms(c.cpu_ns)) / router_intervals,
        m.cycles.iter().map(|c| c.peak_heap_mb).sum::<f64>() / m.cycles.len() as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), value)| metric(name, value, unit))
        .collect()
}

/// The end-to-end metrics: name, unit, which way is better, and the share
/// of the parent's median by which a change may worsen the metric before
/// it counts as a regression. `BENCHMARK.json` carries the same table.
///
/// The issue fixed a tenth for everything timed or sized; the CI driver
/// refused that, because two sets of ten runs of the same code spread
/// wider. Identical work on this shared host reads 6–7 % either way from
/// one half-minute run to the next (idle-tiered, one seed, one CPU:
/// `close_to_alert_p50_ms` 224–256 ms), in swells of ten seconds to a
/// minute that no estimator inside a 20 s run sees past. So every bound is
/// three times the widest quartile distance seen in six sets of ten runs,
/// rounded up to a twentieth: a fifth for rate, median and CPU (6.3 %), a
/// quarter, the most the contract allows, for the 90th percentile (9.6 % on
/// campus-fleet, where the seed decides what INFERENCE costs on the
/// attack-onset window) and for set-up, which the contract gives the widest;
/// the heap peak repeats to 2 % and keeps its tenth. `record_pkts_per_s` and
/// `wire_bytes_per_router_interval` are per-layer metrics: the first waits
/// for DRAM and for nothing else, the second is zero on a single box,
/// which the contract forbids. README.md has the numbers.
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("router_intervals_per_s", "1/s", "higher", 0.20),
    ("close_to_alert_p50_ms", "ms", "lower", 0.20),
    ("close_to_alert_p90_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_router_interval", "ms", "lower", 0.20),
    ("peak_heap_mb", "MB", "lower", 0.10),
];

/// Names and units of the per-layer metrics, in report order. Every traced
/// run reports all of them; a layer a workload bypasses reports zero.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("trafficgen.generate_s", "s"),
    ("trafficgen.pkts", "pkts"),
    ("record_pkts_per_s", "pkts/s"),
    ("wire_bytes_per_router_interval", "bytes"),
    ("plan.hash_ns_per_pkt", "ns/pkt"),
    ("recorder.record_ns_per_pkt", "ns/pkt"),
    ("recorder.record_batch_ns_per_pkt", "ns/pkt"),
    ("sketch.reversible_update_ns_per_pkt", "ns/pkt"),
    ("sketch.kary_update_ns_per_pkt", "ns/pkt"),
    ("sketch.twod_update_ns_per_pkt", "ns/pkt"),
    ("recorder.take_snapshot_ms", "ms"),
    ("recorder.snapshot_mb", "MB"),
    ("codec_v2.encode_ms", "ms"),
    ("codec_v2.decode_ms", "ms"),
    ("codec_v2.payload_bytes", "bytes"),
    ("codec_v2.delta_share", "share"),
    ("codec.encode_ms", "ms"),
    ("codec.decode_ms", "ms"),
    ("codec.payload_bytes", "bytes"),
    ("wire.frame_ms", "ms"),
    ("wire.parse_ms", "ms"),
    ("agent.end_interval_ms", "ms"),
    ("ship.write_wait_ms", "ms"),
    ("ship.retries", "count"),
    ("ship.dropped", "count"),
    ("ship.backlog_max", "count"),
    ("collector.ingest_ms", "ms"),
    ("collector.unattributed_ms", "ms"),
    ("path.unattributed_ms", "ms"),
    ("collector.frames_late", "count"),
    ("collector.frames_rejected", "count"),
    ("collector.partial_intervals", "count"),
    ("collector.straggler_slots", "count"),
    ("aggregator.hop_ms", "ms"),
    ("aggregator.forward_ms", "ms"),
    ("sketch.combine_ms", "ms"),
    ("forecast.step_ms", "ms"),
    ("detector.infer_ms", "ms"),
    ("detector.infer_p90_ms", "ms"),
    ("detector.raw_alerts", "count"),
    ("classify.ms", "ms"),
    ("classify.reclassified", "count"),
    ("fp_filter.ms", "ms"),
    ("fp_filter.dropped", "count"),
    ("pipeline.process_snapshot_ms", "ms"),
    ("pipeline.process_snapshot_p90_ms", "ms"),
    ("cycle.wall_p50_ms", "ms"),
    ("share.record_pct", "%"),
    ("share.detect_pct", "%"),
    ("share.spans_of_close_pct", "%"),
    ("process.cpu_user_s", "s"),
    ("process.cpu_sys_s", "s"),
    ("process.minor_faults", "count"),
    ("process.invol_ctx_switches", "count"),
    ("process.peak_rss_mb", "MB"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

fn per_layer_metrics(
    spec: &Spec,
    input: &Input,
    m: &Measured,
    spans: &[Span],
    l: &Layers,
    down: &Teardown,
) -> Vec<Metric> {
    let span_p50 = |name: &str| {
        let d = trace::durations_ms(spans, name);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };
    let over = |f: &dyn Fn(&Cycle) -> f64| -> Vec<f64> { m.cycles.iter().map(f).collect() };
    let forecast = over(&|c| ms(c.verdict.phase_ns.forecast));
    let infer = over(&|c| ms(c.verdict.phase_ns.detect));
    let classify = over(&|c| ms(c.verdict.phase_ns.classify));
    let fp_filter = over(&|c| ms(c.verdict.phase_ns.flood_filter));
    let pipeline = over(&|c| ms(c.verdict.phase_ns.total));
    let wall = over(&|c| ms(c.wall_ns));
    let record = over(&|c| ms(c.record_ns));
    let close = over(&|c| ms(c.close_to_alert_ns));
    let raw = over(&|c| c.verdict.raw as f64);
    let reclassified: usize = m.cycles.iter().map(|c| c.verdict.reclassified).sum();
    let fp_dropped: usize = m
        .cycles
        .iter()
        .map(|c| c.verdict.classified - c.verdict.fin.len().min(c.verdict.classified))
        .sum();

    let agent_end = span_p50("agent.end_interval");
    let ingest = span_p50("collector.ingest");
    // What the receiving side is known to do between the last agent
    // returning and detection starting, from the isolated replays: every
    // tier decodes its children's frames and combines them, and an
    // aggregator encodes and frames the sum once more.
    let networked = spec.topology != Topology::SingleBox;
    let tiered = spec.topology == Topology::Tiered;
    let explained = l.v2_decode_ms * (spec.routers + usize::from(tiered)) as f64
        + if spec.routers > 1 { l.combine_ms } else { 0.0 }
        + if tiered {
            l.v2_encode_ms + l.frame_ms
        } else {
            0.0
        };
    let unattributed = if networked { ingest - explained } else { 0.0 };
    let write_wait = if networked {
        agent_end - l.take_snapshot_ms - l.v2_encode_ms - l.frame_ms
    } else {
        0.0
    };

    // The spans under close_to_alert, summed as medians, against the
    // median close_to_alert itself: how much of the path the ledger covers.
    let covered = span_p50("agents.close") + ingest + median(&pipeline);
    // The same path against the isolated replays: what no replayed layer
    // explains (socket writes and reads, frame assembly, thread wake-ups,
    // alignment). On one core every thread's work is serial, so this is
    // the honest form of the question `collector.unattributed_ms` asks.
    let routers = spec.routers as f64;
    let replayed = if networked {
        routers * (l.take_snapshot_ms + l.v2_encode_ms + l.frame_ms) + explained
    } else {
        l.take_snapshot_ms
    };
    let path_unattributed = median(&close) - replayed - median(&pipeline);

    let mean_wall = |traced: bool| {
        let walls: Vec<f64> = m
            .passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| p.wall_s)
            .collect();
        walls.iter().sum::<f64>() / walls.len() as f64
    };
    // Lost rate, traced against untraced passes of the same process.
    let overhead = 100.0 * (1.0 - mean_wall(false) / mean_wall(true));

    let upstream = down.aggregator.as_ref().map(|a| &a.ship);
    let ship_sum = |f: &dyn Fn(&AgentStats) -> u64| {
        down.agents.iter().chain(upstream).map(f).sum::<u64>() as f64
    };
    let tier_sum = |of_root: &dyn Fn(&CollectionReport) -> u64,
                    of_aggregator: &dyn Fn(&AggregatorReport) -> u64| {
        (down.root.as_ref().map_or(0, of_root) + down.aggregator.as_ref().map_or(0, of_aggregator))
            as f64
    };

    let mut out = Vec::with_capacity(PER_LAYER.len());
    let mut put = |name: &'static str, value: f64| {
        // The table, not this function, decides order and units; a name it
        // does not list is a bug in this program.
        let &(listed, unit) = &PER_LAYER[out.len()];
        assert_eq!(listed, name, "per-layer metric out of table order");
        out.push(metric(name, value, unit));
    };
    put("trafficgen.generate_s", input.generate_s);
    put("trafficgen.pkts", input.packets_per_pass() as f64);
    // The two the issue lists end to end, as plain totals of the measured
    // section: packets over the wall time inside the record calls, and
    // bytes every tier received over router-intervals (none on a single box).
    let total = |of: &dyn Fn(&Cycle) -> f64| m.cycles.iter().map(of).sum::<f64>();
    put(
        "record_pkts_per_s",
        total(&|c| c.packets as f64) / total(&|c| c.record_ns as f64 / 1e9),
    );
    put(
        "wire_bytes_per_router_interval",
        m.wire_bytes as f64 / (spec.routers * m.cycles.len()) as f64,
    );
    put("plan.hash_ns_per_pkt", l.plan_hash_ns_per_pkt);
    put("recorder.record_ns_per_pkt", l.record_ns_per_pkt);
    put(
        "recorder.record_batch_ns_per_pkt",
        l.record_batch_ns_per_pkt,
    );
    put(
        "sketch.reversible_update_ns_per_pkt",
        l.reversible_update_ns_per_pkt,
    );
    put("sketch.kary_update_ns_per_pkt", l.kary_update_ns_per_pkt);
    put("sketch.twod_update_ns_per_pkt", l.twod_update_ns_per_pkt);
    put("recorder.take_snapshot_ms", l.take_snapshot_ms);
    put("recorder.snapshot_mb", l.snapshot_mb);
    put("codec_v2.encode_ms", l.v2_encode_ms);
    put("codec_v2.decode_ms", l.v2_decode_ms);
    put("codec_v2.payload_bytes", l.v2_payload_bytes);
    put("codec_v2.delta_share", l.v2_delta_share);
    put("codec.encode_ms", l.v1_encode_ms);
    put("codec.decode_ms", l.v1_decode_ms);
    put("codec.payload_bytes", l.v1_payload_bytes);
    put("wire.frame_ms", l.frame_ms);
    put("wire.parse_ms", l.parse_ms);
    put("agent.end_interval_ms", agent_end);
    put("ship.write_wait_ms", write_wait);
    put("ship.retries", ship_sum(&|s| s.send_failures));
    put("ship.dropped", ship_sum(&|s| s.frames_dropped));
    put(
        "ship.backlog_max",
        m.cycles.iter().map(|c| c.backlog).max().unwrap_or(0) as f64,
    );
    put("collector.ingest_ms", ingest);
    put("collector.unattributed_ms", unattributed);
    put("path.unattributed_ms", path_unattributed);
    put(
        "collector.frames_late",
        tier_sum(&|r| r.frames_late, &|a| a.frames_late),
    );
    put(
        "collector.frames_rejected",
        tier_sum(&|r| r.frames_rejected, &|a| a.frames_rejected),
    );
    put(
        "collector.partial_intervals",
        tier_sum(&|r| r.partial_intervals, &|a| a.partial_intervals),
    );
    put(
        "collector.straggler_slots",
        tier_sum(&|r| r.straggler_slots, &|a| a.straggler_slots),
    );
    put("aggregator.hop_ms", span_p50("aggregator.hop"));
    put("aggregator.forward_ms", span_p50("aggregator.forward"));
    put("sketch.combine_ms", l.combine_ms);
    put("forecast.step_ms", median(&forecast));
    put("detector.infer_ms", median(&infer));
    put("detector.infer_p90_ms", percentile(&infer, 0.9));
    put("detector.raw_alerts", median(&raw));
    put("classify.ms", median(&classify));
    put("classify.reclassified", reclassified as f64);
    put("fp_filter.ms", median(&fp_filter));
    put("fp_filter.dropped", fp_dropped as f64);
    put("pipeline.process_snapshot_ms", median(&pipeline));
    put(
        "pipeline.process_snapshot_p90_ms",
        percentile(&pipeline, 0.9),
    );
    put("cycle.wall_p50_ms", median(&wall));
    put("share.record_pct", 100.0 * median(&record) / median(&wall));
    put("share.detect_pct", 100.0 * median(&infer) / median(&wall));
    put("share.spans_of_close_pct", 100.0 * covered / median(&close));
    put("process.cpu_user_s", m.usage.cpu_user_s);
    put("process.cpu_sys_s", m.usage.cpu_sys_s);
    put("process.minor_faults", m.usage.minor_faults as f64);
    put(
        "process.invol_ctx_switches",
        m.usage.invol_ctx_switches as f64,
    );
    put("process.peak_rss_mb", m.peak_rss_mb);
    put("trace.spans", spans.len() as f64);
    put("trace.overhead_pct", overhead);
    assert_eq!(
        out.len(),
        PER_LAYER.len(),
        "per-layer metric missing from the report"
    );
    out
}

/// Failure accounting: every router-interval offered that did not come
/// through whole, on time and with the right alerts.
fn account(
    spec: &Spec,
    intervals_played: u64,
    warmup: &[Cycle],
    measured: &[Cycle],
    down: &Teardown,
    oracle: &OracleReport,
) -> (u64, Vec<String>) {
    let mut failed = 0u64;
    let mut why = Vec::new();
    let mut count = |n: u64, what: &str| {
        if n > 0 {
            failed += n;
            why.push(format!("{n} {what}"));
        }
    };
    if let Some(root) = &down.root {
        count(root.straggler_slots, "straggler slots at the root");
        count(root.frames_late, "late frames at the root");
        count(root.frames_rejected, "rejected frames at the root");
        count(root.partial_intervals, "partial intervals at the root");
        count(root.gap_intervals, "gap intervals at the root");
        count(
            intervals_played.saturating_sub(root.complete_intervals),
            "intervals the root did not close complete",
        );
    }
    if let Some(agg) = &down.aggregator {
        count(agg.straggler_slots, "straggler slots at the aggregator");
        count(agg.frames_late, "late frames at the aggregator");
        count(agg.frames_rejected, "rejected frames at the aggregator");
        count(agg.partial_intervals, "partial intervals at the aggregator");
        count(agg.gap_intervals, "gap intervals at the aggregator");
        count(
            agg.ship.frames_dropped + agg.frames_unshipped,
            "frames the aggregator dropped or never shipped",
        );
    }
    count(
        down.agents.iter().map(|a| a.frames_dropped).sum(),
        "frames dropped by agents",
    );
    count(
        warmup.iter().chain(measured).map(|c| c.ship_trouble).sum(),
        "frames an agent could not ship at once",
    );
    count(
        oracle.mismatched.len() as u64,
        "intervals whose final alerts differ from the oracle's",
    );
    for e in &down.errors {
        why.push(format!("teardown: {e}"));
    }
    if spec.topology != Topology::SingleBox && down.root.is_none() {
        why.push("no report from the root collector".into());
    }
    if !oracle.floors_hold {
        why.push(format!(
            "ground-truth floors broken: detected {} (floor {}), false positives {} (ceiling {})",
            oracle.detected,
            spec.floors.min_detected,
            oracle.false_positives,
            spec.floors.max_false_positives
        ));
    }
    (failed, why)
}

fn write_trace(
    options: &Options,
    provenance: &Provenance,
    noise: &Noise,
    spans: &[Span],
) -> Option<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}.json", options.spec.name));
    let text = |s: &str| Value::Str(s.to_string());
    let file = Value::Map(vec![
        ("workload".to_string(), text(options.spec.name)),
        ("seed".to_string(), Value::UInt(options.seed)),
        ("provenance".to_string(), provenance.to_value()),
        ("host_noise".to_string(), noise.to_value()),
        ("time_unit".to_string(), text("ns since the tracer's origin")),
        (
            "note".to_string(),
            text("one-core run; spans recorded by the benchmark around its calls into each layer, on every other measured pass"),
        ),
        ("spans".to_string(), spans.to_vec().to_value()),
        // Self time of spans[i]: its duration minus what its children cover.
        ("self_time".to_string(), trace::self_times(spans).to_value()),
    ]);
    let written = std::fs::create_dir_all(&dir)
        .ok()
        .and_then(|()| serde_json::to_string(&file).ok())
        .and_then(|json| std::fs::write(&path, json).ok());
    match written {
        Some(()) => Some(path),
        None => {
            eprintln!("warning: could not write {}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is the driver's copy of the tables in this crate.
    #[test]
    fn benchmark_json_carries_the_same_tables() {
        let json: Value = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let rows = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            let text = |v: &Value| match v {
                Value::Str(s) => s.clone(),
                Value::Float(f) => f.to_string(),
                other => panic!("unexpected value in BENCHMARK.json: {other:?}"),
            };
            json.get(key)
                .and_then(Value::as_seq)
                .unwrap()
                .iter()
                .map(|row| fields.iter().map(|f| text(row.get(f).unwrap())).collect())
                .collect()
        };
        let end_to_end: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|(n, u, b, bound)| {
                vec![
                    n.to_string(),
                    u.to_string(),
                    b.to_string(),
                    bound.to_string(),
                ]
            })
            .collect();
        assert_eq!(
            rows("end_to_end", &["name", "unit", "better", "bound"]),
            end_to_end
        );
        let per_layer: Vec<Vec<String>> = PER_LAYER
            .iter()
            .map(|(n, u)| vec![n.to_string(), u.to_string()])
            .collect();
        assert_eq!(rows("per_layer", &["name", "unit"]), per_layer);
        let workloads: Vec<Vec<String>> = suite::ALL
            .iter()
            .map(|s| vec![s.name.to_string(), s.why.to_string()])
            .collect();
        assert_eq!(rows("workloads", &["name", "why"]), workloads);
        assert_eq!(
            json.get("run_seconds"),
            Some(&Value::UInt(suite::DEFAULT_SECONDS))
        );
    }
}
