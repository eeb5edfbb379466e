//! The plant under test and the one closed-loop client that drives it.
//!
//! A [`Plant`] is the real system behind its public entry points: router
//! agents, an optional aggregator and a root collector over loopback TCP,
//! or one `HiFind`. [`Plant::cycle`] plays one interval in lockstep —
//! record every router's window, close every router, block until the root
//! reports that interval's alerts — and measures each step from outside.

use crate::heap;
use crate::host;
use crate::suite::{Input, Spec, Topology, DETECTOR_SEED};
use crate::trace::Tracer;
use hifind::{
    Alert, AlertKind, HiFind, HiFindConfig, IntervalOutcome, IntervalSnapshot, PhaseNanos,
};
use hifind_collect::{
    AgentConfig, AgentStats, Aggregator, AggregatorConfig, AggregatorHandle, AggregatorReport,
    CollectObserver, CollectionReport, Collector, CollectorConfig, CollectorHandle, RouterAgent,
};
use hifind_telemetry::Registry;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An alert without its interval: what two runs must agree on.
pub type Identity = (AlertKind, Option<u32>, Option<u32>, Option<u16>);

/// What detection said about one interval.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Interval index as the root counts them.
    pub interval: u64,
    /// When the verdict was available to an operator.
    pub at: Instant,
    /// Identities of the final alerts, sorted.
    pub fin: Vec<Identity>,
    /// Phase-1 raw alerts.
    pub raw: usize,
    /// Phase-2 survivors.
    pub classified: usize,
    /// Scan candidates phase 2 reclassified.
    pub reclassified: usize,
    /// The pipeline's own phase timers.
    pub phase_ns: PhaseNanos,
}

impl Verdict {
    fn of(outcome: &IntervalOutcome, at: Instant) -> Verdict {
        Verdict {
            interval: outcome.interval,
            at,
            fin: identities(outcome),
            raw: outcome.raw.len(),
            classified: outcome.classified.len(),
            reclassified: outcome.reclassified.len(),
            phase_ns: outcome.phase_ns,
        }
    }
}

/// Sorted identities of an interval's final alerts.
pub fn identities(outcome: &IntervalOutcome) -> Vec<Identity> {
    let mut ids: Vec<Identity> = outcome.fin.iter().map(Alert::identity).collect();
    ids.sort_unstable();
    ids
}

enum Note {
    Closed(Verdict),
    Forwarded { interval: u64, at: Instant },
}

/// The benchmark's observer: turns collection-plane callbacks into
/// timestamped notes for the driver thread. Cheap, as the trait demands.
struct Probe(Sender<Note>);

impl CollectObserver for Probe {
    fn interval_closed(
        &self,
        _interval: u64,
        _snapshot: &IntervalSnapshot,
        outcome: &IntervalOutcome,
        _contributors: usize,
        _expected: usize,
    ) {
        let _ = self
            .0
            .send(Note::Closed(Verdict::of(outcome, Instant::now())));
    }

    fn snapshot_forwarded(
        &self,
        _node_id: u32,
        interval: u64,
        _snapshot: &IntervalSnapshot,
        _contributors: usize,
        _expected: usize,
    ) {
        let _ = self.0.send(Note::Forwarded {
            interval,
            at: Instant::now(),
        });
    }
}

/// One interval as the driver saw it.
#[derive(Clone, Debug)]
pub struct Cycle {
    /// Packets recorded, summed over routers.
    pub packets: usize,
    /// Wall time inside the record calls, summed over routers.
    pub record_ns: u64,
    /// First router's close starts → the interval's alerts are out.
    pub close_to_alert_ns: u64,
    /// The whole cycle.
    pub wall_ns: u64,
    /// Process CPU time (every thread of every tier) over the cycle.
    pub cpu_ns: u64,
    /// What detection said.
    pub verdict: Verdict,
    /// Frames an agent could not ship at once, or dropped.
    pub ship_trouble: u64,
    /// Largest agent backlog seen after a close.
    pub backlog: usize,
    /// Keyframes among the frames every tier received during the cycle: an
    /// interval whose frames are keyframes costs half of one whose frames
    /// are deltas, so the two are different kinds of interval.
    pub keyframes: u64,
    /// Most heap bytes live at once during the cycle, in megabytes.
    pub peak_heap_mb: f64,
}

/// Why a cycle could not complete.
#[derive(Debug)]
pub enum DriveError {
    /// The root never reported the interval.
    AlertTimeout(u64),
    /// The root reported another interval than the one just closed.
    OutOfStep { expected: u64, got: u64 },
    /// The plant could not be built.
    Build(String),
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriveError::AlertTimeout(i) => write!(f, "no verdict for interval {i} within 60 s"),
            DriveError::OutOfStep { expected, got } => {
                write!(
                    f,
                    "root closed interval {got} while the driver waited for {expected}"
                )
            }
            DriveError::Build(e) => write!(f, "cannot build the plant: {e}"),
        }
    }
}

struct Network {
    agents: Vec<RouterAgent>,
    aggregator: Option<AggregatorHandle>,
    root: CollectorHandle,
    /// One registry per receiving tier; read for live byte counters only.
    registries: Vec<Registry>,
    notes: Receiver<Note>,
}

impl Network {
    /// A receiving-side counter, summed over every tier.
    fn received(&self, counter: &str) -> u64 {
        self.registries
            .iter()
            .filter_map(|r| r.counter(counter, "").ok())
            .map(|c| c.get())
            .sum()
    }
}

enum Kind {
    Network(Box<Network>),
    SingleBox(Box<HiFind>),
}

/// The system under test.
pub struct Plant {
    kind: Kind,
    next_interval: u64,
}

/// What the tiers reported when the plant was taken down.
#[derive(Default)]
pub struct Teardown {
    /// Root collector report.
    pub root: Option<CollectionReport>,
    /// Aggregator report.
    pub aggregator: Option<AggregatorReport>,
    /// Per-agent shipping counters.
    pub agents: Vec<AgentStats>,
    /// Every final alert of the run, deduplicated by identity.
    pub final_alerts: Vec<Alert>,
    /// A tier whose threads could not be joined cleanly.
    pub errors: Vec<String>,
}

/// The configuration every tier records and detects under.
pub fn detector_config() -> HiFindConfig {
    HiFindConfig::paper(DETECTOR_SEED)
}

const BYTES_RECEIVED: &str = "hifind_collect_bytes_received_total";
const KEYFRAMES_RECEIVED: &str = "hifind_collect_frames_v2_keyframes_total";

impl Plant {
    /// Constructs the tiers, binds, and points every agent at its upstream.
    /// Agents connect and negotiate the codec on their first close.
    pub fn build(spec: &Spec) -> Result<Plant, DriveError> {
        let cfg = detector_config();
        let build = |e: &dyn std::fmt::Display| DriveError::Build(e.to_string());
        let kind = match spec.topology {
            Topology::SingleBox => {
                Kind::SingleBox(Box::new(HiFind::new(cfg).map_err(|e| build(&e))?))
            }
            Topology::Flat | Topology::Tiered => {
                let tiered = spec.topology == Topology::Tiered;
                let (tx, notes) = channel();
                let probe: Arc<dyn CollectObserver> = Arc::new(Probe(tx));
                // Lockstep never leaves a router behind, so no deadline
                // may ever force a partial flush: a partial interval here
                // is a failure, not a policy outcome.
                let patience = Duration::from_secs(600);
                let linger = Duration::from_millis(20);
                let mut root_cfg = CollectorConfig::new(if tiered { 1 } else { spec.routers });
                root_cfg.straggler_deadline = patience;
                root_cfg.linger = linger;
                root_cfg.observer = Some(Arc::clone(&probe));
                let root_registry = Registry::new();
                let root =
                    Collector::bind("127.0.0.1:0", cfg, root_cfg, Some(root_registry.clone()))
                        .map_err(|e| build(&e))?;
                let mut registries = vec![root_registry];
                let mut upstream = root.local_addr().to_string();
                let aggregator = if tiered {
                    let mut agg_cfg = AggregatorConfig::new(1000, spec.routers);
                    agg_cfg.straggler_deadline = patience;
                    agg_cfg.linger = linger;
                    agg_cfg.observer = Some(Arc::clone(&probe));
                    let registry = Registry::new();
                    let handle = Aggregator::bind(
                        "127.0.0.1:0",
                        upstream,
                        cfg,
                        agg_cfg,
                        Some(registry.clone()),
                    )
                    .map_err(|e| build(&e))?;
                    registries.push(registry);
                    upstream = handle.local_addr().to_string();
                    Some(handle)
                } else {
                    None
                };
                let agents = (0..spec.routers)
                    .map(|id| RouterAgent::new(upstream.clone(), &cfg, AgentConfig::new(id as u32)))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| build(&e))?;
                Kind::Network(Box::new(Network {
                    agents,
                    aggregator,
                    root,
                    registries,
                    notes,
                }))
            }
        };
        Ok(Plant {
            kind,
            next_interval: 0,
        })
    }

    /// Intervals played so far.
    pub fn intervals_played(&self) -> u64 {
        self.next_interval
    }

    /// Bytes of valid frames received so far, summed over every tier.
    pub fn wire_bytes(&self) -> u64 {
        match &self.kind {
            Kind::SingleBox(_) => 0,
            Kind::Network(net) => net.received(BYTES_RECEIVED),
        }
    }

    /// Plays window `w` of `input` as one interval, in lockstep.
    pub fn cycle(
        &mut self,
        input: &Input,
        w: usize,
        tracer: &mut Tracer,
    ) -> Result<Cycle, DriveError> {
        let interval = self.next_interval;
        self.next_interval += 1;
        heap::reset_peak();
        let cpu_started = host::process_cpu_s();
        let cpu_ns = move || ((host::process_cpu_s() - cpu_started) * 1e9) as u64;
        let started = Instant::now();
        let cycle = match &mut self.kind {
            Kind::SingleBox(ids) => {
                let window = &input.windows[w];
                ids.record_all(window);
                let close = Instant::now();
                let outcome = ids.end_interval();
                let done = Instant::now();
                let top = tracer.span("cycle", started, done, None, interval);
                tracer.span("record", started, close, top, interval);
                let closing = tracer.span("close_to_alert", close, done, top, interval);
                let verdict = Verdict::of(&outcome, done);
                phase_spans(tracer, &verdict, closing);
                Cycle {
                    packets: window.len(),
                    record_ns: (close - started).as_nanos() as u64,
                    close_to_alert_ns: (done - close).as_nanos() as u64,
                    wall_ns: (done - started).as_nanos() as u64,
                    cpu_ns: cpu_ns(),
                    verdict,
                    ship_trouble: 0,
                    backlog: 0,
                    keyframes: 0,
                    peak_heap_mb: heap::peak_mb(),
                }
            }
            Kind::Network(net) => {
                let keyframes_before = net.received(KEYFRAMES_RECEIVED);
                let mut packets = 0;
                let mut marks = Vec::with_capacity(net.agents.len() + 1);
                marks.push(started);
                for (agent, windows) in net.agents.iter_mut().zip(&input.per_router) {
                    for p in &windows[w] {
                        agent.record(p);
                    }
                    packets += windows[w].len();
                    marks.push(Instant::now());
                }
                let close = marks[marks.len() - 1];
                let (mut ship_trouble, mut backlog) = (0u64, 0usize);
                let mut closes = Vec::with_capacity(net.agents.len() + 1);
                closes.push(close);
                for agent in &mut net.agents {
                    let shipped = agent.end_interval();
                    ship_trouble += (shipped.queued + shipped.dropped) as u64;
                    backlog = backlog.max(agent.backlog_len());
                    closes.push(Instant::now());
                }
                let last_close = closes[closes.len() - 1];
                let mut forwarded_at = None;
                let verdict = loop {
                    match net.notes.recv_timeout(Duration::from_secs(60)) {
                        Ok(Note::Closed(v)) => break v,
                        Ok(Note::Forwarded { interval: i, at }) if i == interval => {
                            forwarded_at = Some(at);
                        }
                        Ok(Note::Forwarded { .. }) => {}
                        Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => {
                            return Err(DriveError::AlertTimeout(interval));
                        }
                    }
                };
                if verdict.interval != interval {
                    return Err(DriveError::OutOfStep {
                        expected: interval,
                        got: verdict.interval,
                    });
                }
                let done = verdict.at;
                let top = tracer.span("cycle", started, done, None, interval);
                for pair in marks.windows(2) {
                    tracer.span("record", pair[0], pair[1], top, interval);
                }
                let closing = tracer.span("close_to_alert", close, done, top, interval);
                let closing_agents =
                    tracer.span("agents.close", close, last_close, closing, interval);
                for pair in closes.windows(2) {
                    tracer.span(
                        "agent.end_interval",
                        pair[0],
                        pair[1],
                        closing_agents,
                        interval,
                    );
                }
                // What is left between the last agent returning and the
                // verdict is the receiving side: per tier, then detection.
                let detect_start = done - Duration::from_nanos(verdict.phase_ns.total);
                let ingest = tracer.span(
                    "collector.ingest",
                    last_close,
                    detect_start,
                    closing,
                    interval,
                );
                if let Some(at) = forwarded_at {
                    tracer.span("aggregator.hop", last_close, at, ingest, interval);
                    tracer.span("aggregator.forward", at, detect_start, ingest, interval);
                }
                phase_spans(tracer, &verdict, closing);
                Cycle {
                    packets,
                    record_ns: (close - started).as_nanos() as u64,
                    close_to_alert_ns: done.saturating_duration_since(close).as_nanos() as u64,
                    wall_ns: done.saturating_duration_since(started).as_nanos() as u64,
                    cpu_ns: cpu_ns(),
                    verdict,
                    ship_trouble,
                    backlog,
                    keyframes: net.received(KEYFRAMES_RECEIVED) - keyframes_before,
                    peak_heap_mb: heap::peak_mb(),
                }
            }
        };
        Ok(cycle)
    }

    /// Closes every connection, stops every tier and joins its threads.
    pub fn finish(self) -> Teardown {
        let mut down = Teardown::default();
        let net = match self.kind {
            Kind::SingleBox(ids) => {
                down.final_alerts = ids.log().final_alerts().to_vec();
                return down;
            }
            Kind::Network(net) => *net,
        };
        down.agents = net.agents.into_iter().map(RouterAgent::finish).collect();
        if let Some(aggregator) = net.aggregator {
            match aggregator.stop() {
                Ok(report) => down.aggregator = Some(report),
                Err(e) => down.errors.push(format!("aggregator: {e}")),
            }
        }
        match net.root.stop() {
            Ok(report) => {
                down.final_alerts = report.log.final_alerts().to_vec();
                down.root = Some(report);
            }
            Err(e) => down.errors.push(format!("root collector: {e}")),
        }
        down
    }
}

/// Lays the pipeline's own phase timers out as spans ending at the verdict.
fn phase_spans(tracer: &mut Tracer, verdict: &Verdict, parent: Option<usize>) {
    let p = &verdict.phase_ns;
    let end = tracer.ns(verdict.at);
    let start = end.saturating_sub(p.total);
    let whole = tracer.span_ns(
        "pipeline.process_snapshot",
        start,
        end,
        parent,
        verdict.interval,
    );
    let mut at = start;
    for (name, ns) in [
        ("forecast.step", p.forecast),
        ("detector.infer", p.detect),
        ("classify", p.classify),
        ("fp_filter", p.flood_filter),
    ] {
        tracer.span_ns(name, at, at + ns, whole, verdict.interval);
        at += ns;
    }
}
