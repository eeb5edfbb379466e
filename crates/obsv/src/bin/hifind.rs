//! `hifind` — command-line front end for the HiFIND IDS.
//!
//! ```console
//! $ hifind generate --preset nu --scale 0.05 --seed 7 --out campus.hfnd
//! $ hifind info     --trace campus.hfnd
//! $ hifind detect   --trace campus.hfnd --mitigate
//! ```

#![forbid(unsafe_code)]

use hifind::mitigate::{plan, MitigationPolicy};
use hifind::postprocess::correlate_block_scans;
use hifind::{AlertKind, HiFind, HiFindConfig, Phase};
use hifind_collect::{
    AgentConfig, Aggregator, AggregatorConfig, CheckpointPolicy, CollectError, Collector,
    CollectorConfig, RouterAgent, TierHandle,
};
use hifind_flow::Trace;
use hifind_obsv::{ApiState, EventLog, HistoryConfig, HistoryStore, HttpServer, ObsvHub};
use hifind_telemetry::Registry;
use hifind_trafficgen::{presets, split_per_packet};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "\
hifind — DoS-resilient flow-level intrusion detection (ICDCS'06 reproduction)

USAGE:
    hifind generate --preset <nu|lbl|dos> [--scale F] [--seed N] --out FILE
    hifind info     --trace FILE [--metrics-json FILE]
    hifind detect   --trace FILE [--seed N] [--interval-secs N] [--threshold-per-sec F]
                    [--workers N] [--phases] [--mitigate] [--stats] [--metrics-json FILE]
    hifind collect  --listen ADDR --routers N [--seed N] [--interval-secs N]
                    [--threshold-per-sec F] [--straggler-ms N] [--reorder-window N]
                    [--linger-ms N] [--checkpoint FILE] [--checkpoint-every N]
                    [--resume FILE] [--metrics-json FILE] [--http ADDR]
                    [--history-dir DIR] [--event-log FILE]
    hifind aggregate --listen ADDR --upstream ADDR --quorum N [--node-id N]
                    [--seed N] [--interval-secs N] [--threshold-per-sec F]
                    [--straggler-ms N] [--reorder-window N] [--linger-ms N]
                    [--checkpoint FILE] [--checkpoint-every N] [--resume FILE]
                    [--metrics-json FILE] [--http ADDR] [--event-log FILE]
    hifind agent    --connect ADDR --trace FILE [--router-id N] [--split I/N]
                    [--seed N] [--interval-secs N] [--workers N]
                    [--checkpoint FILE] [--resume FILE] [--event-log FILE]

    Trace files ending in .csv use the human-readable CSV format
    (ts_ms,src,sport,dst,dport,kind,direction); anything else uses the
    compact binary .hfnd format.

COMMANDS:
    generate   synthesize a workload trace (binary .hfnd format)
    info       print trace statistics
    detect     run the full three-phase pipeline and print final alerts
    collect    run the central collection site: accept router agents over
               TCP, combine their per-interval sketches, detect on the sum
    aggregate  run a mid-tier aggregation node: accept N downstream agents
               or aggregators, sum each interval's sketches (sketch
               linearity keeps the tree bit-identical to a flat run), and
               ship one combined frame upstream per interval
    agent      replay a trace as one edge router, shipping per-interval
               sketch snapshots to a collector

OPTIONS:
    --preset             workload preset: nu (campus mix), lbl (scan-heavy lab),
                         dos (spoofed smokescreen + real scan)
    --scale F            workload intensity multiplier (default 0.1)
    --seed N             deterministic seed (default 2026)
    --interval-secs N    detection interval (default 60)
    --threshold-per-sec F  unresponded SYNs per second to alert on (default 1)
    --workers N          record through N parallel shard threads; the
                         merged sketches (and so every alert) are
                         bit-identical to inline recording (default 0 =
                         inline, no thread); an agent honours it with
                         --resume too
    --phases             also print per-phase alert counts (Table 4 style)
    --mitigate           print the derived mitigation plan
    --stats              print the run telemetry summary (phase latencies,
                         alert funnel, sketch health)
    --metrics-json FILE  write machine-readable run telemetry (detect),
                         trace statistics (info), or the collection report
                         (collect) as JSON
    --listen ADDR        collector bind address (e.g. 127.0.0.1:7400)
    --routers N          routers the collector expects per interval
    --straggler-ms N     how long to hold an incomplete interval before
                         detecting on quorum (default 2000)
    --reorder-window N   max intervals buffered out of order (default 8)
    --linger-ms N        reconnect grace once all routers left (default 400)
    --checkpoint FILE    persist state to FILE: the collector writes its
                         detection state every --checkpoint-every intervals
                         (and at run end); an agent writes its shipping
                         state (interval counter + unshipped backlog) when
                         its replay ends
    --checkpoint-every N collector checkpoint cadence in flushed intervals
                         (default 8; 0 = only at run end)
    --resume FILE        restore state from a checkpoint written by the
                         same role under the same --seed; a restarted
                         collector resumes its forecast baselines, streaks
                         and alert log and produces the same final alerts
                         as an uninterrupted run
    --http ADDR          serve the operator API on ADDR (e.g. 127.0.0.1:9100):
                         GET /metrics (Prometheus text, including a
                         hifind_build_info gauge whose help string carries
                         the crate version, a hifind_sketch_kernel_info
                         gauge naming the sketch kernel, and a
                         hifind_process_start_time_seconds gauge),
                         GET /healthz, GET /api/alerts,
                         GET /api/intervals?from=&to=, GET /api/sketch-health,
                         and POST /api/replay (re-run an archived interval
                         window under overridden detection thresholds)
    --history-dir DIR    archive every closed interval's combined sketch
                         snapshot into DIR as CRC-checked segment files, so
                         /api/intervals and /api/replay can reach intervals
                         that have left the in-memory ring
    --event-log FILE     append one schema-versioned JSON object per
                         collection-plane transition (interval close, alert
                         raise/suppress, gap synthesis, checkpoint
                         write/resume, frame rejection, agent reconnect) to
                         FILE; see docs/OBSERVABILITY.md for the schema
    --upstream ADDR      parent address an aggregator ships its combined
                         frames to (the root collector or another
                         aggregator)
    --quorum N           downstream nodes an aggregator expects per interval
    --node-id N          an aggregator's id in upstream frame headers
                         (default 0); give each node of one tier a distinct
                         id, or the parent sees their frames collide
    --connect ADDR       collector address an agent ships to
    --router-id N        this agent's id in frame headers (defaults to the
                         --split part index, else 0)
    --split I/N          replay only part I (0-based) of a per-packet split
                         of the trace across N routers; also the default
                         router id, so N agents launched with parts 0..N
                         identify distinctly without extra flags

    All roles derive sketch seeds from --seed; agents and their collector
    must share it, or frames are rejected by configuration fingerprint.
";

struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                let value = argv.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                if value.is_some() {
                    i += 1;
                }
                flags.push((name.to_string(), value));
            }
            i += 1;
        }
        Args { flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value for --{name}: {raw}")),
        }
    }
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        return Err(USAGE.into());
    };
    let args = Args::parse(&argv[1..]);
    match command.as_str() {
        "generate" => generate(&args),
        "info" => info(&args),
        "detect" => detect(&args),
        "collect" => collect(&args),
        "aggregate" => aggregate(&args),
        "agent" => agent(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}")),
    }
}

fn load_trace(args: &Args) -> Result<Trace, String> {
    let path = args.get("trace").ok_or("missing --trace FILE")?;
    if path.ends_with(".csv") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        hifind_flow::text::parse_csv(&text).map_err(|e| format!("cannot parse {path}: {e}"))
    } else {
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Trace::from_bytes(&bytes).map_err(|e| format!("cannot decode {path}: {e}"))
    }
}

fn generate(args: &Args) -> Result<(), String> {
    let preset = args.get("preset").ok_or("missing --preset <nu|lbl|dos>")?;
    let scale: f64 = args.get_parsed("scale", 0.1)?;
    let seed: u64 = args.get_parsed("seed", 2026)?;
    let out = args.get("out").ok_or("missing --out FILE")?;
    let scenario = match preset {
        "nu" => presets::nu_like(seed),
        "lbl" => presets::lbl_like(seed),
        "dos" => presets::dos_resilience(seed),
        other => return Err(format!("unknown preset '{other}' (use nu, lbl or dos)")),
    }
    .scaled(scale);
    eprintln!("generating {} at scale {scale}...", scenario.name);
    let (trace, truth) = scenario.generate();
    if out.ends_with(".csv") {
        std::fs::write(out, hifind_flow::text::to_csv(&trace))
            .map_err(|e| format!("cannot write {out}: {e}"))?;
    } else {
        std::fs::write(out, trace.to_bytes()).map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    println!("{}", trace.stats());
    println!(
        "{} attack campaigns, {} benign anomalies; written to {out}",
        truth.attacks().count(),
        truth.benign().count()
    );
    Ok(())
}

/// The value of `--metrics-json`, or an error if the flag is present
/// without a file operand.
fn metrics_json_path(args: &Args) -> Result<Option<String>, String> {
    if args.has("metrics-json") && args.get("metrics-json").is_none() {
        return Err("--metrics-json needs a FILE operand".into());
    }
    Ok(args.get("metrics-json").map(String::from))
}

fn write_json<T: serde::Serialize>(path: &str, value: &T) -> Result<(), String> {
    let bytes = serde_json::to_vec_pretty(value).map_err(|e| format!("serialize: {e}"))?;
    std::fs::write(path, bytes).map_err(|e| format!("cannot write {path}: {e}"))
}

fn info(args: &Args) -> Result<(), String> {
    let metrics_json = metrics_json_path(args)?;
    let trace = load_trace(args)?;
    let stats = trace.stats();
    println!("{stats}");
    if let Some(path) = metrics_json {
        write_json(&path, &stats)?;
        eprintln!("trace statistics written to {path}");
    }
    Ok(())
}

fn detect(args: &Args) -> Result<(), String> {
    let metrics_json = metrics_json_path(args)?;
    let trace = load_trace(args)?;
    let seed: u64 = args.get_parsed("seed", 2026)?;
    let interval_secs: u64 = args.get_parsed("interval-secs", 60)?;
    let threshold: f64 = args.get_parsed("threshold-per-sec", 1.0)?;
    let mut cfg = HiFindConfig::paper(seed);
    cfg.interval_ms = interval_secs.max(1) * 1000;
    cfg.threshold_per_sec = threshold;
    cfg.validate()?;
    let workers: usize = args.get_parsed("workers", 0)?;
    let mut ids = HiFind::new(cfg).map_err(|e| e.to_string())?;

    // Telemetry is collected whenever someone will consume it.
    let mut report = (metrics_json.is_some() || args.has("stats")).then(hifind::RunReport::new);
    let log = ids
        .run_trace_with(&trace, workers, report.as_mut())
        .map_err(|e| e.to_string())?;

    if args.has("phases") {
        println!("{:<18}{:>6}{:>10}{:>8}", "type", "raw", "after-2D", "final");
        for kind in [AlertKind::SynFlooding, AlertKind::HScan, AlertKind::VScan] {
            println!(
                "{:<18}{:>6}{:>10}{:>8}",
                kind.to_string(),
                log.count(Phase::Raw, kind),
                log.count(Phase::AfterClassification, kind),
                log.count(Phase::Final, kind),
            );
        }
        println!();
    }

    if log.final_alerts().is_empty() {
        println!("no intrusions detected");
    } else {
        println!("{} final alerts:", log.final_alerts().len());
        for alert in log.final_alerts() {
            println!("  {alert}");
        }
        let blocks = correlate_block_scans(log.final_alerts(), 3, 3);
        for b in &blocks {
            println!("  {b}");
        }
    }

    if args.has("mitigate") {
        let actions = plan(log.final_alerts(), &MitigationPolicy::default());
        println!("\nmitigation plan ({} actions):", actions.len());
        for a in &actions {
            println!("  {a}");
        }
    }

    if let Some(report) = &report {
        if args.has("stats") {
            println!("\n{}", report.summary_text());
        }
        if let Some(path) = &metrics_json {
            write_json(path, report)?;
            eprintln!("run telemetry written to {path}");
        }
    }
    Ok(())
}

/// Parses a `--split I/N` operand into `(part, routers)`.
fn parse_split(raw: &str) -> Result<(usize, usize), String> {
    let (i, n) = raw
        .split_once('/')
        .ok_or_else(|| format!("invalid --split '{raw}' (expected I/N, e.g. 0/3)"))?;
    let part: usize = i
        .parse()
        .map_err(|_| format!("invalid --split part '{i}'"))?;
    let routers: usize = n
        .parse()
        .map_err(|_| format!("invalid --split router count '{n}'"))?;
    if routers == 0 || part >= routers {
        return Err(format!(
            "--split part {part} out of range for {routers} routers"
        ));
    }
    Ok((part, routers))
}

/// Shared detection configuration of the networked roles.
fn networked_config(args: &Args) -> Result<HiFindConfig, String> {
    let seed: u64 = args.get_parsed("seed", 2026)?;
    let interval_secs: u64 = args.get_parsed("interval-secs", 60)?;
    let threshold: f64 = args.get_parsed("threshold-per-sec", 1.0)?;
    let mut cfg = HiFindConfig::paper(seed);
    cfg.interval_ms = interval_secs.max(1) * 1000;
    cfg.threshold_per_sec = threshold;
    cfg.validate()?;
    Ok(cfg)
}

/// Registers the build-identity gauges `/metrics` serves: a constant-1
/// `hifind_build_info` whose help text carries the crate version, plus
/// the process start time in unix seconds.
fn register_build_info(registry: &Registry) -> Result<(), hifind_telemetry::TelemetryError> {
    let help = format!(
        "constant 1; build identity: version={}",
        env!("CARGO_PKG_VERSION")
    );
    registry.gauge("hifind_build_info", &help)?.set(1);
    let start = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| i64::try_from(d.as_secs()).unwrap_or(i64::MAX))
        .unwrap_or(0);
    registry
        .gauge(
            "hifind_process_start_time_seconds",
            "unix time this process started",
        )?
        .set(start);
    // Which sketch kernel this process dispatches to (selected once at
    // startup from HIFIND_FORCE_KERNEL / CPUID): a constant-1 gauge whose
    // help text names the code path, so scraped perf is attributable.
    let kernel_help = format!(
        "constant 1; sketch kernel info: {}",
        hifind_sketch::simd::kernel_info_string()
    );
    registry
        .gauge("hifind_sketch_kernel_info", &kernel_help)?
        .set(1);
    Ok(())
}

/// Runs one receiving tier node — `collect` and `aggregate` alike — to the
/// natural end of its run: parses the policy flags both roles take, brings
/// up the operator plane (observability hub, optional HTTP server) for
/// node `(role, node_id)` expecting `expected` children, starts the node
/// through `bind`, waits for it, takes the plane down and writes
/// `--metrics-json`. `history_dir` is the archive directory of a role
/// that takes one.
fn run_tier<R: serde::Serialize>(
    args: &Args,
    (role, node_id): (&'static str, u32),
    expected: usize,
    history_dir: Option<&str>,
    bind: impl FnOnce(
        HiFindConfig,
        CollectorConfig,
        Option<Registry>,
    ) -> Result<TierHandle<R>, CollectError>,
) -> Result<R, String> {
    let metrics_json = metrics_json_path(args)?;
    let cfg = networked_config(args)?;
    let mut policy = CollectorConfig::new(expected);
    policy.straggler_deadline = Duration::from_millis(args.get_parsed("straggler-ms", 2000u64)?);
    policy.reorder_window = args.get_parsed("reorder-window", 8u64)?;
    policy.linger = Duration::from_millis(args.get_parsed("linger-ms", 400u64)?);
    if let Some(path) = args.get("checkpoint") {
        let mut checkpoint = CheckpointPolicy::new(path);
        checkpoint.every_intervals = args.get_parsed("checkpoint-every", 8u64)?;
        policy.checkpoint = Some(checkpoint);
    }
    if let Some(path) = args.get("resume") {
        policy.resume_from = Some(path.into());
    }

    // Observability plane: history archive, event log, HTTP API. An
    // interior node's forwarded snapshots land in the same history ring
    // (via snapshot_forwarded) as a root's closed intervals.
    let http_addr = args.get("http");
    if args.has("http") && http_addr.is_none() {
        return Err("--http needs an ADDR operand (e.g. 127.0.0.1:9100)".into());
    }
    let registry = http_addr.map(|_| Registry::new());
    let mut hub = None;
    if http_addr.is_some() || history_dir.is_some() || args.has("event-log") {
        let hcfg = history_dir.map_or_else(HistoryConfig::default, HistoryConfig::with_dir);
        let history = Arc::new(
            HistoryStore::open(hcfg, &cfg, registry.as_ref())
                .map_err(|e| format!("cannot open history store: {e}"))?,
        );
        let events = match args.get("event-log") {
            Some(path) => Some(
                EventLog::open(std::path::Path::new(path), cfg.fingerprint())
                    .map_err(|e| format!("cannot open event log {path}: {e}"))?,
            ),
            None => None,
        };
        let h = Arc::new(ObsvHub::new(cfg, history, events).with_identity(role, node_id));
        policy.observer = Some(h.clone());
        hub = Some(h);
    }
    // `--http` always brings a registry and a hub with it.
    let mut server = None;
    if let (Some(addr), Some(hub), Some(r)) = (http_addr, &hub, &registry) {
        register_build_info(r).map_err(|e| format!("cannot register metrics: {e}"))?;
        let state = ApiState {
            hub: Arc::clone(hub),
            registry: Some(Arc::new(r.clone())),
        };
        let http =
            HttpServer::bind(addr, state).map_err(|e| format!("cannot serve --http: {e}"))?;
        eprintln!("operator API on http://{}", http.local_addr());
        server = Some(http);
    }

    let handle = bind(cfg, policy, registry).map_err(|e| format!("cannot start: {e}"))?;
    eprintln!(
        "{role} {node_id} listening on {} for {expected} downstream node(s); finishes \
         once all have connected and disconnected",
        handle.local_addr()
    );
    let report = handle.wait().map_err(|e| format!("{role} failed: {e}"))?;
    if let Some(server) = server {
        server.stop();
    }
    if let Some(h) = &hub {
        // Persist the partial warm-tier spill; without this, intervals
        // that left the hot ring but had not filled a segment would be
        // lost on shutdown.
        if let Err(e) = h.history().flush() {
            eprintln!("history flush failed: {e}");
        }
    }
    if let Some(path) = metrics_json {
        write_json(&path, &report)?;
        eprintln!("{role} report written to {path}");
    }
    Ok(report)
}

/// The checkpoint/resume lines every tier prints after its summary.
fn print_durability(resumed_at: Option<u64>, written: u64, errors: u64) {
    if let Some(iv) = resumed_at {
        eprintln!("resumed from checkpoint at interval {iv}");
    }
    if written > 0 || errors > 0 {
        eprintln!("{written} checkpoint(s) written, {errors} write failure(s)");
    }
}

fn collect(args: &Args) -> Result<(), String> {
    let listen = args.get("listen").ok_or("missing --listen ADDR")?;
    let routers: usize = args.get_parsed("routers", 0)?;
    if routers == 0 {
        return Err("missing --routers N (how many agents to expect)".into());
    }
    let report = run_tier(
        args,
        ("collector", 0),
        routers,
        args.get("history-dir"),
        |cfg, policy, registry| Collector::bind(listen, cfg, policy, registry),
    )?;
    println!(
        "{} intervals ({} complete, {} partial, {} gaps); {} frames, {} bytes, \
         {} late, {} rejected; routers seen: {:?}",
        report.intervals_flushed,
        report.complete_intervals,
        report.partial_intervals,
        report.gap_intervals,
        report.frames_received,
        report.bytes_received,
        report.frames_late,
        report.frames_rejected,
        report.routers_seen,
    );
    print_durability(
        report.resumed_at_interval,
        report.checkpoints_written,
        report.checkpoint_errors,
    );
    if report.log.final_alerts().is_empty() {
        println!("no intrusions detected");
    } else {
        println!("{} final alerts:", report.log.final_alerts().len());
        for alert in report.log.final_alerts() {
            println!("  {alert}");
        }
    }
    Ok(())
}

fn aggregate(args: &Args) -> Result<(), String> {
    let listen = args.get("listen").ok_or("missing --listen ADDR")?;
    let upstream = args.get("upstream").ok_or("missing --upstream ADDR")?;
    let quorum: usize = args.get_parsed("quorum", 0)?;
    if quorum == 0 {
        return Err("missing --quorum N (how many downstream nodes to expect)".into());
    }
    let node_id: u32 = args.get_parsed("node-id", 0)?;
    let report = run_tier(
        args,
        ("aggregator", node_id),
        quorum,
        None,
        |cfg, policy, registry| {
            let acfg = AggregatorConfig {
                straggler_deadline: policy.straggler_deadline,
                reorder_window: policy.reorder_window,
                linger: policy.linger,
                checkpoint: policy.checkpoint,
                resume_from: policy.resume_from,
                observer: policy.observer,
                ..AggregatorConfig::new(node_id, quorum)
            };
            let handle = Aggregator::bind(listen, upstream, cfg, acfg, registry)?;
            eprintln!("shipping to {upstream} as node {node_id}");
            Ok(handle)
        },
    )?;
    println!(
        "node {}: {} intervals forwarded ({} complete, {} partial, {} gaps); \
         {} frames in, {} bytes, {} late, {} rejected; children seen: {:?}",
        report.node_id,
        report.intervals_forwarded,
        report.complete_intervals,
        report.partial_intervals,
        report.gap_intervals,
        report.frames_received,
        report.bytes_received,
        report.frames_late,
        report.frames_rejected,
        report.children_seen,
    );
    print_durability(
        report.resumed_at_interval,
        report.checkpoints_written,
        report.checkpoint_errors,
    );
    if report.frames_unshipped > 0 {
        return Err(format!(
            "{} combined frame(s) never reached the upstream at {upstream}",
            report.frames_unshipped
        ));
    }
    Ok(())
}

fn agent(args: &Args) -> Result<(), String> {
    let addr = args.get("connect").ok_or("missing --connect ADDR")?;
    let trace = load_trace(args)?;
    let cfg = networked_config(args)?;
    let split = args.get("split").map(parse_split).transpose()?;
    // Without a distinct id per agent the collector sees every frame as
    // router 0 and never assembles a complete interval, so the split part
    // doubles as the default id; --router-id still overrides.
    let default_id = split.map_or(0, |(part, _)| part as u32);
    let router_id: u32 = args.get_parsed("router-id", default_id)?;
    let trace = match split {
        Some((part, routers)) => {
            let seed: u64 = args.get_parsed("seed", 2026)?;
            split_per_packet(&trace, routers, seed ^ 0x5011).swap_remove(part)
        }
        None => trace,
    };
    let agent_cfg = AgentConfig {
        workers: args.get_parsed("workers", 0)?,
        ..AgentConfig::new(router_id)
    };
    let mut agent = match args.get("resume") {
        Some(path) => RouterAgent::resume_from_file(addr, &cfg, agent_cfg, path.as_ref())
            .map_err(|e| format!("cannot resume agent: {e}"))?,
        None => RouterAgent::new(addr, &cfg, agent_cfg)
            .map_err(|e| format!("cannot build recorder: {e}"))?,
    };
    if let Some(path) = args.get("event-log") {
        let events = EventLog::open(std::path::Path::new(path), cfg.fingerprint())
            .map_err(|e| format!("cannot open event log {path}: {e}"))?;
        // The agent side only emits transition events; a minimal
        // in-memory history satisfies the hub without archiving.
        let history = Arc::new(
            HistoryStore::open(HistoryConfig::in_memory(1), &cfg, None)
                .map_err(|e| format!("cannot set up event log: {e}"))?,
        );
        agent.set_observer(Arc::new(
            ObsvHub::new(cfg, history, Some(events)).with_identity("agent", router_id),
        ));
    }
    for window in trace.intervals(cfg.interval_ms) {
        for p in window.packets {
            agent.record(p);
        }
        let shipped = agent.end_interval();
        if shipped.queued > 0 {
            eprintln!(
                "interval {}: {} frame(s) backlogged (collector unreachable?)",
                agent.intervals_ended() - 1,
                shipped.queued
            );
        }
    }
    if let Some(path) = args.get("checkpoint") {
        // Flush first so the checkpoint holds only what truly could not
        // ship; whatever remains is re-shipped by a resumed agent.
        agent.flush();
        agent
            .save_checkpoint(std::path::Path::new(path))
            .map_err(|e| format!("cannot write agent checkpoint: {e}"))?;
        eprintln!("agent checkpoint written to {path}");
    }
    let stats = agent.finish();
    println!(
        "router {router_id}: {} intervals, {} frames shipped ({} bytes), \
         {} dropped, {} reconnects, {} send failures",
        stats.frames_enqueued,
        stats.frames_shipped,
        stats.bytes_shipped,
        stats.frames_dropped,
        stats.reconnects,
        stats.send_failures,
    );
    if stats.frames_shipped < stats.frames_enqueued {
        return Err(format!(
            "{} of {} frames never reached the collector",
            stats.frames_enqueued - stats.frames_shipped,
            stats.frames_enqueued
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifind::RunReport;

    fn args(list: &[&str]) -> Args {
        Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    /// `N` distinct loopback addresses on ports the OS just handed out. A
    /// fixed port would sit in the kernel's ephemeral range, where any
    /// client socket on the host — another test's, or another test run's
    /// — may already hold it.
    fn free_addrs<const N: usize>() -> [String; N] {
        let held: Vec<_> = (0..N)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        std::array::from_fn(|i| held[i].local_addr().unwrap().to_string())
    }

    #[test]
    fn parses_flags_with_and_without_values() {
        let a = args(&["--preset", "nu", "--phases", "--scale", "0.5"]);
        assert_eq!(a.get("preset"), Some("nu"));
        assert!(a.has("phases"));
        assert_eq!(a.get_parsed::<f64>("scale", 1.0).unwrap(), 0.5);
        assert_eq!(a.get_parsed::<u64>("seed", 7).unwrap(), 7); // default
    }

    #[test]
    fn flag_followed_by_flag_has_no_value() {
        let a = args(&["--phases", "--mitigate"]);
        assert!(a.has("phases"));
        assert!(a.has("mitigate"));
        assert_eq!(a.get("phases"), None);
    }

    #[test]
    fn invalid_numeric_value_is_an_error() {
        let a = args(&["--scale", "abc"]);
        let err = a.get_parsed::<f64>("scale", 1.0).unwrap_err();
        assert!(err.contains("--scale"));
    }

    #[test]
    fn generate_requires_preset_and_out() {
        assert!(generate(&args(&[])).unwrap_err().contains("--preset"));
        assert!(generate(&args(&["--preset", "nu"]))
            .unwrap_err()
            .contains("--out"));
        assert!(generate(&args(&["--preset", "bogus", "--out", "/tmp/x"]))
            .unwrap_err()
            .contains("unknown preset"));
    }

    #[test]
    fn detect_requires_trace() {
        assert!(detect(&args(&[])).unwrap_err().contains("--trace"));
        assert!(detect(&args(&["--trace", "/nonexistent/file.hfnd"]))
            .unwrap_err()
            .contains("cannot read"));
    }

    #[test]
    fn malformed_binary_trace_is_a_clean_error() {
        let dir = std::env::temp_dir().join(format!("hifind-cli-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Garbage bytes: wrong magic.
        let garbage = dir.join("garbage.hfnd");
        std::fs::write(&garbage, b"this is not a trace file at all").unwrap();
        let err = detect(&args(&["--trace", garbage.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("cannot decode"), "{err}");

        // Truncated: valid header claiming more records than present.
        let full = dir.join("full.hfnd");
        generate(&args(&[
            "--preset",
            "dos",
            "--scale",
            "0.02",
            "--seed",
            "3",
            "--out",
            full.to_str().unwrap(),
        ]))
        .unwrap();
        let bytes = std::fs::read(&full).unwrap();
        let truncated = dir.join("truncated.hfnd");
        std::fs::write(&truncated, &bytes[..bytes.len() - 7]).unwrap();
        let err = detect(&args(&["--trace", truncated.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("cannot decode"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_csv_trace_is_a_clean_error() {
        let dir = std::env::temp_dir().join(format!("hifind-cli-badcsv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.csv");
        std::fs::write(
            &bad,
            "ts_ms,src,sport,dst,dport,kind,direction\nnot,a,valid,row\n",
        )
        .unwrap();
        let err = detect(&args(&["--trace", bad.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("cannot parse"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_json_needs_a_file_operand() {
        let err = detect(&args(&["--trace", "/tmp/x.hfnd", "--metrics-json"])).unwrap_err();
        assert!(err.contains("--metrics-json"), "{err}");
    }

    #[test]
    fn detect_writes_run_report_json() {
        let dir = std::env::temp_dir().join(format!("hifind-cli-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.hfnd");
        let metrics = dir.join("metrics.json");
        generate(&args(&[
            "--preset",
            "dos",
            "--scale",
            "0.03",
            "--seed",
            "9",
            "--out",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        detect(&args(&[
            "--trace",
            trace.to_str().unwrap(),
            "--stats",
            "--metrics-json",
            metrics.to_str().unwrap(),
        ]))
        .unwrap();

        let json = std::fs::read_to_string(&metrics).unwrap();
        let report: RunReport = serde_json::from_str(&json).unwrap();
        assert!(!report.intervals.is_empty());
        assert_eq!(
            report.phase_latency.total.count,
            report.intervals.len() as u64
        );
        assert!(report.phase_latency.total.sum_ns > 0);
        assert!(report.sketch_memory_bytes > 0);
        // Every interval carries the health of all six sketch grids.
        assert!(report
            .intervals
            .iter()
            .all(|iv| iv.sketch_health.len() == 6));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn info_writes_trace_stats_json() {
        let dir = std::env::temp_dir().join(format!("hifind-cli-info-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.hfnd");
        let stats = dir.join("stats.json");
        generate(&args(&[
            "--preset",
            "nu",
            "--scale",
            "0.02",
            "--seed",
            "4",
            "--out",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        info(&args(&[
            "--trace",
            trace.to_str().unwrap(),
            "--metrics-json",
            stats.to_str().unwrap(),
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&stats).unwrap();
        assert!(json.contains("packets"), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_trace_round_trip_through_cli() {
        let dir = std::env::temp_dir().join(format!("hifind-cli-csv-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("t.csv");
        let out_str = out.to_str().unwrap();
        generate(&args(&[
            "--preset", "dos", "--scale", "0.02", "--seed", "6", "--out", out_str,
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.starts_with("ts_ms,src,sport"));
        info(&args(&["--trace", out_str])).unwrap();
        detect(&args(&["--trace", out_str])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn split_operand_parses_and_validates() {
        assert_eq!(parse_split("0/3").unwrap(), (0, 3));
        assert_eq!(parse_split("2/3").unwrap(), (2, 3));
        assert!(parse_split("3/3").unwrap_err().contains("out of range"));
        assert!(parse_split("0/0").unwrap_err().contains("out of range"));
        assert!(parse_split("nope").unwrap_err().contains("expected I/N"));
        assert!(parse_split("a/3").unwrap_err().contains("part"));
        assert!(parse_split("1/b").unwrap_err().contains("router count"));
    }

    #[test]
    fn collect_and_agent_validate_their_flags() {
        assert!(collect(&args(&[])).unwrap_err().contains("--listen"));
        assert!(collect(&args(&["--listen", "127.0.0.1:0"]))
            .unwrap_err()
            .contains("--routers"));
        assert!(agent(&args(&[])).unwrap_err().contains("--connect"));
        assert!(agent(&args(&["--connect", "127.0.0.1:1"]))
            .unwrap_err()
            .contains("--trace"));
        assert!(aggregate(&args(&[])).unwrap_err().contains("--listen"));
        assert!(aggregate(&args(&["--listen", "127.0.0.1:0"]))
            .unwrap_err()
            .contains("--upstream"));
        assert!(aggregate(&args(&[
            "--listen",
            "127.0.0.1:0",
            "--upstream",
            "127.0.0.1:1"
        ]))
        .unwrap_err()
        .contains("--quorum"));
    }

    /// Three tiers over real loopback sockets, end to end through the CLI:
    /// four agents feed two mid-tier aggregators which feed one root
    /// collector. Sketch linearity means the root must assemble every
    /// interval completely — any partial interval would mean a tier
    /// dropped or mis-aligned frames.
    #[test]
    fn three_tier_loopback_smoke() {
        let dir = std::env::temp_dir().join(format!("hifind-cli-tree-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.hfnd");
        let report = dir.join("root.json");
        generate(&args(&[
            "--preset",
            "dos",
            "--scale",
            "0.02",
            "--seed",
            "3",
            "--out",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        let [root, mid0, mid1] = free_addrs();
        let mids = [mid0, mid1];
        // Agents replay sequentially, so every tier must buffer a whole
        // child's run: widen the reorder window and straggler deadline
        // beyond the trace length at every tier.
        let root_args: Vec<String> = [
            "--listen",
            &root,
            "--routers",
            "2",
            "--seed",
            "3",
            "--reorder-window",
            "64",
            "--straggler-ms",
            "30000",
            "--metrics-json",
            report.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let collector = std::thread::spawn(move || collect(&Args::parse(&root_args)));
        std::thread::sleep(std::time::Duration::from_millis(100));
        let aggs: Vec<_> = mids
            .iter()
            .enumerate()
            .map(|(i, listen)| {
                let a: Vec<String> = [
                    "--listen",
                    listen,
                    "--upstream",
                    &root,
                    "--quorum",
                    "2",
                    "--node-id",
                    &i.to_string(),
                    "--seed",
                    "3",
                    "--reorder-window",
                    "64",
                    "--straggler-ms",
                    "30000",
                ]
                .iter()
                .map(|s| s.to_string())
                .collect();
                std::thread::spawn(move || aggregate(&Args::parse(&a)))
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(100));
        // Four agents, split 4 ways: parts 0/1 feed the first aggregator,
        // parts 2/3 the second. Router ids must be distinct per parent.
        for (part, mid) in [(0, 0), (1, 0), (2, 1), (3, 1)] {
            agent(&args(&[
                "--connect",
                &mids[mid],
                "--trace",
                trace.to_str().unwrap(),
                "--split",
                &format!("{part}/4"),
                "--router-id",
                &(part % 2).to_string(),
                "--seed",
                "3",
            ]))
            .unwrap();
        }
        for h in aggs {
            h.join().unwrap().unwrap();
        }
        collector.join().unwrap().unwrap();
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("intervals_flushed"), "{json}");
        assert!(
            json.contains("\"partial_intervals\": 0") || json.contains("\"partial_intervals\":0"),
            "every interval must assemble completely through both tiers: {json}"
        );
        assert!(
            json.contains("\"gap_intervals\": 0") || json.contains("\"gap_intervals\":0"),
            "no tier should have synthesized a gap: {json}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn collect_and_agent_round_trip_over_loopback() {
        let dir = std::env::temp_dir().join(format!("hifind-cli-net-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.hfnd");
        let report = dir.join("report.json");
        generate(&args(&[
            "--preset",
            "dos",
            "--scale",
            "0.02",
            "--seed",
            "3",
            "--out",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        // The collect command blocks until both agents finish, so it runs
        // on its own thread while this one drives the agents.
        let [listen] = free_addrs();
        let listen = listen.as_str();
        // The agents replay sequentially, so the collector must buffer the
        // whole first agent's run: widen the reorder window and deadline
        // beyond the trace length so only router identity is under test.
        let collect_args: Vec<String> = [
            "--listen",
            listen,
            "--routers",
            "2",
            "--seed",
            "3",
            "--reorder-window",
            "64",
            "--straggler-ms",
            "30000",
            "--metrics-json",
            report.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let collector = std::thread::spawn(move || collect(&Args::parse(&collect_args)));
        std::thread::sleep(std::time::Duration::from_millis(100));
        // No --router-id: the split part must serve as the id, or both
        // agents collide on router 0 and no interval ever completes. The
        // second agent records on two shard threads; its frames are
        // bit-identical to inline recording's.
        for (part, workers) in [("0/2", "0"), ("1/2", "2")] {
            agent(&args(&[
                "--connect",
                listen,
                "--trace",
                trace.to_str().unwrap(),
                "--split",
                part,
                "--seed",
                "3",
                "--workers",
                workers,
            ]))
            .unwrap();
        }
        collector.join().unwrap().unwrap();
        let json = std::fs::read_to_string(&report).unwrap();
        assert!(json.contains("intervals_flushed"), "{json}");
        assert!(
            json.contains("\"partial_intervals\": 0") || json.contains("\"partial_intervals\":0"),
            "both agents should be distinct routers: {json}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One raw HTTP/1.1 GET against the operator API; returns (status, body).
    fn http_get(addr: &str, path: &str) -> (u16, String) {
        use std::io::{Read as _, Write as _};
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap();
        let body = match raw.find("\r\n\r\n") {
            Some(i) => raw[i + 4..].to_string(),
            None => String::new(),
        };
        (status, body)
    }

    #[test]
    fn collect_with_http_api_answers_scrapes_mid_run() {
        let dir = std::env::temp_dir().join(format!("hifind-cli-http-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("t.hfnd");
        let events = dir.join("events.jsonl");
        let history = dir.join("history");
        generate(&args(&[
            "--preset",
            "dos",
            "--scale",
            "0.02",
            "--seed",
            "3",
            "--out",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        let [listen, http] = free_addrs();
        let (listen, http) = (listen.as_str(), http.as_str());
        let collect_args: Vec<String> = [
            "--listen",
            listen,
            "--routers",
            "2",
            "--seed",
            "3",
            "--reorder-window",
            "64",
            "--straggler-ms",
            "30000",
            "--http",
            http,
            "--history-dir",
            history.to_str().unwrap(),
            "--event-log",
            events.to_str().unwrap(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let collector = std::thread::spawn(move || collect(&Args::parse(&collect_args)));
        // The API binds before the collector socket, so once it answers
        // the agents can connect too.
        let mut up = false;
        for _ in 0..200 {
            if std::net::TcpStream::connect(http).is_ok() {
                up = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        assert!(up, "operator API never came up on {http}");
        agent(&args(&[
            "--connect",
            listen,
            "--trace",
            trace.to_str().unwrap(),
            "--split",
            "0/2",
            "--seed",
            "3",
        ]))
        .unwrap();
        // Mid-run — the collector is alive and waiting on router 1. Both
        // scrape endpoints must answer with non-empty, parseable bodies.
        let (status, metrics) = http_get(http, "/metrics");
        assert_eq!(status, 200, "{metrics}");
        assert!(
            metrics.contains("# TYPE hifind_build_info gauge"),
            "{metrics}"
        );
        // The collect role stamps its tier identity onto every series.
        assert!(
            metrics.contains("hifind_build_info{tier=\"collector\",node_id=\"0\"} 1"),
            "{metrics}"
        );
        // The sketch kernel this process dispatches to rides beside it.
        assert!(
            metrics.contains("hifind_sketch_kernel_info{tier=\"collector\",node_id=\"0\"} 1"),
            "{metrics}"
        );
        assert!(
            metrics.contains(
                "# HELP hifind_sketch_kernel_info constant 1; sketch kernel info: kernel="
            ),
            "{metrics}"
        );
        assert!(
            metrics.contains("# TYPE hifind_history_archived_total counter"),
            "{metrics}"
        );
        let (status, alerts) = http_get(http, "/api/alerts");
        assert_eq!(status, 200, "{alerts}");
        let parsed: serde_json::Value = serde_json::from_str(&alerts).unwrap();
        assert!(parsed.as_map().is_some(), "{alerts}");
        agent(&args(&[
            "--connect",
            listen,
            "--trace",
            trace.to_str().unwrap(),
            "--split",
            "1/2",
            "--seed",
            "3",
        ]))
        .unwrap();
        collector.join().unwrap().unwrap();
        // The run is over: the event log recorded transitions and the
        // history directory was created. (This short trace fits in the
        // hot ring; warm segment files are covered by tests/replay.rs.)
        assert!(std::fs::metadata(&events).unwrap().len() > 0);
        assert!(history.is_dir());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generate_info_detect_round_trip() {
        let dir = std::env::temp_dir().join(format!("hifind-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("t.hfnd");
        let out_str = out.to_str().unwrap();
        generate(&args(&[
            "--preset", "dos", "--scale", "0.03", "--seed", "5", "--out", out_str,
        ]))
        .unwrap();
        info(&args(&["--trace", out_str])).unwrap();
        detect(&args(&[
            "--trace",
            out_str,
            "--phases",
            "--mitigate",
            "--interval-secs",
            "60",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
