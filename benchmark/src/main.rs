//! The repo's end-to-end benchmark: one binary, one process, one driver
//! thread, pinned to one core, replaying a fixed number of intervals in
//! lockstep through the real public entry points and measuring every layer
//! from outside. See `README.md` beside `Cargo.toml`.

mod drive;
mod heap;
mod host;
mod layers;
mod oracle;
mod repeat;
mod run;
mod stats;
mod suite;
mod trace;

use run::{Metric, Options, Outcome};
use serde::Value;
use std::process::ExitCode;

#[global_allocator]
static HEAP: heap::Counted = heap::Counted;

const USAGE: &str = "\
usage: hifind-benchmark --workload <name> [--seed N] [--seconds N] [--trace [0|1]] [--quick]
       hifind-benchmark --all [--seed N] [--seconds N] [--trace [0|1]] [--quick]
       hifind-benchmark --check-repeat [--runs N] [--seed N] [--seconds N] [--quick]

workloads: campus-fleet, flood-record, idle-tiered, scan-storm
  --seed N        seed of the generated traffic (default 2026)
  --seconds N     run length the CI driver passes; 20 (default) plays each workload's fixed
                  pass count, any other value scales it; only equal --seconds compare
  --trace [0|1]   traced run: per-layer metrics and benchmark/out/trace-<workload>.json
  --quick         10 measured intervals, a smoke run; never compare its numbers
  --all           every workload, each in a process of its own
  --check-repeat  two interleaved sets of runs per workload, compared at half the bound
  --runs N        runs per set for --check-repeat (default 3)";

struct Cli {
    workload: Option<String>,
    all: bool,
    check_repeat: bool,
    runs: usize,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        all: false,
        check_repeat: false,
        runs: 3,
        seed: suite::DEFAULT_SEED,
        seconds: suite::DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let mut i = 0;
    let number = |flag: &str, v: Option<&String>| -> Result<u64, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        v.parse::<u64>()
            .map_err(|e| format!("invalid value for {flag}: {v}: {e}"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        match flag {
            "--workload" => {
                cli.workload = Some(args.get(i).ok_or("--workload needs a name")?.clone());
                i += 1;
            }
            "--seed" => {
                cli.seed = number(flag, args.get(i))?;
                i += 1;
            }
            "--seconds" => {
                cli.seconds = number(flag, args.get(i))?;
                i += 1;
            }
            "--runs" => {
                cli.runs = number(flag, args.get(i))? as usize;
                i += 1;
            }
            "--trace" => match args.get(i).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    cli.trace = true;
                    i += 1;
                }
                _ => cli.trace = true,
            },
            "--all" => cli.all = true,
            "--check-repeat" => cli.check_repeat = true,
            "--quick" => cli.quick = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.check_repeat {
        return repeat::check(cli.runs.max(3), cli.seed, cli.seconds, cli.quick);
    }
    if cli.all {
        return repeat::run_all(cli.seed, cli.seconds, cli.trace, cli.quick);
    }
    let Some(name) = &cli.workload else {
        eprintln!("error: name a workload, or --all\n{USAGE}");
        return ExitCode::from(2);
    };
    let Some(spec) = suite::find(name) else {
        eprintln!("error: unknown workload: {name}\n{USAGE}");
        return ExitCode::from(2);
    };
    let options = Options {
        spec,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        quick: cli.quick,
    };
    println!(
        "hifind-benchmark {} seed={} seconds={} trace={}{}",
        spec.name,
        options.seed,
        options.seconds,
        u8::from(options.trace),
        if options.quick {
            "  QUICK: never compare"
        } else if options.seconds != suite::DEFAULT_SECONDS {
            "  (not the contract's run length: compare only with runs at the same --seconds)"
        } else {
            ""
        }
    );
    println!("why: {}", spec.why);
    match run::run(options) {
        Ok(outcome) => report(&outcome),
        Err(e) => {
            println!("error: {e}");
            println!("correct=false");
            ExitCode::FAILURE
        }
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<38} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// Prints the human-readable report and, last, the one-line result.
fn report(o: &Outcome) -> ExitCode {
    let p = &o.provenance;
    println!(
        "provenance: git={} rustc=\"{}\" kernel={} nproc={} machine_parallelism={} cgroup_cpu_max=\"{}\" sketch=\"{}\"",
        p.git_sha, p.rustc, p.kernel, p.nproc, p.machine_parallelism, p.cgroup_cpu_max, p.sketch_kernel
    );
    println!(
        "input: trafficgen.generate_s={:.3} packets_per_pass={} windows={} routers={}",
        o.generate_s, o.packets_per_pass, o.options.spec.windows, o.options.spec.routers
    );
    println!(
        "measured: passes={} intervals={} close_to_alert_samples={} wall_s={:.3} (closed loop, 1 client, fixed work)",
        o.measured_passes, o.samples, o.samples, o.measured_wall_s
    );
    let walls = &o.pass_wall_s;
    println!(
        "passes: wall_s min={:.4} median={:.4} max={:.4}; largest heap peak of any interval {:.1} MB",
        stats::percentile(walls, 0.0),
        stats::median(walls),
        stats::percentile(walls, 1.0),
        o.max_peak_heap_mb
    );
    if o.options.trace {
        print_metrics("per-layer (traced run, one core):", &o.per_layer);
        if let Some(path) = &o.trace_file {
            println!("trace: {}", path.display());
        }
    }
    // A traced run measures the same end-to-end metrics, with spans being
    // recorded on every other pass; they are shown for orientation only.
    let title = if o.options.trace {
        "end-to-end (traced run; compare only --trace 0 runs):"
    } else {
        "end-to-end (one core):"
    };
    print_metrics(title, &o.end_to_end);
    let n = &o.noise;
    println!(
        "host noise (evidence only, never used to normalise): pinned={} cpu={} other_cpus_busy_pct={:.1} steal_pct={:.2} canary_before_ms={:.1} canary_after_ms={:.1}",
        n.pinned_cpu.is_some(),
        n.pinned_cpu.map_or("none".to_string(), |c| c.to_string()),
        n.other_cpus_busy_pct,
        n.steal_pct,
        n.canary_before_ms,
        n.canary_after_ms
    );
    let or = &o.oracle;
    println!(
        "oracle: intervals_replayed={} held_to_settled_alerts={} of {} mismatched={} detected={}/{} false_positives={} floors_hold={}",
        or.intervals_replayed,
        or.intervals_held,
        o.attempted / o.options.spec.routers as u64,
        or.mismatched.len(),
        or.detected,
        or.total_true,
        or.false_positives,
        or.floors_hold
    );
    for why in &o.failures {
        println!("failure: {why}");
    }
    if o.options.quick {
        println!("QUICK: never compare");
    }
    println!(
        "attempted={} failed={} correct={}",
        o.attempted,
        o.failed,
        o.correct()
    );

    let shown = if o.options.trace {
        &o.per_layer
    } else {
        &o.end_to_end
    };
    let metrics = shown
        .iter()
        .map(|m| {
            let entry = vec![
                ("value".to_string(), Value::Float(m.value)),
                ("unit".to_string(), Value::Str(m.unit.to_string())),
            ];
            (m.name.to_string(), Value::Map(entry))
        })
        .collect();
    let line = Value::Map(vec![
        ("correct".to_string(), Value::Bool(o.correct())),
        ("attempted".to_string(), Value::UInt(o.attempted)),
        ("failed".to_string(), Value::UInt(o.failed)),
        ("metrics".to_string(), Value::Map(metrics)),
    ]);
    match serde_json::to_string(&line) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            println!("error: cannot print the result: {e}");
            return ExitCode::FAILURE;
        }
    }
    if o.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
