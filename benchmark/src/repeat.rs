//! Runs of the benchmark as child processes: `--all`, and `--check-repeat`,
//! which shows that two sets of runs of the same code agree.
//!
//! Every run is a process of its own, so each picks its CPU afresh and
//! its resident peak and CPU clock start from nothing.

use crate::run::END_TO_END;
use crate::stats::{median, relative_difference};
use crate::suite;
use serde::Value;
use std::process::{Command, ExitCode};

/// One child run's result line, parsed.
struct Child {
    correct: bool,
    metrics: Vec<(String, f64)>,
}

/// Runs one workload in a child process, echoing its report.
fn spawn(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    echo: bool,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    let last = stdout.lines().last().unwrap_or_default();
    let parsed: Value = serde_json::from_str(last)
        .map_err(|e| format!("{workload}: no result line ({e}); exit {}", output.status))?;
    let correct =
        matches!(parsed.get("correct"), Some(Value::Bool(true))) && output.status.success();
    let metrics = parsed
        .get("metrics")
        .and_then(Value::as_map)
        .ok_or_else(|| format!("{workload}: result line has no metrics"))?
        .iter()
        .filter_map(|(name, m)| {
            let value = match m.get("value")? {
                Value::Float(f) => *f,
                Value::UInt(u) => *u as f64,
                Value::Int(i) => *i as f64,
                _ => return None,
            };
            Some((name.clone(), value))
        })
        .collect();
    Ok(Child { correct, metrics })
}

/// `--all`: every workload once, in suite order.
pub fn run_all(seed: u64, seconds: u64, trace: bool, quick: bool) -> ExitCode {
    let mut ok = true;
    for spec in &suite::ALL {
        match spawn(spec.name, seed, seconds, trace, quick, true) {
            Ok(child) => ok &= child.correct,
            Err(e) => {
                println!("error: {e}");
                ok = false;
            }
        }
        println!();
    }
    println!("all workloads correct={ok}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--check-repeat`: sets A and B of `runs` runs per workload, interleaved
/// ABAB, must agree on every metric's median within half its bound.
pub fn check(runs: usize, seed: u64, seconds: u64, quick: bool) -> ExitCode {
    println!("check-repeat: {runs} runs per set, sets interleaved ABAB, seed={seed} seconds={seconds}; a difference above HALF the bound fails");
    if quick {
        println!("QUICK: never compare");
    }
    let mut ok = true;
    for spec in &suite::ALL {
        let (mut a, mut b): (Vec<Child>, Vec<Child>) = (Vec::new(), Vec::new());
        for i in 0..2 * runs {
            match spawn(spec.name, seed, seconds, false, quick, false) {
                Ok(child) => {
                    if !child.correct {
                        println!("{}: run {i} was not correct", spec.name);
                        ok = false;
                    }
                    if i % 2 == 0 {
                        a.push(child)
                    } else {
                        b.push(child)
                    }
                }
                Err(e) => {
                    println!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        println!(
            "{:<14} {:<32} {:>14} {:>14} {:>8} {:>7}",
            spec.name, "metric", "median A", "median B", "diff", "bound/2"
        );
        for (name, _unit, _better, bound) in END_TO_END {
            let of = |set: &[Child]| -> Vec<f64> {
                set.iter()
                    .filter_map(|c| c.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                    .collect()
            };
            let (ma, mb) = (median(&of(&a)), median(&of(&b)));
            let diff = relative_difference(ma, mb);
            let pass = diff.abs() <= bound / 2.0;
            ok &= pass;
            println!(
                "{:<14} {:<32} {:>14.4} {:>14.4} {:>+7.2}% {:>6.2}%  {}",
                "",
                name,
                ma,
                mb,
                100.0 * diff,
                50.0 * bound,
                if pass { "ok" } else { "FAIL" }
            );
        }
    }
    println!("check-repeat {}", if ok { "PASSED" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
