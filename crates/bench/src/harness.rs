//! Shared utilities for the table/figure binaries and the perf bins'
//! provenance header.

use hifind::report::{Alert, AlertKind};
use hifind_flow::{Ip4, SegmentKind, Trace};
use serde::Serialize;
use std::collections::{HashMap, HashSet};

/// The workload scale the binaries run at by default. Override with the
/// `HIFIND_SCALE` environment variable (1.0 ≈ the full preset, which is
/// itself a documented scale-down of the paper's day-long traces).
pub fn scale() -> f64 {
    std::env::var("HIFIND_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.2)
}

/// Seed used by all binaries (override with `HIFIND_SEED`).
pub fn seed() -> u64 {
    std::env::var("HIFIND_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2026)
}

/// Prints a section header for a table/figure.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Prints one aligned table row.
pub fn row(cells: &[&str], widths: &[usize]) {
    let mut line = String::new();
    for (cell, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{cell:<w$}", w = w + 2));
    }
    println!("{}", line.trim_end());
}

/// Writes a JSON result blob next to the printed table so EXPERIMENTS.md
/// regeneration is scriptable (`results/<name>.json`).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return; // benches may run in a read-only checkout; printing suffices
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_vec_pretty(value) {
        Ok(bytes) => {
            if let Err(e) = std::fs::write(&path, bytes) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

/// Where a perf measurement came from, written as the `provenance` object
/// of every `results/BENCH_*.json`. The fields carry the names the
/// end-to-end benchmark (`benchmark/src/host.rs`) uses, so a bench JSON
/// and a ledger run can be set side by side.
#[derive(Clone, Debug, Serialize)]
pub struct Provenance {
    /// Commit of the checkout (`git rev-parse HEAD`), `unknown` outside a
    /// git checkout.
    pub git_sha: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Kernel release.
    pub kernel: String,
    /// CPUs online.
    pub nproc: usize,
    /// CPUs this process may use (`std::thread::available_parallelism`).
    pub machine_parallelism: usize,
    /// cgroup v2 `cpu.max`.
    pub cgroup_cpu_max: String,
    /// Selected sketch kernel, detected ISA and any forced override.
    pub sketch_kernel: String,
    /// Whether the bench ran its shrunken `--quick` workload.
    pub quick: bool,
}

/// Stdout of `program args...` run from the workspace root, trimmed;
/// `None` if it cannot start or fails.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

impl Provenance {
    /// Collects the provenance of this process.
    pub fn collect(quick: bool) -> Provenance {
        let unknown = || "unknown".to_string();
        let nproc = read_trimmed("/proc/stat").map_or(0, |stat| {
            stat.lines()
                .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
                .count()
        });
        Provenance {
            git_sha: command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
            rustc: command_output("rustc", &["--version"]).unwrap_or_else(unknown),
            kernel: read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(unknown),
            nproc,
            machine_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cgroup_cpu_max: read_trimmed("/sys/fs/cgroup/cpu.max").unwrap_or_else(unknown),
            sketch_kernel: hifind_sketch::simd::kernel_info_string(),
            quick,
        }
    }
}

/// The identity sets of two alert lists plus their overlap — the shape of
/// the paper's Tables 5 and 6.
#[derive(Clone, Debug, Serialize)]
pub struct OverlapCounts {
    /// |A|.
    pub a: usize,
    /// |B|.
    pub b: usize,
    /// |A ∩ B|.
    pub overlap: usize,
}

/// Compares HiFIND horizontal-scan alerts against TRW-flagged sources,
/// aggregating both by source IP (as Table 5 does).
pub fn hscan_overlap_by_source(hifind_alerts: &[Alert], trw_sources: &[Ip4]) -> OverlapCounts {
    let hifind: HashSet<u32> = hifind_alerts
        .iter()
        .filter(|a| a.kind == AlertKind::HScan)
        .filter_map(|a| a.sip.map(Ip4::raw))
        .collect();
    let trw: HashSet<u32> = trw_sources.iter().map(|s| s.raw()).collect();
    OverlapCounts {
        a: trw.len(),
        b: hifind.len(),
        overlap: hifind.intersection(&trw).count(),
    }
}

/// Per-(SIP, Dport) distinct-destination counts — used by Tables 7/8 to
/// report the `#DIP` column for detected horizontal scans.
pub fn distinct_dips_per_scanner(trace: &Trace) -> HashMap<(u32, u16), usize> {
    let mut sets: HashMap<(u32, u16), HashSet<u32>> = HashMap::new();
    for p in trace.iter() {
        if p.kind == SegmentKind::Syn {
            sets.entry((p.src.raw(), p.dport))
                .or_default()
                .insert(p.dst.raw());
        }
    }
    sets.into_iter().map(|(k, v)| (k, v.len())).collect()
}

/// Exact per-{SIP,DIP} unresponded-SYN and distinct-port counts per
/// interval — the underlying quantity of Figure 4.
pub fn pair_port_profile(
    trace: &Trace,
    interval_ms: u64,
    min_unresponded: i64,
) -> Vec<(Ip4, Ip4, usize)> {
    let mut out = Vec::new();
    for window in trace.intervals(interval_ms) {
        let mut unresp: HashMap<(u32, u32), i64> = HashMap::new();
        let mut ports: HashMap<(u32, u32), HashSet<u16>> = HashMap::new();
        for p in window.packets {
            let o = p.orient().expect("TCP segments orient");
            let key = (o.client.raw(), o.server.raw());
            match o.kind {
                SegmentKind::Syn => {
                    *unresp.entry(key).or_insert(0) += 1;
                    ports.entry(key).or_default().insert(o.server_port);
                }
                SegmentKind::SynAck => {
                    *unresp.entry(key).or_insert(0) -= 1;
                }
                _ => {}
            }
        }
        for (key, count) in unresp {
            if count > min_unresponded {
                let distinct = ports.get(&key).map(HashSet::len).unwrap_or(0);
                out.push((Ip4::new(key.0), Ip4::new(key.1), distinct));
            }
        }
    }
    out
}

/// Buckets a list of distinct-port counts into a histogram with
/// exponential bin edges (1, 2, 3–4, 5–8, ..., >512) for Figure 4.
pub fn port_histogram(counts: &[usize]) -> Vec<(String, usize)> {
    let edges: [(usize, usize, &str); 8] = [
        (1, 1, "1"),
        (2, 2, "2"),
        (3, 4, "3-4"),
        (5, 8, "5-8"),
        (9, 32, "9-32"),
        (33, 128, "33-128"),
        (129, 512, "129-512"),
        (513, usize::MAX, ">512"),
    ];
    edges
        .iter()
        .map(|&(lo, hi, label)| {
            (
                label.to_string(),
                counts.iter().filter(|&&c| c >= lo && c <= hi).count(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifind_flow::Packet;

    #[test]
    fn overlap_counting() {
        let alerts = vec![
            Alert {
                kind: AlertKind::HScan,
                sip: Some([1, 1, 1, 1].into()),
                dip: None,
                dport: Some(80),
                interval: 0,
                magnitude: 100,
                attacker_identified: true,
            },
            Alert {
                kind: AlertKind::HScan,
                sip: Some([2, 2, 2, 2].into()),
                dip: None,
                dport: Some(22),
                interval: 0,
                magnitude: 100,
                attacker_identified: true,
            },
        ];
        let trw = vec![Ip4::from([1, 1, 1, 1]), Ip4::from([3, 3, 3, 3])];
        let o = hscan_overlap_by_source(&alerts, &trw);
        assert_eq!((o.a, o.b, o.overlap), (2, 2, 1));
    }

    #[test]
    fn distinct_dips() {
        let mut t = Trace::new();
        let s: Ip4 = [6, 6, 6, 6].into();
        for i in 0..10u32 {
            t.push(Packet::syn(i as u64, s, 1, [10, 0, 0, i as u8].into(), 445));
        }
        t.push(Packet::syn(99, s, 1, [10, 0, 0, 0].into(), 445)); // repeat
        let m = distinct_dips_per_scanner(&t);
        assert_eq!(m[&(s.raw(), 445)], 10);
    }

    #[test]
    fn pair_profile_flags_heavy_pairs_with_port_count() {
        let mut t = Trace::new();
        let a: Ip4 = [6, 6, 6, 6].into();
        let v: Ip4 = [10, 0, 0, 1].into();
        for port in 0..80u16 {
            t.push(Packet::syn(port as u64, a, 1, v, port));
        }
        let profile = pair_port_profile(&t, 60_000, 50);
        assert_eq!(profile.len(), 1);
        assert_eq!(profile[0].2, 80);
    }

    #[test]
    fn histogram_bins() {
        let h = port_histogram(&[1, 1, 2, 6, 600]);
        let total: usize = h.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 5);
        assert_eq!(h[0], ("1".into(), 2));
        assert_eq!(h[3], ("5-8".into(), 1));
        assert_eq!(h[7], (">512".into(), 1));
    }

    /// Every checked-in perf JSON says where its numbers came from.
    #[test]
    fn bench_jsons_carry_provenance() {
        let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
        let mut checked = 0;
        for entry in std::fs::read_dir(dir).expect("results/ exists") {
            let path = entry.expect("readable entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).expect("readable JSON");
            let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
            let provenance = json
                .get("provenance")
                .unwrap_or_else(|| panic!("{name} has no provenance object"));
            for field in ["git_sha", "kernel", "sketch_kernel"] {
                let value = provenance.get(field).and_then(serde_json::Value::as_str);
                assert!(
                    value.is_some_and(|v| !v.is_empty()),
                    "{name}: provenance.{field} missing or empty"
                );
            }
            assert!(
                matches!(
                    provenance.get("machine_parallelism"),
                    Some(serde_json::Value::UInt(n)) if *n >= 1
                ),
                "{name}: provenance.machine_parallelism missing or zero"
            );
            checked += 1;
        }
        assert!(checked > 0, "no results/BENCH_*.json found");
    }
}
