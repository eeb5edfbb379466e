//! **Paper traces** — every result the paper reads off its two traces:
//! Tables 4–8, Figure 4, §5.2 and §5.4.
//!
//! The NU-like and LBL-like traces are generated once each and sent once
//! each through the paper-config sketch pipeline. Each section below
//! derives its table from those runs, runs a comparison detector (TRW,
//! CPM, the exact flow tables) once per trace where it needs one, prints
//! the table and writes `results/<section>.json`.
//!
//! Run: `cargo run --release -p hifind-bench --bin paper_traces`
//! (`HIFIND_SCALE` scales the workloads, default 0.2; `HIFIND_SEED` seeds
//! them).

use hifind::evaluate::evaluate;
use hifind::{AlertKind, AlertLog, HiFind, HiFindConfig, Phase};
use hifind_baselines::{backscatter_validate, Cpm, CpmConfig, Trw, TrwConfig};
use hifind_bench::harness::{
    distinct_dips_per_scanner, hscan_overlap_by_source, pair_port_profile, port_histogram, row,
    scale, section, seed, write_json,
};
use hifind_bench::ExactHiFind;
use hifind_flow::Trace;
use hifind_trafficgen::{presets, EventClass, GroundTruth, Scenario};
use serde::Serialize;
use std::collections::BTreeSet;

/// One trace and what the paper-config sketch pipeline made of it.
struct TraceRun {
    name: &'static str,
    trace: Trace,
    truth: GroundTruth,
    /// The deduplicated alert log after the last interval.
    log: AlertLog,
    /// Intervals in which at least one final flooding alert fired.
    flood_intervals: BTreeSet<u64>,
    sketch_memory_bytes: usize,
}

impl TraceRun {
    fn new(name: &'static str, scenario: Scenario, cfg: HiFindConfig) -> TraceRun {
        eprintln!("[paper_traces] generating {name}...");
        let (trace, truth) = scenario.generate();
        eprintln!("[paper_traces]   {}", trace.stats());
        let mut ids = HiFind::new(cfg).expect("paper config");
        // Final alerts are deduplicated per attack, so the log cannot say
        // in which intervals a flooding was flagged; each interval's own
        // `fin` list can.
        let mut flood_intervals = BTreeSet::new();
        for window in trace.intervals(cfg.interval_ms) {
            ids.record_all(window.packets);
            let outcome = ids.end_interval();
            if outcome.fin.iter().any(|a| a.kind == AlertKind::SynFlooding) {
                flood_intervals.insert(outcome.interval);
            }
        }
        TraceRun {
            name,
            trace,
            truth,
            log: ids.log().clone(),
            flood_intervals,
            sketch_memory_bytes: ids.recorder().memory_bytes(),
        }
    }
}

fn main() {
    let (cfg, s) = (HiFindConfig::paper(seed()), scale());
    let runs = [
        TraceRun::new("NU-like", presets::nu_like(seed()).scaled(s), cfg),
        TraceRun::new("LBL-like", presets::lbl_like(seed()).scaled(s), cfg),
    ];
    let nu = &runs[0];
    table4(&runs);
    table5(&runs);
    table6(&runs, cfg);
    tables7_8(nu);
    figure4(nu);
    sketch_vs_exact(&runs, cfg);
    validate_backscatter(nu);
}

/// **Table 4** — detection results under the three pipeline phases on the
/// NU-like and LBL-like workloads.
///
/// Paper shape to reproduce: phase 2 (2D sketches) trims port-scan false
/// positives, phase 3 (heuristics) trims SYN-flooding false positives; on
/// the LBL-like trace *all* raw flooding alerts are benign noise and die
/// in phase 3.
fn table4(runs: &[TraceRun]) {
    #[derive(Serialize)]
    struct TraceResult {
        trace: &'static str,
        rows: Vec<(&'static str, usize, usize, usize)>,
        recall_flooding: f64,
        recall_hscan: f64,
        recall_vscan: f64,
        false_positives_final: usize,
    }
    let results: Vec<TraceResult> = runs
        .iter()
        .map(|r| {
            let summary = evaluate(r.log.final_alerts(), &r.truth);
            let rows = [
                ("SYN flooding", AlertKind::SynFlooding),
                ("Hscan", AlertKind::HScan),
                ("Vscan", AlertKind::VScan),
            ]
            .map(|(label, kind)| {
                let count = |phase| r.log.count(phase, kind);
                (
                    label,
                    count(Phase::Raw),
                    count(Phase::AfterClassification),
                    count(Phase::Final),
                )
            });
            TraceResult {
                trace: r.name,
                rows: rows.to_vec(),
                recall_flooding: summary.flooding.recall(),
                recall_hscan: summary.hscan.recall(),
                recall_vscan: summary.vscan.recall(),
                false_positives_final: summary.flooding.false_positives()
                    + summary.hscan.false_positives()
                    + summary.vscan.false_positives(),
            }
        })
        .collect();

    section("Table 4: detection results under three phases");
    let widths = [10, 14, 14, 18, 16];
    row(
        &[
            "Trace",
            "Attack type",
            "Phase1: raw",
            "Phase2: port scan",
            "Phase3: flooding",
        ],
        &widths,
    );
    for r in &results {
        for (i, (label, raw, p2, p3)) in r.rows.iter().enumerate() {
            let trace = if i == 0 { r.trace } else { "" };
            let counts = [raw, p2, p3].map(ToString::to_string);
            row(&[trace, label, &counts[0], &counts[1], &counts[2]], &widths);
        }
    }
    println!();
    for r in &results {
        println!(
            "{}: final-phase recall — flooding {:.2}, hscan {:.2}, vscan {:.2}; residual FP: {}",
            r.trace, r.recall_flooding, r.recall_hscan, r.recall_vscan, r.false_positives_final
        );
    }
    println!(
        "\npaper shape: Hscan/Vscan counts drop raw→phase2; flooding drops phase2→phase3;\n\
         LBL flooding goes to (near) zero because the trace has no true flooding."
    );
    write_json("table4", &results);
}

/// **Table 5** — horizontal-scan detection: HiFIND vs TRW, aggregated by
/// source IP, with the overlap between the two detectors.
///
/// Paper shape: large overlap; a few scans only HiFIND finds (scans with
/// interleaved successful connections stall TRW's walk) and a few only TRW
/// finds (slow scans below HiFIND's per-interval threshold whose evidence
/// TRW accumulates across the whole trace).
fn table5(runs: &[TraceRun]) {
    #[derive(Serialize)]
    struct OverlapRow {
        data: &'static str,
        trw: usize,
        hifind: usize,
        overlap: usize,
    }
    let results: Vec<OverlapRow> = runs
        .iter()
        .map(|r| {
            eprintln!("[paper_traces] running TRW on {}...", r.name);
            let (trw_alerts, _) = Trw::detect(&r.trace, TrwConfig::default());
            let trw_sources: Vec<_> = trw_alerts.iter().map(|a| a.source).collect();
            let o = hscan_overlap_by_source(r.log.final_alerts(), &trw_sources);
            OverlapRow {
                data: r.name,
                trw: o.a,
                hifind: o.b,
                overlap: o.overlap,
            }
        })
        .collect();

    section("Table 5: Hscan detection comparison (by source IP)");
    let widths = [10, 8, 8, 16];
    row(&["Data", "TRW", "HiFIND", "Overlap number"], &widths);
    for r in &results {
        let counts = [r.trw, r.hifind, r.overlap].map(|n| n.to_string());
        row(&[r.data, &counts[0], &counts[1], &counts[2]], &widths);
    }
    for r in &results {
        println!(
            "{}: {} scanners found only by HiFIND (TRW stalled by successes), \
             {} only by TRW (too slow/stealthy for the interval threshold)",
            r.data,
            r.hifind - r.overlap,
            r.trw - r.overlap
        );
    }
    write_json("table5", &results);
}

/// **Table 6** — TCP SYN flooding detection: HiFIND vs CPM, counted in
/// flagged one-minute intervals, with the overlap.
///
/// Paper shape: on the NU-like trace the two mostly agree (floodings
/// dominate the aggregate); on the LBL-like trace CPM flags a large number
/// of intervals although there is **no** flooding at all — its aggregate
/// SYN/FIN balance cannot tell the heavy scanning apart — while HiFIND
/// reports (near) zero.
fn table6(runs: &[TraceRun], cfg: HiFindConfig) {
    #[derive(Serialize)]
    struct Row {
        data: &'static str,
        cpm_intervals: usize,
        hifind_intervals: usize,
        overlap: usize,
    }
    let results: Vec<Row> = runs
        .iter()
        .map(|r| {
            eprintln!("[paper_traces] running CPM on {}...", r.name);
            let cpm_intervals: BTreeSet<u64> =
                Cpm::detect_intervals(&r.trace, cfg.interval_ms, CpmConfig::default())
                    .into_iter()
                    .collect();
            Row {
                data: r.name,
                cpm_intervals: cpm_intervals.len(),
                hifind_intervals: r.flood_intervals.len(),
                overlap: cpm_intervals.intersection(&r.flood_intervals).count(),
            }
        })
        .collect();

    section("Table 6: SYN flooding detection comparison (flagged intervals)");
    let widths = [10, 8, 8, 16];
    row(&["Data", "CPM", "HiFIND", "Overlap number"], &widths);
    for r in &results {
        let counts = [r.cpm_intervals, r.hifind_intervals, r.overlap].map(|n| n.to_string());
        row(&[r.data, &counts[0], &counts[1], &counts[2]], &widths);
    }
    println!(
        "\npaper shape: LBL row — CPM flags many intervals (scans inflate the aggregate\n\
         SYN/FIN imbalance) while HiFIND, which detects at the flow level and filters\n\
         false positives, reports (near) zero."
    );
    write_json("table6", &results);
}

/// **Tables 7 & 8** — the top-5 and bottom-5 detected horizontal scans by
/// change difference, with their destination fan-out and cause label.
///
/// Paper shape: the top of the list is dominated by large worm/botnet
/// sweeps (SQLSnake on 1433, SSH scans, MySQL bots, Rahack) with tens of
/// thousands of targets; the bottom consists of minimal worm probes
/// (MSBlast/Nachi on 135, Sasser on 445/5554, NetBIOS on 139) that barely
/// cross the threshold.
fn tables7_8(nu: &TraceRun) {
    #[derive(Serialize)]
    struct ScanRow {
        sip: String,
        dport: u16,
        dips: usize,
        change: i64,
        cause: String,
    }
    let fanout = distinct_dips_per_scanner(&nu.trace);
    let mut scans: Vec<ScanRow> = nu
        .log
        .final_alerts()
        .iter()
        .filter(|a| a.kind == AlertKind::HScan)
        .map(|a| {
            let sip = a.sip.expect("hscan sip");
            let dport = a.dport.expect("hscan dport");
            let cause = nu
                .truth
                .find_match(Some(sip), None, Some(dport))
                .map(|e| e.label.clone())
                .unwrap_or_else(|| "unknown".into());
            ScanRow {
                sip: sip.to_string(),
                dport,
                dips: fanout.get(&(sip.raw(), dport)).copied().unwrap_or(0),
                change: a.magnitude,
                cause,
            }
        })
        .collect();
    scans.sort_by_key(|s| std::cmp::Reverse(s.change));

    let widths = [18, 8, 8, 8, 30];
    let print = |title: &str, rows: &[ScanRow]| {
        section(title);
        row(&["SIP", "Dport", "#DIP", "Δ", "Cause"], &widths);
        for r in rows {
            let nums = [
                r.dport.to_string(),
                r.dips.to_string(),
                r.change.to_string(),
            ];
            row(&[&r.sip, &nums[0], &nums[1], &nums[2], &r.cause], &widths);
        }
    };
    let n = scans.len();
    let (top, bottom) = (&scans[..n.min(5)], &scans[n.saturating_sub(5)..]);
    print("Table 7: top-5 Hscans by change difference", top);
    print("Table 8: bottom-5 Hscans by change difference", bottom);
    println!(
        "\n({n} Hscans detected in total; paper's NU experiment reports 936 at full\n\
         trace scale — counts scale with HIFIND_SCALE, the ordering shape is the claim)"
    );
    write_json("table7_8", &scans);
}

/// **Figure 4** — the bi-modal distribution of the number of unique
/// destination ports visited by {SIP, DIP} pairs with more than 50
/// un-responded SYNs in a one-minute interval.
///
/// Paper shape: two separated modes — SYN floodings concentrate on one or
/// two ports (left mode), vertical scans spread over many (right mode),
/// with a near-empty valley in between. This bi-modality is what makes the
/// 2D sketch's concentration test work.
///
/// The NU-like mix contains both floodings (non-spoofed → heavy {SIP,DIP}
/// pairs on one port) and vertical scans (heavy pairs over many ports).
fn figure4(nu: &TraceRun) {
    #[derive(Serialize)]
    struct Figure4 {
        bins: Vec<(String, usize)>,
        pairs: usize,
        left_mode: usize,
        valley: usize,
        right_mode: usize,
    }
    let profile = pair_port_profile(&nu.trace, 60_000, 50);
    let counts: Vec<usize> = profile.iter().map(|&(_, _, c)| c).collect();
    // Quantify bi-modality: mass at ≤2 ports (flooding mode), mass at >32
    // ports (scan mode), and the valley between.
    let fig = Figure4 {
        bins: port_histogram(&counts),
        pairs: counts.len(),
        left_mode: counts.iter().filter(|&&c| c <= 2).count(),
        valley: counts.iter().filter(|&&c| c > 2 && c <= 32).count(),
        right_mode: counts.iter().filter(|&&c| c > 32).count(),
    };

    section("Figure 4: #unique Dports for {SIP,DIP} pairs with >50 un-responded SYNs/min");
    let max = fig.bins.iter().map(|&(_, c)| c).max().unwrap_or(1).max(1);
    for (label, count) in &fig.bins {
        let bar = "#".repeat((count * 50 / max).max(usize::from(*count > 0)));
        println!("{label:>8} | {bar} {count}");
    }
    let (left, valley, right) = (fig.left_mode, fig.valley, fig.right_mode);
    println!(
        "\nmodes: {left} pairs at ≤2 ports (flooding), {valley} in the valley (3–32), \
         {right} at >32 ports (vertical scans)"
    );
    println!(
        "bi-modal: {}",
        if left > valley && right > valley {
            "YES — both modes exceed the valley"
        } else {
            "NO"
        }
    );
    write_json("figure4", &fig);
}

/// **§5.2** — sketches are highly accurate in recording traffic for
/// detection: the same three-phase algorithm run over (a) sketches and
/// (b) exact per-flow tables must find the same attacks, at wildly
/// different memory costs.
fn sketch_vs_exact(runs: &[TraceRun], cfg: HiFindConfig) {
    #[derive(Serialize)]
    struct Comparison {
        trace: &'static str,
        sketch_final: usize,
        exact_final: usize,
        identical: bool,
        only_sketch: usize,
        only_exact: usize,
        sketch_memory_mb: f64,
        exact_peak_memory_mb: f64,
    }
    let identities = |log: &AlertLog| -> BTreeSet<_> {
        log.final_alerts().iter().map(|a| a.identity()).collect()
    };
    let results: Vec<Comparison> = runs
        .iter()
        .map(|r| {
            eprintln!("[paper_traces] running exact flow tables on {}...", r.name);
            let mut exact = ExactHiFind::new(cfg);
            let (s, e) = (identities(&r.log), identities(&exact.run_trace(&r.trace)));
            Comparison {
                trace: r.name,
                sketch_final: s.len(),
                exact_final: e.len(),
                identical: s == e,
                only_sketch: s.difference(&e).count(),
                only_exact: e.difference(&s).count(),
                sketch_memory_mb: r.sketch_memory_bytes as f64 / 1e6,
                exact_peak_memory_mb: exact.peak_memory_bytes() as f64 / 1e6,
            }
        })
        .collect();

    section("§5.2: sketch vs exact flow-table detection (same algorithm)");
    for r in &results {
        println!(
            "{}: sketch found {}, exact found {} → identical: {} \
             ({} only-sketch, {} only-exact)",
            r.trace, r.sketch_final, r.exact_final, r.identical, r.only_sketch, r.only_exact
        );
        println!(
            "    memory: sketches {:.1} MB (fixed) vs exact tables {:.1} MB (peak, grows with flows)",
            r.sketch_memory_mb, r.exact_peak_memory_mb
        );
    }
    println!(
        "\npaper claim: identical attack sets from both recordings; small divergence\n\
         (a few keys at the threshold boundary) is the expected estimation noise."
    );
    write_json("sketch_vs_exact", &results);
}

/// **§5.4** — validating detected SYN floodings with backscatter analysis
/// (Moore et al.): a spoofed-flood victim's responses spray uniformly over
/// the address space.
///
/// Paper shape: a majority of detected floodings are confirmed by
/// backscatter; the unconfirmed remainder are dominated by non-spoofed
/// attacks (no spray — responses go to the single real attacker) and
/// threshold-boundary cases.
fn validate_backscatter(nu: &TraceRun) {
    #[derive(Serialize)]
    struct Validation {
        detected_floodings: usize,
        confirmed_by_backscatter: usize,
        unconfirmed_nonspoofed: usize,
        unconfirmed_other: usize,
    }
    let floodings: Vec<_> = nu
        .log
        .final_alerts()
        .iter()
        .filter(|a| a.kind == AlertKind::SynFlooding)
        .collect();

    section("§5.4: backscatter validation of detected SYN floodings");
    let mut tally = Validation {
        detected_floodings: floodings.len(),
        confirmed_by_backscatter: 0,
        unconfirmed_nonspoofed: 0,
        unconfirmed_other: 0,
    };
    for alert in &floodings {
        let victim = alert.dip.expect("flooding alerts carry the victim");
        let verdict = backscatter_validate(&nu.trace, victim);
        let truth_entry = nu.truth.find_match(alert.sip, alert.dip, alert.dport);
        let spoofed_truth = truth_entry.is_some_and(|e| e.class == EventClass::SynFloodSpoofed);
        let status = if verdict.spoofed_flood_confirmed {
            tally.confirmed_by_backscatter += 1;
            "confirmed (uniform backscatter)"
        } else if !spoofed_truth {
            tally.unconfirmed_nonspoofed += 1;
            "unconfirmed — non-spoofed (responses go to one attacker)"
        } else {
            tally.unconfirmed_other += 1;
            "unconfirmed — low/clustered response volume"
        };
        println!(
            "  victim {victim}:{} — {} responses to {} destinations, χ²={:.1} → {status}",
            alert.dport.expect("flooding port"),
            verdict.responses,
            verdict.distinct_destinations,
            verdict.chi_square
        );
    }
    println!(
        "\n{} floodings detected: {} confirmed by backscatter, {} non-spoofed, {} other \
         (paper: 21 of 32 matched; the rest were non-spoofed or boundary cases)",
        tally.detected_floodings,
        tally.confirmed_by_backscatter,
        tally.unconfirmed_nonspoofed,
        tally.unconfirmed_other
    );
    write_json("validate_backscatter", &tally);
}
