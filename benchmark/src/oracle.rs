//! The correctness oracle: an untimed in-process replay of the unsplit
//! windows, built by the same commit, that the measured run must agree with.
//!
//! Sketches are linear, so detection on the sum of the routers' snapshots
//! must raise the very alerts detection on the unsplit traffic raises, no
//! matter how packets were split, encoded, shipped, or combined on the way.

use crate::drive::{detector_config, identities, Identity, Verdict};
use crate::suite::{Input, Spec};
use hifind::pipeline::DetectionCore;
use hifind::{evaluate, Alert, IntervalSnapshot, SketchRecorder};

/// What the oracle found.
#[derive(Clone, Debug, Default)]
pub struct OracleReport {
    /// Intervals whose detection was replayed and compared.
    pub intervals_replayed: usize,
    /// Later intervals, held to the alerts the replay had settled on.
    pub intervals_held: usize,
    /// Intervals whose final alerts differ from the measured run's.
    pub mismatched: Vec<u64>,
    /// Ground-truth attacks the run's final alerts matched.
    pub detected: usize,
    /// Ground-truth attacks in the windows.
    pub total_true: usize,
    /// Final alerts matching no attack.
    pub false_positives: usize,
    /// Whether the ground-truth floors hold.
    pub floors_hold: bool,
}

/// Replays `input` through a fresh recorder and detection core — the two
/// halves `HiFind` is made of — and compares interval by interval with
/// `verdicts`: every interval of the run, warm-up first, then measured.
///
/// From the third pass on a window's snapshot repeats the second pass's
/// bit for bit (counters reset every interval, and the cumulative
/// active-service filter stopped changing once the first pass had inserted
/// every service), so only two passes are recorded. Detection, whose state
/// does evolve, is replayed for the warm-up and `spec.replayed_passes`
/// measured passes — all of them, where that is cheap. Any interval after
/// those must raise exactly the alerts the replay raised for the same
/// window in its last pass: by then the forecasts have long settled into
/// the period of the input.
pub fn check(
    spec: &Spec,
    input: &Input,
    verdicts: &[&Verdict],
    final_alerts: &[Alert],
) -> OracleReport {
    let cfg = detector_config();
    let mut report = OracleReport::default();
    let (Ok(mut recorder), Ok(mut core)) = (SketchRecorder::new(&cfg), DetectionCore::new(cfg))
    else {
        report.mismatched.push(0);
        return report;
    };
    let replayed = (spec.warmup_passes + spec.replayed_passes) * spec.windows;
    let mut steady: Vec<IntervalSnapshot> = Vec::with_capacity(spec.windows);
    let mut settled: Vec<Vec<Identity>> = vec![Vec::new(); spec.windows];
    for (i, verdict) in verdicts.iter().enumerate() {
        let (pass, w) = (i / spec.windows, i % spec.windows);
        if i >= replayed {
            if verdict.fin != settled[w] {
                report.mismatched.push(verdict.interval);
            }
            report.intervals_held += 1;
            continue;
        }
        let outcome = if pass < 2 {
            recorder.record_all(&input.windows[w]);
            let snapshot = recorder.take_snapshot();
            let outcome = core.process_snapshot(&snapshot);
            if pass == 1 {
                steady.push(snapshot);
            }
            outcome
        } else {
            core.process_snapshot(&steady[w])
        };
        settled[w] = identities(&outcome);
        if settled[w] != verdict.fin || outcome.interval != verdict.interval {
            report.mismatched.push(verdict.interval);
        }
        report.intervals_replayed += 1;
    }
    let eval = evaluate(final_alerts, &input.truth);
    let kinds = [&eval.flooding, &eval.hscan, &eval.vscan];
    report.detected = kinds.iter().map(|k| k.detected).sum();
    report.total_true = kinds.iter().map(|k| k.total_true).sum();
    report.false_positives = kinds.iter().map(|k| k.false_positives()).sum();
    report.floors_hold = report.detected >= spec.floors.min_detected
        && report.false_positives <= spec.floors.max_false_positives;
    report
}
