//! Phase 3: SYN-flooding false-positive reduction (paper §3.4).
//!
//! Two heuristics separate real floodings from benign anomalies:
//!
//! 1. **Ratio + persistence** — a flooding keeps the victim's
//!    `#SYN / #SYN/ACK` ratio high *and lasts some time*. Short
//!    congestion/failure bursts trip the raw detector for an interval or
//!    two and disappear; the filter requires the candidate to stay flagged
//!    for `flood_persist_intervals` consecutive intervals with the ratio
//!    above `flood_syn_ratio`.
//! 2. **Active service** — DoS attacks target services that exist. A
//!    victim endpoint that has *never* emitted a SYN/ACK (stale DNS entry,
//!    misconfigured client) is dropped. Implemented with the recorder's
//!    cumulative Bloom filter, whose one-sided error can only *keep* a
//!    true alert, never wrongly drop one.

use crate::detector::Detector;
use crate::recorder::IntervalSnapshot;
use crate::report::Alert;
use hifind_flow::keys::{DipDport, SketchKey};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Stateful flooding false-positive filter. One instance must see every
/// interval in order (persistence is tracked across calls).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FloodFpFilter {
    /// Candidate identity → (last interval flagged, consecutive count).
    streaks: HashMap<(u32, u16), (u64, u32)>,
}

/// One in-flight persistence streak, as exported for checkpointing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FloodStreak {
    /// Victim address (raw `u32`).
    pub dip: u32,
    /// Victim port.
    pub dport: u16,
    /// Last interval this candidate was flagged in.
    pub last_interval: u64,
    /// Consecutive flagged intervals ending at `last_interval`.
    pub count: u32,
}

/// Phase-3 outcome for one interval.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FilteredFloodings {
    /// Flooding alerts that passed all heuristics.
    pub confirmed: Vec<Alert>,
    /// Dropped: victim service never active (misconfiguration noise).
    pub dropped_inactive: Vec<Alert>,
    /// Dropped: SYN/SYN-ACK ratio too low (server still answering).
    pub dropped_ratio: Vec<Alert>,
    /// Dropped: candidate carried no victim endpoint, so neither heuristic
    /// can examine it (a classifier bug upstream, not a ratio verdict).
    pub dropped_unattributable: Vec<Alert>,
    /// Dropped (for now): not yet persistent — may confirm next interval.
    pub pending_persistence: Vec<Alert>,
}

impl FloodFpFilter {
    /// Creates an empty filter.
    pub fn new() -> Self {
        FloodFpFilter::default()
    }

    /// Applies the heuristics to one interval's flooding candidates.
    ///
    /// `interval` must be non-decreasing across calls.
    pub fn filter(
        &mut self,
        detector: &Detector,
        snapshot: &IntervalSnapshot,
        interval: u64,
        candidates: &[Alert],
    ) -> FilteredFloodings {
        let cfg = detector.config();
        // A streak not flagged last interval is broken: it would restart
        // at count 1 anyway, so dropping it keeps the map to the live
        // candidates (a rotating-victim flood adds one victim per interval).
        self.streaks
            .retain(|_, &mut (last, _)| last.saturating_add(1) >= interval);
        let mut out = FilteredFloodings::default();
        for alert in candidates {
            let (Some(dip), Some(dport)) = (alert.dip, alert.dport) else {
                // Flooding alerts always carry the victim endpoint; a
                // candidate without one cannot be checked and is dropped
                // conservatively — into its own bucket, so run reports
                // don't mistake it for a ratio verdict.
                out.dropped_unattributable.push(*alert);
                continue;
            };
            let key = DipDport::new(dip, dport);

            // Heuristic 2: the victim must be (have been) a real service.
            if cfg.flood_require_active_service && !snapshot.active_services.contains(key.to_u64())
            {
                self.streaks.remove(&(dip.raw(), dport));
                out.dropped_inactive.push(*alert);
                continue;
            }

            // Heuristic 1a: ratio — the service must be mostly unanswered
            // *this interval*.
            let syn = detector.syn_estimate(snapshot, key);
            let unresponded = detector.unresponded_estimate(snapshot, key);
            let syn_ack = (syn - unresponded).max(0);
            let ratio_ok = syn as f64 >= cfg.flood_syn_ratio * (syn_ack.max(1)) as f64;
            if !ratio_ok {
                self.streaks.remove(&(dip.raw(), dport));
                out.dropped_ratio.push(*alert);
                continue;
            }

            // Heuristic 1b: persistence — attacks last some time.
            let entry = self
                .streaks
                .entry((dip.raw(), dport))
                .or_insert((interval, 0));
            let (last, count) = *entry;
            let new_count = if interval == last {
                // Duplicate candidate in the same interval: the streak may
                // advance at most once per interval (count == 0 marks a
                // fresh entry that hasn't been counted yet).
                count.max(1)
            } else if interval == last + 1 {
                count + 1
            } else {
                1
            };
            *entry = (interval, new_count);
            if new_count >= cfg.flood_persist_intervals {
                out.confirmed.push(*alert);
            } else {
                out.pending_persistence.push(*alert);
            }
        }
        out
    }

    /// Number of candidate streaks currently tracked.
    pub fn tracked(&self) -> usize {
        self.streaks.len()
    }

    /// Exports every in-flight streak, sorted by `(dip, dport)` so two
    /// filters with equal state export byte-identical lists (checkpoints
    /// must be deterministic).
    pub fn export_streaks(&self) -> Vec<FloodStreak> {
        let mut out: Vec<FloodStreak> = self
            .streaks
            .iter()
            .map(|(&(dip, dport), &(last_interval, count))| FloodStreak {
                dip,
                dport,
                last_interval,
                count,
            })
            .collect();
        out.sort_unstable_by_key(|s| (s.dip, s.dport));
        out
    }

    /// Rebuilds a filter from exported streaks. Later entries win on a
    /// duplicate `(dip, dport)` identity.
    pub fn from_streaks(streaks: impl IntoIterator<Item = FloodStreak>) -> Self {
        let mut filter = FloodFpFilter::new();
        for s in streaks {
            filter
                .streaks
                .insert((s.dip, s.dport), (s.last_interval, s.count));
        }
        filter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HiFindConfig;
    use crate::recorder::SketchRecorder;
    use crate::report::AlertKind;
    use hifind_flow::{Ip4, Packet};

    fn flood_alert(dip: Ip4, dport: u16, interval: u64) -> Alert {
        Alert {
            kind: AlertKind::SynFlooding,
            sip: None,
            dip: Some(dip),
            dport: Some(dport),
            interval,
            magnitude: 300,
            attacker_identified: false,
        }
    }

    /// Records an interval of flooding (optionally preceded by an answered
    /// handshake so the service is "active") and returns the snapshot.
    fn flooded_snapshot(
        cfg: &HiFindConfig,
        rec: &mut SketchRecorder,
        victim: Ip4,
        port: u16,
        syns: u32,
        answered: u32,
    ) -> IntervalSnapshot {
        let _ = cfg;
        for i in 0..answered {
            let c: Ip4 = [9, 9, 9, (i % 200) as u8].into();
            rec.record(&Packet::syn(i as u64, c, 5000 + i as u16, victim, port));
            rec.record(&Packet::syn_ack(i as u64, c, 5000 + i as u16, victim, port));
        }
        for i in 0..syns {
            rec.record(&Packet::syn(
                1000 + i as u64,
                Ip4::new(0x5000_0000 + i),
                2000,
                victim,
                port,
            ));
        }
        rec.take_snapshot()
    }

    #[test]
    fn persistent_flood_on_active_service_confirms() {
        let cfg = HiFindConfig::small(30);
        let mut rec = SketchRecorder::new(&cfg).unwrap();
        let det = Detector::new(&cfg).unwrap();
        let mut filter = FloodFpFilter::new();
        let victim: Ip4 = [129, 105, 0, 1].into();
        // Interval 0: service is alive and answering.
        let snap0 = flooded_snapshot(&cfg, &mut rec, victim, 80, 0, 20);
        let r0 = filter.filter(&det, &snap0, 0, &[]);
        assert!(r0.confirmed.is_empty());
        // Intervals 1 and 2: flooded.
        let snap1 = flooded_snapshot(&cfg, &mut rec, victim, 80, 400, 2);
        let r1 = filter.filter(&det, &snap1, 1, &[flood_alert(victim, 80, 1)]);
        assert!(r1.confirmed.is_empty(), "first interval is pending");
        assert_eq!(r1.pending_persistence.len(), 1);
        let snap2 = flooded_snapshot(&cfg, &mut rec, victim, 80, 400, 2);
        let r2 = filter.filter(&det, &snap2, 2, &[flood_alert(victim, 80, 2)]);
        assert_eq!(r2.confirmed.len(), 1, "{r2:?}");
    }

    #[test]
    fn never_active_target_is_dropped() {
        // Misconfiguration noise: the target never SYN/ACKed.
        let cfg = HiFindConfig::small(31);
        let mut rec = SketchRecorder::new(&cfg).unwrap();
        let det = Detector::new(&cfg).unwrap();
        let mut filter = FloodFpFilter::new();
        let dead: Ip4 = [129, 105, 9, 9].into();
        let snap = flooded_snapshot(&cfg, &mut rec, dead, 8080, 300, 0);
        for interval in 0..5 {
            let r = filter.filter(&det, &snap, interval, &[flood_alert(dead, 8080, interval)]);
            assert!(r.confirmed.is_empty());
            assert_eq!(r.dropped_inactive.len(), 1);
        }
    }

    #[test]
    fn answering_server_is_dropped_by_ratio() {
        // A flash-crowd-ish candidate: lots of SYNs but the server answers
        // most of them.
        let cfg = HiFindConfig::small(32);
        let mut rec = SketchRecorder::new(&cfg).unwrap();
        let det = Detector::new(&cfg).unwrap();
        let mut filter = FloodFpFilter::new();
        let busy: Ip4 = [129, 105, 0, 2].into();
        let snap = flooded_snapshot(&cfg, &mut rec, busy, 80, 40, 400);
        let r = filter.filter(&det, &snap, 1, &[flood_alert(busy, 80, 1)]);
        assert!(r.confirmed.is_empty());
        assert_eq!(r.dropped_ratio.len(), 1, "{r:?}");
    }

    #[test]
    fn short_burst_never_confirms() {
        // Congestion burst: one flagged interval, then gone for a while,
        // then one more — the streak must reset in between.
        let cfg = HiFindConfig::small(33);
        let mut rec = SketchRecorder::new(&cfg).unwrap();
        let det = Detector::new(&cfg).unwrap();
        let mut filter = FloodFpFilter::new();
        let victim: Ip4 = [129, 105, 0, 3].into();
        // Activate the service first.
        let warm = flooded_snapshot(&cfg, &mut rec, victim, 443, 0, 30);
        filter.filter(&det, &warm, 0, &[]);
        let burst1 = flooded_snapshot(&cfg, &mut rec, victim, 443, 300, 1);
        let r1 = filter.filter(&det, &burst1, 1, &[flood_alert(victim, 443, 1)]);
        assert!(r1.confirmed.is_empty());
        // Intervals 2–4: quiet (candidate absent). Interval 5: another burst.
        let burst2 = flooded_snapshot(&cfg, &mut rec, victim, 443, 300, 1);
        let r5 = filter.filter(&det, &burst2, 5, &[flood_alert(victim, 443, 5)]);
        assert!(
            r5.confirmed.is_empty(),
            "non-consecutive bursts must not confirm: {r5:?}"
        );
    }

    #[test]
    fn duplicate_candidates_in_one_interval_count_once() {
        // Regression: a noisy interval that lists the same (dip, dport)
        // twice used to bump the streak per duplicate, confirming a flood
        // before flood_persist_intervals distinct intervals elapsed.
        let cfg = HiFindConfig::small(36);
        assert!(cfg.flood_persist_intervals >= 2);
        let mut rec = SketchRecorder::new(&cfg).unwrap();
        let det = Detector::new(&cfg).unwrap();
        let mut filter = FloodFpFilter::new();
        let victim: Ip4 = [129, 105, 0, 6].into();
        let warm = flooded_snapshot(&cfg, &mut rec, victim, 80, 0, 20);
        filter.filter(&det, &warm, 0, &[]);
        let snap = flooded_snapshot(&cfg, &mut rec, victim, 80, 400, 2);
        let dupes = vec![flood_alert(victim, 80, 1); cfg.flood_persist_intervals as usize + 2];
        let r1 = filter.filter(&det, &snap, 1, &dupes);
        assert!(
            r1.confirmed.is_empty(),
            "duplicates in one interval must not satisfy persistence: {r1:?}"
        );
        assert_eq!(r1.pending_persistence.len(), dupes.len());
        // The streak still advances normally across real intervals.
        let snap2 = flooded_snapshot(&cfg, &mut rec, victim, 80, 400, 2);
        let r2 = filter.filter(&det, &snap2, 2, &[flood_alert(victim, 80, 2)]);
        assert_eq!(r2.confirmed.len(), 1, "{r2:?}");
    }

    #[test]
    fn unattributable_candidate_gets_its_own_bucket() {
        // Regression: candidates without a victim endpoint were misfiled
        // into dropped_ratio, inflating the ratio-drop count.
        let cfg = HiFindConfig::small(37);
        let mut rec = SketchRecorder::new(&cfg).unwrap();
        let det = Detector::new(&cfg).unwrap();
        let mut filter = FloodFpFilter::new();
        let snap = rec.take_snapshot();
        let mut bare = flood_alert([10, 0, 0, 1].into(), 80, 0);
        bare.dip = None;
        bare.dport = None;
        let r = filter.filter(&det, &snap, 0, &[bare]);
        assert_eq!(r.dropped_unattributable.len(), 1);
        assert!(r.dropped_ratio.is_empty(), "{r:?}");
        assert_eq!(filter.tracked(), 0);
    }

    #[test]
    fn streak_export_restore_round_trip() {
        // A restored filter must resume in-flight streaks exactly: one
        // more flagged interval confirms, same as without the restart.
        let cfg = HiFindConfig::small(38);
        let mut rec = SketchRecorder::new(&cfg).unwrap();
        let det = Detector::new(&cfg).unwrap();
        let mut filter = FloodFpFilter::new();
        let victim: Ip4 = [129, 105, 0, 8].into();
        let warm = flooded_snapshot(&cfg, &mut rec, victim, 80, 0, 20);
        filter.filter(&det, &warm, 0, &[]);
        let snap1 = flooded_snapshot(&cfg, &mut rec, victim, 80, 400, 2);
        let r1 = filter.filter(&det, &snap1, 1, &[flood_alert(victim, 80, 1)]);
        assert!(r1.confirmed.is_empty());

        let exported = filter.export_streaks();
        assert_eq!(exported.len(), 1);
        assert_eq!(exported[0].count, 1);
        let mut restored = FloodFpFilter::from_streaks(exported.clone());
        assert_eq!(restored.export_streaks(), exported);

        let snap2 = flooded_snapshot(&cfg, &mut rec, victim, 80, 400, 2);
        let r2 = restored.filter(&det, &snap2, 2, &[flood_alert(victim, 80, 2)]);
        assert_eq!(r2.confirmed.len(), 1, "{r2:?}");
    }

    #[test]
    fn streak_state_is_bounded_by_candidates() {
        let cfg = HiFindConfig::small(34);
        let mut rec = SketchRecorder::new(&cfg).unwrap();
        let det = Detector::new(&cfg).unwrap();
        let mut filter = FloodFpFilter::new();
        let victim: Ip4 = [129, 105, 0, 4].into();
        let snap = flooded_snapshot(&cfg, &mut rec, victim, 80, 300, 10);
        filter.filter(&det, &snap, 1, &[flood_alert(victim, 80, 1)]);
        assert_eq!(filter.tracked(), 1);
    }

    #[test]
    fn rotating_victims_do_not_accumulate_streaks() {
        // Regression: a flood that hits a fresh victim every interval left
        // one dead streak per victim behind, growing the map (and every
        // checkpoint) without bound.
        let cfg = HiFindConfig::small(39);
        let mut rec = SketchRecorder::new(&cfg).unwrap();
        let det = Detector::new(&cfg).unwrap();
        let mut filter = FloodFpFilter::new();
        for interval in 0..12u64 {
            let victim: Ip4 = [129, 105, 1, interval as u8].into();
            let snap = flooded_snapshot(&cfg, &mut rec, victim, 80, 400, 2);
            let r = filter.filter(&det, &snap, interval, &[flood_alert(victim, 80, interval)]);
            assert_eq!(r.pending_persistence.len(), 1, "{r:?}");
            assert!(
                filter.tracked() <= 2,
                "interval {interval}: {}",
                filter.tracked()
            );
        }
    }
}
