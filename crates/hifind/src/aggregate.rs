//! Aggregated detection over multiple routers (paper §3.1, §5.3.2).
//!
//! Each edge router runs only the cheap data plane
//! ([`crate::SketchRecorder`]) and ships its per-interval
//! [`IntervalSnapshot`] — a few megabytes of counters, no packets, no
//! flows — to a central site. Sketch linearity guarantees the combined
//! snapshot equals the snapshot of the merged traffic, so detection over
//! the aggregate is *identical* to single-router detection even under
//! per-packet load balancing that splits a connection's SYN and SYN/ACK
//! across different routers.

use crate::config::HiFindConfig;
use crate::pipeline::{DetectionCore, IntervalOutcome};
use crate::recorder::IntervalSnapshot;
use crate::report::AlertLog;
use hifind_sketch::SketchError;

/// The central aggregation site: combines per-router snapshots and runs
/// the standard detection pipeline on the sum.
///
/// # Example
///
/// ```
/// use hifind::{HiFindAggregator, HiFindConfig, SketchRecorder};
///
/// let cfg = HiFindConfig::small(1);
/// let mut routers: Vec<SketchRecorder> =
///     (0..3).map(|_| SketchRecorder::new(&cfg).unwrap()).collect();
/// let mut site = HiFindAggregator::new(cfg).unwrap();
/// // ... feed packets to each router's recorder ...
/// let snapshots: Vec<_> = routers.iter_mut().map(|r| r.take_snapshot()).collect();
/// let outcome = site.process_interval(&snapshots).unwrap();
/// assert_eq!(outcome.interval, 0);
/// ```
#[derive(Clone, Debug)]
pub struct HiFindAggregator {
    core: DetectionCore,
    fingerprint: u64,
}

impl HiFindAggregator {
    /// Builds the aggregation site. All routers must use recorders built
    /// from the *same* configuration (same seeds → same hash functions).
    /// Every snapshot carries its configuration fingerprint
    /// ([`HiFindConfig::fingerprint`]); snapshots from differently-seeded
    /// or differently-shaped recorders are rejected with
    /// [`SketchError::FingerprintMismatch`] before any combining happens.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    pub fn new(cfg: HiFindConfig) -> Result<Self, SketchError> {
        Ok(HiFindAggregator {
            fingerprint: cfg.fingerprint(),
            core: DetectionCore::new(cfg)?,
        })
    }

    /// Combines one interval's snapshots from all routers in one
    /// [`IntervalSnapshot::combine_many`] pass and runs the detection
    /// pipeline on the aggregate.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::CombineEmpty`] for an empty slice,
    /// [`SketchError::FingerprintMismatch`] if any snapshot was recorded
    /// under a configuration other than this site's, and
    /// [`SketchError::CombineMismatch`] if hand-assembled snapshot shapes
    /// differ.
    pub fn process_interval(
        &mut self,
        snapshots: &[IntervalSnapshot],
    ) -> Result<IntervalOutcome, SketchError> {
        let (first, rest) = snapshots.split_first().ok_or(SketchError::CombineEmpty)?;
        if first.fingerprint != self.fingerprint {
            return Err(SketchError::FingerprintMismatch {
                expected: self.fingerprint,
                got: first.fingerprint,
            });
        }
        let mut combined = first.clone();
        combined.combine_many(&rest.iter().collect::<Vec<_>>())?;
        Ok(self.core.process_snapshot(&combined))
    }

    /// The deduplicated alert log across all processed intervals.
    pub fn log(&self) -> &AlertLog {
        self.core.log()
    }

    /// The configuration in use.
    pub fn config(&self) -> &HiFindConfig {
        self.core.config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::HiFind;
    use crate::recorder::SketchRecorder;
    use crate::report::{AlertKind, Phase};
    use hifind_flow::rng::SplitMix64;
    use hifind_flow::{Ip4, Packet, Trace};

    /// A flood + scan trace and its per-packet split across 3 routers.
    fn scenario(cfg: &HiFindConfig) -> (Trace, Vec<Trace>) {
        let mut t = Trace::new();
        let victim: Ip4 = [129, 105, 0, 1].into();
        let scanner: Ip4 = [66, 6, 6, 6].into();
        for iv in 0..5u64 {
            let base = iv * cfg.interval_ms;
            for i in 0..30u32 {
                let c: Ip4 = [9, 9, 9, (i % 100) as u8].into();
                t.push(Packet::syn(
                    base + i as u64 * 7,
                    c,
                    4000 + i as u16,
                    victim,
                    80,
                ));
                t.push(Packet::syn_ack(
                    base + i as u64 * 7 + 1,
                    c,
                    4000 + i as u16,
                    victim,
                    80,
                ));
            }
            if iv >= 1 {
                for i in 0..250u32 {
                    t.push(Packet::syn(
                        base + 200 + i as u64,
                        Ip4::new(0x5100_0000 + i),
                        2000,
                        victim,
                        80,
                    ));
                    let dst: Ip4 = [129, 105, (i >> 8) as u8, i as u8].into();
                    t.push(Packet::syn(base + 300 + i as u64, scanner, 2100, dst, 445));
                }
            }
        }
        t.sort_by_time();
        // Per-packet random split (asymmetric routing simulation).
        let mut rng = SplitMix64::new(99);
        let mut parts = vec![Trace::new(); 3];
        for p in t.iter() {
            parts[rng.below(3) as usize].push(*p);
        }
        (t, parts)
    }

    #[test]
    fn aggregate_equals_single_router() {
        let cfg = HiFindConfig::small(50);
        let (merged, parts) = scenario(&cfg);

        // Single-router reference run.
        let mut single = HiFind::new(cfg).unwrap();
        let single_log = single.run_trace(&merged);

        // Distributed run: three recorders, one aggregator.
        let mut routers: Vec<SketchRecorder> =
            (0..3).map(|_| SketchRecorder::new(&cfg).unwrap()).collect();
        let mut site = HiFindAggregator::new(cfg).unwrap();
        let mut windows: Vec<Vec<&[Packet]>> = Vec::new();
        let per_router: Vec<Vec<_>> = parts
            .iter()
            .map(|t| t.intervals(cfg.interval_ms).collect::<Vec<_>>())
            .collect();
        let _ = &mut windows;
        let n = per_router.iter().map(Vec::len).max().unwrap();
        for iv in 0..n {
            let mut snaps = Vec::new();
            for (r, windows) in routers.iter_mut().zip(&per_router) {
                if let Some(w) = windows.get(iv) {
                    for p in w.packets {
                        r.record(p);
                    }
                }
                snaps.push(r.take_snapshot());
            }
            site.process_interval(&snaps).unwrap();
        }

        // Identical final detections (the paper's §5.3.2 claim).
        let mut single_final: Vec<_> = single_log
            .final_alerts()
            .iter()
            .map(|a| a.identity())
            .collect();
        let mut agg_final: Vec<_> = site
            .log()
            .final_alerts()
            .iter()
            .map(|a| a.identity())
            .collect();
        single_final.sort();
        agg_final.sort();
        assert_eq!(single_final, agg_final);
        assert!(
            site.log().count(Phase::Final, AlertKind::SynFlooding) >= 1,
            "aggregate must still detect the flood"
        );
        assert!(site.log().count(Phase::Final, AlertKind::HScan) >= 1);
    }

    #[test]
    fn foreign_config_snapshots_rejected() {
        // A router running a different seed must be rejected at the site
        // even if it is the only reporter (no pairwise combine happens).
        let site_cfg = HiFindConfig::small(60);
        let rogue_cfg = HiFindConfig::small(61);
        let mut site = HiFindAggregator::new(site_cfg).unwrap();
        let mut rogue = SketchRecorder::new(&rogue_cfg).unwrap();
        let err = site.process_interval(&[rogue.take_snapshot()]).unwrap_err();
        assert_eq!(
            err,
            SketchError::FingerprintMismatch {
                expected: site_cfg.fingerprint(),
                got: rogue_cfg.fingerprint(),
            }
        );
    }

    #[test]
    fn empty_snapshot_list_rejected() {
        let mut site = HiFindAggregator::new(HiFindConfig::small(51)).unwrap();
        assert_eq!(
            site.process_interval(&[]).unwrap_err(),
            SketchError::CombineEmpty
        );
    }

    #[test]
    fn single_router_under_split_loses_flows() {
        // Sanity check of the premise: one router alone sees only ~1/3 of
        // packets, and SYN/SYN-ACK pairs are separated, so a per-router
        // run differs from the aggregate. (This is what breaks TRW.)
        let cfg = HiFindConfig::small(52);
        let (_, parts) = scenario(&cfg);
        let mut solo = HiFind::new(cfg).unwrap();
        let solo_log = solo.run_trace(&parts[0]);
        // The solo router may or may not alert, but its view of traffic
        // volume must be partial.
        assert!(parts[0].len() < 2 * parts[1].len());
        let _ = solo_log;
    }
}
