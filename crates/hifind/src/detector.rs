//! The three-step sketch-based detection algorithm (paper §3.3).

use crate::config::HiFindConfig;
use crate::recorder::IntervalSnapshot;
use crate::recorder::SketchHashes;
use crate::report::{Alert, AlertKind};
use hifind_flow::keys::{DipDport, SipDip, SipDport};
use hifind_flow::Ip4;
use hifind_sketch::{SketchError, TwoDHash};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// The forecast-error grids for one interval (produced by the pipeline's
/// EWMA stage from an [`IntervalSnapshot`] stream).
#[derive(Clone, Debug)]
pub struct ErrorGrids {
    /// Error grid of the `{SIP,Dport}` sketch.
    pub rs_sip_dport: hifind_sketch::CounterGrid,
    /// Error grid of its verifier.
    pub rs_sip_dport_verifier: hifind_sketch::CounterGrid,
    /// Error grid of the `{DIP,Dport}` sketch.
    pub rs_dip_dport: hifind_sketch::CounterGrid,
    /// Error grid of its verifier.
    pub rs_dip_dport_verifier: hifind_sketch::CounterGrid,
    /// Error grid of the `{SIP,DIP}` sketch.
    pub rs_sip_dip: hifind_sketch::CounterGrid,
    /// Error grid of its verifier.
    pub rs_sip_dip_verifier: hifind_sketch::CounterGrid,
}

/// Raw (phase-1) detection output for one interval.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RawDetections {
    /// SYN flooding alerts from step 1 (victim endpoint known; attacker
    /// attached when steps 2–3 identified one).
    pub floodings: Vec<Alert>,
    /// Vertical-scan candidates from step 2.
    pub vscans: Vec<Alert>,
    /// Horizontal-scan candidates from step 3.
    pub hscans: Vec<Alert>,
}

impl RawDetections {
    /// All raw alerts in step order.
    pub fn all(&self) -> impl Iterator<Item = &Alert> {
        self.floodings
            .iter()
            .chain(self.vscans.iter())
            .chain(self.hscans.iter())
    }
}

/// Interprets snapshots/error grids through the sketch hash families and
/// runs the three-step detection algorithm.
///
/// The detector holds the six sketches' hash types, built from the same
/// configuration (and therefore the same seeds/hash functions) as the
/// recorder; it holds no counters of its own.
#[derive(Clone, Debug)]
pub struct Detector {
    cfg: HiFindConfig,
    hashes: SketchHashes,
}

impl Detector {
    /// Builds the hash families for a configuration.
    ///
    /// # Errors
    ///
    /// Propagates sketch configuration errors.
    pub fn new(cfg: &HiFindConfig) -> Result<Self, SketchError> {
        Ok(Detector {
            cfg: *cfg,
            hashes: SketchHashes::new(cfg)?,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &HiFindConfig {
        &self.cfg
    }

    /// Runs the three detection steps over one interval's forecast-error
    /// grids.
    ///
    /// * **Step 1** — `RS({DIP,Dport})`: heavy keys are SYN flooding
    ///   victims; their DIPs form `FLOODING_DIP_SET`.
    /// * **Step 2** — `RS({SIP,DIP})`: heavy pairs whose DIP is in the
    ///   flooding set contribute their SIP to `FLOODING_SIP_SET` (and pin
    ///   down a non-spoofed attacker); the rest are vertical-scan
    ///   candidates.
    /// * **Step 3** — `RS({SIP,Dport})`: heavy pairs whose SIP is in the
    ///   flooding SIP set are the non-spoofed flooding's traffic;
    ///   the rest are horizontal-scan candidates.
    pub fn detect(&self, interval: u64, errors: &ErrorGrids) -> RawDetections {
        let threshold = self.cfg.interval_threshold();
        let opts = &self.cfg.infer;

        // Step 1: SYN flooding victims.
        let flooding = self.hashes.rs_dip_dport.infer(
            &errors.rs_dip_dport,
            Some(&errors.rs_dip_dport_verifier),
            threshold,
            opts,
        );
        let flooding_keys: Vec<(DipDport, i64)> = flooding.typed::<DipDport>();
        let flooding_dip_set: HashSet<Ip4> = flooding_keys.iter().map(|(k, _)| k.dip()).collect();

        // Step 2: vertical scans vs non-spoofed flooding attackers.
        let pairs = self.hashes.rs_sip_dip.infer(
            &errors.rs_sip_dip,
            Some(&errors.rs_sip_dip_verifier),
            threshold,
            opts,
        );
        let mut flooding_sip_set: HashSet<Ip4> = HashSet::new();
        let mut flooding_attacker: HashMap<Ip4, Ip4> = HashMap::new();
        let mut vscans = Vec::new();
        for (key, magnitude) in pairs.typed::<SipDip>() {
            if flooding_dip_set.contains(&key.dip()) {
                flooding_sip_set.insert(key.sip());
                flooding_attacker.entry(key.dip()).or_insert(key.sip());
            } else {
                vscans.push(Alert {
                    kind: AlertKind::VScan,
                    sip: Some(key.sip()),
                    dip: Some(key.dip()),
                    dport: None,
                    interval,
                    magnitude,
                    attacker_identified: true,
                });
            }
        }

        // Step 3: horizontal scans vs non-spoofed flooding traffic.
        let sources = self.hashes.rs_sip_dport.infer(
            &errors.rs_sip_dport,
            Some(&errors.rs_sip_dport_verifier),
            threshold,
            opts,
        );
        let mut hscans = Vec::new();
        for (key, magnitude) in sources.typed::<SipDport>() {
            if flooding_sip_set.contains(&key.sip()) {
                continue; // accounted to a flooding attack
            }
            hscans.push(Alert {
                kind: AlertKind::HScan,
                sip: Some(key.sip()),
                dip: None,
                dport: Some(key.dport()),
                interval,
                magnitude,
                attacker_identified: true,
            });
        }

        let floodings = flooding_keys
            .into_iter()
            .map(|(key, magnitude)| {
                let attacker = flooding_attacker.get(&key.dip()).copied();
                Alert {
                    kind: AlertKind::SynFlooding,
                    sip: attacker,
                    dip: Some(key.dip()),
                    dport: Some(key.dport()),
                    interval,
                    magnitude,
                    attacker_identified: attacker.is_some(),
                }
            })
            .collect();

        RawDetections {
            floodings,
            vscans,
            hscans,
        }
    }

    /// Estimates the current-interval `#SYN` for a service endpoint from
    /// the OS grid of a snapshot (used by the phase-3 ratio filter).
    pub fn syn_estimate(&self, snapshot: &IntervalSnapshot, key: DipDport) -> i64 {
        use hifind_flow::keys::SketchKey;
        self.hashes.os.estimate(&snapshot.os, key.to_u64()).max(0)
    }

    /// Estimates the current-interval `#SYN − #SYN/ACK` for a service
    /// endpoint from the `{DIP,Dport}` grid of a snapshot.
    pub fn unresponded_estimate(&self, snapshot: &IntervalSnapshot, key: DipDport) -> i64 {
        use hifind_flow::keys::SketchKey;
        self.hashes
            .rs_dip_dport
            .estimate(&snapshot.rs_dip_dport, key.to_u64())
    }

    /// The 2D hash family of `{SIP,Dport} × {DIP}` (phase-2 hscan check).
    pub fn twod_sipdport_dip(&self) -> &TwoDHash {
        &self.hashes.twod_sipdport_dip
    }

    /// The 2D hash family of `{SIP,DIP} × {Dport}` (phase-2 vscan check).
    pub fn twod_sipdip_dport(&self) -> &TwoDHash {
        &self.hashes.twod_sipdip_dport
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::SketchRecorder;
    use hifind_flow::Packet;
    use hifind_forecast::GridEwma;

    /// Drives recorder + EWMA for a closure-generated interval stream and
    /// returns the detections of the last interval.
    fn detect_last(
        cfg: &HiFindConfig,
        intervals: Vec<Vec<Packet>>,
    ) -> (RawDetections, IntervalSnapshot) {
        let mut rec = SketchRecorder::new(cfg).unwrap();
        let det = Detector::new(cfg).unwrap();
        let mut fc: Vec<GridEwma> = (0..6).map(|_| GridEwma::new(cfg.ewma_alpha)).collect();
        let mut last = None;
        let n = intervals.len();
        for (i, packets) in intervals.into_iter().enumerate() {
            for p in &packets {
                rec.record(p);
            }
            let snap = rec.take_snapshot();
            let errs = [
                fc[0].step(&snap.rs_sip_dport),
                fc[1].step(&snap.rs_sip_dport_verifier),
                fc[2].step(&snap.rs_dip_dport),
                fc[3].step(&snap.rs_dip_dport_verifier),
                fc[4].step(&snap.rs_sip_dip),
                fc[5].step(&snap.rs_sip_dip_verifier),
            ];
            if i + 1 == n {
                let mut it = errs.into_iter().map(|e| e.expect("past warmup"));
                let grids = ErrorGrids {
                    rs_sip_dport: it.next().unwrap(),
                    rs_sip_dport_verifier: it.next().unwrap(),
                    rs_dip_dport: it.next().unwrap(),
                    rs_dip_dport_verifier: it.next().unwrap(),
                    rs_sip_dip: it.next().unwrap(),
                    rs_sip_dip_verifier: it.next().unwrap(),
                };
                last = Some((det.detect(i as u64, &grids), snap));
            }
        }
        last.unwrap()
    }

    fn quiet_interval() -> Vec<Packet> {
        let mut v = Vec::new();
        for i in 0..30u32 {
            let c: Ip4 = [9, 9, 9, (i % 50) as u8].into();
            let s: Ip4 = [129, 105, 0, 10].into();
            v.push(Packet::syn(i as u64 * 10, c, 4000 + i as u16, s, 80));
            v.push(Packet::syn_ack(
                i as u64 * 10 + 1,
                c,
                4000 + i as u16,
                s,
                80,
            ));
        }
        v
    }

    #[test]
    fn step1_detects_flooding_victim() {
        let cfg = HiFindConfig::small(10);
        let mut flood = quiet_interval();
        let victim: Ip4 = [129, 105, 0, 99].into();
        for i in 0..200u32 {
            flood.push(Packet::syn(
                i as u64,
                Ip4::new(0x5000_0000 + i),
                2000,
                victim,
                443,
            ));
        }
        let (d, _) = detect_last(&cfg, vec![quiet_interval(), quiet_interval(), flood]);
        assert_eq!(d.floodings.len(), 1, "raw: {:?}", d);
        let a = &d.floodings[0];
        assert_eq!(a.dip, Some(victim));
        assert_eq!(a.dport, Some(443));
        assert!(!a.attacker_identified, "spoofed flood has no single source");
        // A spoofed flood spreads sources, so steps 2/3 stay quiet.
        assert!(d.vscans.is_empty());
        assert!(d.hscans.is_empty());
    }

    #[test]
    fn step2_detects_vertical_scan() {
        let cfg = HiFindConfig::small(11);
        let mut scan = quiet_interval();
        let attacker: Ip4 = [66, 1, 2, 3].into();
        let victim: Ip4 = [129, 105, 0, 50].into();
        for port in 1..=300u16 {
            scan.push(Packet::syn(port as u64 * 5, attacker, 2000, victim, port));
        }
        let (d, _) = detect_last(&cfg, vec![quiet_interval(), quiet_interval(), scan]);
        assert!(
            d.vscans
                .iter()
                .any(|a| a.sip == Some(attacker) && a.dip == Some(victim)),
            "raw: {d:?}"
        );
        assert!(d.floodings.is_empty(), "no single port is heavy: {d:?}");
    }

    #[test]
    fn step3_detects_horizontal_scan() {
        let cfg = HiFindConfig::small(12);
        let mut scan = quiet_interval();
        let attacker: Ip4 = [66, 4, 5, 6].into();
        for i in 0..300u32 {
            let dst: Ip4 = [129, 105, (i >> 8) as u8, i as u8].into();
            scan.push(Packet::syn(i as u64 * 5, attacker, 2000, dst, 445));
        }
        let (d, _) = detect_last(&cfg, vec![quiet_interval(), quiet_interval(), scan]);
        assert!(
            d.hscans
                .iter()
                .any(|a| a.sip == Some(attacker) && a.dport == Some(445)),
            "raw: {d:?}"
        );
    }

    #[test]
    fn non_spoofed_flooding_not_misfiled_as_scan() {
        let cfg = HiFindConfig::small(13);
        let mut flood = quiet_interval();
        let attacker: Ip4 = [66, 7, 8, 9].into();
        let victim: Ip4 = [129, 105, 0, 60].into();
        for i in 0..300u32 {
            flood.push(Packet::syn(
                i as u64,
                attacker,
                2000 + (i % 1000) as u16,
                victim,
                80,
            ));
        }
        let (d, _) = detect_last(&cfg, vec![quiet_interval(), quiet_interval(), flood]);
        assert_eq!(d.floodings.len(), 1);
        let a = &d.floodings[0];
        assert_eq!(a.sip, Some(attacker), "attacker should be identified");
        assert!(a.attacker_identified);
        // Steps 2/3 must attribute the traffic to the flood, not to scans.
        assert!(d.vscans.is_empty(), "raw: {d:?}");
        assert!(d.hscans.is_empty(), "raw: {d:?}");
    }

    #[test]
    fn steady_traffic_detects_nothing() {
        let cfg = HiFindConfig::small(14);
        let (d, _) = detect_last(
            &cfg,
            vec![quiet_interval(), quiet_interval(), quiet_interval()],
        );
        assert!(d.floodings.is_empty());
        assert!(d.vscans.is_empty());
        assert!(d.hscans.is_empty());
    }

    #[test]
    fn syn_estimates_track_reality() {
        let cfg = HiFindConfig::small(15);
        let victim: Ip4 = [129, 105, 0, 99].into();
        let mut flood = quiet_interval();
        for i in 0..500u32 {
            flood.push(Packet::syn(
                i as u64,
                Ip4::new(0x5100_0000 + i),
                2000,
                victim,
                443,
            ));
        }
        let (_, snap) = detect_last(&cfg, vec![quiet_interval(), flood]);
        let det = Detector::new(&cfg).unwrap();
        let key = DipDport::new(victim, 443);
        let syn = det.syn_estimate(&snap, key);
        let unresp = det.unresponded_estimate(&snap, key);
        assert!((450..600).contains(&syn), "syn estimate {syn}");
        assert!(
            (450..600).contains(&unresp),
            "unresponded estimate {unresp}"
        );
    }
}
