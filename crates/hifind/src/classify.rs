//! Phase 2: intrusion classification with the 2D sketches (paper §4).
//!
//! Step 2/3 candidates can be *misclassified floodings*: a flooding whose
//! `{DIP,Dport}` error hovered under the step-1 threshold still produces a
//! heavy `{SIP,DIP}` or `{SIP,Dport}` pair, which the raw algorithm files
//! as a scan. The 2D sketches resolve the ambiguity by looking at the
//! *distribution* of the orthogonal dimension:
//!
//! * a vertical-scan candidate `{SIP,DIP}` whose destination-port column is
//!   **concentrated** (top-p buckets hold > φ of the mass) is flooding-like
//!   — a real vertical scan touches many ports;
//! * a horizontal-scan candidate `{SIP,Dport}` whose destination-address
//!   column is **concentrated** is flooding-like — a real horizontal scan
//!   touches many addresses.
//!
//! Following Table 4 (the flooding row is unchanged between phases 1 and
//! 2), reclassified candidates are *removed from the scan lists*; they are
//! not added as new flooding alerts.

use crate::detector::{Detector, RawDetections};
use crate::recorder::IntervalSnapshot;
use crate::report::Alert;
use hifind_flow::keys::{SipDip, SipDport, SketchKey};
use hifind_sketch::ColumnShape;
use serde::{Deserialize, Serialize};

/// Phase-2 output: the surviving alerts plus the reclassified ones (kept
/// for diagnostics).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ClassifiedDetections {
    /// Flooding alerts (passed through unchanged from phase 1).
    pub floodings: Vec<Alert>,
    /// Vertical scans that the 2D sketch confirmed as dispersed.
    pub vscans: Vec<Alert>,
    /// Horizontal scans that the 2D sketch confirmed as dispersed.
    pub hscans: Vec<Alert>,
    /// Scan candidates dropped as flooding-like (false positives avoided).
    pub reclassified: Vec<Alert>,
}

/// Applies the 2D-sketch classification to one interval's raw detections.
pub fn classify(
    detector: &Detector,
    snapshot: &IntervalSnapshot,
    raw: &RawDetections,
) -> ClassifiedDetections {
    let cfg = detector.config();
    let p = cfg.classify_top_p;
    let phi = cfg.classify_phi;
    let mut out = ClassifiedDetections {
        floodings: raw.floodings.clone(),
        ..ClassifiedDetections::default()
    };

    for alert in &raw.vscans {
        let (Some(sip), Some(dip)) = (alert.sip, alert.dip) else {
            // A vscan alert without its keys cannot be classified; fail
            // open and keep it rather than dropping a detection.
            out.vscans.push(*alert);
            continue;
        };
        let x = SipDip::new(sip, dip).to_u64();
        match detector
            .twod_sipdip_dport()
            .classify(&snapshot.twod_sipdip_dport, x, p, phi)
        {
            ColumnShape::Dispersed => out.vscans.push(*alert),
            ColumnShape::Concentrated => out.reclassified.push(*alert),
        }
    }

    for alert in &raw.hscans {
        let (Some(sip), Some(dport)) = (alert.sip, alert.dport) else {
            // Same fail-open policy as above for an unkeyed hscan alert.
            out.hscans.push(*alert);
            continue;
        };
        let x = SipDport::new(sip, dport).to_u64();
        match detector
            .twod_sipdport_dip()
            .classify(&snapshot.twod_sipdport_dip, x, p, phi)
        {
            ColumnShape::Dispersed => out.hscans.push(*alert),
            ColumnShape::Concentrated => out.reclassified.push(*alert),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HiFindConfig;
    use crate::recorder::SketchRecorder;
    use crate::report::AlertKind;
    use hifind_flow::{Ip4, Packet};

    fn snapshot_of(cfg: &HiFindConfig, packets: &[Packet]) -> IntervalSnapshot {
        let mut rec = SketchRecorder::new(cfg).unwrap();
        for p in packets {
            rec.record(p);
        }
        rec.take_snapshot()
    }

    fn vscan_alert(sip: Ip4, dip: Ip4) -> Alert {
        Alert {
            kind: AlertKind::VScan,
            sip: Some(sip),
            dip: Some(dip),
            dport: None,
            interval: 0,
            magnitude: 100,
            attacker_identified: true,
        }
    }

    fn hscan_alert(sip: Ip4, dport: u16) -> Alert {
        Alert {
            kind: AlertKind::HScan,
            sip: Some(sip),
            dip: None,
            dport: Some(dport),
            interval: 0,
            magnitude: 100,
            attacker_identified: true,
        }
    }

    #[test]
    fn true_vertical_scan_survives() {
        let cfg = HiFindConfig::small(20);
        let attacker: Ip4 = [66, 1, 1, 1].into();
        let victim: Ip4 = [129, 105, 0, 5].into();
        let packets: Vec<Packet> = (1..=400u16)
            .map(|port| Packet::syn(port as u64, attacker, 2000, victim, port))
            .collect();
        let snap = snapshot_of(&cfg, &packets);
        let det = Detector::new(&cfg).unwrap();
        let raw = RawDetections {
            vscans: vec![vscan_alert(attacker, victim)],
            ..RawDetections::default()
        };
        let classified = classify(&det, &snap, &raw);
        assert_eq!(classified.vscans.len(), 1);
        assert!(classified.reclassified.is_empty());
    }

    #[test]
    fn single_port_flooding_reclassified_from_vscan() {
        // The §4 motivating case: a non-spoofed flood looks like a vscan
        // to step 2 but its port distribution is a spike.
        let cfg = HiFindConfig::small(21);
        let attacker: Ip4 = [66, 2, 2, 2].into();
        let victim: Ip4 = [129, 105, 0, 6].into();
        let packets: Vec<Packet> = (0..400u32)
            .map(|i| Packet::syn(i as u64, attacker, 2000 + (i % 999) as u16, victim, 80))
            .collect();
        let snap = snapshot_of(&cfg, &packets);
        let det = Detector::new(&cfg).unwrap();
        let raw = RawDetections {
            vscans: vec![vscan_alert(attacker, victim)],
            ..RawDetections::default()
        };
        let classified = classify(&det, &snap, &raw);
        assert!(
            classified.vscans.is_empty(),
            "flooding must not stay a vscan"
        );
        assert_eq!(classified.reclassified.len(), 1);
    }

    #[test]
    fn true_horizontal_scan_survives() {
        let cfg = HiFindConfig::small(22);
        let attacker: Ip4 = [66, 3, 3, 3].into();
        let packets: Vec<Packet> = (0..400u32)
            .map(|i| {
                let dst: Ip4 = [129, 105, (i >> 8) as u8, i as u8].into();
                Packet::syn(i as u64, attacker, 2000, dst, 445)
            })
            .collect();
        let snap = snapshot_of(&cfg, &packets);
        let det = Detector::new(&cfg).unwrap();
        let raw = RawDetections {
            hscans: vec![hscan_alert(attacker, 445)],
            ..RawDetections::default()
        };
        let classified = classify(&det, &snap, &raw);
        assert_eq!(classified.hscans.len(), 1);
        assert!(classified.reclassified.is_empty());
    }

    #[test]
    fn single_target_flooding_reclassified_from_hscan() {
        let cfg = HiFindConfig::small(23);
        let attacker: Ip4 = [66, 4, 4, 4].into();
        let victim: Ip4 = [129, 105, 0, 7].into();
        let packets: Vec<Packet> = (0..400u32)
            .map(|i| Packet::syn(i as u64, attacker, 2000 + (i % 999) as u16, victim, 80))
            .collect();
        let snap = snapshot_of(&cfg, &packets);
        let det = Detector::new(&cfg).unwrap();
        let raw = RawDetections {
            hscans: vec![hscan_alert(attacker, 80)],
            ..RawDetections::default()
        };
        let classified = classify(&det, &snap, &raw);
        assert!(classified.hscans.is_empty());
        assert_eq!(classified.reclassified.len(), 1);
    }

    #[test]
    fn floodings_pass_through_untouched() {
        let cfg = HiFindConfig::small(24);
        let snap = snapshot_of(&cfg, &[]);
        let det = Detector::new(&cfg).unwrap();
        let flood = Alert {
            kind: AlertKind::SynFlooding,
            sip: None,
            dip: Some([129, 105, 0, 1].into()),
            dport: Some(80),
            interval: 3,
            magnitude: 999,
            attacker_identified: false,
        };
        let raw = RawDetections {
            floodings: vec![flood],
            ..RawDetections::default()
        };
        let classified = classify(&det, &snap, &raw);
        assert_eq!(classified.floodings, vec![flood]);
    }
}
