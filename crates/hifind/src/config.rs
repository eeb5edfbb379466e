//! HiFIND system configuration.

use hifind_sketch::{ConfigDigest, InferOptions, KaryConfig, RsConfig, TwoDConfig};
use serde::{Deserialize, Serialize};

/// Full configuration of a HiFIND instance.
///
/// [`HiFindConfig::paper`] reproduces the evaluation settings of §5.1:
/// one-minute intervals, a detection threshold of one unresponded SYN per
/// second, 6-stage reversible sketches (2^12 buckets for the 48-bit keys,
/// 2^16 for the 64-bit key, 2^14-bucket verifiers), a 6×2^14 k-ary sketch,
/// and two 5-stage 2^12×64 2D sketches with the top-5 / φ = 0.8 classifier.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HiFindConfig {
    /// Master seed; all sketch seeds derive from it.
    pub seed: u64,
    /// Detection interval in milliseconds (paper: one minute).
    pub interval_ms: u64,
    /// Detection threshold in unresponded SYNs *per second* (paper: 1/s);
    /// the per-interval threshold is `rate × interval`.
    pub threshold_per_sec: f64,
    /// EWMA smoothing factor α of paper eq. (1).
    pub ewma_alpha: f64,
    /// Reversible sketch configuration for the two 48-bit keys
    /// ({SIP,Dport} and {DIP,Dport}).
    pub rs48: RsConfig,
    /// Reversible sketch configuration for the 64-bit {SIP,DIP} key.
    pub rs64: RsConfig,
    /// The "original sketch" recording `#SYN` per {DIP,Dport}.
    pub os: KaryConfig,
    /// 2D sketch configuration (both 2D sketches share it).
    pub twod: TwoDConfig,
    /// Inference search options.
    pub infer: InferOptions,
    /// 2D classifier: how many top buckets may hold the mass (`p`).
    pub classify_top_p: usize,
    /// 2D classifier: concentration cutoff `φ`.
    pub classify_phi: f64,
    /// Phase 3: minimum consecutive flagged intervals before a flooding
    /// alert is reported ("attacks last some time").
    pub flood_persist_intervals: u32,
    /// Phase 3: required `#SYN / #SYN/ACK` ratio at the victim service for
    /// a flooding alert (congestion keeps answering *some*).
    pub flood_syn_ratio: f64,
    /// Phase 3: require the victim service to have been active (seen a
    /// SYN/ACK) — drops stale-DNS/misconfiguration targets.
    pub flood_require_active_service: bool,
    /// Bits of the active-service Bloom filter.
    pub active_service_bloom_bits: usize,
}

impl HiFindConfig {
    /// The paper's evaluation configuration (§5.1) derived from a master
    /// seed.
    pub fn paper(seed: u64) -> Self {
        HiFindConfig {
            seed,
            interval_ms: 60_000,
            threshold_per_sec: 1.0,
            ewma_alpha: 0.5,
            rs48: RsConfig::paper_48bit(seed ^ 0x48),
            rs64: RsConfig::paper_64bit(seed ^ 0x64),
            os: KaryConfig::paper_os(seed ^ 0x05),
            twod: TwoDConfig::paper(seed ^ 0x2D),
            infer: InferOptions::default(),
            classify_top_p: 5,
            classify_phi: 0.8,
            flood_persist_intervals: 2,
            flood_syn_ratio: 3.0,
            flood_require_active_service: true,
            active_service_bloom_bits: 1 << 20,
        }
    }

    /// A smaller configuration for fast unit tests: identical semantics,
    /// smaller sketches and ten-second intervals.
    pub fn small(seed: u64) -> Self {
        let mut cfg = HiFindConfig::paper(seed);
        cfg.interval_ms = 10_000;
        cfg.rs64.buckets = 1 << 16; // keep divisibility (8 words × 2 bits)
        cfg.os.buckets = 1 << 12;
        cfg.twod.x_buckets = 1 << 10;
        cfg.active_service_bloom_bits = 1 << 16;
        cfg
    }

    /// Derived configuration of the `{SIP,Dport}` reversible sketch.
    /// Recorder and detector both use this, so their hash functions agree.
    pub fn rs_sip_dport_config(&self) -> RsConfig {
        let mut c = self.rs48;
        c.seed ^= 0x51D0;
        c
    }

    /// Derived configuration of the `{DIP,Dport}` reversible sketch.
    pub fn rs_dip_dport_config(&self) -> RsConfig {
        let mut c = self.rs48;
        c.seed ^= 0xD1D0;
        c
    }

    /// Derived configuration of the `{SIP,DIP}` reversible sketch.
    pub fn rs_sip_dip_config(&self) -> RsConfig {
        self.rs64
    }

    /// Derived configuration of the `{SIP,Dport} × {DIP}` 2D sketch.
    pub fn twod_sipdport_dip_config(&self) -> TwoDConfig {
        let mut c = self.twod;
        c.seed ^= 0xA;
        c
    }

    /// Derived configuration of the `{SIP,DIP} × {Dport}` 2D sketch.
    pub fn twod_sipdip_dport_config(&self) -> TwoDConfig {
        let mut c = self.twod;
        c.seed ^= 0xB;
        c
    }

    /// Digest of the *record-plane* configuration: every parameter two
    /// recorders must share for their [`crate::IntervalSnapshot`]s to be
    /// combinable — the derived sketch configurations (shapes **and**
    /// seeds) and the active-service Bloom geometry. Snapshots carry this
    /// fingerprint and [`crate::IntervalSnapshot::combine_many`] rejects
    /// mismatches, so differently-seeded recorders can never silently sum
    /// into garbage. Detection-plane parameters (interval width,
    /// thresholds, classifier knobs) are deliberately excluded: they live
    /// at the aggregation site and need not match across routers.
    pub fn fingerprint(&self) -> u64 {
        let mut d = ConfigDigest::new();
        d.write_u64(self.seed); // the Bloom hash seeds derive from this
        self.rs_sip_dport_config().digest_into(&mut d);
        self.rs_dip_dport_config().digest_into(&mut d);
        self.rs_sip_dip_config().digest_into(&mut d);
        self.os.digest_into(&mut d);
        self.twod_sipdport_dip_config().digest_into(&mut d);
        self.twod_sipdip_dport_config().digest_into(&mut d);
        d.write_usize(self.active_service_bloom_bits);
        d.finish()
    }

    /// The per-interval detection threshold (at least 1).
    pub fn interval_threshold(&self) -> i64 {
        ((self.threshold_per_sec * self.interval_ms as f64 / 1000.0).round() as i64).max(1)
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.interval_ms == 0 {
            return Err("interval must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.ewma_alpha) {
            return Err(format!("ewma alpha {} outside [0, 1]", self.ewma_alpha));
        }
        if self.threshold_per_sec <= 0.0 {
            return Err("threshold must be positive".into());
        }
        if self.rs48.key_bits != 48 {
            return Err("rs48 must use 48-bit keys".into());
        }
        if self.rs64.key_bits != 64 {
            return Err("rs64 must use 64-bit keys".into());
        }
        if !(0.0..=1.0).contains(&self.classify_phi) {
            return Err(format!("phi {} outside [0, 1]", self.classify_phi));
        }
        if self.classify_top_p == 0 || self.classify_top_p > self.twod.y_buckets {
            return Err("top-p must be in 1..=y_buckets".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid_and_matches_section_5_1() {
        let cfg = HiFindConfig::paper(1);
        cfg.validate().unwrap();
        assert_eq!(cfg.interval_ms, 60_000);
        assert_eq!(cfg.interval_threshold(), 60);
        assert_eq!(cfg.rs48.stages, 6);
        assert_eq!(cfg.rs48.buckets, 1 << 12);
        assert_eq!(cfg.rs64.buckets, 1 << 16);
        assert_eq!(cfg.twod.stages, 5);
        assert_eq!(cfg.twod.x_buckets, 1 << 12);
        assert_eq!(cfg.twod.y_buckets, 64);
        assert_eq!(cfg.classify_top_p, 5);
        assert_eq!(cfg.classify_phi, 0.8);
    }

    #[test]
    fn small_config_is_valid() {
        HiFindConfig::small(2).validate().unwrap();
        assert_eq!(HiFindConfig::small(2).interval_threshold(), 10);
    }

    #[test]
    fn seeds_differentiate_instances() {
        assert_ne!(
            HiFindConfig::paper(1).rs48.seed,
            HiFindConfig::paper(2).rs48.seed
        );
        // Sub-seeds differ from each other too.
        let cfg = HiFindConfig::paper(1);
        assert_ne!(cfg.rs48.seed, cfg.rs64.seed);
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut cfg = HiFindConfig::paper(1);
        cfg.interval_ms = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = HiFindConfig::paper(1);
        cfg.ewma_alpha = 2.0;
        assert!(cfg.validate().is_err());
        let mut cfg = HiFindConfig::paper(1);
        cfg.rs48.key_bits = 64;
        assert!(cfg.validate().is_err());
        let mut cfg = HiFindConfig::paper(1);
        cfg.classify_top_p = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = HiFindConfig::paper(1);
        cfg.classify_top_p = 100_000;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn fingerprint_tracks_record_plane_only() {
        // Same config → same fingerprint; different seed → different.
        assert_eq!(
            HiFindConfig::paper(1).fingerprint(),
            HiFindConfig::paper(1).fingerprint()
        );
        assert_ne!(
            HiFindConfig::paper(1).fingerprint(),
            HiFindConfig::paper(2).fingerprint()
        );
        // Shape changes are visible too.
        let mut cfg = HiFindConfig::paper(1);
        cfg.os.buckets <<= 1;
        assert_ne!(cfg.fingerprint(), HiFindConfig::paper(1).fingerprint());
        // Detection-plane knobs do not affect combinability.
        let mut cfg = HiFindConfig::paper(1);
        cfg.interval_ms = 5_000;
        cfg.threshold_per_sec = 9.0;
        cfg.classify_phi = 0.5;
        assert_eq!(cfg.fingerprint(), HiFindConfig::paper(1).fingerprint());
    }

    #[test]
    fn threshold_scales_with_interval() {
        let mut cfg = HiFindConfig::paper(1);
        cfg.interval_ms = 1_000;
        assert_eq!(cfg.interval_threshold(), 1);
        cfg.threshold_per_sec = 0.001;
        assert_eq!(cfg.interval_threshold(), 1, "threshold is floored at 1");
    }
}
