//! Threshold Random Walk portscan detection (Jung et al., Oakland'04).

use crate::util::{connection_attempts, Attempt};
use hifind_flow::{Ip4, Trace};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// TRW parameters. Defaults follow the original paper: the test is tuned by
/// the benign/scanner success likelihoods `θ0`/`θ1` and the desired
/// false-positive/-negative rates `α`/`β`, which give the two likelihood
/// thresholds `η1 = β/α` (declare scanner) and `η0 = (1−β)/(1−α)` (declare
/// benign).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrwConfig {
    /// `Pr[first contact succeeds | benign source]` (paper: 0.8).
    pub theta0: f64,
    /// `Pr[first contact succeeds | scanner]` (paper: 0.2).
    pub theta1: f64,
    /// Desired false positive rate (paper: 0.01).
    pub alpha: f64,
    /// Desired detection rate (paper: 0.99).
    pub beta: f64,
}

impl Default for TrwConfig {
    fn default() -> Self {
        TrwConfig {
            theta0: 0.8,
            theta1: 0.2,
            alpha: 0.01,
            beta: 0.99,
        }
    }
}

/// A source flagged as a scanner.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TrwAlert {
    /// The flagged source address.
    pub source: Ip4,
    /// When the likelihood ratio crossed `η1` (ms).
    pub decided_at_ms: u64,
    /// Failed first contacts observed up to the decision.
    pub failures: u32,
    /// Successful first contacts observed up to the decision.
    pub successes: u32,
}

/// Per-source sequential hypothesis testing over first-contact outcomes.
///
/// This keeps **per-source and per-(source, destination) state**, which is
/// exactly the memory vulnerability HiFIND avoids: a spoofed flood creates
/// one walk per spoofed address (see [`TrwStats::peak_sources`] and the
/// `dos_resilience` experiment).
#[derive(Clone, Debug)]
pub struct Trw {
    config: TrwConfig,
    log_eta1: f64,
    log_eta0: f64,
    log_succ: f64,
    log_fail: f64,
    /// Per-source running log-likelihood ratio (None once decided).
    walks: HashMap<u32, WalkState>,
    first_contacts: HashSet<(u32, u32)>,
    alerts: Vec<TrwAlert>,
    peak_sources: usize,
}

#[derive(Clone, Copy, Debug)]
struct WalkState {
    log_ratio: f64,
    failures: u32,
    successes: u32,
    decided: bool,
}

impl Trw {
    /// Creates a detector.
    ///
    /// # Panics
    ///
    /// Panics if the likelihoods/rates are outside `(0, 1)` or
    /// `theta1 >= theta0`.
    pub fn new(config: TrwConfig) -> Self {
        for v in [config.theta0, config.theta1, config.alpha, config.beta] {
            assert!(v > 0.0 && v < 1.0, "TRW parameters must lie in (0, 1)");
        }
        assert!(
            config.theta1 < config.theta0,
            "scanners must succeed less often than benign sources"
        );
        Trw {
            config,
            log_eta1: (config.beta / config.alpha).ln(),
            log_eta0: ((1.0 - config.beta) / (1.0 - config.alpha)).ln(),
            log_succ: (config.theta1 / config.theta0).ln(),
            log_fail: ((1.0 - config.theta1) / (1.0 - config.theta0)).ln(),
            walks: HashMap::new(),
            first_contacts: HashSet::new(),
            alerts: Vec::new(),
            peak_sources: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrwConfig {
        &self.config
    }

    /// Feeds one reconstructed attempt (must be fed in time order).
    pub fn observe(&mut self, attempt: &Attempt) {
        // Only first contacts to a *new* destination drive the walk.
        if !self
            .first_contacts
            .insert((attempt.client.raw(), attempt.server.raw()))
        {
            return;
        }
        let walk = self.walks.entry(attempt.client.raw()).or_insert(WalkState {
            log_ratio: 0.0,
            failures: 0,
            successes: 0,
            decided: false,
        });
        let mut alert = None;
        if !walk.decided {
            if attempt.outcome.is_failure() {
                walk.log_ratio += self.log_fail;
                walk.failures += 1;
            } else {
                walk.log_ratio += self.log_succ;
                walk.successes += 1;
            }
            if walk.log_ratio >= self.log_eta1 {
                walk.decided = true;
                alert = Some(TrwAlert {
                    source: attempt.client,
                    decided_at_ms: attempt.ts_ms,
                    failures: walk.failures,
                    successes: walk.successes,
                });
            } else if walk.log_ratio <= self.log_eta0 {
                // Declared benign. The SPRT is a sequential *decision*
                // procedure: reaching η0 terminates the test for this
                // source (this is why scans with interleaved successful
                // connections evade TRW — the HiFIND paper's §5.3.1
                // observation).
                walk.decided = true;
            }
        }
        if let Some(a) = alert {
            self.alerts.push(a);
        }
        self.peak_sources = self.peak_sources.max(self.walks.len());
    }

    /// Runs the detector over a whole trace and returns the scanner alerts.
    pub fn detect(trace: &Trace, config: TrwConfig) -> (Vec<TrwAlert>, TrwStats) {
        let mut trw = Trw::new(config);
        for attempt in connection_attempts(trace) {
            trw.observe(&attempt);
        }
        let stats = trw.stats();
        (trw.alerts, stats)
    }

    /// Alerts raised so far.
    pub fn alerts(&self) -> &[TrwAlert] {
        &self.alerts
    }

    /// Current memory statistics.
    pub fn stats(&self) -> TrwStats {
        TrwStats {
            sources_tracked: self.walks.len(),
            peak_sources: self.peak_sources,
            first_contact_pairs: self.first_contacts.len(),
            memory_bytes: self.memory_bytes(),
        }
    }

    /// Approximate bytes held: the per-source walk plus the first-contact
    /// pair set (Table 9's TRW row models this per-flow state analytically).
    pub fn memory_bytes(&self) -> usize {
        self.walks.len() * (4 + 24) * 2 + self.first_contacts.len() * 8 * 2
    }
}

/// Memory/state statistics of a TRW run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrwStats {
    /// Sources with live walk state.
    pub sources_tracked: usize,
    /// Peak simultaneous sources (the DoS-amplified quantity).
    pub peak_sources: usize,
    /// Distinct (source, destination) pairs remembered.
    pub first_contact_pairs: usize,
    /// Approximate bytes held.
    pub memory_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifind_flow::Packet;

    fn scan_trace(failures: u32) -> Trace {
        let mut t = Trace::new();
        let scanner: Ip4 = [6, 6, 6, 6].into();
        for i in 0..failures {
            let dst: Ip4 = [129, 105, (i >> 8) as u8, i as u8].into();
            t.push(Packet::syn(i as u64 * 100, scanner, 2000, dst, 445));
        }
        t
    }

    fn benign_trace(conns: u32) -> Trace {
        let mut t = Trace::new();
        let client: Ip4 = [9, 9, 9, 9].into();
        for i in 0..conns {
            let dst: Ip4 = [129, 105, 1, (i % 250) as u8].into();
            t.push(Packet::syn(i as u64 * 50, client, 3000 + i as u16, dst, 80));
            t.push(Packet::syn_ack(
                i as u64 * 50 + 5,
                client,
                3000 + i as u16,
                dst,
                80,
            ));
        }
        t
    }

    #[test]
    fn detects_scanner_quickly() {
        let (alerts, _) = Trw::detect(&scan_trace(20), TrwConfig::default());
        assert_eq!(alerts.len(), 1);
        let a = alerts[0];
        assert_eq!(a.source, Ip4::from([6, 6, 6, 6]));
        // With the default parameters, ~5 consecutive failures decide.
        assert!(a.failures <= 8, "took {} failures", a.failures);
        assert_eq!(a.successes, 0);
    }

    #[test]
    fn benign_source_not_flagged() {
        let (alerts, _) = Trw::detect(&benign_trace(200), TrwConfig::default());
        assert!(alerts.is_empty());
    }

    #[test]
    fn half_successful_scanner_evades_trw() {
        // The paper's observation: scans with interleaved successes stall
        // the walk (HiFIND still catches them via unanswered-SYN counts).
        let mut t = Trace::new();
        let scanner: Ip4 = [7, 7, 7, 7].into();
        for i in 0..400u32 {
            let dst: Ip4 = [129, 105, (i >> 8) as u8, i as u8].into();
            t.push(Packet::syn(i as u64 * 100, scanner, 2000, dst, 80));
            if i % 2 == 0 {
                t.push(Packet::syn_ack(i as u64 * 100 + 5, scanner, 2000, dst, 80));
            }
        }
        let (alerts, _) = Trw::detect(&t, TrwConfig::default());
        assert!(
            alerts.is_empty(),
            "50% success rate should stall the default walk"
        );
    }

    #[test]
    fn slow_scanner_still_caught_eventually() {
        // TRW has no per-interval threshold: evidence accumulates across
        // the whole trace (the scans TRW catches that HiFIND misses).
        let mut t = Trace::new();
        let scanner: Ip4 = [8, 8, 8, 8].into();
        for i in 0..30u32 {
            let dst: Ip4 = [129, 105, 0, i as u8].into();
            // One probe a minute: far below HiFIND's 60/interval threshold.
            t.push(Packet::syn(i as u64 * 60_000, scanner, 2000, dst, 23));
        }
        let (alerts, _) = Trw::detect(&t, TrwConfig::default());
        assert_eq!(alerts.len(), 1);
    }

    #[test]
    fn repeated_contacts_to_same_destination_ignored() {
        let mut t = Trace::new();
        let src: Ip4 = [5, 5, 5, 5].into();
        let dst: Ip4 = [129, 105, 0, 1].into();
        for i in 0..50u32 {
            t.push(Packet::syn(i as u64 * 10, src, 2000 + i as u16, dst, 80));
        }
        let (alerts, stats) = Trw::detect(&t, TrwConfig::default());
        assert!(alerts.is_empty(), "one destination is not a scan");
        assert_eq!(stats.first_contact_pairs, 1);
    }

    #[test]
    fn spoofed_flood_explodes_state() {
        // The DoS vulnerability: every spoofed source creates a walk.
        let mut t = Trace::new();
        for i in 0..10_000u32 {
            let spoofed: Ip4 = Ip4::new(0x5000_0000 + i);
            let dst: Ip4 = [129, 105, 0, 1].into();
            t.push(Packet::syn(i as u64, spoofed, 2000, dst, 80));
        }
        let (_, stats) = Trw::detect(&t, TrwConfig::default());
        assert!(stats.peak_sources >= 10_000);
        assert!(stats.memory_bytes > 10_000 * 8);
    }

    #[test]
    #[should_panic(expected = "succeed less often")]
    fn rejects_inverted_thetas() {
        let _ = Trw::new(TrwConfig {
            theta0: 0.2,
            theta1: 0.8,
            ..TrwConfig::default()
        });
    }
}
