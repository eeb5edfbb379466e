//! Adversarial tests for the 2D sketch classifier (paper §4): can an
//! attacker manipulate the column-concentration test?

use hifind_flow::rng::SplitMix64;
use hifind_sketch::{ColumnShape, TwoDConfig, TwoDSketch};

/// A flooder padding its attack with a few low-rate decoy ports cannot
/// flip the verdict to "vertical scan": the top-p mass still dominates.
#[test]
fn decoy_ports_do_not_disguise_flooding() {
    let mut s = TwoDSketch::new(TwoDConfig::paper(1)).unwrap();
    let x = 0xF100D;
    for _ in 0..2000 {
        s.update(x, 80, 1); // the real flood port
    }
    // Decoys: 20 extra ports with 1% of the mass each would require the
    // attacker to *reduce* the attack's own concentration below top-5/φ —
    // at which point the flood rate per port drops below the step-1
    // threshold instead.
    for port in 0..20u64 {
        s.update(x, 1000 + port, 20);
    }
    assert_eq!(
        s.hash().classify(s.grid(), x, 5, 0.8),
        ColumnShape::Concentrated
    );
}

/// Conversely, a vertical scanner concentrating 30% of probes on one port
/// still classifies as a scan: the remaining mass spreads over the column.
#[test]
fn skewed_vertical_scan_still_dispersed() {
    let mut s = TwoDSketch::new(TwoDConfig::paper(2)).unwrap();
    let x = 0x5CA9;
    for _ in 0..600 {
        s.update(x, 22, 1); // favourite port
    }
    for port in 0..1400u64 {
        s.update(x, port, 1);
    }
    assert_eq!(
        s.hash().classify(s.grid(), x, 5, 0.8),
        ColumnShape::Dispersed
    );
}

/// An attacker flooding *other* x-keys that collide into the same columns
/// cannot flip a scan verdict to flooding: they would need to hit the same
/// (x-bucket, y-bucket) cells in a majority of the independently-hashed
/// matrices.
#[test]
fn column_pollution_does_not_transfer_across_matrices() {
    let cfg = TwoDConfig::paper(3);
    let mut s = TwoDSketch::new(cfg).unwrap();
    let scan_key = 0x5CA9_0001u64;
    for port in 0..500u64 {
        s.update(scan_key, port, 1);
    }
    assert_eq!(
        s.hash().classify(s.grid(), scan_key, 5, 0.8),
        ColumnShape::Dispersed
    );
    // Adversarial pollution: a million updates from random x-keys on one
    // port. Some land in scan_key's column in *one* matrix, but the
    // majority vote over 5 independent matrices holds.
    let mut rng = SplitMix64::new(4);
    for _ in 0..1_000_000 {
        s.update(rng.next_u64(), 80, 1);
    }
    assert_eq!(
        s.hash().classify(s.grid(), scan_key, 5, 0.8),
        ColumnShape::Dispersed,
        "random-key pollution must not flip the majority vote"
    );
}

/// Negative mass (completed handshakes) aimed at a flooding victim's
/// column cannot hide the flood: concentration ignores non-positive cells.
#[test]
fn negative_mass_cannot_hide_flooding() {
    let mut s = TwoDSketch::new(TwoDConfig::paper(5)).unwrap();
    let x = 0xF100D;
    for _ in 0..1000 {
        s.update(x, 80, 1);
    }
    // Attacker-completed handshakes on other ports drive those cells
    // negative.
    for port in 0..63u64 {
        s.update(x, 200 + port, -50);
    }
    assert_eq!(
        s.hash().classify(s.grid(), x, 5, 0.8),
        ColumnShape::Concentrated
    );
}
