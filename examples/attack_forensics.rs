//! Attack forensics with reversible sketches: recover the *culprit flow
//! keys* from nothing but sketch counters, then classify the attack type
//! with the 2D sketch — the mitigation story of paper §3.3/§4.
//!
//! Run with: `cargo run --release --example attack_forensics`

use hifind_flow::keys::{SipDport, SketchKey};
use hifind_flow::rng::SplitMix64;
use hifind_flow::Ip4;
use hifind_sketch::{
    ColumnShape, InferOptions, ReversibleSketch, RsConfig, TwoDConfig, TwoDSketch,
};

fn main() {
    // A reversible sketch records {SIP, Dport} with value #SYN − #SYN/ACK.
    // Note what it does NOT store: any key. 2^12 buckets × 6 stages, full
    // stop.
    let mut rs = ReversibleSketch::new(RsConfig::paper_48bit(99)).expect("paper config");
    let mut twod = TwoDSketch::new(TwoDConfig::paper(99)).expect("paper config");

    // 100k benign flows (mostly completing → values hover around zero).
    let mut rng = SplitMix64::new(1);
    for _ in 0..100_000 {
        let client = Ip4::new(rng.next_u32());
        let port = 1 + rng.below(1024) as u16;
        let key = SipDport::new(client, port).to_u64();
        rs.update(key, 1);
        if rng.chance(0.97) {
            rs.update(key, -1);
        }
    }

    // Three attackers hide in the stream.
    let attackers = [
        (
            Ip4::from([204, 10, 110, 38]),
            1433u16,
            900i64,
            "SQLSnake-style Hscan",
        ),
        (
            Ip4::from([15, 192, 50, 153]),
            4899,
            650,
            "Rahack-style Hscan",
        ),
        (Ip4::from([95, 30, 62, 202]), 3306, 420, "MySQL bot scan"),
    ];
    for &(sip, dport, count, _) in &attackers {
        let key = SipDport::new(sip, dport).to_u64();
        rs.update(key, count);
        // The 2D sketch records {SIP,Dport} × {DIP}: a horizontal scan
        // spreads over destinations.
        for i in 0..count {
            twod.update(key, 0x8169_0000 + i as u64, 1);
        }
    }
    // One non-spoofed flood: same key shape, but all mass on ONE target.
    let flood = (Ip4::from([61, 4, 4, 4]), 80u16, 800i64);
    let flood_key = SipDport::new(flood.0, flood.1).to_u64();
    rs.update(flood_key, flood.2);
    for _ in 0..flood.2 {
        twod.update(flood_key, 0x8169_0001, 1);
    }

    // INFERENCE: reconstruct the heavy keys from the counters alone.
    let result = rs
        .hash()
        .infer(rs.grid(), rs.verifier(), 300, &InferOptions::default());
    println!(
        "inference explored {} candidates over heavy buckets {:?}",
        result.stats.candidates_explored, result.stats.heavy_buckets
    );
    println!("\nrecovered culprit keys:");
    for (key, estimate) in result.typed::<SipDport>() {
        let shape = twod.hash().classify(twod.grid(), key.to_u64(), 5, 0.8);
        let verdict = match shape {
            ColumnShape::Dispersed => "horizontal scan (many targets)",
            ColumnShape::Concentrated => "SYN flooding (single target)",
        };
        let truth = attackers
            .iter()
            .find(|&&(s, p, _, _)| s == key.sip() && p == key.dport())
            .map(|&(_, _, _, label)| label)
            .unwrap_or(if key.sip() == flood.0 {
                "non-spoofed flood"
            } else {
                "?"
            });
        println!("  {key}  Δ≈{estimate:<5}  2D verdict: {verdict:<35} truth: {truth}");
    }
    println!(
        "\nall of this came out of {:.1} KB of counters — no flow table anywhere.",
        rs.memory_bytes() as f64 / 1e3
    );
}
