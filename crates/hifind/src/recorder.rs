//! The per-packet data plane: six sketches plus the active-service filter.

use crate::config::HiFindConfig;
use crate::plan::{HashPlan, PlanBatch};
use hifind_flow::{Packet, SegmentKind};
use hifind_hashing::BloomFilter;
use hifind_sketch::{CounterGrid, KarySketch, ReversibleSketch, SketchError, TwoDSketch};
use serde::{Deserialize, Serialize};

/// Everything one router records during one detection interval, in
/// combinable (linear) form.
///
/// Snapshots are what routers ship to the aggregation site (§3.1): pure
/// counter grids plus the active-service Bloom filter — no keys, no
/// per-flow state. [`IntervalSnapshot::combine_into`] is the paper's
/// `COMBINE` applied across vantage points.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IntervalSnapshot {
    /// `{SIP,Dport}` reversible-sketch grid (value `#SYN − #SYN/ACK`).
    pub rs_sip_dport: CounterGrid,
    /// Verifier grid for [`IntervalSnapshot::rs_sip_dport`].
    pub rs_sip_dport_verifier: CounterGrid,
    /// `{DIP,Dport}` reversible-sketch grid.
    pub rs_dip_dport: CounterGrid,
    /// Verifier grid for [`IntervalSnapshot::rs_dip_dport`].
    pub rs_dip_dport_verifier: CounterGrid,
    /// `{SIP,DIP}` reversible-sketch grid.
    pub rs_sip_dip: CounterGrid,
    /// Verifier grid for [`IntervalSnapshot::rs_sip_dip`].
    pub rs_sip_dip_verifier: CounterGrid,
    /// Original-sketch grid (`#SYN` per `{DIP,Dport}`).
    pub os: CounterGrid,
    /// 2D grid for `{SIP,Dport} × {DIP}`.
    pub twod_sipdport_dip: CounterGrid,
    /// 2D grid for `{SIP,DIP} × {Dport}`.
    pub twod_sipdip_dport: CounterGrid,
    /// Cumulative active-service filter (services that ever SYN/ACKed).
    pub active_services: BloomFilter,
    /// Total SYNs this interval.
    pub syn_count: u64,
    /// Total SYN/ACKs this interval.
    pub syn_ack_count: u64,
    /// Total FIN+RST this interval (for the CPM comparison harness).
    pub fin_rst_count: u64,
    /// Record-plane configuration fingerprint
    /// ([`HiFindConfig::fingerprint`]): shapes **and** seeds of every
    /// sketch this snapshot was recorded with. Combining checks it first,
    /// so same-shape/different-seed snapshots are rejected instead of
    /// summing counters of unrelated key sets.
    pub fingerprint: u64,
}

impl IntervalSnapshot {
    /// Adds another router's snapshot into this one (sketch linearity +
    /// Bloom union).
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::FingerprintMismatch`] if the two snapshots
    /// were recorded under different configurations or seeds, and
    /// [`SketchError::CombineMismatch`] if grid shapes differ (possible
    /// only for hand-assembled snapshots, since the fingerprint already
    /// covers shapes).
    pub fn combine_into(&mut self, other: &IntervalSnapshot) -> Result<(), SketchError> {
        self.combine_many(&[other]).map(|_| ())
    }

    /// Adds several routers' snapshots into this one in a single
    /// cache-blocked pass per grid ([`CounterGrid::add_assign_many`]): each
    /// destination tile is brought into cache once and every source's
    /// matching tile is folded in before moving on, instead of streaming
    /// the full destination through cache once per source.
    ///
    /// Returns the counter bytes the merge touched — every source grid
    /// read once plus the destination read and written once — which the
    /// parallel-record bench reports as merge bandwidth.
    ///
    /// # Errors
    ///
    /// [`SketchError::FingerprintMismatch`] /
    /// [`SketchError::CombineMismatch`] as for
    /// [`IntervalSnapshot::combine_into`]. Every fingerprint is checked
    /// before any counter is modified; a shape mismatch (possible only for
    /// hand-assembled snapshots, since the fingerprint covers shapes) may
    /// leave earlier grids already combined, as with `combine_into`.
    pub fn combine_many(&mut self, others: &[&IntervalSnapshot]) -> Result<u64, SketchError> {
        if others.is_empty() {
            return Ok(0);
        }
        for other in others {
            if self.fingerprint != other.fingerprint {
                return Err(SketchError::FingerprintMismatch {
                    expected: self.fingerprint,
                    got: other.fingerprint,
                });
            }
        }
        let mut bytes = 0u64;
        for (g, grid) in self.grids_mut().into_iter().enumerate() {
            let sources: Vec<&CounterGrid> = others.iter().map(|o| o.grids()[g]).collect();
            grid.add_assign_many(&sources)?;
            // Each source read once + destination read and written once.
            bytes += grid.memory_bytes() as u64 * (others.len() as u64 + 2);
        }
        for other in others {
            self.active_services.union(&other.active_services);
            // Wrapping, as in release builds: a peer's counters must not
            // be able to abort a debug build either.
            self.syn_count = self.syn_count.wrapping_add(other.syn_count);
            self.syn_ack_count = self.syn_ack_count.wrapping_add(other.syn_ack_count);
            self.fin_rst_count = self.fin_rst_count.wrapping_add(other.fin_rst_count);
        }
        Ok(bytes)
    }

    /// Serialized size estimate in bytes (what a router ships per
    /// interval).
    pub fn wire_size_bytes(&self) -> usize {
        self.grids().iter().map(|g| g.memory_bytes()).sum::<usize>()
            + self.active_services.memory_bytes()
    }

    /// The nine grids in their canonical (wire) order.
    pub fn grids(&self) -> [&CounterGrid; 9] {
        [
            &self.rs_sip_dport,
            &self.rs_sip_dport_verifier,
            &self.rs_dip_dport,
            &self.rs_dip_dport_verifier,
            &self.rs_sip_dip,
            &self.rs_sip_dip_verifier,
            &self.os,
            &self.twod_sipdport_dip,
            &self.twod_sipdip_dport,
        ]
    }

    /// The nine grids in canonical order, mutably.
    pub fn grids_mut(&mut self) -> [&mut CounterGrid; 9] {
        [
            &mut self.rs_sip_dport,
            &mut self.rs_sip_dport_verifier,
            &mut self.rs_dip_dport,
            &mut self.rs_dip_dport_verifier,
            &mut self.rs_sip_dip,
            &mut self.rs_sip_dip_verifier,
            &mut self.os,
            &mut self.twod_sipdport_dip,
            &mut self.twod_sipdip_dport,
        ]
    }

    /// Assembles a snapshot from its grids in canonical order, its filter,
    /// its `[syn, syn_ack, fin_rst]` counts and its fingerprint.
    pub fn from_parts(
        grids: [CounterGrid; 9],
        active_services: BloomFilter,
        [syn_count, syn_ack_count, fin_rst_count]: [u64; 3],
        fingerprint: u64,
    ) -> Self {
        let [rs_sip_dport, rs_sip_dport_verifier, rs_dip_dport, rs_dip_dport_verifier, rs_sip_dip, rs_sip_dip_verifier, os, twod_sipdport_dip, twod_sipdip_dport] =
            grids;
        IntervalSnapshot {
            rs_sip_dport,
            rs_sip_dport_verifier,
            rs_dip_dport,
            rs_dip_dport_verifier,
            rs_sip_dip,
            rs_sip_dip_verifier,
            os,
            twod_sipdport_dip,
            twod_sipdip_dport,
            active_services,
            syn_count,
            syn_ack_count,
            fin_rst_count,
            fingerprint,
        }
    }
}

/// The shapes every snapshot recorded under one configuration has: what
/// a receiver checks a peer's snapshot against before adding it to a sum.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotShape {
    /// [`HiFindConfig::fingerprint`] of the configuration.
    pub fingerprint: u64,
    /// `(stages, buckets)` of the nine grids, in
    /// [`IntervalSnapshot::grids`] order.
    pub grids: [(usize, usize); 9],
    /// An empty active-service filter of the configured size and seeds.
    pub bloom: BloomFilter,
}

impl SnapshotShape {
    /// What a recorder under `cfg` snapshots: the shapes of its first,
    /// empty snapshot.
    ///
    /// # Errors
    ///
    /// As [`SketchRecorder::new`].
    pub fn of_config(cfg: &HiFindConfig) -> Result<Self, SketchError> {
        let empty = SketchRecorder::new(cfg)?.take_snapshot();
        Ok(SnapshotShape {
            fingerprint: empty.fingerprint,
            grids: empty.grids().map(|g| (g.stages(), g.buckets())),
            bloom: empty.active_services,
        })
    }

    /// The all-zero snapshot of these shapes.
    pub fn zeroed(&self) -> IntervalSnapshot {
        let grids = self
            .grids
            .map(|(stages, buckets)| CounterGrid::new(stages, buckets));
        IntervalSnapshot::from_parts(grids, self.bloom.clone(), [0; 3], self.fingerprint)
    }
}

/// The streaming data-recording module of Figure 2.
///
/// `record` is the only per-packet operation in HiFIND; everything else
/// runs once per interval in the background. Per SYN or SYN/ACK it touches
/// `3 × (6 + 6)` reversible-sketch counters, `6` k-ary counters and
/// `2 × 5` 2D cells — constant work, independent of the number of flows,
/// which is the DoS-resilience property (§3.5). Hash inputs are computed
/// once per packet into a [`HashPlan`] and shared by all six sketches,
/// so the ALU work per packet is a single pass too.
///
/// There is one record path: a packet is a batch of one. `record` plans
/// the packet into a pending [`PlanBatch`] and every `RECORD_BATCH` (256)
/// plans the batch is scattered into the sketches; `take_snapshot`
/// scatters the partial tail first, so a snapshot always covers every
/// packet recorded before it. An interval's first `RECORD_BATCH` plans
/// are scattered one at a time: each interval records into freshly
/// allocated grids, and a link too quiet to fill a batch would otherwise
/// pay all of its first-touch page faults inside the interval close.
#[derive(Clone, Debug)]
pub struct SketchRecorder {
    rs_sip_dport: ReversibleSketch,
    rs_dip_dport: ReversibleSketch,
    rs_sip_dip: ReversibleSketch,
    os: KarySketch,
    twod_sipdport_dip: TwoDSketch,
    twod_sipdip_dport: TwoDSketch,
    active_services: BloomFilter,
    syn_count: u64,
    syn_ack_count: u64,
    fin_rst_count: u64,
    fingerprint: u64,
    /// Plans recorded but not yet scattered into the sketches.
    pending: PlanBatch,
}

/// Plans per scatter: a few SIMD chunks' worth, small enough that all
/// twelve premix columns stay within L1 while the sketches scatter from
/// them.
pub(crate) const RECORD_BATCH: usize = 256;

impl SketchRecorder {
    /// Builds the recorder from a configuration.
    ///
    /// # Errors
    ///
    /// Propagates sketch construction errors (invalid stage/bucket
    /// combinations).
    pub fn new(cfg: &HiFindConfig) -> Result<Self, SketchError> {
        Ok(SketchRecorder {
            fingerprint: cfg.fingerprint(),
            rs_sip_dport: ReversibleSketch::new(cfg.rs_sip_dport_config())?,
            rs_dip_dport: ReversibleSketch::new(cfg.rs_dip_dport_config())?,
            rs_sip_dip: ReversibleSketch::new(cfg.rs_sip_dip_config())?,
            os: KarySketch::new(cfg.os)?,
            twod_sipdport_dip: TwoDSketch::new(cfg.twod_sipdport_dip_config())?,
            twod_sipdip_dport: TwoDSketch::new(cfg.twod_sipdip_dport_config())?,
            active_services: BloomFilter::new(cfg.active_service_bloom_bits, 4, cfg.seed ^ 0xB100),
            syn_count: 0,
            syn_ack_count: 0,
            fin_rst_count: 0,
            pending: PlanBatch::with_capacity(RECORD_BATCH),
        })
    }

    /// Records one packet (the hot path): plans a SYN or SYN/ACK into the
    /// pending batch and scatters the batch once it holds `RECORD_BATCH`
    /// plans, or at once while this interval has scattered fewer.
    #[inline]
    pub fn record(&mut self, packet: &Packet) {
        let Some(o) = packet.orient() else { return };
        match o.kind {
            SegmentKind::Syn | SegmentKind::SynAck => {
                self.pending.push(&HashPlan::for_oriented(&o));
                let scattered = self.syn_count + self.syn_ack_count;
                if self.pending.len() >= RECORD_BATCH || scattered < RECORD_BATCH as u64 {
                    self.flush();
                }
            }
            SegmentKind::Fin | SegmentKind::Rst => self.fin_rst_count += 1,
            SegmentKind::Other => {}
        }
    }

    /// Records a slice of packets, one [`SketchRecorder::record`] each.
    pub fn record_all(&mut self, packets: &[Packet]) {
        for packet in packets {
            self.record(packet);
        }
    }

    /// Scatters the pending batch into the sketches: each sketch consumes
    /// its premix columns whole, so the dispatched
    /// [`hifind_sketch::SketchKernel`] finishes bucket indices four packets
    /// per instruction and the per-stage counter scatters are issued
    /// back-to-back. Column order is arrival order, so every sketch sees
    /// the update sequence per-packet `update` calls would have made.
    fn flush(&mut self) {
        let batch = &self.pending;
        if batch.is_empty() {
            return;
        }
        self.rs_sip_dport
            .update_batch(&batch.sip_dport, &batch.sip_dport_mix, &batch.values);
        self.rs_dip_dport
            .update_batch(&batch.dip_dport, &batch.dip_dport_mix, &batch.values);
        self.rs_sip_dip
            .update_batch(&batch.sip_dip, &batch.sip_dip_mix, &batch.values);
        self.twod_sipdport_dip.update_batch_premixed(
            &batch.sip_dport_mix,
            &batch.dip_mix,
            &batch.values,
        );
        self.twod_sipdip_dport.update_batch_premixed(
            &batch.sip_dip_mix,
            &batch.dport_mix,
            &batch.values,
        );
        self.os.update_batch_premixed(&batch.os_mix, &batch.os_ones);
        for &key in &batch.synack_keys {
            self.active_services.insert(key);
        }
        self.syn_count += batch.os_ones.len() as u64;
        self.syn_ack_count += batch.synack_keys.len() as u64;
        self.pending.clear();
    }

    /// Ends the interval: moves the per-interval counters out into the
    /// snapshot, leaving zeroed sketches behind (the active-service filter
    /// is cumulative, so it is copied and persists).
    pub fn take_snapshot(&mut self) -> IntervalSnapshot {
        self.flush();
        // Paper configurations always attach verifiers; a verifier-less
        // sketch contributes a minimal zero grid instead of aborting the
        // data plane, keeping snapshots structurally complete either way.
        fn take_reversible(s: &mut ReversibleSketch) -> (CounterGrid, CounterGrid) {
            let (grid, verifier) = s.take_counters();
            (grid, verifier.unwrap_or_else(|| CounterGrid::new(1, 1)))
        }
        let (rs_sip_dport, rs_sip_dport_verifier) = take_reversible(&mut self.rs_sip_dport);
        let (rs_dip_dport, rs_dip_dport_verifier) = take_reversible(&mut self.rs_dip_dport);
        let (rs_sip_dip, rs_sip_dip_verifier) = take_reversible(&mut self.rs_sip_dip);
        IntervalSnapshot {
            rs_sip_dport,
            rs_sip_dport_verifier,
            rs_dip_dport,
            rs_dip_dport_verifier,
            rs_sip_dip,
            rs_sip_dip_verifier,
            os: self.os.take_counters(),
            twod_sipdport_dip: self.twod_sipdport_dip.take_counters(),
            twod_sipdip_dport: self.twod_sipdip_dport.take_counters(),
            active_services: self.active_services.clone(),
            syn_count: std::mem::take(&mut self.syn_count),
            syn_ack_count: std::mem::take(&mut self.syn_ack_count),
            fin_rst_count: std::mem::take(&mut self.fin_rst_count),
            fingerprint: self.fingerprint,
        }
    }

    /// The record-plane configuration fingerprint stamped on every
    /// snapshot (see [`HiFindConfig::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Total recording memory in bytes (§5.5.1; the Table 9 model applies
    /// hardware counter widths to the same bucket counts).
    pub fn memory_bytes(&self) -> usize {
        self.rs_sip_dport.memory_bytes()
            + self.rs_dip_dport.memory_bytes()
            + self.rs_sip_dip.memory_bytes()
            + self.os.memory_bytes()
            + self.twod_sipdport_dip.memory_bytes()
            + self.twod_sipdip_dport.memory_bytes()
            + self.active_services.memory_bytes()
    }

    /// Counter memory accesses per recorded SYN/SYN-ACK (§5.5.2).
    pub fn accesses_per_packet(&self) -> usize {
        self.rs_sip_dport.accesses_per_update()
            + self.rs_dip_dport.accesses_per_update()
            + self.rs_sip_dip.accesses_per_update()
            + self.os.accesses_per_update()
            + self.twod_sipdport_dip.accesses_per_update()
            + self.twod_sipdip_dport.accesses_per_update()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifind_flow::keys::{DipDport, SketchKey};
    use hifind_flow::{Ip4, Packet};

    fn cfg() -> HiFindConfig {
        HiFindConfig::small(5)
    }

    fn syn(ts: u64) -> Packet {
        Packet::syn(ts, [1, 2, 3, 4].into(), 999, [129, 105, 0, 1].into(), 80)
    }

    #[test]
    fn syn_and_synack_cancel_in_all_value_sketches() {
        let mut r = SketchRecorder::new(&cfg()).unwrap();
        let c: Ip4 = [1, 2, 3, 4].into();
        let s: Ip4 = [129, 105, 0, 1].into();
        for i in 0..50 {
            r.record(&Packet::syn(i, c, 999, s, 80));
            r.record(&Packet::syn_ack(i, c, 999, s, 80));
        }
        let snap = r.take_snapshot();
        assert!(snap.rs_sip_dport.is_zero());
        assert!(snap.rs_dip_dport.is_zero());
        assert!(snap.rs_sip_dip.is_zero());
        assert!(snap.twod_sipdip_dport.is_zero());
        // The OS records #SYN only, so it is NOT zero.
        assert!(!snap.os.is_zero());
        assert_eq!(snap.syn_count, 50);
        assert_eq!(snap.syn_ack_count, 50);
    }

    #[test]
    fn active_services_learns_from_synacks_only() {
        let mut r = SketchRecorder::new(&cfg()).unwrap();
        let c: Ip4 = [1, 2, 3, 4].into();
        let live: Ip4 = [129, 105, 0, 1].into();
        let dead: Ip4 = [129, 105, 0, 2].into();
        r.record(&Packet::syn(0, c, 999, live, 80));
        r.record(&Packet::syn_ack(1, c, 999, live, 80));
        r.record(&Packet::syn(2, c, 998, dead, 80));
        let snap = r.take_snapshot();
        assert!(snap
            .active_services
            .contains(DipDport::new(live, 80).to_u64()));
        assert!(!snap
            .active_services
            .contains(DipDport::new(dead, 80).to_u64()));
    }

    #[test]
    fn snapshot_clears_interval_state_but_keeps_bloom() {
        let mut r = SketchRecorder::new(&cfg()).unwrap();
        let c: Ip4 = [1, 2, 3, 4].into();
        let s: Ip4 = [129, 105, 0, 1].into();
        r.record(&Packet::syn(0, c, 999, s, 80));
        r.record(&Packet::syn_ack(1, c, 999, s, 80));
        let _ = r.take_snapshot();
        let snap2 = r.take_snapshot();
        assert!(snap2.rs_dip_dport.is_zero());
        assert!(snap2.os.is_zero());
        assert_eq!(snap2.syn_count, 0);
        // Bloom is cumulative.
        assert!(snap2
            .active_services
            .contains(DipDport::new(s, 80).to_u64()));
    }

    #[test]
    fn move_out_take_matches_clone_then_clear() {
        use hifind_flow::rng::SplitMix64;
        // The snapshot a clone-then-clear take would have built: every
        // grid copied as it stands, the counters read before resetting.
        fn cloned(r: &SketchRecorder) -> IntervalSnapshot {
            let verifier = |s: &ReversibleSketch| s.verifier().map(|v| v.grid().clone());
            IntervalSnapshot {
                rs_sip_dport: r.rs_sip_dport.grid().clone(),
                rs_sip_dport_verifier: verifier(&r.rs_sip_dport).unwrap(),
                rs_dip_dport: r.rs_dip_dport.grid().clone(),
                rs_dip_dport_verifier: verifier(&r.rs_dip_dport).unwrap(),
                rs_sip_dip: r.rs_sip_dip.grid().clone(),
                rs_sip_dip_verifier: verifier(&r.rs_sip_dip).unwrap(),
                os: r.os.grid().clone(),
                twod_sipdport_dip: r.twod_sipdport_dip.grid().clone(),
                twod_sipdip_dport: r.twod_sipdip_dport.grid().clone(),
                active_services: r.active_services.clone(),
                syn_count: r.syn_count,
                syn_ack_count: r.syn_ack_count,
                fin_rst_count: r.fin_rst_count,
                fingerprint: r.fingerprint,
            }
        }
        let mut r = SketchRecorder::new(&cfg()).unwrap();
        let mut rng = SplitMix64::new(41);
        for interval in 0..3u64 {
            for i in 0..200 * (interval + 1) {
                let c = Ip4::new(rng.next_u32());
                let s = Ip4::new(0x8169_0000 | (rng.next_u32() & 0xFF));
                r.record(&match rng.below(4) {
                    0 => Packet::syn_ack(i, c, 999, s, 80),
                    1 => Packet::rst(i, c, 999, s, 80),
                    _ => Packet::syn(i, c, 999, s, 80),
                });
            }
            // The reference reads the sketches directly, so scatter the
            // pending batch into them first (take_snapshot does the same).
            r.flush();
            let expected = cloned(&r);
            assert_eq!(r.take_snapshot(), expected, "interval {interval}");
            for rs in [&r.rs_sip_dport, &r.rs_dip_dport, &r.rs_sip_dip] {
                assert!(rs.grid().is_zero() && rs.total() == 0);
                let v = rs.verifier().unwrap();
                assert!(v.grid().is_zero() && v.total() == 0);
            }
            assert!(r.os.grid().is_zero() && r.os.total() == 0);
            for twod in [&r.twod_sipdport_dip, &r.twod_sipdip_dport] {
                assert!(twod.grid().is_zero() && twod.total() == 0);
            }
            assert_eq!((r.syn_count, r.syn_ack_count, r.fin_rst_count), (0, 0, 0));
            // The cumulative filter stays behind untouched.
            assert_eq!(r.active_services, expected.active_services);
        }
    }

    #[test]
    fn fins_and_rsts_do_not_touch_sketches() {
        let mut r = SketchRecorder::new(&cfg()).unwrap();
        let c: Ip4 = [1, 2, 3, 4].into();
        let s: Ip4 = [129, 105, 0, 1].into();
        r.record(&Packet::fin(0, c, 999, s, 80));
        r.record(&Packet::rst(1, c, 999, s, 80));
        let snap = r.take_snapshot();
        assert!(snap.rs_dip_dport.is_zero());
        assert!(snap.os.is_zero());
        assert_eq!(snap.fin_rst_count, 2);
    }

    #[test]
    fn combine_equals_single_recorder() {
        let config = cfg();
        let mut merged = SketchRecorder::new(&config).unwrap();
        let mut a = SketchRecorder::new(&config).unwrap();
        let mut b = SketchRecorder::new(&config).unwrap();
        for i in 0..500u64 {
            let p = syn(i);
            merged.record(&p);
            if i % 2 == 0 {
                a.record(&p);
            } else {
                b.record(&p);
            }
        }
        let mut sa = a.take_snapshot();
        let sb = b.take_snapshot();
        sa.combine_into(&sb).unwrap();
        let sm = merged.take_snapshot();
        assert_eq!(sa.rs_dip_dport, sm.rs_dip_dport);
        assert_eq!(sa.rs_sip_dip, sm.rs_sip_dip);
        assert_eq!(sa.os, sm.os);
        assert_eq!(sa.twod_sipdip_dport, sm.twod_sipdip_dport);
        assert_eq!(sa.syn_count, sm.syn_count);
    }

    #[test]
    fn record_all_is_bit_identical_to_per_packet_record() {
        use hifind_flow::rng::SplitMix64;
        let config = cfg();
        let mut serial = SketchRecorder::new(&config).unwrap();
        let mut batched = SketchRecorder::new(&config).unwrap();
        let mut rng = SplitMix64::new(77);
        // 3 × RECORD_BATCH + ragged tail, with FIN/RST/Other mixed in so
        // the slice entry point's bookkeeping is exercised too.
        let pkts: Vec<Packet> = (0..(3 * RECORD_BATCH + 19) as u64)
            .map(|i| {
                let c = Ip4::new(rng.next_u32());
                let s = Ip4::new(0x8169_0000 | (rng.next_u32() & 0xFF));
                let port = 1 + (rng.next_u32() & 0x3FF) as u16;
                match rng.below(6) {
                    0 => Packet::syn_ack(i, c, 999, s, port),
                    1 => Packet::fin(i, c, 999, s, port),
                    2 => Packet::rst(i, c, 999, s, port),
                    _ => Packet::syn(i, c, 999, s, port),
                }
            })
            .collect();
        for p in &pkts {
            serial.record(p);
        }
        batched.record_all(&pkts);
        assert_eq!(batched.take_snapshot(), serial.take_snapshot());
    }

    #[test]
    fn combine_many_matches_sequential_combines() {
        let config = cfg();
        let mut recorders: Vec<SketchRecorder> = (0..4)
            .map(|_| SketchRecorder::new(&config).unwrap())
            .collect();
        for i in 0..800u64 {
            recorders[(i % 4) as usize].record(&syn(i));
        }
        let snaps: Vec<IntervalSnapshot> =
            recorders.iter_mut().map(|r| r.take_snapshot()).collect();
        let mut seq = snaps[0].clone();
        for s in &snaps[1..] {
            seq.combine_into(s).unwrap();
        }
        let mut many = snaps[0].clone();
        let refs: Vec<&IntervalSnapshot> = snaps[1..].iter().collect();
        let bytes = many.combine_many(&refs).unwrap();
        assert_eq!(many, seq);
        assert!(bytes > 0);
        // Empty source list is a no-op reporting zero traffic.
        assert_eq!(many.clone().combine_many(&[]).unwrap(), 0);
    }

    #[test]
    fn combine_rejects_mismatched_configs() {
        let mut a = SketchRecorder::new(&HiFindConfig::small(1)).unwrap();
        let mut big = HiFindConfig::small(1);
        big.rs48.buckets = 1 << 6;
        let mut b = SketchRecorder::new(&big).unwrap();
        let mut sa = a.take_snapshot();
        let sb = b.take_snapshot();
        assert!(sa.combine_into(&sb).is_err());
    }

    #[test]
    fn combine_rejects_same_shape_different_seed() {
        // Identical shapes, different hash functions: the case the
        // grid-shape checks cannot catch and that used to combine into
        // garbage. The fingerprint rejects it with a named error.
        let cfg_a = HiFindConfig::small(1);
        let cfg_b = HiFindConfig::small(2);
        let mut a = SketchRecorder::new(&cfg_a).unwrap();
        let mut b = SketchRecorder::new(&cfg_b).unwrap();
        let mut sa = a.take_snapshot();
        let sb = b.take_snapshot();
        assert_eq!(
            sa.combine_into(&sb),
            Err(SketchError::FingerprintMismatch {
                expected: cfg_a.fingerprint(),
                got: cfg_b.fingerprint(),
            })
        );
    }

    #[test]
    fn plan_driven_record_matches_per_sketch_updates() {
        // Guards the one record path against silent hash or ordering
        // divergence: the buffered, batched recorder must produce snapshots
        // bit-identical to six independently driven sketches using the
        // per-key `update` entry points on the same keys. Each interval
        // scatters its first batch plan by plan, then whole batches, and
        // ends with a partial batch pending (3 batches + 19 plans, then
        // 1 + 7); FIN/RST/Other packets are mixed in, and the second
        // interval checks that the snapshot left nothing behind.
        use hifind_flow::keys::{SipDip, SipDport};
        use hifind_flow::rng::SplitMix64;

        let config = cfg();
        let mut r = SketchRecorder::new(&config).unwrap();
        let mut bloom = BloomFilter::new(config.active_service_bloom_bits, 4, config.seed ^ 0xB100);
        let mut rng = SplitMix64::new(31);
        let mut ts = 0u64;
        for plans in [3 * RECORD_BATCH + 19, RECORD_BATCH + 7] {
            let mut rs_sip_dport = ReversibleSketch::new(config.rs_sip_dport_config()).unwrap();
            let mut rs_dip_dport = ReversibleSketch::new(config.rs_dip_dport_config()).unwrap();
            let mut rs_sip_dip = ReversibleSketch::new(config.rs_sip_dip_config()).unwrap();
            let mut os = KarySketch::new(config.os).unwrap();
            let mut twod_a = TwoDSketch::new(config.twod_sipdport_dip_config()).unwrap();
            let mut twod_b = TwoDSketch::new(config.twod_sipdip_dport_config()).unwrap();
            let (mut syns, mut syn_acks, mut fin_rsts, mut planned) = (0, 0, 0, 0);
            while planned < plans {
                ts += 1;
                let c = Ip4::new(rng.next_u32());
                let s = Ip4::new(0x8169_0000 | (rng.next_u32() & 0xFF));
                let port = 1 + (rng.next_u32() & 0x3FF) as u16;
                let p = match rng.below(8) {
                    0..=2 => Packet::syn_ack(ts, c, 999, s, port),
                    3 => Packet::fin(ts, c, 999, s, port),
                    4 => Packet::rst(ts, c, 999, s, port),
                    5 => Packet {
                        kind: SegmentKind::Other,
                        ..Packet::syn(ts, c, 999, s, port)
                    },
                    _ => Packet::syn(ts, c, 999, s, port),
                };
                r.record(&p);
                let o = p.orient().unwrap();
                let v = o.syn_minus_synack();
                let sip_dport = SipDport::new(o.client, o.server_port).to_u64();
                let dip_dport = DipDport::new(o.server, o.server_port).to_u64();
                let sip_dip = SipDip::new(o.client, o.server).to_u64();
                match o.kind {
                    SegmentKind::Syn | SegmentKind::SynAck => {
                        planned += 1;
                        rs_sip_dport.update(sip_dport, v);
                        rs_dip_dport.update(dip_dport, v);
                        rs_sip_dip.update(sip_dip, v);
                        twod_a.update(sip_dport, o.server.raw() as u64, v);
                        twod_b.update(sip_dip, o.server_port as u64, v);
                        if o.kind == SegmentKind::Syn {
                            os.update(dip_dport, 1);
                            syns += 1;
                        } else {
                            bloom.insert(dip_dport);
                            syn_acks += 1;
                        }
                    }
                    SegmentKind::Fin | SegmentKind::Rst => fin_rsts += 1,
                    SegmentKind::Other => {}
                }
            }
            assert_eq!(r.pending.len(), plans % RECORD_BATCH, "tail still pending");
            let snap = r.take_snapshot();
            assert!(r.pending.is_empty());
            assert_eq!(&snap.rs_sip_dport, rs_sip_dport.grid());
            assert_eq!(
                Some(&snap.rs_sip_dport_verifier),
                rs_sip_dport.verifier().map(|v| v.grid())
            );
            assert_eq!(&snap.rs_dip_dport, rs_dip_dport.grid());
            assert_eq!(
                Some(&snap.rs_dip_dport_verifier),
                rs_dip_dport.verifier().map(|v| v.grid())
            );
            assert_eq!(&snap.rs_sip_dip, rs_sip_dip.grid());
            assert_eq!(
                Some(&snap.rs_sip_dip_verifier),
                rs_sip_dip.verifier().map(|v| v.grid())
            );
            assert_eq!(&snap.os, os.grid());
            assert_eq!(&snap.twod_sipdport_dip, twod_a.grid());
            assert_eq!(&snap.twod_sipdip_dport, twod_b.grid());
            assert_eq!(snap.active_services, bloom);
            assert_eq!(
                (snap.syn_count, snap.syn_ack_count, snap.fin_rst_count),
                (syns, syn_acks, fin_rsts)
            );
        }
    }

    #[test]
    #[ignore = "manual profiling probe; run with --ignored --nocapture in release"]
    fn profile_record_phases() {
        use hifind_flow::rng::SplitMix64;
        use std::time::Instant;
        let config = HiFindConfig::paper(9);
        let mut rng = SplitMix64::new(6);
        let pkts: Vec<Packet> = (0..500_000u64)
            .map(|i| {
                let c = Ip4::new(rng.next_u32());
                let s = Ip4::new(0x8169_0000 | (rng.next_u32() & 0xFFFF));
                if rng.chance(0.45) {
                    Packet::syn_ack(i, c, 4000, s, 80)
                } else {
                    Packet::syn(i, c, 4000, s, 80)
                }
            })
            .collect();
        let mut r = SketchRecorder::new(&config).unwrap();
        let n = pkts.len() as f64;
        for round in 0..3 {
            let t = Instant::now();
            let mut batch = PlanBatch::with_capacity(pkts.len());
            for p in &pkts {
                let Some(o) = p.orient() else { continue };
                batch.push(&HashPlan::for_oriented(&o));
            }
            let plan_ns = t.elapsed().as_nanos() as f64 / n;
            macro_rules! time_it {
                ($label:expr, $e:expr) => {{
                    let t = Instant::now();
                    $e;
                    println!(
                        "round {round} {:<14} {:6.1} ns/pkt",
                        $label,
                        t.elapsed().as_nanos() as f64 / n
                    );
                }};
            }
            println!("round {round} {:<14} {plan_ns:6.1} ns/pkt", "plan");
            time_it!(
                "rs_sip_dport",
                r.rs_sip_dport
                    .update_batch(&batch.sip_dport, &batch.sip_dport_mix, &batch.values)
            );
            time_it!(
                "rs_dip_dport",
                r.rs_dip_dport
                    .update_batch(&batch.dip_dport, &batch.dip_dport_mix, &batch.values)
            );
            time_it!(
                "rs_sip_dip",
                r.rs_sip_dip
                    .update_batch(&batch.sip_dip, &batch.sip_dip_mix, &batch.values)
            );
            time_it!(
                "twod_a",
                r.twod_sipdport_dip.update_batch_premixed(
                    &batch.sip_dport_mix,
                    &batch.dip_mix,
                    &batch.values
                )
            );
            time_it!(
                "twod_b",
                r.twod_sipdip_dport.update_batch_premixed(
                    &batch.sip_dip_mix,
                    &batch.dport_mix,
                    &batch.values
                )
            );
            time_it!(
                "os",
                r.os.update_batch_premixed(&batch.os_mix, &batch.os_ones)
            );
            time_it!(
                "bloom",
                for &key in &batch.synack_keys {
                    r.active_services.insert(key);
                }
            );
        }
    }

    #[test]
    fn memory_and_accesses_are_reported() {
        let r = SketchRecorder::new(&HiFindConfig::paper(0)).unwrap();
        // 3 RS × (6 + 6 verifier) + 6 OS + 2 × 5 2D = 52 counter accesses.
        assert_eq!(r.accesses_per_packet(), 3 * 12 + 6 + 10);
        assert!(r.memory_bytes() > 1 << 20);
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let mut r = SketchRecorder::new(&cfg()).unwrap();
        r.record(&syn(3));
        let snap = r.take_snapshot();
        let json = serde_json::to_vec(&snap).unwrap();
        let back: IntervalSnapshot = serde_json::from_slice(&json).unwrap();
        assert_eq!(back, snap);
        assert!(snap.wire_size_bytes() > 0);
    }
}
