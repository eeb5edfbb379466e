//! The per-packet data plane: six sketches plus the active-service filter.

use crate::config::HiFindConfig;
use crate::plan::{HashPlan, PlanBatch};
use hifind_flow::{Packet, SegmentKind};
use hifind_hashing::BloomFilter;
use hifind_sketch::{CounterGrid, KaryHash, ReversibleHash, SketchError, TwoDHash};
use serde::{Deserialize, Serialize};

/// Everything one router records during one detection interval, in
/// combinable (linear) form.
///
/// Snapshots are what routers ship to the aggregation site (§3.1): pure
/// counter grids plus the active-service Bloom filter — no keys, no
/// per-flow state. [`IntervalSnapshot::combine_many`] is the paper's
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
    /// Adds other routers' snapshots into this one (sketch linearity +
    /// Bloom union) in a single cache-blocked pass per grid
    /// ([`CounterGrid::add_assign_many`]): each destination tile is brought
    /// into cache once and every source's matching tile is folded in before
    /// moving on, instead of streaming the full destination through cache
    /// once per source.
    ///
    /// Returns the counter bytes the merge touched — every source grid
    /// read once plus the destination read and written once — which the
    /// parallel-record bench reports as merge bandwidth.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError::FingerprintMismatch`] if a snapshot was
    /// recorded under a different configuration or seed, and
    /// [`SketchError::CombineMismatch`] if a grid shape or the Bloom
    /// filter's size or seeds differ (possible only for hand-assembled
    /// snapshots, since the fingerprint covers shapes). Every fingerprint,
    /// then every shape, is checked before anything is modified, so `self`
    /// is untouched on error.
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
        let (bloom_words, bloom_seeds) = (
            self.active_services.bit_words().len(),
            self.active_services.hash_seeds(),
        );
        for other in others {
            let grids_match = self
                .grids()
                .iter()
                .zip(other.grids())
                .all(|(a, b)| (a.stages(), a.buckets()) == (b.stages(), b.buckets()));
            if !grids_match
                || other.active_services.bit_words().len() != bloom_words
                || other.active_services.hash_seeds() != bloom_seeds
            {
                return Err(SketchError::CombineMismatch);
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
        // Read off a real recorder's first snapshot, not derived from the
        // configuration alone: skipping these two full-size allocations at
        // start-up left glibc's heap laid out so that a tier's per-interval
        // grids page-faulted every interval (idle-tiered benchmark, 2 vCPUs).
        let empty = SketchRecorder::new(cfg)?.take_snapshot();
        Ok(SnapshotShape {
            fingerprint: empty.fingerprint,
            grids: empty.grids().map(|g| (g.stages(), g.buckets())),
            bloom: empty.active_services,
        })
    }

    fn of(cfg: &HiFindConfig, hashes: &SketchHashes) -> Self {
        SnapshotShape {
            fingerprint: cfg.fingerprint(),
            grids: hashes.grid_shapes(),
            bloom: BloomFilter::new(cfg.active_service_bloom_bits, 4, cfg.seed ^ 0xB100),
        }
    }

    /// The all-zero snapshot of these shapes.
    pub fn zeroed(&self) -> IntervalSnapshot {
        let grids = self
            .grids
            .map(|(stages, buckets)| CounterGrid::new(stages, buckets));
        IntervalSnapshot::from_parts(grids, self.bloom.clone(), [0; 3], self.fingerprint)
    }
}

/// The hash families of the six sketches under one configuration: what
/// the recorder writes its grids through and the detector reads them
/// through.
#[derive(Clone, Debug)]
pub(crate) struct SketchHashes {
    pub(crate) rs_sip_dport: ReversibleHash,
    pub(crate) rs_dip_dport: ReversibleHash,
    pub(crate) rs_sip_dip: ReversibleHash,
    pub(crate) os: KaryHash,
    pub(crate) twod_sipdport_dip: TwoDHash,
    pub(crate) twod_sipdip_dport: TwoDHash,
}

impl SketchHashes {
    /// Derives every family from the configuration's seeds.
    pub(crate) fn new(cfg: &HiFindConfig) -> Result<Self, SketchError> {
        Ok(SketchHashes {
            rs_sip_dport: ReversibleHash::new(cfg.rs_sip_dport_config())?,
            rs_dip_dport: ReversibleHash::new(cfg.rs_dip_dport_config())?,
            rs_sip_dip: ReversibleHash::new(cfg.rs_sip_dip_config())?,
            os: KaryHash::new(cfg.os)?,
            twod_sipdport_dip: TwoDHash::new(cfg.twod_sipdport_dip_config())?,
            twod_sipdip_dport: TwoDHash::new(cfg.twod_sipdip_dport_config())?,
        })
    }

    /// `(stages, buckets)` of the nine grids, in [`IntervalSnapshot::grids`]
    /// order. A verifier-less family's verifier slot is a minimal 1×1 grid,
    /// so snapshots stay structurally complete either way.
    fn grid_shapes(&self) -> [(usize, usize); 9] {
        let rs = |h: &ReversibleHash| {
            let verifier = h.verifier().map(KaryHash::config);
            [
                (h.config().stages, h.config().buckets),
                verifier.map_or((1, 1), |v| (v.stages, v.buckets)),
            ]
        };
        let twod = |h: &TwoDHash| {
            (
                h.config().stages,
                h.config().x_buckets * h.config().y_buckets,
            )
        };
        let [a, av] = rs(&self.rs_sip_dport);
        let [b, bv] = rs(&self.rs_dip_dport);
        let [c, cv] = rs(&self.rs_sip_dip);
        let os = (self.os.config().stages, self.os.config().buckets);
        let (x, y) = (twod(&self.twod_sipdport_dip), twod(&self.twod_sipdip_dport));
        [a, av, b, bv, c, cv, os, x, y]
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
/// The recorder is where the counters live: the six sketches' hash
/// families write into the grids of one live [`IntervalSnapshot`].
///
/// There is one record path: a packet is a batch of one. `record` plans
/// the packet into a pending [`PlanBatch`] and every `RECORD_BATCH` (256)
/// plans the batch is scattered into the grids; a close scatters the
/// partial tail first, so a snapshot always covers every packet recorded
/// before it. An interval's first `RECORD_BATCH` plans are scattered one
/// at a time: after [`SketchRecorder::take_snapshot`] an interval records
/// into freshly allocated grids, and a link too quiet to fill a batch
/// would otherwise pay all of its first-touch page faults inside the
/// interval close.
#[derive(Clone, Debug)]
pub struct SketchRecorder {
    hashes: SketchHashes,
    /// This interval's counters, packet counts and fingerprint, with the
    /// cumulative active-service filter.
    live: IntervalSnapshot,
    /// Plans recorded but not yet scattered into the grids.
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
        let hashes = SketchHashes::new(cfg)?;
        Ok(SketchRecorder {
            live: SnapshotShape::of(cfg, &hashes).zeroed(),
            hashes,
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
                let scattered = self.live.syn_count + self.live.syn_ack_count;
                if self.pending.len() >= RECORD_BATCH || scattered < RECORD_BATCH as u64 {
                    self.flush();
                }
            }
            SegmentKind::Fin | SegmentKind::Rst => self.live.fin_rst_count += 1,
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
        let live = &mut self.live;
        self.hashes.rs_sip_dport.update_batch(
            &mut live.rs_sip_dport,
            Some(&mut live.rs_sip_dport_verifier),
            &batch.sip_dport,
            &batch.sip_dport_mix,
            &batch.values,
        );
        self.hashes.rs_dip_dport.update_batch(
            &mut live.rs_dip_dport,
            Some(&mut live.rs_dip_dport_verifier),
            &batch.dip_dport,
            &batch.dip_dport_mix,
            &batch.values,
        );
        self.hashes.rs_sip_dip.update_batch(
            &mut live.rs_sip_dip,
            Some(&mut live.rs_sip_dip_verifier),
            &batch.sip_dip,
            &batch.sip_dip_mix,
            &batch.values,
        );
        self.hashes.twod_sipdport_dip.update_batch_premixed(
            &mut live.twod_sipdport_dip,
            &batch.sip_dport_mix,
            &batch.dip_mix,
            &batch.values,
        );
        self.hashes.twod_sipdip_dport.update_batch_premixed(
            &mut live.twod_sipdip_dport,
            &batch.sip_dip_mix,
            &batch.dport_mix,
            &batch.values,
        );
        self.hashes
            .os
            .update_batch_premixed(&mut live.os, &batch.os_mix, &batch.os_ones);
        for &key in &batch.synack_keys {
            live.active_services.insert(key);
        }
        live.syn_count += batch.os_ones.len() as u64;
        live.syn_ack_count += batch.synack_keys.len() as u64;
        self.pending.clear();
    }

    /// Ends the interval: moves the per-interval counters out into the
    /// snapshot, leaving freshly allocated zeroed grids behind (the
    /// active-service filter is cumulative, so it is copied and persists).
    pub fn take_snapshot(&mut self) -> IntervalSnapshot {
        self.flush();
        let zeroed = self
            .live
            .grids()
            .map(|g| CounterGrid::new(g.stages(), g.buckets()));
        let next = IntervalSnapshot::from_parts(
            zeroed,
            self.live.active_services.clone(),
            [0; 3],
            self.live.fingerprint,
        );
        std::mem::replace(&mut self.live, next)
    }

    /// Ends the interval as [`SketchRecorder::take_snapshot`] does, but
    /// lends the snapshot to `f` and then zeroes the counters in place: a
    /// caller that is done with the snapshot when `f` returns (an agent
    /// encoding it, a pipeline detecting on it) closes intervals without
    /// allocating or freeing a grid.
    pub fn take_snapshot_with<R>(&mut self, f: impl FnOnce(&IntervalSnapshot) -> R) -> R {
        self.flush();
        let out = f(&self.live);
        for grid in self.live.grids_mut() {
            grid.clear();
        }
        self.live.syn_count = 0;
        self.live.syn_ack_count = 0;
        self.live.fin_rst_count = 0;
        out
    }

    /// The record-plane configuration fingerprint stamped on every
    /// snapshot (see [`HiFindConfig::fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.live.fingerprint
    }

    /// Total recording memory in bytes (§5.5.1; the Table 9 model applies
    /// hardware counter widths to the same bucket counts): the live grids,
    /// the k-ary hashes of the OS sketch and the verifiers, and the
    /// active-service filter.
    pub fn memory_bytes(&self) -> usize {
        let h = &self.hashes;
        let kary = [&h.rs_sip_dport, &h.rs_dip_dport, &h.rs_sip_dip]
            .into_iter()
            .filter_map(ReversibleHash::verifier)
            .chain([&h.os]);
        let grids = self.live.grids().map(CounterGrid::memory_bytes);
        grids.iter().sum::<usize>()
            + kary.map(KaryHash::memory_bytes).sum::<usize>()
            + self.live.active_services.memory_bytes()
    }

    /// Counter memory accesses per recorded SYN/SYN-ACK (§5.5.2): one per
    /// stage of every sketch and verifier.
    pub fn accesses_per_packet(&self) -> usize {
        let rs =
            |h: &ReversibleHash| h.config().stages + h.verifier().map_or(0, |v| v.config().stages);
        rs(&self.hashes.rs_sip_dport)
            + rs(&self.hashes.rs_dip_dport)
            + rs(&self.hashes.rs_sip_dip)
            + self.hashes.os.config().stages
            + self.hashes.twod_sipdport_dip.config().stages
            + self.hashes.twod_sipdip_dport.config().stages
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
        // The snapshot a clone-then-clear take would have built: the live
        // counters copied as they stand.
        fn cloned(r: &SketchRecorder) -> IntervalSnapshot {
            r.live.clone()
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
            // The reference reads the live grids directly, so scatter the
            // pending batch into them first (take_snapshot does the same).
            r.flush();
            let expected = cloned(&r);
            assert_eq!(r.take_snapshot(), expected, "interval {interval}");
            for grid in r.live.grids() {
                assert!(grid.is_zero() && grid.stage_sum(0) == 0);
            }
            let counts = (r.live.syn_count, r.live.syn_ack_count);
            assert_eq!((counts.0, counts.1, r.live.fin_rst_count), (0, 0, 0));
            // The cumulative filter stays behind untouched.
            assert_eq!(r.live.active_services, expected.active_services);
        }
    }

    #[test]
    fn lent_close_matches_take() {
        // Closing by lending the live snapshot and zeroing it in place must
        // hand out what a take returns, and start the next interval from
        // zero as a take does.
        use hifind_flow::rng::SplitMix64;
        let mut taken = SketchRecorder::new(&cfg()).unwrap();
        let mut lent = SketchRecorder::new(&cfg()).unwrap();
        let mut rng = SplitMix64::new(43);
        for interval in 0..3u64 {
            for i in 0..300 * (interval + 1) {
                let c = Ip4::new(rng.next_u32());
                let s = Ip4::new(0x8169_0000 | (rng.next_u32() & 0xFF));
                let packet = match rng.below(4) {
                    0 => Packet::syn_ack(i, c, 999, s, 80),
                    1 => Packet::rst(i, c, 999, s, 80),
                    _ => Packet::syn(i, c, 999, s, 80),
                };
                taken.record(&packet);
                lent.record(&packet);
            }
            let snapshot = lent.take_snapshot_with(IntervalSnapshot::clone);
            assert_eq!(snapshot, taken.take_snapshot(), "interval {interval}");
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
        sa.combine_many(&[&sb]).unwrap();
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
            seq.combine_many(&[s]).unwrap();
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
        assert!(sa.combine_many(&[&sb]).is_err());
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
            sa.combine_many(&[&sb]),
            Err(SketchError::FingerprintMismatch {
                expected: cfg_a.fingerprint(),
                got: cfg_b.fingerprint(),
            })
        );
    }

    /// A snapshot with non-zero counters in every grid it records into.
    fn recorded_snapshot() -> IntervalSnapshot {
        let mut r = SketchRecorder::new(&cfg()).unwrap();
        for i in 0..200u64 {
            r.record(&syn(i));
        }
        r.take_snapshot()
    }

    #[test]
    fn combine_rejects_a_late_grid_shape_mismatch_untouched() {
        // Equal fingerprints, a mismatched last grid: the eight grids
        // before it must not be summed when the combine fails.
        let good = recorded_snapshot();
        let mut dst = good.clone();
        let mut bad = good.clone();
        bad.twod_sipdip_dport = CounterGrid::new(1, 8);
        assert_eq!(
            dst.combine_many(&[&good, &bad]),
            Err(SketchError::CombineMismatch)
        );
        assert!(dst == good, "a failed combine must leave `self` untouched");
    }

    #[test]
    fn combine_rejects_a_bloom_shape_mismatch_untouched() {
        // Equal fingerprints and grids, a Bloom filter of another size or
        // other seeds: a typed error, not a panic in the union.
        let good = recorded_snapshot();
        let mut dst = good.clone();
        let (bits, hashes) = (
            good.active_services.bit_words().len() * 64,
            good.active_services.hash_seeds().len(),
        );
        for bloom in [
            BloomFilter::new(bits * 2, hashes, 0xBAD),
            BloomFilter::new(bits, hashes, 0xBAD),
        ] {
            let mut bad = good.clone();
            bad.active_services = bloom;
            assert_eq!(
                dst.combine_many(&[&good, &bad]),
                Err(SketchError::CombineMismatch)
            );
            assert!(dst == good, "a failed combine must leave `self` untouched");
        }
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
        use hifind_sketch::{KarySketch, ReversibleSketch, TwoDSketch};

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
            assert_eq!(Some(&snap.rs_sip_dport_verifier), rs_sip_dport.verifier());
            assert_eq!(&snap.rs_dip_dport, rs_dip_dport.grid());
            assert_eq!(Some(&snap.rs_dip_dport_verifier), rs_dip_dport.verifier());
            assert_eq!(&snap.rs_sip_dip, rs_sip_dip.grid());
            assert_eq!(Some(&snap.rs_sip_dip_verifier), rs_sip_dip.verifier());
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
            let live = &mut r.live;
            time_it!(
                "rs_sip_dport",
                r.hashes.rs_sip_dport.update_batch(
                    &mut live.rs_sip_dport,
                    Some(&mut live.rs_sip_dport_verifier),
                    &batch.sip_dport,
                    &batch.sip_dport_mix,
                    &batch.values
                )
            );
            time_it!(
                "rs_dip_dport",
                r.hashes.rs_dip_dport.update_batch(
                    &mut live.rs_dip_dport,
                    Some(&mut live.rs_dip_dport_verifier),
                    &batch.dip_dport,
                    &batch.dip_dport_mix,
                    &batch.values
                )
            );
            time_it!(
                "rs_sip_dip",
                r.hashes.rs_sip_dip.update_batch(
                    &mut live.rs_sip_dip,
                    Some(&mut live.rs_sip_dip_verifier),
                    &batch.sip_dip,
                    &batch.sip_dip_mix,
                    &batch.values
                )
            );
            time_it!(
                "twod_a",
                r.hashes.twod_sipdport_dip.update_batch_premixed(
                    &mut live.twod_sipdport_dip,
                    &batch.sip_dport_mix,
                    &batch.dip_mix,
                    &batch.values
                )
            );
            time_it!(
                "twod_b",
                r.hashes.twod_sipdip_dport.update_batch_premixed(
                    &mut live.twod_sipdip_dport,
                    &batch.sip_dip_mix,
                    &batch.dport_mix,
                    &batch.values
                )
            );
            time_it!(
                "os",
                r.hashes
                    .os
                    .update_batch_premixed(&mut live.os, &batch.os_mix, &batch.os_ones)
            );
            time_it!(
                "bloom",
                for &key in &batch.synack_keys {
                    live.active_services.insert(key);
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
