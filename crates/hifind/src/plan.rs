//! The per-packet hash plan: single-pass key packing and pre-mixing.
//!
//! Six sketches consume every recorded SYN/SYN-ACK, and before this module
//! each of them re-derived its hash inputs from scratch: the three packed
//! keys were re-premixed by every pairwise consumer (three verifiers, the
//! OS sketch and both 2D x-axes — up to 44 redundant pre-mix computations
//! per packet), and each reversible sketch re-extracted the mangled key's
//! bytes once per stage. A [`HashPlan`] hoists all of that shared work
//! into one pass: pack the `{SIP,Dport}`, `{DIP,Dport}` and `{SIP,DIP}`
//! keys once, compute each key's seed-independent
//! [`PairwiseHasher::premix`] once (plus the two 2D y-keys), and feed
//! every sketch's batched entry point (`update_batch` /
//! `update_batch_premixed`) from a [`PlanBatch`] of plans.
//!
//! What the plan deliberately does *not* share: mangled words (each
//! reversible sketch mangles with its own secret seed, so the mangled key
//! is private per sketch — its byte decomposition is hoisted inside
//! `ReversibleSketch::update_batch` instead) and the active-service
//! Bloom digests (structurally different multiply-rotate hashing on a
//! cold branch). Counter *memory* accesses are unchanged — the plan cuts
//! redundant ALU hash work, not the paper's per-packet access budget.

use hifind_flow::keys::{DipDport, SipDip, SipDport, SketchKey};
use hifind_flow::{Oriented, Packet, SegmentKind};
use hifind_hashing::PairwiseHasher;

/// All hash inputs the record plane shares across its six sketches for one
/// SYN or SYN/ACK, computed in a single pass over the packet's fields.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HashPlan {
    /// `#SYN − #SYN/ACK` contribution (`+1` for SYN, `−1` for SYN/ACK).
    pub value: i64,
    /// `true` for a SYN (feeds the OS sketch and SYN counter), `false`
    /// for a SYN/ACK (feeds the active-service filter).
    pub is_syn: bool,
    /// Packed `{SIP, Dport}` key.
    pub sip_dport: u64,
    /// Packed `{DIP, Dport}` key.
    pub dip_dport: u64,
    /// Packed `{SIP, DIP}` key.
    pub sip_dip: u64,
    /// [`PairwiseHasher::premix`] of [`HashPlan::sip_dport`] (verifier and
    /// 2D x-axis input).
    pub sip_dport_mix: u64,
    /// [`PairwiseHasher::premix`] of [`HashPlan::dip_dport`] (verifier and
    /// OS-sketch input).
    pub dip_dport_mix: u64,
    /// [`PairwiseHasher::premix`] of [`HashPlan::sip_dip`] (verifier and
    /// 2D x-axis input).
    pub sip_dip_mix: u64,
    /// [`PairwiseHasher::premix`] of the DIP y-key for the
    /// `{SIP,Dport} × DIP` 2D sketch.
    pub dip_mix: u64,
    /// [`PairwiseHasher::premix`] of the Dport y-key for the
    /// `{SIP,DIP} × Dport` 2D sketch.
    pub dport_mix: u64,
}

impl HashPlan {
    /// Builds the plan for an oriented SYN or SYN/ACK segment.
    ///
    /// Callers must only pass [`SegmentKind::Syn`] / [`SegmentKind::SynAck`]
    /// segments (other kinds never reach the sketches); the plan of any
    /// other kind would carry `value == 0` and corrupt nothing, but the
    /// recorder filters them out before planning.
    #[inline]
    #[must_use]
    pub fn for_oriented(o: &Oriented) -> HashPlan {
        let sip_dport = SipDport::new(o.client, o.server_port).to_u64();
        let dip_dport = DipDport::new(o.server, o.server_port).to_u64();
        let sip_dip = SipDip::new(o.client, o.server).to_u64();
        HashPlan {
            value: o.syn_minus_synack(),
            is_syn: o.kind == SegmentKind::Syn,
            sip_dport,
            dip_dport,
            sip_dip,
            sip_dport_mix: PairwiseHasher::premix(sip_dport),
            dip_dport_mix: PairwiseHasher::premix(dip_dport),
            sip_dip_mix: PairwiseHasher::premix(sip_dip),
            dip_mix: PairwiseHasher::premix(o.server.raw() as u64),
            dport_mix: PairwiseHasher::premix(o.server_port as u64),
        }
    }

    /// Builds the plan for a packet, or `None` if the packet is not a SYN
    /// or SYN/ACK (FIN/RST bookkeeping stays in the recorder).
    #[inline]
    #[must_use]
    pub fn for_packet(packet: &Packet) -> Option<HashPlan> {
        let o = packet.orient()?;
        match o.kind {
            SegmentKind::Syn | SegmentKind::SynAck => Some(HashPlan::for_oriented(&o)),
            _ => None,
        }
    }
}

/// A structure-of-arrays batch of [`HashPlan`]s: the contiguous premix
/// columns the SIMD kernels consume.
///
/// The per-packet [`HashPlan`] keeps hash work single-pass; the batch goes
/// one step further and lays each shared digest out as its own contiguous
/// column, so the [`crate::SketchRecorder`] can hand every sketch a `&[u64]`
/// premix slice and let the dispatched
/// [`hifind_sketch::SketchKernel`] finish bucket indices four packets at a
/// time. SYN-only columns (the OS sketch input) and SYN/ACK-only columns
/// (the active-service Bloom keys) are split out at push time, so the batch
/// consumers never re-branch on `is_syn`.
///
/// Column order within the batch is packet arrival order, which keeps the
/// batched scatter bit-identical to per-key `update` calls: each sketch
/// sees the same update sequence it would have seen packet-by-packet.
#[derive(Clone, Debug, Default)]
pub struct PlanBatch {
    /// `#SYN − #SYN/ACK` per packet (every value sketch's delta).
    pub(crate) values: Vec<i64>,
    /// Packed `{SIP,Dport}` keys (reversible-sketch mangling input).
    pub(crate) sip_dport: Vec<u64>,
    /// Premixed `{SIP,Dport}` (verifier + 2D x-axis).
    pub(crate) sip_dport_mix: Vec<u64>,
    /// Packed `{DIP,Dport}` keys.
    pub(crate) dip_dport: Vec<u64>,
    /// Premixed `{DIP,Dport}` (verifier; OS input for SYNs).
    pub(crate) dip_dport_mix: Vec<u64>,
    /// Packed `{SIP,DIP}` keys.
    pub(crate) sip_dip: Vec<u64>,
    /// Premixed `{SIP,DIP}` (verifier + 2D x-axis).
    pub(crate) sip_dip_mix: Vec<u64>,
    /// Premixed DIP y-keys for the `{SIP,Dport} × DIP` 2D sketch.
    pub(crate) dip_mix: Vec<u64>,
    /// Premixed Dport y-keys for the `{SIP,DIP} × Dport` 2D sketch.
    pub(crate) dport_mix: Vec<u64>,
    /// Premixed `{DIP,Dport}` of the SYNs only (OS-sketch column).
    pub(crate) os_mix: Vec<u64>,
    /// All-ones deltas matching [`PlanBatch::os_mix`] (`#SYN` counting).
    pub(crate) os_ones: Vec<i64>,
    /// Packed `{DIP,Dport}` of the SYN/ACKs only (Bloom-filter keys).
    pub(crate) synack_keys: Vec<u64>,
}

impl PlanBatch {
    /// An empty batch with room for `n` plans in every shared column.
    #[must_use]
    pub fn with_capacity(n: usize) -> PlanBatch {
        PlanBatch {
            values: Vec::with_capacity(n),
            sip_dport: Vec::with_capacity(n),
            sip_dport_mix: Vec::with_capacity(n),
            dip_dport: Vec::with_capacity(n),
            dip_dport_mix: Vec::with_capacity(n),
            sip_dip: Vec::with_capacity(n),
            sip_dip_mix: Vec::with_capacity(n),
            dip_mix: Vec::with_capacity(n),
            dport_mix: Vec::with_capacity(n),
            os_mix: Vec::with_capacity(n),
            os_ones: Vec::with_capacity(n),
            synack_keys: Vec::with_capacity(n),
        }
    }

    /// Appends one plan, splitting its SYN-only / SYN-ACK-only columns.
    #[inline]
    pub fn push(&mut self, plan: &HashPlan) {
        self.values.push(plan.value);
        self.sip_dport.push(plan.sip_dport);
        self.sip_dport_mix.push(plan.sip_dport_mix);
        self.dip_dport.push(plan.dip_dport);
        self.dip_dport_mix.push(plan.dip_dport_mix);
        self.sip_dip.push(plan.sip_dip);
        self.sip_dip_mix.push(plan.sip_dip_mix);
        self.dip_mix.push(plan.dip_mix);
        self.dport_mix.push(plan.dport_mix);
        if plan.is_syn {
            self.os_mix.push(plan.dip_dport_mix);
            self.os_ones.push(1);
        } else {
            self.synack_keys.push(plan.dip_dport);
        }
    }

    /// Number of plans in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no plans have been pushed since the last clear.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Empties every column, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.values.clear();
        self.sip_dport.clear();
        self.sip_dport_mix.clear();
        self.dip_dport.clear();
        self.dip_dport_mix.clear();
        self.sip_dip.clear();
        self.sip_dip_mix.clear();
        self.dip_mix.clear();
        self.dport_mix.clear();
        self.os_mix.clear();
        self.os_ones.clear();
        self.synack_keys.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hifind_flow::{Ip4, Packet};

    #[test]
    fn plan_packs_keys_and_premixes_once() {
        let c: Ip4 = [10, 0, 0, 7].into();
        let s: Ip4 = [129, 105, 0, 1].into();
        let p = Packet::syn(5, c, 4321, s, 80);
        let plan = HashPlan::for_packet(&p).expect("SYN gets a plan");
        assert_eq!(plan.value, 1);
        assert!(plan.is_syn);
        assert_eq!(plan.sip_dport, SipDport::new(c, 80).to_u64());
        assert_eq!(plan.dip_dport, DipDport::new(s, 80).to_u64());
        assert_eq!(plan.sip_dip, SipDip::new(c, s).to_u64());
        assert_eq!(plan.sip_dport_mix, PairwiseHasher::premix(plan.sip_dport));
        assert_eq!(plan.dip_dport_mix, PairwiseHasher::premix(plan.dip_dport));
        assert_eq!(plan.sip_dip_mix, PairwiseHasher::premix(plan.sip_dip));
        assert_eq!(plan.dip_mix, PairwiseHasher::premix(s.raw() as u64));
        assert_eq!(plan.dport_mix, PairwiseHasher::premix(80));
    }

    #[test]
    fn synack_plan_is_negative_and_not_syn() {
        let p = Packet::syn_ack(5, [1, 2, 3, 4].into(), 999, [5, 6, 7, 8].into(), 443);
        let plan = HashPlan::for_packet(&p).expect("SYN/ACK gets a plan");
        assert_eq!(plan.value, -1);
        assert!(!plan.is_syn);
    }

    #[test]
    fn batch_splits_syn_and_synack_columns() {
        let c: Ip4 = [1, 2, 3, 4].into();
        let s: Ip4 = [5, 6, 7, 8].into();
        let syn = HashPlan::for_packet(&Packet::syn(0, c, 999, s, 80)).unwrap();
        let sa = HashPlan::for_packet(&Packet::syn_ack(1, c, 999, s, 80)).unwrap();
        let mut b = PlanBatch::with_capacity(2);
        b.push(&syn);
        b.push(&sa);
        assert_eq!(b.len(), 2);
        assert_eq!(b.values, vec![1, -1]);
        assert_eq!(b.sip_dport_mix, vec![syn.sip_dport_mix, sa.sip_dport_mix]);
        // SYN-only and SYN/ACK-only columns are split at push time.
        assert_eq!(b.os_mix, vec![syn.dip_dport_mix]);
        assert_eq!(b.os_ones, vec![1]);
        assert_eq!(b.synack_keys, vec![sa.dip_dport]);
        b.clear();
        assert!(b.is_empty());
        assert!(b.os_mix.is_empty() && b.synack_keys.is_empty());
    }

    #[test]
    fn non_handshake_packets_get_no_plan() {
        let c: Ip4 = [1, 2, 3, 4].into();
        let s: Ip4 = [5, 6, 7, 8].into();
        assert!(HashPlan::for_packet(&Packet::fin(0, c, 999, s, 80)).is_none());
        assert!(HashPlan::for_packet(&Packet::rst(0, c, 999, s, 80)).is_none());
    }
}
