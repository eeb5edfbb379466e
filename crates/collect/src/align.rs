//! Per-tier interval alignment: the bounded-reorder-window +
//! straggler-quorum machinery, factored out so the root collector and
//! every mid-tier aggregator run the exact same policy.
//!
//! The aligner owns the pending-interval map and the monotone
//! `next_interval` cursor. Callers [`IntervalAligner::offer`] parsed
//! frames as they arrive, each added into its interval's sum (a zeroed
//! one of the tier's shapes at first), then drain
//! [`IntervalAligner::pop_ready`] until it returns `None`; the aligner
//! decides, per tier, when an interval is complete, when the straggler
//! deadline degrades it to a partial, and when a hole in the grid must be
//! synthesized as a gap. Gaps carry no payload on purpose: a gap must
//! never be an all-zero snapshot (summing or forecasting on zeros drags
//! the EWMA baseline down and causes spurious alerts on recovery).

use crate::codec_v2::FrameRuns;
use hifind::{IntervalSnapshot, SnapshotShape};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Alignment policy for one tier.
#[derive(Clone, Debug)]
pub(crate) struct AlignPolicy {
    /// Downstream nodes expected to contribute to each interval.
    pub expected: usize,
    /// How long a partially filled interval waits for stragglers.
    pub straggler_deadline: Duration,
    /// Maximum pending intervals held before the oldest is forced out.
    pub reorder_window: u64,
}

/// One interval being assembled.
struct PendingInterval {
    combined: IntervalSnapshot,
    /// Node ids seen for this interval (also the duplicate filter).
    children: Vec<u32>,
    first_seen: Instant,
}

/// What happened to an offered frame.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum OfferOutcome {
    /// Added into (or opened) the pending interval.
    Accepted,
    /// This child already contributed to this interval.
    Duplicate,
    /// The interval was already flushed past.
    Late,
    /// The frame's shapes are not the tier's — the pending aggregate is
    /// left untouched.
    CombineFailed,
}

/// How a flushed interval closed.
pub(crate) enum FlushKind {
    /// Every expected child contributed.
    Complete,
    /// Flushed short-handed; `missing` children never arrived.
    Partial {
        /// Expected minus actual contributors.
        missing: u64,
    },
    /// No child reported this interval at all.
    Gap,
}

/// One flushed interval. `payload` is `None` exactly for gaps.
pub(crate) struct Flush {
    /// The interval index that closed.
    pub interval: u64,
    /// How it closed.
    pub kind: FlushKind,
    /// The combined snapshot and its contributor count; absent for gaps.
    pub payload: Option<(IntervalSnapshot, usize)>,
}

/// The per-tier alignment state machine.
pub(crate) struct IntervalAligner {
    policy: AlignPolicy,
    /// The tier's own shapes: what every pending sum opens as.
    shape: SnapshotShape,
    pending: BTreeMap<u64, PendingInterval>,
    next_interval: u64,
}

impl IntervalAligner {
    pub(crate) fn new(policy: AlignPolicy, shape: SnapshotShape, start_interval: u64) -> Self {
        IntervalAligner {
            policy,
            shape,
            pending: BTreeMap::new(),
            next_interval: start_interval,
        }
    }

    /// The next interval index this tier will flush.
    pub(crate) fn next_interval(&self) -> u64 {
        self.next_interval
    }

    /// Offers one child's parsed frame for `interval`.
    pub(crate) fn offer(&mut self, child: u32, interval: u64, frame: &FrameRuns) -> OfferOutcome {
        if interval < self.next_interval {
            return OfferOutcome::Late;
        }
        match self.pending.entry(interval) {
            Entry::Vacant(slot) => {
                let mut combined = self.shape.zeroed();
                if frame.add_into(&mut combined).is_err() {
                    return OfferOutcome::CombineFailed;
                }
                slot.insert(PendingInterval {
                    combined,
                    children: vec![child],
                    first_seen: Instant::now(),
                });
                OfferOutcome::Accepted
            }
            Entry::Occupied(mut slot) => {
                let pending = slot.get_mut();
                if pending.children.contains(&child) {
                    return OfferOutcome::Duplicate;
                }
                if frame.add_into(&mut pending.combined).is_err() {
                    return OfferOutcome::CombineFailed;
                }
                pending.children.push(child);
                OfferOutcome::Accepted
            }
        }
    }

    /// Pops the next interval that is ready to flush, if any. With
    /// `drain` set every held interval (and interior gap) flushes
    /// unconditionally, oldest first.
    pub(crate) fn pop_ready(&mut self, drain: bool) -> Option<Flush> {
        let over_window =
            u64::try_from(self.pending.len()).unwrap_or(u64::MAX) > self.policy.reorder_window;
        match self.pending.get(&self.next_interval) {
            Some(pending) => {
                let complete = pending.children.len() >= self.policy.expected;
                let expired = pending.first_seen.elapsed() >= self.policy.straggler_deadline;
                if !(complete || expired || over_window || drain) {
                    return None;
                }
                let pending = self.pending.remove(&self.next_interval)?;
                let interval = self.next_interval;
                self.next_interval += 1;
                let contributors = pending.children.len();
                let kind = if complete {
                    FlushKind::Complete
                } else {
                    let missing = self.policy.expected.saturating_sub(contributors);
                    FlushKind::Partial {
                        missing: u64::try_from(missing).unwrap_or(u64::MAX),
                    }
                };
                Some(Flush {
                    interval,
                    kind,
                    payload: Some((pending.combined, contributors)),
                })
            }
            None => {
                // A later interval is pending but this slot is empty: a
                // hole in the grid. Only synthesize the gap once a held
                // interval proves time moved on (or on drain/overflow) —
                // never eagerly, or clock skew would fabricate gaps.
                let (_, held) = self.pending.iter().next()?;
                let expired = held.first_seen.elapsed() >= self.policy.straggler_deadline;
                if !(expired || over_window || drain) {
                    return None;
                }
                let interval = self.next_interval;
                self.next_interval += 1;
                Some(Flush {
                    interval,
                    kind: FlushKind::Gap,
                    payload: None,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec_v2;
    use hifind::{HiFindConfig, SketchRecorder};

    /// An empty interval's frame recorded under `cfg`.
    fn snap(cfg: &HiFindConfig) -> FrameRuns {
        let snap = SketchRecorder::new(cfg).unwrap().take_snapshot();
        codec_v2::parse(&codec_v2::encode_keyframe(&snap), None, None).unwrap()
    }

    fn aligner(policy: AlignPolicy) -> IntervalAligner {
        let shape = SnapshotShape::of_config(&HiFindConfig::small(1)).unwrap();
        IntervalAligner::new(policy, shape, 0)
    }

    fn policy(expected: usize) -> AlignPolicy {
        AlignPolicy {
            expected,
            straggler_deadline: Duration::from_secs(60),
            reorder_window: 8,
        }
    }

    #[test]
    fn complete_interval_flushes_immediately() {
        let cfg = HiFindConfig::small(1);
        let mut aligner = aligner(policy(2));
        assert_eq!(aligner.offer(1, 0, &snap(&cfg)), OfferOutcome::Accepted);
        assert!(aligner.pop_ready(false).is_none(), "quorum not met yet");
        assert_eq!(aligner.offer(2, 0, &snap(&cfg)), OfferOutcome::Accepted);
        let flush = aligner.pop_ready(false).expect("complete");
        assert_eq!(flush.interval, 0);
        assert!(matches!(flush.kind, FlushKind::Complete));
        assert_eq!(flush.payload.map(|(_, n)| n), Some(2));
        assert_eq!(aligner.next_interval(), 1);
    }

    #[test]
    fn duplicates_and_late_frames_are_classified() {
        let cfg = HiFindConfig::small(1);
        let mut aligner = aligner(policy(1));
        assert_eq!(aligner.offer(1, 0, &snap(&cfg)), OfferOutcome::Accepted);
        assert_eq!(aligner.offer(1, 0, &snap(&cfg)), OfferOutcome::Duplicate);
        assert!(aligner.pop_ready(false).is_some());
        assert_eq!(aligner.offer(1, 0, &snap(&cfg)), OfferOutcome::Late);
    }

    #[test]
    fn drain_flushes_partials_and_interior_gaps_in_order() {
        let cfg = HiFindConfig::small(1);
        let mut aligner = aligner(policy(2));
        assert_eq!(aligner.offer(1, 0, &snap(&cfg)), OfferOutcome::Accepted);
        // Interval 1 is skipped entirely; interval 2 arrives from one child.
        assert_eq!(aligner.offer(1, 2, &snap(&cfg)), OfferOutcome::Accepted);
        assert!(aligner.pop_ready(false).is_none(), "deadline not reached");
        let first = aligner.pop_ready(true).expect("partial 0");
        assert_eq!(first.interval, 0);
        assert!(matches!(first.kind, FlushKind::Partial { missing: 1 }));
        let second = aligner.pop_ready(true).expect("gap 1");
        assert_eq!(second.interval, 1);
        assert!(matches!(second.kind, FlushKind::Gap));
        assert!(second.payload.is_none(), "gaps carry no payload");
        let third = aligner.pop_ready(true).expect("partial 2");
        assert_eq!(third.interval, 2);
        assert!(aligner.pop_ready(true).is_none());
    }

    #[test]
    fn reorder_window_overflow_forces_the_oldest_out() {
        let cfg = HiFindConfig::small(1);
        let mut aligner = aligner(AlignPolicy {
            expected: 2,
            straggler_deadline: Duration::from_secs(600),
            reorder_window: 2,
        });
        for interval in 0..3 {
            assert_eq!(
                aligner.offer(1, interval, &snap(&cfg)),
                OfferOutcome::Accepted
            );
        }
        let flush = aligner.pop_ready(false).expect("over window");
        assert_eq!(flush.interval, 0);
        assert!(matches!(flush.kind, FlushKind::Partial { missing: 1 }));
        assert!(aligner.pop_ready(false).is_none(), "back inside window");
    }

    #[test]
    fn mismatched_snapshot_shapes_refuse_to_combine() {
        let a = HiFindConfig::small(1);
        let b = HiFindConfig::paper(1);
        let mut aligner = aligner(policy(2));
        assert_eq!(aligner.offer(1, 0, &snap(&a)), OfferOutcome::Accepted);
        assert_eq!(aligner.offer(2, 0, &snap(&b)), OfferOutcome::CombineFailed);
        // The aggregate is untouched: child 2 is not recorded.
        assert_eq!(aligner.offer(2, 0, &snap(&a)), OfferOutcome::Accepted);
    }
}
