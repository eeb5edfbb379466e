//! Counter, gauge, and histogram primitives.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// Stripes used by [`Counter`]; one cache line each so concurrent
/// recorder threads increment without bouncing a shared line.
const STRIPES: usize = 8;

#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Monotone event counter, striped to avoid cross-thread contention.
///
/// `inc`/`add` pick a stripe from the calling thread's identity; `get`
/// sums all stripes, so reads are linear in the stripe count but updates
/// never contend unless two threads hash to the same stripe.
pub struct Counter {
    stripes: [PaddedU64; STRIPES],
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter {
            stripes: Default::default(),
        }
    }

    fn stripe(&self) -> &AtomicU64 {
        // Thread id hashes are stable per thread, so each thread sticks to
        // one stripe for its lifetime.
        use std::hash::BuildHasher;
        thread_local! {
            static STRIPE: usize = {
                let state = std::collections::hash_map::RandomState::new();
                state.hash_one(std::thread::current().id()) as usize % STRIPES
            };
        }
        let idx = STRIPE.with(|s| *s);
        &self.stripes[idx].0
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // relaxed-ok: independent monotone stripe; nothing orders against it
        self.stripe().fetch_add(n, Ordering::Relaxed);
    }

    /// Current total across all stripes.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            // relaxed-ok: scrape-time sum; cross-stripe tearing is acceptable
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("value", &self.get())
            .finish()
    }
}

/// Last-written signed value (occupancy, saturation, rates scaled to ppm).
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        // relaxed-ok: last-write-wins gauge; readers need no ordering
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        // relaxed-ok: commutative delta on an isolated cell
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        // relaxed-ok: monitoring read; staleness is fine
        self.value.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gauge").field("value", &self.get()).finish()
    }
}

/// Fixed-bucket distribution with atomic bucket counts.
///
/// Bucket `i` counts observations `<= upper_bounds[i]` and `> upper_bounds[i-1]`
/// (Prometheus `le` semantics); one implicit `+Inf` bucket catches the rest.
/// The sum is kept as nanosecond-precision fixed point in an `AtomicU64` so
/// `observe` stays lock-free.
pub struct Histogram {
    upper_bounds: Vec<f64>,
    /// One per upper bound, plus the trailing `+Inf` bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observations in units of 1e-9 (nanoseconds when observing
    /// seconds), stored as fixed point to stay atomic.
    sum_nanos: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            // relaxed-ok: debug formatting only
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// A histogram with the given ascending upper bounds.
    pub fn new(upper_bounds: Vec<f64>) -> Self {
        assert!(
            !upper_bounds.is_empty(),
            "histogram needs at least one bucket"
        );
        assert!(
            upper_bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let buckets = (0..=upper_bounds.len())
            .map(|_| AtomicU64::new(0))
            .collect();
        Histogram {
            upper_bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: f64) {
        let idx = self
            .upper_bounds
            .partition_point(|ub| value > *ub)
            .min(self.upper_bounds.len());
        // relaxed-ok: independent monotone cells; scrapes tolerate skew
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed); // relaxed-ok: same as buckets
        let nanos = (value * 1e9).max(0.0) as u64;
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed); // relaxed-ok: same as buckets
    }

    /// Records a duration, in seconds.
    #[inline]
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Immutable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            upper_bounds: self.upper_bounds.clone(),
            bucket_counts: self
                .buckets
                .iter()
                // relaxed-ok: scrape may tear against writers (Prometheus allows it)
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed), // relaxed-ok: scrape read
            // relaxed-ok: scrape read
            sum: self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HistogramSnapshot {
    /// Ascending bucket upper bounds (`le` values).
    pub upper_bounds: Vec<f64>,
    /// Per-bucket counts; one entry per upper bound plus trailing `+Inf`.
    pub bucket_counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Cumulative count at or below `upper_bounds[i]`.
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0;
        self.bucket_counts
            .iter()
            .map(|c| {
                acc += c;
                acc
            })
            .collect()
    }

    /// Linear-interpolated quantile estimate (`q` in `[0, 1]`), or `None`
    /// when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (i, c) in self.bucket_counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(if i < self.upper_bounds.len() {
                    self.upper_bounds[i]
                } else {
                    // +Inf bucket: report the largest finite bound.
                    *self.upper_bounds.last().unwrap()
                });
            }
        }
        None
    }
}

/// `count` geometric buckets starting at `start` with the given growth
/// `factor` — the usual shape for latency histograms.
pub fn exponential_buckets(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(start > 0.0 && factor > 1.0 && count > 0);
    let mut bounds = Vec::with_capacity(count);
    let mut v = start;
    for _ in 0..count {
        bounds.push(v);
        v *= factor;
    }
    bounds
}

/// `count` evenly spaced buckets starting at `start`.
pub fn linear_buckets(start: f64, width: f64, count: usize) -> Vec<f64> {
    assert!(width > 0.0 && count > 0);
    (0..count).map(|i| start + width * i as f64).collect()
}
