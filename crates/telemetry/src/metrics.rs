//! Process-global metrics registry: atomic counters and fixed-bucket
//! histograms.
//!
//! The registry is read-mostly: the first touch of a name takes a write
//! lock to intern the metric, every subsequent update takes a read lock and
//! a relaxed atomic op. Updates from concurrent writers (`dexd`'s
//! connection threads) therefore never lose increments, and never block
//! each other once a metric exists.

use crate::is_enabled;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Histogram bucket upper bounds in nanoseconds (geometric, ~×4). A final
/// implicit overflow bucket catches everything above the last bound, so a
/// snapshot always has `BUCKET_BOUNDS_NS.len() + 1` bucket counts.
pub const BUCKET_BOUNDS_NS: [u64; 12] = [
    250,
    1_000,
    4_000,
    16_000,
    64_000,
    250_000,
    1_000_000,
    4_000_000,
    16_000_000,
    64_000_000,
    250_000_000,
    1_000_000_000,
];

/// A fixed-bucket duration histogram. The registry keeps one per name;
/// a caller that wants percentiles without the global subscriber records
/// into its own.
#[derive(Debug, Default)]
pub struct Histogram {
    count: AtomicU64,
    sum_ns: AtomicU64,
    buckets: [AtomicU64; BUCKET_BOUNDS_NS.len() + 1],
}

impl Histogram {
    /// Records one observation, in nanoseconds.
    pub fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        let idx = BUCKET_BOUNDS_NS
            .iter()
            .position(|&bound| ns <= bound)
            .unwrap_or(BUCKET_BOUNDS_NS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// The counts so far, with rounded p50 / p95 / p99 estimates.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            p50_ns: 0,
            p95_ns: 0,
            p99_ns: 0,
        }
        .with_percentiles()
    }

    fn zero(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time view of one histogram, as exported in [`crate::RunReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations, nanoseconds.
    pub sum_ns: u64,
    /// Per-bucket counts; index `i` counts observations `<=
    /// BUCKET_BOUNDS_NS[i]`, the final entry is the overflow bucket.
    pub buckets: Vec<u64>,
    /// Median estimate, rounded nanoseconds (see [`percentile`](Self::percentile)).
    pub p50_ns: u64,
    /// 95th-percentile estimate, rounded nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile estimate, rounded nanoseconds.
    pub p99_ns: u64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`q` in `[0, 1]`, clamped) by walking the
    /// cumulative bucket counts and interpolating linearly inside the
    /// log-spaced bucket the rank lands in — the standard
    /// `histogram_quantile` scheme. The first bucket interpolates from 0;
    /// the overflow bucket continues the geometric progression (its upper
    /// edge is 4× the last finite bound), so extreme quantiles stay finite
    /// but are only as precise as the bucketing. Returns `0.0` when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &in_bucket) in self.buckets.iter().enumerate() {
            if in_bucket == 0 {
                continue;
            }
            if (cum + in_bucket) as f64 >= rank {
                let lo = if i == 0 { 0 } else { BUCKET_BOUNDS_NS[i - 1] };
                let hi = if i < BUCKET_BOUNDS_NS.len() {
                    BUCKET_BOUNDS_NS[i]
                } else {
                    BUCKET_BOUNDS_NS[BUCKET_BOUNDS_NS.len() - 1] * 4
                };
                let frac = (rank - cum as f64) / in_bucket as f64;
                return lo as f64 + frac * (hi - lo) as f64;
            }
            cum += in_bucket;
        }
        // Unreachable when count matches the bucket sums; degrade gracefully
        // if a racy snapshot undercounted a bucket.
        BUCKET_BOUNDS_NS[BUCKET_BOUNDS_NS.len() - 1] as f64 * 4.0
    }

    fn with_percentiles(mut self) -> Self {
        self.p50_ns = self.percentile(0.50).round() as u64;
        self.p95_ns = self.percentile(0.95).round() as u64;
        self.p99_ns = self.percentile(0.99).round() as u64;
        self
    }
}

/// One interned shard of the registry.
struct Shard<T> {
    map: RwLock<HashMap<String, Arc<T>>>,
}

impl<T: Default> Shard<T> {
    fn new() -> Self {
        Shard {
            map: RwLock::new(HashMap::new()),
        }
    }

    fn get(&self, name: &str) -> Arc<T> {
        if let Some(found) = self
            .map
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(name)
        {
            return Arc::clone(found);
        }
        let mut map = self
            .map
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(T::default())),
        )
    }

    fn for_each(&self, f: impl Fn(&T)) {
        for v in self
            .map
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .values()
        {
            f(v);
        }
    }

    fn snapshot_with<U>(&self, f: impl Fn(&T) -> U) -> std::collections::BTreeMap<String, U> {
        self.map
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), f(v)))
            .collect()
    }
}

struct Registry {
    counters: Shard<AtomicU64>,
    histograms: Shard<Histogram>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Shard::new(),
        histograms: Shard::new(),
    })
}

/// A cached handle to one counter: the name is resolved against the
/// registry once, at [`counter`] time; every [`add`](Counter::add) after
/// that is a gate check plus one relaxed atomic increment — cheap enough
/// for per-invocation hot paths where [`counter_add`]'s name lookup (string
/// hash under a read lock) would dominate.
///
/// Handles survive [`crate::reset`]: reset zeroes counters in place rather
/// than dropping them, so a cached handle never silently detaches from the
/// registry.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `delta`. No-op while telemetry is disabled.
    #[inline]
    pub fn add(&self, delta: u64) {
        if is_enabled() && delta != 0 {
            self.cell.fetch_add(delta, Ordering::Relaxed);
        }
    }
}

/// Interns `name` and returns a cached [`Counter`] handle for it.
pub fn counter(name: &str) -> Counter {
    Counter {
        cell: registry().counters.get(name),
    }
}

/// A cached handle to one histogram, analogous to [`Counter`]: resolved
/// once, then every observation is bucket math on pre-resolved atomics.
#[derive(Clone)]
pub struct Histo {
    cell: Arc<Histogram>,
}

impl Histo {
    /// Records one duration observation. No-op while disabled.
    #[inline]
    pub fn observe_ns(&self, ns: u64) {
        if is_enabled() {
            self.cell.record(ns);
        }
    }

    /// Starts a [`TimedGuard`] recording the guarded scope's duration into
    /// this histogram on drop.
    pub fn start(&self) -> TimedGuard {
        TimedGuard {
            armed: is_enabled().then(|| (Arc::clone(&self.cell), Instant::now())),
        }
    }
}

/// Interns `name` and returns a cached [`Histo`] handle for it.
pub fn histogram(name: &str) -> Histo {
    Histo {
        cell: registry().histograms.get(name),
    }
}

/// Adds `delta` to the named monotonic counter. No-op while telemetry is
/// disabled.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !is_enabled() || delta == 0 {
        return;
    }
    registry()
        .counters
        .get(name)
        .fetch_add(delta, Ordering::Relaxed);
}

/// Current value of a counter (0 if never touched). Works regardless of the
/// enabled flag, for tests and report assembly.
pub fn counter_value(name: &str) -> u64 {
    registry().counters.get(name).load(Ordering::Relaxed)
}

/// Records one duration observation into the named histogram. No-op while
/// disabled.
#[inline]
pub fn observe_ns(name: &str, ns: u64) {
    if !is_enabled() {
        return;
    }
    registry().histograms.get(name).record(ns);
}

/// RAII timer from [`Histo::start`]: records the guarded scope's duration
/// on drop. Inert (never calls `Instant::now`) while disabled.
#[must_use = "the timer records on drop"]
pub struct TimedGuard {
    armed: Option<(Arc<Histogram>, Instant)>,
}

impl Drop for TimedGuard {
    fn drop(&mut self) {
        // Record even if telemetry was disabled mid-scope: the observation
        // was armed while enabled.
        if let Some((hist, start)) = &self.armed {
            hist.record(start.elapsed().as_nanos() as u64);
        }
    }
}

pub(crate) fn snapshot_counters() -> std::collections::BTreeMap<String, u64> {
    let mut counters = registry()
        .counters
        .snapshot_with(|c| c.load(Ordering::Relaxed));
    // Zero-valued counters are indistinguishable from never-touched ones
    // (reset zeroes in place); keep reports free of them.
    counters.retain(|_, v| *v != 0);
    counters
}

pub(crate) fn snapshot_histograms() -> std::collections::BTreeMap<String, HistogramSnapshot> {
    let mut histograms = registry().histograms.snapshot_with(Histogram::snapshot);
    histograms.retain(|_, v| v.count != 0);
    histograms
}

pub(crate) fn reset() {
    let r = registry();
    // Counters and histograms are zeroed in place so cached [`Counter`]
    // handles stay attached.
    r.counters.for_each(|c| c.store(0, Ordering::Relaxed));
    r.histograms.for_each(Histogram::zero);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing;

    #[test]
    fn counters_record_when_enabled_only() {
        let _g = testing::guard();
        crate::enable();
        crate::reset();
        counter_add("m.test.counter", 2);
        counter_add("m.test.counter", 3);
        assert_eq!(counter_value("m.test.counter"), 5);
        crate::disable();
        counter_add("m.test.counter", 100);
        assert_eq!(counter_value("m.test.counter"), 5, "disabled adds ignored");
    }

    #[test]
    fn histogram_buckets_are_cumulative_boundaries() {
        let _g = testing::guard();
        crate::enable();
        crate::reset();
        // One observation exactly on each bound, plus one overflow.
        for bound in BUCKET_BOUNDS_NS {
            observe_ns("m.test.hist", bound);
        }
        observe_ns(
            "m.test.hist",
            BUCKET_BOUNDS_NS[BUCKET_BOUNDS_NS.len() - 1] + 1,
        );
        let snap = snapshot_histograms().remove("m.test.hist").unwrap();
        assert_eq!(snap.count, BUCKET_BOUNDS_NS.len() as u64 + 1);
        assert_eq!(snap.buckets.len(), BUCKET_BOUNDS_NS.len() + 1);
        assert!(snap.buckets.iter().all(|&b| b == 1), "{:?}", snap.buckets);
        // Every bound once, plus the overflow observation one past the last.
        assert_eq!(snap.sum_ns, 2_335_335_251);
        crate::disable();
    }

    /// A snapshot with `per_bucket` observations in every bucket (including
    /// overflow), for pinning interpolation arithmetic exactly.
    fn synthetic_snapshot(per_bucket: u64) -> HistogramSnapshot {
        let buckets = vec![per_bucket; BUCKET_BOUNDS_NS.len() + 1];
        HistogramSnapshot {
            count: per_bucket * buckets.len() as u64,
            sum_ns: 0,
            buckets,
            p50_ns: 0,
            p95_ns: 0,
            p99_ns: 0,
        }
    }

    #[test]
    fn percentile_of_empty_histogram_is_zero() {
        let snap = HistogramSnapshot {
            count: 0,
            sum_ns: 0,
            buckets: vec![0; BUCKET_BOUNDS_NS.len() + 1],
            p50_ns: 0,
            p95_ns: 0,
            p99_ns: 0,
        };
        assert_eq!(snap.percentile(0.5), 0.0);
        assert_eq!(snap.percentile(0.99), 0.0);
    }

    #[test]
    fn percentile_interpolates_and_pins_bucket_edges() {
        // All mass in one bucket (4_000, 16_000]: quantiles sweep linearly
        // across exactly that bucket, pinning both edges.
        let mut snap = synthetic_snapshot(0);
        snap.buckets[3] = 8;
        snap.count = 8;
        assert_eq!(snap.percentile(0.0), 4_000.0, "q=0 pins the lower edge");
        assert_eq!(snap.percentile(1.0), 16_000.0, "q=1 pins the upper edge");
        assert_eq!(snap.percentile(0.5), 10_000.0, "midpoint of the bucket");

        // One observation per bucket across the first two buckets: the
        // boundary rank lands exactly on the shared edge.
        let mut snap = synthetic_snapshot(0);
        snap.buckets[0] = 1;
        snap.buckets[1] = 1;
        snap.count = 2;
        assert_eq!(snap.percentile(0.5), 250.0, "rank on the bucket boundary");
        assert_eq!(snap.percentile(0.25), 125.0);
        assert_eq!(snap.percentile(0.75), 625.0);

        // Quantiles are clamped and monotonic in q.
        assert_eq!(snap.percentile(-1.0), snap.percentile(0.0));
        assert_eq!(snap.percentile(2.0), snap.percentile(1.0));
    }

    #[test]
    fn percentile_overflow_bucket_continues_geometric() {
        let last = BUCKET_BOUNDS_NS[BUCKET_BOUNDS_NS.len() - 1];
        let mut snap = synthetic_snapshot(0);
        *snap.buckets.last_mut().unwrap() = 4;
        snap.count = 4;
        assert_eq!(snap.percentile(0.0), last as f64);
        assert_eq!(
            snap.percentile(1.0),
            (last * 4) as f64,
            "overflow upper edge extends the ×4 progression"
        );
        assert_eq!(snap.percentile(0.5), (last * 2) as f64 + last as f64 / 2.0);
    }

    #[test]
    fn snapshot_populates_percentile_fields() {
        let _g = testing::guard();
        crate::enable();
        crate::reset();
        for _ in 0..100 {
            observe_ns("m.test.pct", 500); // bucket (250, 1_000]
        }
        let snap = snapshot_histograms().remove("m.test.pct").unwrap();
        assert_eq!(snap.p50_ns, 625, "250 + 0.5 * 750");
        assert_eq!(
            snap.p95_ns,
            (250.0 + 0.95 * 750.0f64).round() as u64,
            "interpolated within the occupied bucket"
        );
        assert!(snap.p99_ns > snap.p95_ns);
        assert_eq!(snap.p50_ns as f64, snap.percentile(0.5).round());
        crate::disable();
    }

    #[test]
    fn histogram_timer_records_scope_duration() {
        let _g = testing::guard();
        crate::enable();
        crate::reset();
        {
            let _t = histogram("m.test.timer").start();
            std::hint::black_box(1 + 1);
        }
        let snap = snapshot_histograms().remove("m.test.timer").unwrap();
        assert_eq!(snap.count, 1);
        crate::disable();
        {
            let _t = histogram("m.test.timer").start();
        }
        let snap = snapshot_histograms().remove("m.test.timer").unwrap();
        assert_eq!(snap.count, 1, "disabled timer is inert");
    }
}
