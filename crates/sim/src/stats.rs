//! Measurement primitives: histograms, time series, rate estimators.
//!
//! These mirror the instruments used in the paper's testbed: an
//! HDR-style latency histogram (Endace DAG timestamping), per-second
//! throughput counters (OSNT), and sliding-window rate estimates (the
//! on-demand controllers).

use crate::time::Nanos;

/// A log-linear bucketed histogram of non-negative integer samples.
///
/// It answers counts and quantiles. It keeps bucket counts and the
/// exact extremes, not a running sum, so recording a sample is a bucket
/// increment and two compares.
///
/// Buckets are arranged HDR-histogram style: 32 sub-buckets of linearly
/// increasing width per power-of-two range, giving a worst-case relative
/// quantile error of about 3 % while using constant memory regardless of
/// the number of samples.
///
/// # Examples
///
/// ```
/// use inc_sim::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.quantile(0.5);
/// assert!((450..=550).contains(&p50), "p50 = {p50}");
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    /// `buckets[range][sub]` counts samples in that slot.
    buckets: Vec<[u64; Histogram::SUB]>,
    count: u64,
    /// The exact endpoints [`Histogram::quantile`] returns at `q == 0`
    /// and clamps to at `q == 1`.
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    const SUB: usize = 32;
    const SUB_BITS: u32 = 5;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn slot(value: u64) -> (usize, usize) {
        if value < Self::SUB as u64 {
            return (0, value as usize);
        }
        let msb = 63 - value.leading_zeros();
        let range = (msb - Self::SUB_BITS + 1) as usize;
        let sub = (value >> (msb - Self::SUB_BITS)) as usize - Self::SUB;
        (range, sub + Self::SUB)
    }

    fn slot_upper_bound(range: usize, slot: usize) -> u64 {
        if range == 0 {
            return slot as u64;
        }
        let sub = slot - Self::SUB;
        ((Self::SUB + sub + 1) as u64) << (range - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of the same value.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let (range, slot) = Self::slot(value);
        if self.buckets.len() <= range {
            self.buckets.resize(range + 1, [0; Self::SUB]);
        }
        // Ranges above zero only use the upper half of the sub-bucket space;
        // fold the index into the fixed-size array.
        let idx = if range == 0 { slot } else { slot - Self::SUB };
        self.buckets[range][idx] += n;
        self.count += n;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a duration in nanoseconds.
    pub fn record_nanos(&mut self, d: Nanos) {
        self.record(d.as_nanos());
    }

    /// Returns the number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Returns an upper bound on the `q`-quantile (e.g. `0.99` for p99).
    ///
    /// The bound is exact to within the bucket resolution (~3 % relative),
    /// and exact at the endpoints: `q == 0` returns the tracked minimum
    /// sample and `q == 1` never exceeds the tracked maximum. Returns 0
    /// for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0;
        }
        if q <= 0.0 {
            // The 0-quantile is the minimum, which is tracked exactly.
            // The bucket walk below would clamp the target rank to 1 and
            // return the first occupied bucket's *upper* bound — above
            // the true minimum by up to the bucket resolution.
            return self.min;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (range, bucket) in self.buckets.iter().enumerate() {
            for (i, &c) in bucket.iter().enumerate() {
                seen += c;
                if seen >= target {
                    let slot = if range == 0 { i } else { i + Self::SUB };
                    return Self::slot_upper_bound(range, slot).min(self.max);
                }
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    ///
    /// Bucket storage is grown at most to the larger of the two range
    /// counts and never re-allocated when `other`'s value range already
    /// fits in this histogram's existing capacity — merge-heavy pipelines
    /// (per-interval windows folded into a long-run sketch) reach a
    /// steady state after the first merge and allocate nothing per
    /// interval thereafter.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            // `resize` reuses spare capacity; `reserve_exact` (rather
            // than the doubling growth a bare `resize` can trigger)
            // keeps the steady-state footprint at exactly the widest
            // range seen so far.
            self.buckets
                .reserve_exact(other.buckets.len() - self.buckets.len());
            self.buckets.resize(other.buckets.len(), [0; Self::SUB]);
        }
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d += s;
            }
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Removes all samples, keeping the bucket storage so a cleared
    /// histogram can be refilled (the per-interval measurement-window
    /// pattern) without re-allocating.
    pub fn clear(&mut self) {
        self.buckets.clear();
        self.count = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

/// A load generator's latency record: the completions since a harness
/// last drained the window.
#[derive(Clone, Debug, Default)]
pub struct LatencyWindow {
    window: Histogram,
}

impl LatencyWindow {
    /// Records one completion's latency in nanoseconds.
    pub fn record(&mut self, ns: u64) {
        self.window.record(ns);
    }

    /// Drains the measurement window: (completions in the window, their
    /// latency histogram), and starts a new one.
    pub fn take_window(&mut self) -> (u64, Histogram) {
        let window = std::mem::take(&mut self.window);
        (window.count(), window)
    }
}

/// An O(1)-memory streaming accumulator for weighted integrals.
///
/// The measurement-plane counterpart of [`Histogram`]: where the
/// histogram sketches quantiles, `StreamStats` accumulates exact sums —
/// count, total weight and weighted sum — so a run of any length
/// answers integral queries from constant state. Pushing a power reading
/// weighted by its interval length makes [`StreamStats::weighted_sum`]
/// the energy integral (joules) and [`StreamStats::total_weight`] the
/// sampled seconds.
///
/// Accumulation is a single running `+=` per push, so two accumulators
/// fed the same values in the same order agree bit-for-bit — the
/// property the timeline equivalence tests pin.
///
/// # Examples
///
/// ```
/// use inc_sim::StreamStats;
///
/// let mut s = StreamStats::new();
/// s.push_weighted(100.0, 0.1); // 100 W for 0.1 s
/// s.push_weighted(50.0, 0.9); // 50 W for 0.9 s
/// assert!((s.weighted_sum() - 55.0).abs() < 1e-12); // joules
/// assert!((s.total_weight() - 1.0).abs() < 1e-12); // seconds
/// assert_eq!(s.count(), 2);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamStats {
    count: u64,
    weight: f64,
    weighted_sum: f64,
}

impl StreamStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        StreamStats::default()
    }

    /// Accumulates an observation with the given weight (e.g. the
    /// duration it was held for).
    pub fn push_weighted(&mut self, value: f64, weight: f64) {
        self.count += 1;
        self.weight += weight;
        self.weighted_sum += value * weight;
    }

    /// Number of observations pushed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the weights (total sampled seconds for duration weights).
    pub fn total_weight(&self) -> f64 {
        self.weight
    }

    /// Sum of `value × weight` (the integral: joules for power/duration).
    pub fn weighted_sum(&self) -> f64 {
        self.weighted_sum
    }
}

/// A bounded buffer retaining the most recent items, contiguously.
///
/// The generalisation of [`WindowRate`]'s ring-of-epochs to arbitrary
/// row types: a `RecentRing` holds *at least* its capacity's worth of
/// the newest items (and at most twice that before compaction), evicting
/// the oldest in amortized O(1). Unlike a classic circular buffer it
/// keeps the retained items in one contiguous, oldest-first slice —
/// windowed queries iterate it exactly like the full log they replace.
///
/// An unbounded ring (`capacity == None`) never evicts; this lets one
/// timeline type serve both the row-logged and the streaming mode.
#[derive(Clone, Debug)]
pub struct RecentRing<T> {
    items: Vec<T>,
    /// Retain at least this many items; `None` retains everything.
    capacity: Option<usize>,
    /// Items evicted from the front so far.
    evicted: u64,
}

impl<T> RecentRing<T> {
    /// A ring that retains every item (the row-logged mode).
    pub fn unbounded() -> Self {
        RecentRing {
            items: Vec::new(),
            capacity: None,
            evicted: 0,
        }
    }

    /// A ring that retains at least the `capacity` most recent items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RecentRing {
            items: Vec::with_capacity(2 * capacity),
            capacity: Some(capacity),
            evicted: 0,
        }
    }

    /// Appends an item, evicting the oldest half of the buffer when a
    /// bounded ring reaches twice its capacity (one memmove per
    /// `capacity` pushes: amortized O(1), worst-case memory `2 ×
    /// capacity` items).
    pub fn push(&mut self, item: T) {
        if let Some(cap) = self.capacity {
            if self.items.len() >= 2 * cap {
                let drop = self.items.len() - cap;
                self.items.drain(..drop);
                self.evicted += drop as u64;
            }
        }
        self.items.push(item);
    }

    /// The retained items, oldest first.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total items ever pushed (retained plus evicted).
    pub fn total(&self) -> u64 {
        self.evicted + self.items.len() as u64
    }
}

/// A timestamped series of `f64` observations.
///
/// Used for power-versus-time and throughput-versus-time plots.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(Nanos, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    /// Appends an observation.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the previous observation.
    pub fn push(&mut self, t: Nanos, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "time series must be monotonic: {last} then {t}");
        }
        self.points.push((t, value));
    }

    /// Returns the observations.
    pub fn points(&self) -> &[(Nanos, f64)] {
        &self.points
    }
}

/// A sliding-window event-rate estimator.
///
/// This is the measurement used by the paper's *network-controlled*
/// on-demand controller: the average message rate over a configurable
/// window, updated per epoch. The window is a ring of per-epoch counts.
/// A read after any idle gap costs at most one step per ring slot, and
/// a clock anywhere up to [`Nanos::MAX`] is safe.
#[derive(Clone, Debug)]
pub struct WindowRate {
    epoch: Nanos,
    ring: Vec<u64>,
    head: usize,
    filled: usize,
    current_epoch_start: Nanos,
    current_count: u64,
}

impl WindowRate {
    /// Creates an estimator with `epochs` buckets of `epoch` duration each.
    ///
    /// # Panics
    ///
    /// Panics if `epochs` is zero or `epoch` is zero.
    pub fn new(epoch: Nanos, epochs: usize) -> Self {
        assert!(epochs > 0, "need at least one epoch");
        assert!(epoch > Nanos::ZERO, "epoch must be positive");
        WindowRate {
            epoch,
            ring: vec![0; epochs],
            head: 0,
            filled: 0,
            current_epoch_start: Nanos::ZERO,
            current_count: 0,
        }
    }

    /// Records `n` events at time `now`.
    pub fn record(&mut self, now: Nanos, n: u64) {
        self.roll(now);
        self.current_count += n;
    }

    /// Closes every epoch that ended by `now`. The in-progress epoch
    /// closes first with its count; each later one closed empty. When
    /// more epochs closed than the ring holds, every slot it keeps is an
    /// empty one, so a gap of any length is one step, and the clock is
    /// compared by difference so a start near [`Nanos::MAX`] cannot
    /// overflow.
    fn roll(&mut self, now: Nanos) {
        let closed =
            now.saturating_sub(self.current_epoch_start).as_nanos() / self.epoch.as_nanos();
        if closed == 0 {
            return;
        }
        let len = self.ring.len();
        if closed > len as u64 {
            self.ring.fill(0);
            self.head = (self.head + (closed % len as u64) as usize) % len;
            self.filled = len;
            self.current_count = 0;
        } else {
            for _ in 0..closed {
                self.ring[self.head] = self.current_count;
                self.head = (self.head + 1) % len;
                self.filled = (self.filled + 1).min(len);
                self.current_count = 0;
            }
        }
        self.current_epoch_start += self.epoch.mul(closed);
    }

    /// Returns the average rate (events/second) over the window as of
    /// `now`: every completed epoch in the ring **plus the in-progress
    /// epoch pro-rata** (its events over its elapsed fraction). Epochs
    /// not yet elapsed count as empty.
    ///
    /// Including the partial epoch matters for freshly-primed and bursty
    /// sources: a window that only counted completed epochs would ignore
    /// up to one full epoch of the most recent events — exactly the
    /// evidence an on-demand controller shifts on — under-reporting the
    /// rate right when it changes.
    pub fn rate(&mut self, now: Nanos) -> f64 {
        self.roll(now);
        let elapsed = now.saturating_sub(self.current_epoch_start);
        let total = self.ring.iter().take(self.filled).sum::<u64>() + self.current_count;
        let span = (self.epoch.mul(self.filled as u64) + elapsed).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        total as f64 / span
    }

    /// Returns `true` once a full window of epochs has elapsed.
    pub fn primed(&self) -> bool {
        self.filled == self.ring.len()
    }

    /// Clears all recorded history, restarting at time `now`.
    pub fn reset(&mut self, now: Nanos) {
        for b in &mut self.ring {
            *b = 0;
        }
        self.head = 0;
        self.filled = 0;
        self.current_count = 0;
        self.current_epoch_start = now.align_down(self.epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.quantile(1.0), 0);
    }

    #[test]
    fn histogram_exact_small_values() {
        let mut h = Histogram::new();
        for v in 0..32 {
            h.record(v);
        }
        // Values below 32 land in exact unit-width buckets.
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 15);
        assert_eq!(h.quantile(1.0), 31);
    }

    #[test]
    fn histogram_quantile_error_bounded() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = (q * 100_000.0) as u64;
            let got = h.quantile(q);
            let rel = (got as f64 - exact as f64).abs() / exact as f64;
            assert!(rel < 0.04, "q={q} exact={exact} got={got}");
        }
    }

    #[test]
    fn histogram_zero_quantile_is_the_exact_minimum() {
        // Regression: q = 0 used to clamp the target rank to 1 and
        // return the first occupied bucket's *upper* bound (104 for a
        // minimum of 100), exceeding the true smallest sample.
        let mut h = Histogram::new();
        h.record(100);
        h.record(1_000);
        assert_eq!(h.quantile(0.0), 100);
        assert!(h.quantile(1.0) >= 1_000);
        // Exactness survives a merge with a smaller-minimum histogram.
        let mut other = Histogram::new();
        other.record(37);
        h.merge(&other);
        assert_eq!(h.quantile(0.0), 37);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_n(10, 5);
        b.record_n(1000, 5);
        a.merge(&b);
        assert_eq!(a.count(), 10);
        assert_eq!(a.quantile(0.0), 10);
        assert_eq!(a.quantile(1.0), 1000);
    }

    #[test]
    fn histogram_merge_reuses_capacity_when_ranges_overlap() {
        // Regression: per-interval pipelines merge a window histogram
        // into a long-run sketch every interval; once the sketch covers
        // the value range, further merges must not touch the allocator.
        let mut sketch = Histogram::new();
        for v in [1u64, 500, 20_000, 1_000_000] {
            sketch.record(v);
        }
        // Prime: one merge with the widest window range may grow once.
        let mut widest = Histogram::new();
        widest.record(2_000_000);
        sketch.merge(&widest);
        let steady = sketch.buckets.capacity();
        for round in 0..50u64 {
            let mut window = Histogram::new();
            window.record(1 + round);
            window.record(10_000 + round * 13);
            window.record(1_500_000 + round * 997);
            sketch.merge(&window);
            assert_eq!(
                sketch.buckets.capacity(),
                steady,
                "merge {round} re-allocated bucket storage"
            );
        }
        assert_eq!(sketch.count(), 5 + 150);
    }

    #[test]
    fn histogram_clear_keeps_capacity_for_refill() {
        let mut h = Histogram::new();
        h.record(1_000_000);
        let cap = h.buckets.capacity();
        assert!(cap > 0);
        for _ in 0..10 {
            h.clear();
            assert_eq!(h.count(), 0);
            h.record(999_983);
            assert_eq!(h.buckets.capacity(), cap, "clear dropped the buckets");
        }
    }

    #[test]
    fn stream_stats_weighted_accumulation() {
        let mut s = StreamStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.total_weight(), 0.0);
        s.push_weighted(100.0, 0.1);
        s.push_weighted(50.0, 0.9);
        assert_eq!(s.count(), 2);
        assert!((s.total_weight() - 1.0).abs() < 1e-12);
        assert!((s.weighted_sum() - 55.0).abs() < 1e-12);
    }

    #[test]
    fn stream_stats_matches_row_iteration_bitwise() {
        // The equivalence contract: a streaming accumulator fed (value,
        // weight) pairs in order produces the same bits as the loop it
        // replaces, because both are the same sequence of f64 adds.
        let mut rng = crate::Rng::new(7);
        let pairs: Vec<(f64, f64)> = (0..1_000)
            .map(|_| (rng.f64() * 120.0, 0.05 + rng.f64()))
            .collect();
        let mut s = StreamStats::new();
        let (mut joules, mut secs) = (0.0f64, 0.0f64);
        for &(v, w) in &pairs {
            s.push_weighted(v, w);
            joules += v * w;
            secs += w;
        }
        assert_eq!(s.weighted_sum().to_bits(), joules.to_bits());
        assert_eq!(s.total_weight().to_bits(), secs.to_bits());
    }

    #[test]
    fn recent_ring_retains_newest_contiguously() {
        let mut r: RecentRing<u64> = RecentRing::bounded(4);
        for i in 0..100u64 {
            r.push(i);
            // Never below capacity once warm, never above twice it.
            assert!(r.len() <= 8, "len {}", r.len());
            assert!(r.len() >= 4.min(i as usize + 1));
            // Contiguous, oldest-first, ending at the newest item.
            let s = r.as_slice();
            assert_eq!(*s.last().unwrap(), i);
            assert!(s.windows(2).all(|w| w[1] == w[0] + 1));
        }
        assert_eq!(r.total(), 100);
        assert_eq!(r.evicted + r.len() as u64, 100);
        assert_eq!(r.capacity, Some(4));

        let mut u: RecentRing<u64> = RecentRing::unbounded();
        for i in 0..100u64 {
            u.push(i);
        }
        assert_eq!(u.len(), 100);
        assert_eq!(u.evicted, 0);
        assert_eq!(u.capacity, None);
    }

    #[test]
    fn recent_ring_memory_is_bounded_in_run_length() {
        // The O(1)-memory claim: a bounded ring's allocation stops
        // growing after warm-up no matter how many rows are pushed.
        let mut r: RecentRing<u64> = RecentRing::bounded(32);
        for i in 0..100u64 {
            r.push(i);
        }
        let steady = r.as_slice().len().max(64);
        let cap_after_warmup = {
            // Capacity is not directly exposed; bound via len invariant.
            assert!(r.len() <= 64);
            steady
        };
        for i in 100..1_000_000u64 {
            r.push(i);
        }
        assert!(r.len() <= cap_after_warmup);
        assert_eq!(r.total(), 1_000_000);
    }

    #[test]
    fn histogram_large_values() {
        let mut h = Histogram::new();
        h.record(u64::MAX / 2);
        h.record(3);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0) >= u64::MAX / 2);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn time_series_rejects_backwards_time() {
        let mut ts = TimeSeries::new();
        ts.push(Nanos::from_secs(1), 1.0);
        ts.push(Nanos::ZERO, 2.0);
    }

    #[test]
    fn window_rate_steady_stream() {
        let mut w = WindowRate::new(Nanos::from_millis(100), 10);
        // 1000 events/s for 2 seconds.
        for i in 0..2000u64 {
            w.record(Nanos::from_millis(i), 1);
        }
        let r = w.rate(Nanos::from_secs(2));
        assert!((r - 1000.0).abs() < 50.0, "rate {r}");
        assert!(w.primed());
    }

    #[test]
    fn window_rate_decays_after_stop() {
        let mut w = WindowRate::new(Nanos::from_millis(100), 10);
        for i in 0..1000u64 {
            w.record(Nanos::from_millis(i), 1);
        }
        // After a full idle window the rate must be zero.
        let r = w.rate(Nanos::from_secs(3));
        assert_eq!(r, 0.0);
    }

    #[test]
    fn window_rate_includes_the_partial_epoch_pro_rata() {
        // Regression: a fresh (unprimed) estimator used to report 0.0
        // until its first epoch completed, and a primed one ignored the
        // in-progress epoch entirely — under-reporting a burst by up to
        // one epoch of events.
        let mut w = WindowRate::new(Nanos::from_millis(100), 10);
        for i in 0..50u64 {
            w.record(Nanos::from_millis(i), 1);
        }
        // 50 events over the first half of the first epoch: 1000/s.
        let r = w.rate(Nanos::from_millis(50));
        assert!((r - 1_000.0).abs() < 1e-9, "rate {r}");

        // Primed steady stream, then a burst mid-epoch: the estimate
        // moves within the same epoch instead of one epoch later.
        let mut w = WindowRate::new(Nanos::from_millis(100), 10);
        for i in 0..1_000u64 {
            w.record(Nanos::from_millis(i), 1);
        }
        let before = w.rate(Nanos::from_millis(1_000));
        w.record(Nanos::from_millis(1_050), 500);
        let after = w.rate(Nanos::from_millis(1_050));
        assert!(
            after > before + 400.0,
            "burst invisible: {before} -> {after}"
        );
        // The pro-rata denominator is the completed epochs plus the
        // elapsed fraction: (1000 + 500) / 1.05 s.
        assert!((after - 1_500.0 / 1.05).abs() < 1e-6, "after {after}");
    }

    #[test]
    fn window_rate_reset() {
        let mut w = WindowRate::new(Nanos::from_millis(10), 4);
        w.record(Nanos::from_millis(5), 100);
        w.reset(Nanos::from_millis(50));
        assert_eq!(w.rate(Nanos::from_millis(50)), 0.0);
        assert!(!w.primed());
    }

    #[test]
    fn window_rate_reads_near_the_end_of_time() {
        // Regression: `roll` compared `now >= start + epoch` with a plain
        // `+`, which overflowed (a debug panic) once the epoch start sat
        // within one epoch of `Nanos::MAX`, and in release wrapped to a
        // small start and spun one epoch per iteration forever.
        let mut w = WindowRate::new(Nanos::from_millis(100), 10);
        w.reset(Nanos::from_nanos(u64::MAX - 150_000_000));
        w.record(Nanos::from_nanos(u64::MAX - 120_000_000), 7);
        let r = w.rate(Nanos::from_nanos(u64::MAX - 1));
        assert!(r.is_finite() && r > 0.0, "rate {r}");
    }

    #[test]
    fn window_rate_first_read_after_a_long_idle_is_one_step() {
        // Regression: a first read at 10^10 s (near the end of `Nanos`)
        // stepped 10^11 epochs one by one; every slot the ring keeps is
        // empty, so it is one step.
        let mut w = WindowRate::new(Nanos::from_millis(100), 10);
        w.record(Nanos::from_millis(5), 3);
        let now = Nanos::from_secs(10_000_000_000);
        assert_eq!(w.rate(now), 0.0);
        assert!(w.primed());
        w.record(now, 4);
        assert!(w.rate(now + Nanos::from_millis(50)) > 0.0);
    }
}
