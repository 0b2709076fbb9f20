//! Harness for running host-controlled on-demand experiments.
//!
//! The host controller is a daemon *outside* the dataplane: it periodically
//! reads RAPL and CPU usage on the host and the packet-rate feedback from
//! the device, then reconfigures placement. [`run_host_controlled`] plays
//! that daemon against a simulation: it steps the simulator one sampling
//! interval at a time, gathers a [`HostSample`] through a caller-provided
//! probe, and applies the controller's decisions — while recording the
//! timeline that Figure 6 plots.
//!
//! # Row logging and streaming aggregates
//!
//! A [`Timeline`] keeps O(1) streaming aggregates — a duration-weighted
//! [`StreamStats`] of power (whose weighted sum *is* the energy
//! integral), a completed-request counter, and a [`Histogram`] sketch of
//! the per-interval median latencies — updated on every [`Timeline::push`]
//! regardless of mode. What the [`RowLog`] mode controls is row
//! *retention*: [`RowLog::Full`] keeps every [`TimelineRow`] (the plots
//! and fine-grained window queries need them), while
//! [`RowLog::Recent`]`(n)` retains only the newest `n` rows so memory
//! stays constant however long the run — the heavy-traffic replay mode.
//! Queries whose window covers the whole recorded span answer from the
//! aggregates in *both* modes, and the aggregates accumulate in row
//! (push) order, so full-span results are bit-for-bit identical across
//! modes; partial windows are answered from whatever rows are retained.

use inc_hw::Placement;
use inc_sim::{Histogram, Nanos, Payload, RecentRing, Simulator, StreamStats};

use crate::fleet::{AdmissionDecision, FleetController, FleetSample};
use crate::host::{HostController, HostSample};

/// One timeline row (the Figure 6/7 plot data).
#[derive(Clone, Copy, Debug)]
pub struct TimelineRow {
    /// Sample time (end of the interval).
    pub t: Nanos,
    /// Length of the sampling interval ending at `t`: the configured
    /// interval, or less on the last step of a run cut short at
    /// [`Nanos::MAX`].
    pub interval: Nanos,
    /// Responses completed in the interval.
    pub completed: u64,
    /// Application throughput over the interval, packets/second.
    pub throughput_pps: f64,
    /// Median request latency over the interval, nanoseconds (0 if no
    /// requests completed).
    pub latency_p50_ns: u64,
    /// 99th percentile latency, nanoseconds.
    pub latency_p99_ns: u64,
    /// Metered system power, watts.
    pub power_w: f64,
    /// Placement in effect at the end of the interval.
    pub placement: Placement,
}

/// How a [`Timeline`] retains its rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowLog {
    /// Keep every row — the default, required by the fig6/fig7 plots and
    /// by window queries over arbitrary sub-spans.
    Full,
    /// Keep only the newest `n` rows; memory is O(n) however long the
    /// run. Full-span queries still answer exactly (they read the
    /// streaming aggregates); partial-window queries see only the
    /// retained tail.
    Recent(usize),
}

/// The recorded timeline of a run.
///
/// Rows are accessed through [`Timeline::rows`]; construction goes
/// through [`Timeline::new`]/[`Timeline::push`] so the streaming
/// aggregates stay consistent with the rows.
#[derive(Clone, Debug)]
pub struct Timeline {
    rows: RecentRing<TimelineRow>,
    /// Times at which the placement changed.
    pub shifts: Vec<(Nanos, Placement)>,
    mode: RowLog,
    /// Duration-weighted power: `weighted_sum()` is the energy integral
    /// in joules, `total_weight()` the sampled seconds.
    power: StreamStats,
    completed_total: u64,
    /// Sketch of the nonzero per-row median latencies, for O(1)
    /// full-span median queries in [`RowLog::Recent`] mode.
    latency_sketch: Histogram,
    /// `t` of the first and last rows ever pushed.
    span: Option<(Nanos, Nanos)>,
}

impl Default for Timeline {
    fn default() -> Self {
        Timeline::new(RowLog::Full)
    }
}

impl Timeline {
    /// An empty timeline with the given row-retention mode.
    pub fn new(mode: RowLog) -> Self {
        let rows = match mode {
            RowLog::Full => RecentRing::unbounded(),
            RowLog::Recent(cap) => RecentRing::bounded(cap),
        };
        Timeline {
            rows,
            shifts: Vec::new(),
            mode,
            power: StreamStats::new(),
            completed_total: 0,
            latency_sketch: Histogram::new(),
            span: None,
        }
    }

    /// Appends a row, updating the streaming aggregates in push order
    /// (the order-sensitivity is what makes full-span query results
    /// bit-for-bit identical across [`RowLog`] modes).
    pub fn push(&mut self, row: TimelineRow) {
        self.power
            .push_weighted(row.power_w, row.interval.as_secs_f64());
        self.completed_total += row.completed;
        if row.latency_p50_ns > 0 {
            self.latency_sketch.record(row.latency_p50_ns);
        }
        self.span = Some(match self.span {
            None => (row.t, row.t),
            Some((first, _)) => (first, row.t),
        });
        self.rows.push(row);
    }

    /// The retained rows, oldest first (every row in [`RowLog::Full`]
    /// mode, the newest tail in [`RowLog::Recent`]).
    pub fn rows(&self) -> &[TimelineRow] {
        self.rows.as_slice()
    }

    /// Rows ever pushed (≥ `rows().len()` in [`RowLog::Recent`] mode).
    pub fn total_rows(&self) -> u64 {
        self.rows.total()
    }

    /// Rows currently held in memory.
    pub fn retained_rows(&self) -> usize {
        self.rows.len()
    }

    /// The row-retention mode.
    pub fn mode(&self) -> RowLog {
        self.mode
    }

    /// Responses completed across every row ever pushed.
    pub fn total_completed(&self) -> u64 {
        self.completed_total
    }

    fn window(&self, from: Nanos, to: Nanos) -> impl Iterator<Item = &TimelineRow> {
        self.rows().iter().filter(move |r| r.t >= from && r.t < to)
    }

    /// Whether `[from, to)` contains every row ever pushed — the case
    /// the streaming aggregates answer exactly, evicted rows included.
    fn covers_all(&self, from: Nanos, to: Nanos) -> bool {
        self.span
            .is_some_and(|(first, last)| from <= first && to > last)
    }

    /// Duration-weighted mean power over rows in `[from, to)`, or `None`
    /// if the window holds no rows (indistinguishable sentinels like a
    /// literal `0.0` reading are not used).
    pub fn mean_power_w(&self, from: Nanos, to: Nanos) -> Option<f64> {
        if self.covers_all(from, to) {
            let secs = self.power.total_weight();
            return (secs > 0.0).then(|| self.power.weighted_sum() / secs);
        }
        let (mut joules, mut secs) = (0.0, 0.0);
        for r in self.window(from, to) {
            let dt = r.interval.as_secs_f64();
            joules += r.power_w * dt;
            secs += dt;
        }
        (secs > 0.0).then(|| joules / secs)
    }

    /// Mean throughput over rows in `[from, to)` — total completed
    /// requests divided by total sampled time, so rows are weighted by
    /// their interval length rather than averaged per-row (an unweighted
    /// mean over-counts short or idle intervals when intervals differ).
    /// `None` if the window holds no rows.
    pub fn mean_throughput_pps(&self, from: Nanos, to: Nanos) -> Option<f64> {
        if self.covers_all(from, to) {
            let secs = self.power.total_weight();
            return (secs > 0.0).then(|| self.completed_total as f64 / secs);
        }
        let (mut completed, mut secs) = (0u64, 0.0);
        for r in self.window(from, to) {
            completed += r.completed;
            secs += r.interval.as_secs_f64();
        }
        (secs > 0.0).then(|| completed as f64 / secs)
    }

    /// Median of the per-row median latencies in `[from, to)`, ignoring
    /// rows in which no request completed (their `latency_p50_ns` is 0).
    /// `None` when every row in the window is empty. For an even number
    /// of contributing rows this is the mean of the two middle elements,
    /// rounded to the nearest nanosecond.
    ///
    /// In [`RowLog::Recent`] mode a full-span query reads the
    /// [`Histogram`] quantile sketch instead of the (partially evicted)
    /// rows: the answer covers every row ever pushed, exact to within
    /// the sketch's 1/32 bucket resolution.
    pub fn median_latency_ns(&self, from: Nanos, to: Nanos) -> Option<u64> {
        if matches!(self.mode, RowLog::Recent(_)) && self.covers_all(from, to) {
            return (self.latency_sketch.count() > 0).then(|| self.latency_sketch.quantile(0.5));
        }
        let mut l: Vec<u64> = self
            .window(from, to)
            .filter(|r| r.latency_p50_ns > 0)
            .map(|r| r.latency_p50_ns)
            .collect();
        if l.is_empty() {
            return None;
        }
        // Selection, not a full sort: the two middle order statistics
        // are all a median needs.
        let mid = l.len() / 2;
        let odd = l.len() % 2 == 1;
        let (lower, upper_mid, _) = l.select_nth_unstable(mid);
        let b = *upper_mid;
        Some(if odd {
            b
        } else {
            let a = *lower.iter().max().expect("even window has a lower half");
            // Round half up: (a + b + 1) / 2 without overflow.
            a / 2 + b / 2 + (a % 2 + b % 2).div_ceil(2)
        })
    }

    /// Total metered energy across all rows ever pushed, joules.
    pub fn energy_j(&self) -> f64 {
        self.power.weighted_sum()
    }
}

/// Everything the harness needs to observe per interval.
#[derive(Clone, Copy, Debug)]
pub struct IntervalObservation {
    /// The controller inputs.
    pub sample: HostSample,
    /// Responses completed in the interval.
    pub completed: u64,
    /// Median latency over the interval, nanoseconds.
    pub latency_p50_ns: u64,
    /// p99 latency over the interval, nanoseconds.
    pub latency_p99_ns: u64,
    /// Metered power, watts.
    pub power_w: f64,
}

/// Runs a host-controlled on-demand experiment until `until`, retaining
/// rows as `mode` says.
///
/// * `probe` inspects the simulation and returns the interval observation
///   (it may mutate nodes to drain measurement windows);
/// * `apply` executes a placement decision on the simulated hardware.
///
/// A step that would pass the end of time stops at [`Nanos::MAX`], and
/// its row records the shorter span it covered.
pub fn run_host_controlled<M: Payload>(
    sim: &mut Simulator<M>,
    controller: &mut HostController,
    until: Nanos,
    mode: RowLog,
    mut probe: impl FnMut(&mut Simulator<M>) -> IntervalObservation,
    mut apply: impl FnMut(&mut Simulator<M>, Nanos, Placement),
) -> Timeline {
    let interval = controller.config().interval;
    let mut timeline = Timeline::new(mode);
    let mut t = sim.now();
    while t < until {
        // Cut short at the end of time rather than overflow past it.
        let step = t.saturating_add(interval) - t;
        t += step;
        sim.run_until(t);
        let obs = probe(sim);
        if let Some(p) = controller.sample(t, obs.sample) {
            apply(sim, t, p);
            timeline.shifts.push((t, p));
        }
        timeline.push(TimelineRow {
            t,
            interval: step,
            completed: obs.completed,
            throughput_pps: obs.completed as f64 / step.as_secs_f64(),
            latency_p50_ns: obs.latency_p50_ns,
            latency_p99_ns: obs.latency_p99_ns,
            power_w: obs.power_w,
            placement: controller.placement(),
        });
    }
    timeline
}

/// Everything the multi-app harness needs to observe per app per
/// interval: the fleet controller inputs plus the plot data.
#[derive(Clone, Copy, Debug)]
pub struct AppObservation {
    /// The controller inputs for this app.
    pub sample: FleetSample,
    /// Responses completed in the interval.
    pub completed: u64,
    /// Median latency over the interval, nanoseconds.
    pub latency_p50_ns: u64,
    /// p99 latency over the interval, nanoseconds.
    pub latency_p99_ns: u64,
    /// Metered power of this app's slice of the system (its server plus
    /// its share of the device), watts.
    pub power_w: f64,
}

/// The recorded outcome of a fleet run.
#[derive(Clone, Debug, Default)]
pub struct FleetTimeline {
    /// One timeline per app, indexed like the controller's app vector.
    pub per_app: Vec<Timeline>,
    /// Every placement change, in decision order: (time, app, placement).
    pub shifts: Vec<(Nanos, usize, Placement)>,
    /// Total metered energy over the run (all apps' slices), joules.
    /// Always physical joules, whatever
    /// [`Objective`](crate::fleet::Objective) the controller priced
    /// decisions in: prices steer placements, meters stay watts — which
    /// is what makes energy comparable across objectives.
    pub energy_j: f64,
    /// Each app's admission verdict at the end of the run: the
    /// back-pressure surface — `Reject` names tenants whose demand can
    /// never fit the fabric, `Queue` tenants still waiting for capacity.
    pub admission: Vec<AdmissionDecision>,
    /// Cumulative sampling intervals each app spent queued (wanting
    /// capacity without receiving it), indexed like `per_app`.
    pub queued_intervals: Vec<u64>,
}

impl FleetTimeline {
    /// Shifts executed for one app (the app's own timeline records them;
    /// the global [`FleetTimeline::shifts`] keeps the cross-app decision
    /// order).
    // inc-lint: allow(unreached-pub): tests/shared_device.rs, tests/fairness.rs and tests/multi_tor.rs read per-app shift logs through it
    pub fn shifts_for(&self, app: usize) -> &[(Nanos, Placement)] {
        &self.per_app[app].shifts
    }
}

/// Runs a fleet-controlled multi-application experiment until `until`,
/// retaining rows as `mode` says.
///
/// The multi-app generalisation of [`run_host_controlled`]: the simulator
/// steps one sampling interval at a time; `probe` returns one
/// [`AppObservation`] per app (same order as the controller's app
/// vector); the controller re-arbitrates its placements; `apply`
/// executes each placement change on the simulated hardware. Records one
/// [`Timeline`] per app plus the fleet-level energy total.
///
/// The run advances in whole sampling intervals, so when `until` is not
/// an interval multiple the final interval extends past it; read the
/// covered span off the recorded rows (last row `t`), not `until`. The
/// one exception is the end of time: a step that would pass it stops at
/// [`Nanos::MAX`], and its rows record the shorter span.
pub fn run_fleet_controlled<M: Payload>(
    sim: &mut Simulator<M>,
    controller: &mut FleetController,
    until: Nanos,
    mode: RowLog,
    mut probe: impl FnMut(&mut Simulator<M>) -> Vec<AppObservation>,
    mut apply: impl FnMut(&mut Simulator<M>, Nanos, usize, Placement),
) -> FleetTimeline {
    let interval = controller.config().interval;
    let n = controller.apps().len();
    let mut timeline = FleetTimeline {
        per_app: (0..n).map(|_| Timeline::new(mode)).collect(),
        ..FleetTimeline::default()
    };
    let mut t = sim.now();
    while t < until {
        // Cut short at the end of time rather than overflow past it.
        let step = t.saturating_add(interval) - t;
        t += step;
        sim.run_until(t);
        let obs = probe(sim);
        assert_eq!(obs.len(), n, "probe must observe every app");
        let samples: Vec<FleetSample> = obs.iter().map(|o| o.sample).collect();
        for (app, placement) in controller.sample(t, &samples) {
            apply(sim, t, app, placement);
            timeline.shifts.push((t, app, placement));
            timeline.per_app[app].shifts.push((t, placement));
        }
        for (app, o) in obs.iter().enumerate() {
            timeline.per_app[app].push(TimelineRow {
                t,
                interval: step,
                completed: o.completed,
                throughput_pps: o.completed as f64 / step.as_secs_f64(),
                latency_p50_ns: o.latency_p50_ns,
                latency_p99_ns: o.latency_p99_ns,
                power_w: o.power_w,
                placement: controller.placements()[app],
            });
            timeline.energy_j += o.power_w * step.as_secs_f64();
        }
    }
    timeline.admission = (0..n).map(|i| controller.admission_decision(i)).collect();
    timeline.queued_intervals = controller.queued_intervals().to_vec();
    timeline
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostControllerConfig;

    /// A fully-logged timeline built from pre-made rows.
    fn from_rows(rows: Vec<TimelineRow>) -> Timeline {
        let mut timeline = Timeline::new(RowLog::Full);
        for row in rows {
            timeline.push(row);
        }
        timeline
    }

    /// A synthetic closed-form "system": software latency is high, power
    /// grows with rate; hardware flips both. Exercises the full control
    /// loop without network machinery.
    #[test]
    fn control_loop_shifts_and_records() {
        let mut sim: Simulator<()> = Simulator::new(0);
        let cfg = HostControllerConfig {
            interval: Nanos::from_millis(100),
            power_up_w: 60.0,
            cpu_up_util: 0.2,
            rate_down_pps: 5_000.0,
            power_down_w: 55.0,
            sustain_samples: 3,
        };
        let mut ctl = HostController::new(cfg);
        // Offered rate: low for 2 s, high for 3 s, low again.
        let offered = |t: Nanos| -> f64 {
            let s = t.as_secs_f64();
            if (2.0..5.0).contains(&s) {
                50_000.0
            } else {
                1_000.0
            }
        };
        let placement = std::cell::Cell::new(Placement::Software);
        let timeline = run_host_controlled(
            &mut sim,
            &mut ctl,
            Nanos::from_secs(8),
            RowLog::Full,
            |sim| {
                let rate = offered(sim.now());
                let sw = placement.get() == Placement::Software;
                IntervalObservation {
                    sample: HostSample {
                        rapl_w: if sw { 39.0 + rate / 1_000.0 } else { 30.0 },
                        app_cpu_util: if sw { rate / 100_000.0 } else { 0.0 },
                        hw_app_rate: if sw { 0.0 } else { rate },
                    },
                    completed: (rate / 10.0) as u64,
                    latency_p50_ns: if sw { 13_500 } else { 1_400 },
                    latency_p99_ns: if sw { 20_000 } else { 2_000 },
                    power_w: if sw { 39.0 + rate / 1_500.0 } else { 59.0 },
                }
            },
            |_sim, _t, p| placement.set(p),
        );
        // One shift up (during the burst) and one back down (after).
        assert_eq!(timeline.shifts.len(), 2);
        assert_eq!(timeline.shifts[0].1, Placement::HARDWARE);
        assert_eq!(timeline.shifts[1].1, Placement::Software);
        // The up-shift came after the 3-sample sustain inside the burst.
        let up_at = timeline.shifts[0].0;
        assert!(up_at >= Nanos::from_millis(2_200), "shift at {up_at}");
        assert!(up_at <= Nanos::from_millis(2_600), "shift at {up_at}");
        // Latency on the timeline drops ~10x across the shift.
        let before = timeline.median_latency_ns(Nanos::from_secs(1), Nanos::from_secs(2));
        let after = timeline.median_latency_ns(Nanos::from_secs(3), Nanos::from_secs(5));
        assert_eq!(before, Some(13_500));
        assert_eq!(after, Some(1_400));
        assert_eq!(timeline.rows().len(), 80);
    }

    /// Two synthetic apps contending for a one-slot device, closed-form
    /// (no network machinery): app 1 is busy in [1 s, 4 s), app 0 in
    /// [3 s, 7 s). The fleet offloads whichever is profitable and
    /// arbitrates the overlap in favour of app 1 (better economics).
    #[test]
    fn fleet_loop_arbitrates_and_records() {
        use crate::decision::PlacementAnalysis;
        use crate::fleet::{FleetApp, FleetControllerConfig};
        use inc_hw::{DeviceFabric, DeviceId, PipelineBudget, ProgramResources};
        use inc_power::EnergyParams;

        let analysis = |slope_per_kpps: f64| PlacementAnalysis {
            software: EnergyParams {
                idle_w: 40.0,
                sleep_w: 0.0,
                active_w: 40.0 + slope_per_kpps * 1_000.0,
                peak_rate_pps: 1_000_000.0,
            },
            network: EnergyParams {
                idle_w: 42.0,
                sleep_w: 0.0,
                active_w: 42.1,
                peak_rate_pps: 10_000_000.0,
            },
        };
        let demand = |stages: u32| ProgramResources {
            stages,
            sram_bytes: 1 << 20,
            parse_depth_bytes: 64,
        };
        let apps = vec![
            FleetApp {
                name: "slow-burner".into(),
                demand: demand(7),
                analysis: analysis(0.08),
                home: DeviceId::LOCAL,
                weight: 1.0,
            },
            FleetApp {
                name: "hot-shot".into(),
                demand: demand(6),
                analysis: analysis(0.16),
                home: DeviceId::LOCAL,
                weight: 1.0,
            },
        ];
        let mut ctl = FleetController::new(
            FleetControllerConfig::standard(Nanos::from_millis(100)),
            DeviceFabric::single(PipelineBudget::tofino_like()),
            apps,
        );
        let mut sim: Simulator<()> = Simulator::new(0);
        let placements = std::cell::RefCell::new(vec![Placement::Software; 2]);
        let offered = |app: usize, t: Nanos| -> f64 {
            let s = t.as_secs_f64();
            let busy = match app {
                0 => (3.0..7.0).contains(&s),
                _ => (1.0..4.0).contains(&s),
            };
            if busy {
                100_000.0
            } else {
                1_000.0
            }
        };
        let timeline = run_fleet_controlled(
            &mut sim,
            &mut ctl,
            Nanos::from_secs(9),
            RowLog::Full,
            |sim| {
                let now = sim.now();
                (0..2)
                    .map(|app| {
                        let rate = offered(app, now);
                        let hw = placements.borrow()[app] == Placement::HARDWARE;
                        AppObservation {
                            sample: FleetSample {
                                host: HostSample {
                                    rapl_w: 40.0,
                                    app_cpu_util: if hw { 0.0 } else { rate / 1e6 },
                                    hw_app_rate: if hw { rate } else { 0.0 },
                                },
                                offered_pps: if hw { 0.0 } else { rate },
                            },
                            completed: (rate / 10.0) as u64,
                            latency_p50_ns: if hw { 1_500 } else { 12_000 },
                            latency_p99_ns: if hw { 2_000 } else { 19_000 },
                            power_w: 40.0 + if hw { 2.0 } else { rate * 8e-5 },
                        }
                    })
                    .collect()
            },
            |_sim, _t, app, p| placements.borrow_mut()[app] = p,
        );

        // App 1 offloads first (its burst starts first AND it scores
        // higher); app 0 must wait for app 1's eviction, then offloads;
        // both end in software.
        let s1 = timeline.shifts_for(1);
        assert_eq!(s1.len(), 2, "app 1 round-trips: {s1:?}");
        assert_eq!(s1[0].1, Placement::HARDWARE);
        assert!(s1[0].0 < Nanos::from_secs(2));
        let s0 = timeline.shifts_for(0);
        assert_eq!(s0.len(), 2, "app 0 round-trips: {s0:?}");
        assert_eq!(s0[0].1, Placement::HARDWARE);
        // App 0 could only enter after app 1 left (one slot).
        assert!(s0[0].0 >= s1[1].0, "{s0:?} vs {s1:?}");
        // The capacity bound held at every row.
        for (r0, r1) in timeline.per_app[0]
            .rows()
            .iter()
            .zip(timeline.per_app[1].rows())
        {
            assert!(
                !(r0.placement == Placement::HARDWARE && r1.placement == Placement::HARDWARE),
                "both hardware-resident at {}",
                r0.t
            );
        }
        // Energy bookkeeping matches the per-app timelines.
        let summed: f64 = timeline.per_app.iter().map(Timeline::energy_j).sum();
        assert!((timeline.energy_j - summed).abs() < 1e-6);
        assert_eq!(timeline.per_app[0].rows().len(), 90);
    }

    /// An interval longer than half of time: the second step would
    /// overflow, so it stops at `Nanos::MAX` and records the span left.
    const HUGE: Nanos = Nanos::from_nanos(u64::MAX / 2 + 7);

    fn idle_host() -> IntervalObservation {
        IntervalObservation {
            sample: HostSample {
                rapl_w: 40.0,
                app_cpu_util: 0.0,
                hw_app_rate: 0.0,
            },
            completed: 3,
            latency_p50_ns: 0,
            latency_p99_ns: 0,
            power_w: 40.0,
        }
    }

    #[test]
    fn host_harness_stops_at_the_end_of_time() {
        let mut sim: Simulator<()> = Simulator::new(0);
        let mut ctl = HostController::new(HostControllerConfig {
            interval: HUGE,
            ..HostControllerConfig::figure6(60.0, 0.2, 5_000.0)
        });
        let timeline = run_host_controlled(
            &mut sim,
            &mut ctl,
            Nanos::MAX,
            RowLog::Full,
            |_| idle_host(),
            |_, _, _| {},
        );
        let rows: Vec<(Nanos, Nanos)> = timeline.rows().iter().map(|r| (r.t, r.interval)).collect();
        assert_eq!(rows, [(HUGE, HUGE), (Nanos::MAX, Nanos::MAX - HUGE)]);
        assert_eq!(sim.now(), Nanos::MAX);
    }

    #[test]
    fn fleet_harness_stops_at_the_end_of_time() {
        use crate::decision::kvs_analysis;
        use crate::fleet::{FleetApp, FleetControllerConfig};
        use inc_hw::{DeviceFabric, DeviceId, PipelineBudget, ProgramResources};

        let app = FleetApp {
            name: "kvs".into(),
            demand: ProgramResources {
                stages: 7,
                sram_bytes: 1 << 20,
                parse_depth_bytes: 64,
            },
            analysis: kvs_analysis(),
            home: DeviceId::LOCAL,
            weight: 1.0,
        };
        let mut ctl = FleetController::new(
            FleetControllerConfig::standard(HUGE),
            DeviceFabric::single(PipelineBudget::tofino_like()),
            vec![app],
        );
        let mut sim: Simulator<()> = Simulator::new(0);
        let timeline = run_fleet_controlled(
            &mut sim,
            &mut ctl,
            Nanos::MAX,
            RowLog::Full,
            |_| {
                let host = idle_host();
                vec![AppObservation {
                    sample: FleetSample {
                        host: host.sample,
                        offered_pps: 0.0,
                    },
                    completed: host.completed,
                    latency_p50_ns: 0,
                    latency_p99_ns: 0,
                    power_w: host.power_w,
                }]
            },
            |_, _, _, _| {},
        );
        let rows = timeline.per_app[0].rows();
        let got: Vec<(Nanos, Nanos)> = rows.iter().map(|r| (r.t, r.interval)).collect();
        assert_eq!(got, [(HUGE, HUGE), (Nanos::MAX, Nanos::MAX - HUGE)]);
        assert_eq!(sim.now(), Nanos::MAX);
    }

    fn row(t_ms: u64, interval_ms: u64, completed: u64, p50: u64, power: f64) -> TimelineRow {
        let interval = Nanos::from_millis(interval_ms);
        TimelineRow {
            t: Nanos::from_millis(t_ms),
            interval,
            completed,
            throughput_pps: completed as f64 / interval.as_secs_f64(),
            latency_p50_ns: p50,
            latency_p99_ns: p50 * 2,
            power_w: power,
            placement: Placement::Software,
        }
    }

    #[test]
    fn median_latency_even_window_uses_both_middle_rows() {
        // Regression: the old implementation returned l[len/2] — the
        // *upper* of the two middle elements on even-length windows.
        let timeline = from_rows(vec![
            row(100, 100, 10, 1_000, 50.0),
            row(200, 100, 10, 2_000, 50.0),
            row(300, 100, 10, 4_000, 50.0),
            row(400, 100, 10, 9_000, 50.0),
        ]);
        // Four rows: median = (2000 + 4000) / 2, not 4000.
        assert_eq!(
            timeline.median_latency_ns(Nanos::ZERO, Nanos::from_secs(1)),
            Some(3_000)
        );
        // Odd sub-window still returns the middle element.
        assert_eq!(
            timeline.median_latency_ns(Nanos::ZERO, Nanos::from_millis(350)),
            Some(2_000)
        );
        // Rounding: (1000 + 2001 + 1) / 2 = 1501 (half away from zero).
        let t2 = from_rows(vec![
            row(100, 100, 1, 1_000, 0.0),
            row(200, 100, 1, 2_001, 0.0),
        ]);
        assert_eq!(
            t2.median_latency_ns(Nanos::ZERO, Nanos::from_secs(1)),
            Some(1_501)
        );
    }

    #[test]
    fn mean_throughput_weights_by_interval() {
        // Regression: a short busy interval must not count as much as a
        // long idle one. 100 ms at 10 kpps + 900 ms at 0 pps = 1 kpps.
        let timeline = from_rows(vec![
            row(100, 100, 1_000, 500, 40.0),
            row(1000, 900, 0, 0, 40.0),
        ]);
        let mean = timeline
            .mean_throughput_pps(Nanos::ZERO, Nanos::from_secs(2))
            .unwrap();
        // The old unweighted mean of per-row rates said 5 kpps.
        assert!((mean - 1_000.0).abs() < 1e-6, "mean {mean}");
        // Power is duration-weighted the same way.
        let timeline = from_rows(vec![row(100, 100, 0, 0, 100.0), row(1000, 900, 0, 0, 50.0)]);
        let p = timeline
            .mean_power_w(Nanos::ZERO, Nanos::from_secs(2))
            .unwrap();
        assert!((p - 55.0).abs() < 1e-9, "power {p}");
        assert!((timeline.energy_j() - 55.0).abs() < 1e-9);
    }

    #[test]
    fn empty_windows_are_none_not_zero() {
        let timeline = from_rows(vec![row(100, 100, 0, 0, 40.0)]);
        let nowhere = (Nanos::from_secs(5), Nanos::from_secs(6));
        assert_eq!(timeline.mean_power_w(nowhere.0, nowhere.1), None);
        assert_eq!(timeline.mean_throughput_pps(nowhere.0, nowhere.1), None);
        assert_eq!(timeline.median_latency_ns(nowhere.0, nowhere.1), None);
        // A window with rows but no completed requests has a throughput
        // (zero) but no median latency.
        assert_eq!(
            timeline.mean_throughput_pps(Nanos::ZERO, Nanos::from_secs(1)),
            Some(0.0)
        );
        assert_eq!(
            timeline.median_latency_ns(Nanos::ZERO, Nanos::from_secs(1)),
            None
        );
    }

    /// Sub-window queries answer identically whether the window filter
    /// runs over retained rows or (for a covering window) the streaming
    /// aggregates — and the aggregate path is reached in both modes.
    #[test]
    fn full_span_queries_match_windowed_iteration_bitwise() {
        let rows = vec![
            row(100, 100, 1_000, 500, 40.0),
            row(200, 100, 2_000, 700, 41.5),
            row(350, 150, 0, 0, 39.0),
            row(450, 100, 500, 900, 44.25),
            row(550, 100, 750, 650, 43.0),
        ];
        let full = from_rows(rows.clone());
        // A window strictly wider than the span takes the aggregate
        // path; one that merely touches the last row does not (to > last
        // is required).
        let span = (Nanos::ZERO, Nanos::from_secs(1));
        let edge = (Nanos::ZERO, Nanos::from_millis(550));
        assert!(full.covers_all(span.0, span.1));
        assert!(!full.covers_all(edge.0, edge.1));
        // Aggregate answers equal a hand-rolled row iteration bit for bit.
        let (mut joules, mut secs, mut completed) = (0.0, 0.0, 0u64);
        for r in &rows {
            let dt = r.interval.as_secs_f64();
            joules += r.power_w * dt;
            secs += dt;
            completed += r.completed;
        }
        assert_eq!(
            full.mean_power_w(span.0, span.1).unwrap().to_bits(),
            (joules / secs).to_bits()
        );
        assert_eq!(
            full.mean_throughput_pps(span.0, span.1).unwrap().to_bits(),
            (completed as f64 / secs).to_bits()
        );
        assert_eq!(full.energy_j().to_bits(), joules.to_bits());
    }

    /// Satellite regression: the streaming (`RowLog::Recent`) median
    /// reads the quantile sketch; it must agree with the exact
    /// (`RowLog::Full`) selection within the `Histogram`'s 1/32
    /// relative-error bucket resolution.
    #[test]
    fn streaming_median_tracks_exact_within_sketch_error() {
        let mut full = Timeline::new(RowLog::Full);
        let mut recent = Timeline::new(RowLog::Recent(8));
        // Odd number of nonzero rows, so the exact median is a pure
        // order statistic (no mid-pair averaging to blur the bound).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..1001u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let p50 = 1_000 + (state >> 40); // ~1 µs .. ~17 ms spread
            let r = row(100 * (i + 1), 100, 10, p50, 40.0);
            full.push(r);
            recent.push(r);
        }
        assert_eq!(recent.retained_rows(), 8 + (1001 % 8));
        assert_eq!(recent.total_rows(), 1001);
        let (from, to) = (Nanos::ZERO, Nanos::from_secs(1_000_000));
        let exact = full.median_latency_ns(from, to).unwrap();
        let sketch = recent.median_latency_ns(from, to).unwrap();
        // The sketch reports a bucket upper bound: never below the exact
        // median, never more than one 1/32 bucket above it.
        assert!(sketch >= exact, "sketch {sketch} < exact {exact}");
        assert!(
            sketch <= exact + exact / 32 + 1,
            "sketch {sketch} vs exact {exact}"
        );
        // The O(1) aggregates agree bit-for-bit across modes.
        assert_eq!(full.energy_j().to_bits(), recent.energy_j().to_bits());
        assert_eq!(
            full.mean_power_w(from, to).unwrap().to_bits(),
            recent.mean_power_w(from, to).unwrap().to_bits()
        );
        assert_eq!(
            full.mean_throughput_pps(from, to).unwrap().to_bits(),
            recent.mean_throughput_pps(from, to).unwrap().to_bits()
        );
    }
}
