//! Heavy-traffic trace replay: millions of requests through the
//! [`FleetController`] on [`MegaFabricRig`]'s 128-device
//! fat-tree, in two measurement modes that produce **bit-identical
//! telemetry** but very different costs.
//!
//! The rig grounds its load in the three trace generators:
//!
//! * **google** — per-tenant occupancy factors derived from a
//!   synthesized cluster trace's candidate-core occupancy per 5-minute
//!   window (the §9.3 dilution structure), stretched over the run;
//! * **dynamo** — a per-tenant [`PowerWalk`] modulates offered rate
//!   every interval, so load varies the way the published rack traces
//!   do and placement decisions keep firing;
//! * **etc** — a per-tenant ETC sample per interval sets the service
//!   component of request latency from the published value-size
//!   distribution.
//!
//! The two [`ReplayMode`]s share every random draw (per-tenant dedicated
//! generators), so the per-interval observations fed to the controller —
//! and therefore every placement decision, power figure and latency
//! quantile — are identical. What differs is the machinery:
//!
//! * [`ReplayMode::PerEventRows`] — the pre-refactor baseline: every
//!   request is a simulator event at a sink node, and the timeline
//!   retains every row ([`RowLog::Full`]). The sink is the tenants'
//!   arrival source: it keeps one cursor per tenant over the interval's
//!   requests, and each arrival draws its latency and schedules the
//!   tenant's next one, so the event queue holds at most one pending
//!   arrival per tenant rather than the interval's whole burst;
//! * [`ReplayMode::StreamingBatched`] — requests are drawn in a tight
//!   batched loop at probe time (no per-request events) and the
//!   timeline keeps O(1) streaming aggregates plus a bounded row ring
//!   ([`RowLog::Recent`]).
//!
//! The ratio of simulated requests per wall-clock second between the two
//! is the headline `heavy_traffic` metric.

use inc_hw::Placement;
use inc_ondemand::{
    run_fleet_controlled, AppObservation, FleetApp, FleetController, FleetControllerConfig,
    FleetSample, FleetTimeline, HostSample, RowLog,
};
use inc_sim::{impl_node_any, Ctx, Histogram, Nanos, Node, Rng, Simulator};
use inc_workloads::dynamo::PowerWalk;
use inc_workloads::{EtcWorkload, GoogleTrace, WorkloadClass};

use crate::rigs::MegaFabricRig;

/// How the replay turns requests into telemetry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayMode {
    /// One simulator event per request, full row log — the
    /// pre-refactor measurement plane. Each tenant has one arrival
    /// pending at a time: an arrival schedules the tenant's next.
    PerEventRows,
    /// Batched per-interval draws, streaming aggregates, bounded row
    /// ring — the refactored plane.
    StreamingBatched,
}

/// Rows retained per tenant in [`ReplayMode::StreamingBatched`].
const RECENT_ROWS: usize = 32;

/// Request latency jitter mask (0..=2047 ns added per request).
const JITTER_MASK: u64 = 0x7ff;

/// Baseline software-path request latency, nanoseconds.
const SW_LATENCY_NS: u64 = 13_000;

/// Hardware-path request latency before the topology detour.
const HW_LATENCY_NS: u64 = 1_400;

/// One tenant's cursor over the requests of the current interval.
struct Arrivals {
    requests: u64,
    /// Index of the tenant's next request.
    next: u64,
    base_latency_ns: u64,
    /// The interval's first instant: request `j` arrives at
    /// `start + 1 + j·span/(requests + 1)`.
    start: Nanos,
    /// The tenant's own latency generator.
    rng: Rng,
}

impl Arrivals {
    /// Schedules the next arrival, if one is left this interval, as a
    /// timer tagged `tenant`.
    fn schedule_next(&self, ctx: &mut Ctx<'_, u64>, span: u64, tenant: usize) {
        if self.next < self.requests {
            let offset = 1 + self.next * span / (self.requests + 1);
            ctx.schedule_at(self.start + Nanos::from_nanos(offset), tenant as u64);
        }
    }
}

/// The sink node of the per-event baseline and the tenants' arrival
/// source: each arrival, a timer tagged with its tenant, records the
/// request's latency into the tenant's interval histogram and schedules
/// the tenant's next arrival.
struct HeavySink {
    hists: Vec<Histogram>,
    tenants: Vec<Arrivals>,
    /// The interval's length, nanoseconds.
    span: u64,
}

impl HeavySink {
    fn new(interval: Nanos, lat_rngs: Vec<Rng>) -> Self {
        HeavySink {
            hists: vec![Histogram::new(); lat_rngs.len()],
            tenants: lat_rngs
                .into_iter()
                .map(|rng| Arrivals {
                    requests: 0,
                    next: 0,
                    base_latency_ns: 0,
                    start: Nanos::ZERO,
                    rng,
                })
                .collect(),
            span: interval.as_nanos(),
        }
    }

    /// Starts the interval that begins now: takes each tenant's load and
    /// arms its first arrival.
    fn arm(&mut self, ctx: &mut Ctx<'_, u64>, loads: &[IntervalLoad]) {
        for (i, (tenant, load)) in self.tenants.iter_mut().zip(loads).enumerate() {
            debug_assert_eq!(tenant.next, tenant.requests, "tenant {i} has requests left");
            tenant.requests = load.requests;
            tenant.next = 0;
            tenant.base_latency_ns = load.base_latency_ns;
            tenant.start = ctx.now();
            tenant.schedule_next(ctx, self.span, i);
        }
    }
}

impl Node<u64> for HeavySink {
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, tag: u64) {
        let i = tag as usize;
        let tenant = &mut self.tenants[i];
        self.hists[i].record(tenant.base_latency_ns + (tenant.rng.next_u64() & JITTER_MASK));
        tenant.next += 1;
        tenant.schedule_next(ctx, self.span, i);
    }
    impl_node_any!();
}

/// The per-interval load of one tenant, computed one interval ahead of
/// its telemetry (the baseline arms its arrivals before the interval
/// runs).
#[derive(Clone, Copy, Debug, Default)]
struct IntervalLoad {
    rate_pps: f64,
    requests: u64,
    base_latency_ns: u64,
}

/// The outcome of one replay run.
#[derive(Debug)]
pub struct HeavyReport {
    /// The recorded fleet timeline (per-tenant [`RowLog`] per mode).
    pub timeline: FleetTimeline,
    /// Total simulated requests (sum of per-row `completed`).
    pub requests: u64,
    /// Simulator events processed (one per request in the per-event
    /// mode, none in streaming mode).
    pub events_processed: u64,
    /// Timeline rows held in memory at the end, across tenants.
    pub retained_rows: usize,
    /// Timeline rows ever recorded, across tenants.
    pub total_rows: u64,
}

impl HeavyReport {
    /// Bytes of row storage retained at the end of the run — the memory
    /// proxy of the acceptance criterion (streaming mode keeps this
    /// constant in run length).
    pub fn retained_row_bytes(&self) -> usize {
        self.retained_rows * std::mem::size_of::<inc_ondemand::TimelineRow>()
    }
}

/// The heavy-traffic replay rig. Construction is deterministic in
/// `(tenants, seed)`; [`HeavyTrafficRig::run`] is deterministic per
/// mode, and both modes produce bit-identical telemetry.
pub struct HeavyTrafficRig {
    apps: Vec<FleetApp>,
    /// Steady offered rate per tenant, packets/second.
    base: Vec<f64>,
    /// google occupancy factor per tenant per trace window.
    google_factor: Vec<Vec<f64>>,
    seed: u64,
    /// Sampling interval of the control loop.
    interval: Nanos,
}

impl HeavyTrafficRig {
    /// Offered rate of the rank-1 tenant, packets/second.
    pub const PEAK_PPS: f64 = 60_000.0;

    /// Rate floor of the coldest tenant, packets/second.
    pub const FLOOR_PPS: f64 = 2_000.0;

    /// Builds `tenants` tenants over the [`MegaFabricRig`] fat-tree,
    /// with rates ranked by a shuffled zipf popularity curve and
    /// occupancy factors mined from a synthesized google cluster trace
    /// (one trace "node" per tenant).
    pub fn new(tenants: usize, seed: u64) -> Self {
        let (apps, base, mut rng) =
            MegaFabricRig::zipf_fleet(tenants, seed, Self::FLOOR_PPS, Self::PEAK_PPS);

        // The google structure: candidate-core occupancy per (tenant,
        // 5-minute window), normalised to a bounded rate factor. The
        // trace horizon is stretched over the replay, so a run of any
        // length walks the same diurnal-ish occupancy shape.
        let trace =
            GoogleTrace::synthesize(&mut rng, tenants as u32, Nanos::from_secs(24 * 3600), 200);
        let window = Nanos::from_secs(300);
        let windows = (trace.horizon.as_nanos() / window.as_nanos()) as usize;
        let mut cores = vec![vec![0.0f64; windows]; tenants];
        for t in trace.offload_candidates_iter(0.10, Nanos::from_secs(300)) {
            let first = (t.start.as_nanos() / window.as_nanos()) as usize;
            let last = ((t.start + t.duration).as_nanos() / window.as_nanos()) as usize;
            for c in &mut cores[t.node as usize][first..=last.min(windows - 1)] {
                *c += t.cpu_cores;
            }
        }
        let google_factor = cores
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|c| (0.5 + c / 15.0).clamp(0.5, 1.5))
                    .collect()
            })
            .collect();

        HeavyTrafficRig {
            apps,
            base,
            google_factor,
            seed,
            interval: Nanos::from_millis(100),
        }
    }

    /// Number of tenants.
    pub fn tenants(&self) -> usize {
        self.apps.len()
    }

    /// A fleet controller (incremental mode, 5 % dead band) over
    /// the [`MegaFabricRig`] fabric — whose detour prices are calibrated
    /// from the §9.4 switch model, see
    /// [`MegaFabricRig::fabric`] — and this rig's tenants.
    pub fn controller(&self) -> FleetController {
        FleetController::new(
            FleetControllerConfig {
                rate_deadband: 0.05,
                ..FleetControllerConfig::standard(self.interval)
            },
            MegaFabricRig::fabric(),
            self.apps.clone(),
        )
    }

    /// Computes interval `k`'s load for every tenant: the zipf base rate
    /// times the google occupancy factor for the stretched window times
    /// the dynamo walk level, and the latency base from the current
    /// placement plus an ETC value-size service component. Draws only
    /// from `load_rngs` (one per tenant), so both modes advance them
    /// identically.
    #[allow(clippy::too_many_arguments)]
    fn interval_loads(
        &self,
        k: u64,
        total_intervals: u64,
        ctl: &FleetController,
        walks: &mut [PowerWalk],
        etcs: &mut [EtcWorkload],
        load_rngs: &mut [Rng],
        out: &mut [IntervalLoad],
    ) {
        let windows = self.google_factor[0].len() as u64;
        let w = ((k.saturating_sub(1)) * windows / total_intervals.max(1)) as usize;
        let dt = self.interval.as_secs_f64();
        for i in 0..self.apps.len() {
            let rng = &mut load_rngs[i];
            let dyn_factor = walks[i].next_w(rng) / walks[i].mean_w();
            let rate = self.base[i]
                * self.google_factor[i][w.min(self.google_factor[i].len() - 1)]
                * dyn_factor;
            let etc_sample = etcs[i].next_sample(rng);
            let service_ns = (etc_sample.value_len as u64) / 4;
            let base_latency_ns = match ctl.placements()[i] {
                Placement::Software => SW_LATENCY_NS + service_ns,
                Placement::Device(d) => {
                    HW_LATENCY_NS
                        + 2 * ctl.fabric().extra_latency(self.apps[i].home, d).as_nanos()
                        + service_ns
                }
            };
            out[i] = IntervalLoad {
                rate_pps: rate,
                requests: (rate * dt) as u64,
                base_latency_ns,
            };
        }
    }

    /// Replays `intervals` sampling intervals in the given mode and
    /// returns the recorded timeline plus the throughput/memory
    /// counters. Telemetry is bit-identical across modes.
    pub fn run(&self, mode: ReplayMode, intervals: u64) -> HeavyReport {
        let n = self.tenants();
        let mut controller = self.controller();
        let mut sim: Simulator<u64> = Simulator::new(self.seed);

        // Per-tenant dedicated generators: load draws (walk + etc) and
        // latency draws never interleave across tenants or modes.
        let mut load_rngs: Vec<Rng> = (0..n)
            .map(|i| Rng::new(self.seed ^ (0x5eed + i as u64)))
            .collect();
        let mut lat_rngs: Vec<Rng> = (0..n)
            .map(|i| Rng::new(self.seed ^ (0xfeed + i as u64)))
            .collect();
        let mut walks = vec![PowerWalk::new(WorkloadClass::Cache); n];
        let mut etcs: Vec<EtcWorkload> = (0..n).map(|_| EtcWorkload::new(1 << 20)).collect();
        // The baseline's sink draws the latencies, from the same
        // generators, and records them into its own histograms;
        // streaming mode records into scratch ones.
        let sink = match mode {
            ReplayMode::PerEventRows => {
                Some(sim.add_node(HeavySink::new(self.interval, std::mem::take(&mut lat_rngs))))
            }
            ReplayMode::StreamingBatched => None,
        };
        let mut scratch: Vec<Histogram> = vec![Histogram::new(); n];
        let mut cur = vec![IntervalLoad::default(); n];

        let row_log = match mode {
            ReplayMode::PerEventRows => RowLog::Full,
            ReplayMode::StreamingBatched => RowLog::Recent(RECENT_ROWS),
        };

        // Interval 1's load (and, in the baseline, its first arrivals)
        // must exist before the harness first advances the simulator.
        self.interval_loads(
            1,
            intervals,
            &controller,
            &mut walks,
            &mut etcs,
            &mut load_rngs,
            &mut cur,
        );
        if let Some(sink) = sink {
            sim.with_node_ctx(sink, |s: &mut HeavySink, ctx| s.arm(ctx, &cur));
        }

        let mut interval_idx = 0u64;
        let until = self.interval.mul(intervals);
        let timeline = run_fleet_controlled(
            &mut sim,
            &mut controller,
            until,
            row_log,
            |sim, ctl| {
                interval_idx += 1;
                // 1. Interval telemetry: the baseline's sink histograms
                //    filled as the arrivals fired; streaming mode draws
                //    the same latencies in one tight batch now.
                if sink.is_none() {
                    for (i, load) in cur.iter().enumerate() {
                        let rng = &mut lat_rngs[i];
                        let hist = &mut scratch[i];
                        for _ in 0..load.requests {
                            hist.record(load.base_latency_ns + (rng.next_u64() & JITTER_MASK));
                        }
                    }
                }
                let hists: &mut Vec<Histogram> = match sink {
                    Some(sink) => &mut sim.node_mut::<HeavySink>(sink).hists,
                    None => &mut scratch,
                };
                let obs: Vec<AppObservation> = (0..n)
                    .map(|i| {
                        let load = &cur[i];
                        let hist = &mut hists[i];
                        debug_assert_eq!(hist.count(), load.requests, "tenant {i} lost requests");
                        let p50 = hist.quantile(0.5); // 0 when empty
                        hist.clear();
                        let placement = ctl.placements()[i];
                        let (sw_w, hw_w) = self.apps[i].analysis.energy_per_second(load.rate_pps);
                        let power_w = match placement {
                            Placement::Software => sw_w,
                            Placement::Device(d) => {
                                let f = ctl.fabric().benefit_factor(self.apps[i].home, d);
                                let link_w =
                                    ctl.fabric()
                                        .link_energy_w(self.apps[i].home, d, load.rate_pps);
                                sw_w - f * (sw_w - hw_w) + link_w
                            }
                        };
                        AppObservation {
                            sample: FleetSample {
                                host: HostSample {
                                    rapl_w: sw_w,
                                    app_cpu_util: load.rate_pps / 1e6,
                                    hw_app_rate: if placement.is_offloaded() {
                                        load.rate_pps
                                    } else {
                                        0.0
                                    },
                                },
                                offered_pps: load.rate_pps,
                            },
                            completed: load.requests,
                            latency_p50_ns: p50,
                            power_w,
                        }
                    })
                    .collect();
                // 2. Next interval's load (same draws in both modes),
                //    and in the baseline its first arrivals.
                if interval_idx < intervals {
                    self.interval_loads(
                        interval_idx + 1,
                        intervals,
                        ctl,
                        &mut walks,
                        &mut etcs,
                        &mut load_rngs,
                        &mut cur,
                    );
                    if let Some(sink) = sink {
                        sim.with_node_ctx(sink, |s: &mut HeavySink, ctx| s.arm(ctx, &cur));
                    }
                }
                obs
            },
            |_, _, _, _| {},
        );

        let requests = timeline.per_app.iter().map(|t| t.total_completed()).sum();
        let retained_rows = timeline.per_app.iter().map(|t| t.retained_rows()).sum();
        let total_rows = timeline.per_app.iter().map(|t| t.total_rows()).sum();
        HeavyReport {
            timeline,
            requests,
            events_processed: sim.events_processed(),
            retained_rows,
            total_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline equivalence: both replay modes produce the same
    /// decisions and bit-identical full-span telemetry, while streaming
    /// mode holds a bounded number of rows.
    #[test]
    fn modes_agree_bit_for_bit_and_streaming_is_bounded() {
        let rig = HeavyTrafficRig::new(6, 42);
        let intervals = 120;
        let baseline = rig.run(ReplayMode::PerEventRows, intervals);
        let streaming = rig.run(ReplayMode::StreamingBatched, intervals);

        assert_eq!(baseline.requests, streaming.requests);
        assert!(
            baseline.requests > 100_000,
            "{} requests",
            baseline.requests
        );
        // The baseline pushed one event per request through the queue;
        // streaming mode pushed none.
        assert!(baseline.events_processed >= baseline.requests);
        assert!(streaming.events_processed < intervals);

        let (bt, st) = (&baseline.timeline, &streaming.timeline);
        assert_eq!(bt.energy_j.to_bits(), st.energy_j.to_bits());
        assert_eq!(bt.shifts.len(), st.shifts.len());
        for (a, b) in bt.shifts.iter().zip(&st.shifts) {
            assert_eq!(a, b);
        }
        let span = (Nanos::ZERO, rig.interval.mul(intervals + 1));
        for (i, (full, recent)) in bt.per_app.iter().zip(&st.per_app).enumerate() {
            assert_eq!(full.total_rows(), intervals, "tenant {i}");
            assert_eq!(recent.total_rows(), intervals, "tenant {i}");
            assert_eq!(full.retained_rows() as u64, intervals);
            assert!(recent.retained_rows() <= 2 * RECENT_ROWS, "tenant {i}");
            assert_eq!(
                full.energy_j().to_bits(),
                recent.energy_j().to_bits(),
                "tenant {i}"
            );
            assert_eq!(
                full.mean_power_w(span.0, span.1).unwrap().to_bits(),
                recent.mean_power_w(span.0, span.1).unwrap().to_bits(),
                "tenant {i}"
            );
            assert_eq!(
                full.mean_throughput_pps(span.0, span.1).unwrap().to_bits(),
                recent
                    .mean_throughput_pps(span.0, span.1)
                    .unwrap()
                    .to_bits(),
                "tenant {i}"
            );
            // Median: exact selection vs quantile sketch, within the
            // sketch's 1/32 bucket resolution.
            let exact = full.median_latency_ns(span.0, span.1).unwrap();
            let sketch = recent.median_latency_ns(span.0, span.1).unwrap();
            assert!(sketch >= exact.saturating_sub(exact / 32 + 1), "tenant {i}");
            assert!(sketch <= exact + exact / 32 + 1, "tenant {i}");
        }
    }

    /// The per-event mode makes one event per request and no other (the
    /// harness arms each interval's first arrivals from outside the event
    /// loop), and its queue holds at most one pending arrival per tenant.
    #[test]
    fn per_event_mode_is_one_event_per_request_and_one_arrival_per_tenant() {
        let report = HeavyTrafficRig::new(8, 42).run(ReplayMode::PerEventRows, 30);
        assert!(report.requests > 100_000, "{} requests", report.requests);
        assert_eq!(report.events_processed, report.requests);

        // The sink alone, over one interval: tenant 0 idle, tenant i with
        // 1 000·i requests.
        let interval = Nanos::from_millis(100);
        let loads: Vec<IntervalLoad> = (0..8)
            .map(|i| IntervalLoad {
                rate_pps: 0.0,
                requests: 1_000 * i,
                base_latency_ns: 5_000,
            })
            .collect();
        let mut sim: Simulator<u64> = Simulator::new(1);
        let sink = sim.add_node(HeavySink::new(interval, (0..8).map(Rng::new).collect()));
        sim.with_node_ctx(sink, |s: &mut HeavySink, ctx| s.arm(ctx, &loads));
        sim.run_until(interval);
        assert_eq!(sim.events_processed(), 28_000);
        assert_eq!(sim.queue_stats().high_water, 7);
        for (hist, load) in sim.node_ref::<HeavySink>(sink).hists.iter().zip(&loads) {
            assert_eq!(hist.count(), load.requests);
        }
    }

    /// Streaming-mode memory is O(1) in run length: doubling the run
    /// does not grow the retained rows.
    #[test]
    fn streaming_memory_is_constant_in_run_length() {
        let rig = HeavyTrafficRig::new(4, 7);
        let short = rig.run(ReplayMode::StreamingBatched, 80);
        let long = rig.run(ReplayMode::StreamingBatched, 160);
        assert_eq!(long.total_rows, 2 * short.total_rows);
        assert!(long.retained_rows <= 4 * 2 * RECENT_ROWS);
        assert!(long.retained_row_bytes() <= short.retained_row_bytes() * 2);
        // Not an empty claim: the same doubling in full-log mode doubles
        // retention.
        let full_short = rig.run(ReplayMode::PerEventRows, 80);
        let full_long = rig.run(ReplayMode::PerEventRows, 160);
        assert_eq!(full_long.retained_rows, 2 * full_short.retained_rows);
    }

    /// Replays are deterministic per mode.
    #[test]
    fn replay_is_deterministic() {
        let rig = HeavyTrafficRig::new(3, 11);
        let a = rig.run(ReplayMode::StreamingBatched, 50);
        let b = rig.run(ReplayMode::StreamingBatched, 50);
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.timeline.energy_j.to_bits(), b.timeline.energy_j.to_bits());
    }
}
