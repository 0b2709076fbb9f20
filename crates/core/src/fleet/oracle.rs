//! A flat reference implementation of the placement policy, for tests.
//!
//! [`FlatOracle`] re-scores every (app × device) pair from scratch each
//! interval and admits candidates in one globally sorted scan — no held
//! rates, no dirty queue, no pods. On a single-pod fabric the engine
//! ([`FleetController`](crate::arbiter::FleetController)) with a zero
//! rate dead band must make exactly the same decisions, bit for bit; the
//! equivalence tests drive both over the same traces. It prices with the
//! same `pricing` functions as the engine, so a disagreement is always a
//! disagreement about *search*, not about what a placement is worth.
//!
//! Not a production scheduler: nothing outside tests constructs it, and it
//! refuses multi-pod fabrics, where the engine's cross-pod placement rules
//! (ARCHITECTURE.md) are the specification and a flat scan is not.

use inc_hw::{DeviceFabric, DeviceId, Placement};
use inc_sim::Nanos;

use super::{pricing, FleetApp, FleetControllerConfig, FleetSample, FleetShift, ShiftReason};

/// The flat sorted-scan knapsack (see the module docs).
#[derive(Clone, Debug)]
// inc-lint: allow(unreached-pub): the equivalence oracle of tests/properties.rs and tests/economics.rs
pub struct FlatOracle {
    config: FleetControllerConfig,
    fabric: DeviceFabric,
    apps: Vec<FleetApp>,
    placements: Vec<Placement>,
    up_streaks: Vec<u32>,
    down_streaks: Vec<u32>,
    starved_streaks: Vec<u32>,
    fair_hold: Vec<bool>,
    rejected: Vec<bool>,
    shifts: Vec<FleetShift>,
}

impl FlatOracle {
    /// An oracle with every app in software.
    ///
    /// # Panics
    ///
    /// Panics if the fabric has more than one pod.
    pub fn new(config: FleetControllerConfig, fabric: DeviceFabric, apps: Vec<FleetApp>) -> Self {
        assert_eq!(
            fabric.pod_count(),
            1,
            "the flat oracle is the reference for single-pod fabrics only"
        );
        config.validate();
        let rejected = pricing::unfit_everywhere(&fabric, &apps);
        let n = apps.len();
        FlatOracle {
            config,
            fabric,
            apps,
            placements: vec![Placement::Software; n],
            up_streaks: vec![0; n],
            down_streaks: vec![0; n],
            starved_streaks: vec![0; n],
            fair_hold: vec![false; n],
            rejected,
            shifts: Vec::new(),
        }
    }

    /// Current per-app placements.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// The decision log.
    pub fn shifts(&self) -> &[FleetShift] {
        &self.shifts
    }

    /// Consecutive samples `app` has spent queued.
    pub fn starved_streak(&self, app: usize) -> u32 {
        self.starved_streaks[app]
    }

    fn effective(&self, app: usize, device: DeviceId, rate: f64) -> f64 {
        pricing::effective_benefit_w(&self.config, &self.fabric, &self.apps[app], device, rate)
    }

    fn per_capacity(&self, app: usize, device: DeviceId, value: f64) -> f64 {
        pricing::per_capacity(&self.fabric, &self.apps[app], device, value)
    }

    /// Logs a placement change and resets the app's hysteresis.
    fn record(&mut self, shift: FleetShift, fair: bool) {
        let app = shift.app;
        self.placements[app] = shift.to;
        self.up_streaks[app] = 0;
        self.down_streaks[app] = 0;
        self.starved_streaks[app] = 0;
        self.fair_hold[app] = fair;
        self.shifts.push(shift);
    }

    /// Feeds one sample per app; returns the placement changes.
    pub fn sample(&mut self, now: Nanos, samples: &[FleetSample]) -> Vec<(usize, Placement)> {
        assert_eq!(samples.len(), self.apps.len(), "one sample per app");
        let n = self.apps.len();
        let sustain = self.config.sustain_samples;
        let floor = pricing::floor_value(&self.config);
        // §9.1: host-measured rate in software, network-measured on a device.
        let rates: Vec<f64> = (0..n)
            .map(|i| samples[i].measured_pps(self.placements[i]))
            .collect();
        let raw: Vec<f64> = (0..n)
            .map(|i| pricing::raw_value(&self.config, &self.apps[i], rates[i]))
            .collect();
        let mut decisions: Vec<(usize, Placement)> = Vec::new();

        // Tenants of an offline device are force-evicted ahead of everything.
        for i in 0..n {
            if let Placement::Device(d) = self.placements[i] {
                if !self.fabric.is_online(d) {
                    self.fabric.release(i as u64);
                    let shift = FleetShift {
                        at: now,
                        app: i,
                        to: Placement::Software,
                        rate_pps: rates[i],
                        benefit_w: raw[i],
                        reason: ShiftReason::DeviceLoss,
                    };
                    self.record(shift, false);
                    decisions.push((i, Placement::Software));
                }
            }
        }

        // Streaks: raw value above the floor gates entering a device; the
        // value delivered where it runs gates staying on one.
        for i in 0..n {
            self.up_streaks[i] = if raw[i] >= floor {
                self.up_streaks[i].saturating_add(1)
            } else {
                0
            };
            self.down_streaks[i] = match self.placements[i] {
                Placement::Device(d)
                    if self.effective(i, d, rates[i]) < floor * self.config.evict_fraction =>
                {
                    self.down_streaks[i].saturating_add(1)
                }
                _ => 0,
            };
        }

        // Every (app × device) candidate: a sticky score where the app
        // sits, a migration-debited fresh offload elsewhere.
        let mut candidates: Vec<(f64, usize, DeviceId)> = Vec::new();
        for i in (0..n).filter(|&i| !self.rejected[i]) {
            let entering = self.up_streaks[i] >= sustain;
            let current = self.placements[i].device();
            if current.is_some() && self.down_streaks[i] >= sustain {
                continue;
            }
            for d in self
                .fabric
                .device_ids()
                .filter(|&d| self.fabric.is_online(d))
            {
                let eff = self.effective(i, d, rates[i]);
                if current == Some(d) {
                    let score = self.per_capacity(i, d, eff) * self.config.stickiness;
                    candidates.push((score, i, d));
                } else if entering {
                    let value = match current {
                        Some(_) => eff - pricing::migration_value(&self.config),
                        None => eff,
                    };
                    if value >= floor {
                        candidates.push((self.per_capacity(i, d, value), i, d));
                    }
                }
            }
        }
        candidates.sort_by(|a, b| {
            let dist = |c: &(f64, usize, DeviceId)| self.fabric.distance(self.apps[c.1].home, c.2);
            b.0.total_cmp(&a.0)
                .then(a.1.cmp(&b.1))
                .then_with(|| dist(a).cmp(&dist(b)))
                .then(a.2.cmp(&b.2))
        });

        // Greedy scan over an empty fabric, fairness tenure seated first.
        let mut chosen = self.fabric.fresh();
        let mut selected: Vec<Option<DeviceId>> = vec![None; n];
        for (i, seat) in selected.iter_mut().enumerate() {
            if let Placement::Device(d) = self.placements[i] {
                if self.fair_hold[i] && self.down_streaks[i] < sustain {
                    chosen
                        .admit(d, i as u64, self.apps[i].demand)
                        .expect("a held residency fits an empty fabric");
                    *seat = Some(d);
                }
            }
        }
        for &(_, i, d) in &candidates {
            if selected[i].is_none() && chosen.admit(d, i as u64, self.apps[i].demand).is_ok() {
                selected[i] = Some(d);
            }
        }

        // Fairness claims, largest weighted starvation deficit first.
        let mut fair_placed = vec![false; n];
        let mut fair_clipped = vec![false; n];
        let mut claimants: Vec<usize> = (0..n)
            .filter(|&i| {
                !self.rejected[i]
                    && selected[i].is_none()
                    && self.starved_streaks[i]
                        >= pricing::starvation_threshold(&self.config, self.apps[i].weight)
            })
            .collect();
        claimants.sort_by(|&a, &b| {
            let da = self.starved_streaks[a] as f64 * self.apps[a].weight;
            let db = self.starved_streaks[b] as f64 * self.apps[b].weight;
            db.total_cmp(&da).then(a.cmp(&b))
        });
        for i in claimants {
            let mut plans = pricing::plan_handovers(
                &self.config,
                &self.apps,
                &self.starved_streaks,
                &chosen,
                |j| selected[j],
                |j| fair_placed[j],
                i,
                &rates,
            );
            pricing::order_plans(&mut plans, self.config.claim_policy);
            if let Some(plan) = plans.first() {
                for &e in &plan.clips {
                    chosen.release(e as u64);
                    selected[e] = None;
                    fair_clipped[e] = true;
                }
                chosen
                    .admit(plan.device, i as u64, self.apps[i].demand)
                    .expect("a planned hand-over fits by construction");
                selected[i] = Some(plan.device);
                fair_placed[i] = true;
            }
        }

        // Execute the diff.
        let prev_placements = self.placements.clone();
        let prev_down = self.down_streaks.clone();
        for i in 0..n {
            let want = selected[i].map_or(Placement::Software, Placement::Device);
            if want == self.placements[i] {
                continue;
            }
            let reason = if fair_placed[i] || fair_clipped[i] {
                ShiftReason::FairShare
            } else if let (Placement::Device(d), true) = (want, self.starved_streaks[i] > 0) {
                let preempted = (0..n).any(|j| {
                    j != i
                        && prev_placements[j] == Placement::Device(d)
                        && selected[j] != Some(d)
                        && prev_down[j] < sustain
                });
                if preempted {
                    ShiftReason::Benefit
                } else {
                    ShiftReason::Admission
                }
            } else {
                ShiftReason::Benefit
            };
            let benefit_w = match want {
                Placement::Device(d) => self.effective(i, d, rates[i]),
                Placement::Software => raw[i],
            };
            let shift = FleetShift {
                at: now,
                app: i,
                to: want,
                rate_pps: rates[i],
                benefit_w,
                reason,
            };
            self.record(shift, fair_placed[i]);
            decisions.push((i, want));
        }
        self.fabric = chosen;

        // A sustained profitable software tenant that got no seat is queued.
        for i in 0..n {
            let queued = !self.rejected[i]
                && self.placements[i] == Placement::Software
                && self.up_streaks[i] >= sustain;
            self.starved_streaks[i] = if queued {
                self.starved_streaks[i].saturating_add(1)
            } else {
                0
            };
        }
        decisions
    }
}
