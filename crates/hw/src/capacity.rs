//! Multi-application capacity accounting for one programmable device.
//!
//! §10 observes that programmable targets "have limited resources (per
//! Gbps) and a vendor-provided target architecture, that may not fit all
//! applications" — which becomes acute the moment the device is a *shared*
//! resource arbitrated between tenants rather than dedicated to a single
//! workload. [`DeviceCapacity`] extends the single-program
//! [`PipelineBudget`] admission check to a ledger of concurrent
//! allocations: match-action stages and stateful SRAM are additive across
//! resident programs (each consumes its own slice of the pipeline and its
//! own table share), while parser depth is a shared maximum (one parser
//! serves every program).
//!
//! The scheduler in `inc-ondemand` uses [`DeviceCapacity::cost_units`] as
//! the denominator of its benefit-per-capacity ranking: the cost of a
//! program is the fraction of the scarcest budget dimension it occupies,
//! so a program that hogs half the SRAM is twice as expensive as one that
//! hogs a quarter, regardless of how little of the other dimensions it
//! needs.
//!
//! A device holds a handful of residents and an arbitration tick re-seats
//! them over and over, so the ledger is sized for that: one short flat
//! list of residents next to the aggregate they occupy. `used` and `fits`
//! read the aggregate in O(1); `admit` and `release` touch the one list.
//! Every sum saturates, so a hostile demand (`u32::MAX` stages next to a
//! resident) reads as the type's maximum and is refused instead of
//! wrapping around to a small total.

use crate::pipeline::{PipelineBudget, PipelineError, ProgramResources};

/// Identifier of an application holding (or requesting) device resources.
pub type AppSlot = u64;

/// A ledger of per-application resource allocations on one device.
///
/// The residents live in one flat list (an app appears at most once),
/// and `used` is their aggregate: stages and SRAM summed with saturation,
/// parse depth the maximum. Admission adds to the aggregate; a release,
/// or a resident's re-admission, recomputes it over the remaining few
/// residents, because a maximum cannot be subtracted.
///
/// # Examples
///
/// ```
/// use inc_hw::{DeviceCapacity, PipelineBudget, ProgramResources};
///
/// let mut cap = DeviceCapacity::new(PipelineBudget::tofino_like());
/// let kvs = ProgramResources { stages: 7, sram_bytes: 40 << 20, parse_depth_bytes: 96 };
/// let dns = ProgramResources { stages: 6, sram_bytes: 20 << 20, parse_depth_bytes: 128 };
/// cap.admit(0, kvs).unwrap();
/// // Both programs fit alone, but not together (13 stages > 12).
/// assert!(cap.admit(1, dns).is_err());
/// cap.release(0);
/// assert!(cap.admit(1, dns).is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct DeviceCapacity {
    budget: PipelineBudget,
    residents: Vec<(AppSlot, ProgramResources)>,
    used: ProgramResources,
}

/// The one combine rule of the ledger: stages and SRAM add (saturating
/// at the type's maximum, which no smaller budget admits), parse depth
/// is a shared maximum.
fn combine(a: ProgramResources, b: &ProgramResources) -> ProgramResources {
    ProgramResources {
        stages: a.stages.saturating_add(b.stages),
        sram_bytes: a.sram_bytes.saturating_add(b.sram_bytes),
        parse_depth_bytes: a.parse_depth_bytes.max(b.parse_depth_bytes),
    }
}

impl DeviceCapacity {
    /// Creates an empty ledger over `budget`.
    pub fn new(budget: PipelineBudget) -> Self {
        DeviceCapacity {
            budget,
            residents: Vec::new(),
            used: ProgramResources::default(),
        }
    }

    /// The underlying budget.
    pub fn budget(&self) -> PipelineBudget {
        self.budget
    }

    /// Aggregate resources in use: stages and SRAM sum across residents
    /// (saturating), parse depth is the maximum any resident requires.
    pub fn used(&self) -> ProgramResources {
        self.used
    }

    /// The aggregate of every resident except the one at `skip`.
    fn used_without(&self, skip: usize) -> ProgramResources {
        self.residents
            .iter()
            .enumerate()
            .filter(|&(k, _)| k != skip)
            .fold(ProgramResources::default(), |acc, (_, (_, r))| {
                combine(acc, r)
            })
    }

    /// Checks whether `extra` would fit alongside the current residents
    /// (the verdict only: a refusal builds no explanation).
    pub fn fits(&self, extra: &ProgramResources) -> bool {
        self.budget.fits(&combine(self.used, extra))
    }

    /// Grants `app` the resources `r`, or explains why it cannot.
    ///
    /// Re-admitting a resident app replaces its old allocation, so an app
    /// can grow or shrink its share in place. Admission succeeds exactly
    /// when [`DeviceCapacity::fits`] (with the app's own previous share
    /// excluded) holds — both go through the same combine rule. A refusal
    /// leaves the ledger untouched, the app's previous share included.
    pub fn admit(&mut self, app: AppSlot, r: ProgramResources) -> Result<(), PipelineError> {
        let seat = self.residents.iter().position(|&(a, _)| a == app);
        let others = seat.map_or(self.used, |k| self.used_without(k));
        let total = combine(others, &r);
        match self.budget.admit(&total) {
            Ok(()) => {
                match seat {
                    Some(k) => self.residents[k].1 = r,
                    None => self.residents.push((app, r)),
                }
                self.used = total;
                Ok(())
            }
            Err(PipelineError::DoesNotFit(why)) => {
                // Keep the budget's own diagnosis (it names the violated
                // dimension) and add the contention the decision actually
                // saw — the app's own previous share excluded.
                Err(PipelineError::DoesNotFit(format!(
                    "app {app}: {why} ({} stages / {} B SRAM held by other apps)",
                    others.stages, others.sram_bytes
                )))
            }
        }
    }

    /// Releases whatever `app` holds; returns `true` if it held anything.
    pub fn release(&mut self, app: AppSlot) -> bool {
        let Some(k) = self.residents.iter().position(|&(a, _)| a == app) else {
            return false;
        };
        self.used = self.used_without(k);
        self.residents.swap_remove(k);
        true
    }

    /// Releases every allocation.
    pub fn clear(&mut self) {
        self.residents.clear();
        self.used = ProgramResources::default();
    }

    /// Fraction of a budget dimension that `amount` represents, with one
    /// convention shared by [`DeviceCapacity::cost_units`] and
    /// [`DeviceCapacity::shares`]: demanding any amount of a dimension the
    /// device does not have is infinitely expensive, demanding none of it
    /// is free. (An old occupancy metric used `.max(1)` denominators and
    /// clamped to 1.0, silently reporting a zero-sized dimension as
    /// healthy and masking overcommit.)
    fn dimension_frac(amount: u64, budget: u64) -> f64 {
        match (amount, budget) {
            (0, 0) => 0.0,
            (_, 0) => f64::INFINITY,
            (a, b) => a as f64 / b as f64,
        }
    }

    /// The per-dimension budget fractions `r` represents on this device:
    /// the accounting unit of dominant-resource fairness. All three
    /// dimensions are reported; [`ResourceShares::dominant`] folds them
    /// into the DRF dominant share.
    pub fn shares(&self, r: &ProgramResources) -> ResourceShares {
        ResourceShares {
            stages: Self::dimension_frac(r.stages as u64, self.budget.stages as u64),
            sram: Self::dimension_frac(r.sram_bytes, self.budget.sram_bytes),
            parse: Self::dimension_frac(
                r.parse_depth_bytes as u64,
                self.budget.parse_depth_bytes as u64,
            ),
        }
    }

    /// The dominant share `app` currently holds on this device: the
    /// largest budget fraction across the consumed dimensions of its
    /// allocation, or 0.0 when it holds nothing. This is the quantity a
    /// DRF arbiter compares against a tenant's weighted entitlement.
    pub fn dominant_share(&self, app: AppSlot) -> f64 {
        self.residents
            .iter()
            .find(|&&(a, _)| a == app)
            .map_or(0.0, |(_, r)| self.shares(r).dominant())
    }

    /// The scalar cost of a program: its dominant share — the largest
    /// fraction of any *consumed* budget dimension (see
    /// [`ResourceShares::dominant`]), in `[0, ∞]`. A program whose cost
    /// exceeds 1 can never fit.
    pub fn cost_units(&self, r: &ProgramResources) -> f64 {
        self.shares(r).dominant()
    }
}

/// The budget fractions one program occupies on one device, per
/// dimension — the accounting unit of dominant-resource fairness.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ResourceShares {
    /// Fraction of the match-action stages.
    pub stages: f64,
    /// Fraction of the stateful SRAM.
    pub sram: f64,
    /// Fraction of the maximum parse depth. Reported for observability,
    /// but *shared*, not consumed: one parser serves every resident, so
    /// a deep parse deprives no co-tenant.
    pub parse: f64,
}

impl ResourceShares {
    /// The DRF dominant share: the largest fraction across the
    /// *consumed* dimensions (stages and SRAM). Parse depth is excluded
    /// by the same convention as [`DeviceCapacity::cost_units`]: it
    /// gates feasibility but is not a divisible resource a fair-share
    /// arbiter can hand out.
    pub fn dominant(&self) -> f64 {
        self.stages.max(self.sram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kvs() -> ProgramResources {
        ProgramResources {
            stages: 7,
            sram_bytes: 40 << 20,
            parse_depth_bytes: 96,
        }
    }

    fn dns() -> ProgramResources {
        ProgramResources {
            stages: 6,
            sram_bytes: 20 << 20,
            parse_depth_bytes: 128,
        }
    }

    #[test]
    fn admits_until_stages_exhaust() {
        let mut cap = DeviceCapacity::new(PipelineBudget::tofino_like());
        cap.admit(0, kvs()).unwrap();
        assert_eq!(cap.residents, vec![(0, kvs())]);
        // 7 + 6 = 13 stages > 12: the second app does not fit.
        assert!(matches!(
            cap.admit(1, dns()),
            Err(PipelineError::DoesNotFit(_))
        ));
        assert_eq!(cap.residents.len(), 1);
        // Releasing the first makes room.
        assert!(cap.release(0));
        cap.admit(1, dns()).unwrap();
        assert_eq!(cap.residents, vec![(1, dns())]);
    }

    #[test]
    fn sram_is_additive_parse_depth_is_shared() {
        let budget = PipelineBudget {
            stages: 64,
            sram_bytes: 48 << 20,
            parse_depth_bytes: 192,
        };
        let mut cap = DeviceCapacity::new(budget);
        cap.admit(0, kvs()).unwrap();
        // Stages now fit (13 <= 64) but SRAM does not (40 + 20 > 48).
        assert!(cap.admit(1, dns()).is_err());
        // A deep parser alone is fine as long as it is within budget —
        // depth does not accumulate across residents.
        let deep = ProgramResources {
            stages: 1,
            sram_bytes: 1 << 20,
            parse_depth_bytes: 190,
        };
        cap.admit(2, deep).unwrap();
        cap.admit(3, deep).unwrap();
        assert_eq!(cap.used().parse_depth_bytes, 190);
    }

    #[test]
    fn readmission_resizes_in_place() {
        let mut cap = DeviceCapacity::new(PipelineBudget::tofino_like());
        cap.admit(0, kvs()).unwrap();
        // Shrinking the share succeeds even though a second copy would not
        // fit beside the old one.
        let smaller = ProgramResources { stages: 6, ..kvs() };
        cap.admit(0, smaller).unwrap();
        assert_eq!(cap.used().stages, 6);
        // A failed resize leaves the old allocation intact.
        let giant = ProgramResources {
            stages: 13,
            ..kvs()
        };
        assert!(cap.admit(0, giant).is_err());
        assert_eq!(cap.used().stages, 6);
    }

    #[test]
    fn cost_units_is_bottleneck_share() {
        let cap = DeviceCapacity::new(PipelineBudget::tofino_like());
        // KVS: stages 7/12 = 0.583, SRAM 40/48 = 0.833 -> SRAM-bound.
        assert!((cap.cost_units(&kvs()) - 40.0 / 48.0).abs() < 1e-9);
        // DNS: stages 6/12 = 0.5, SRAM 20/48 = 0.417 -> stage-bound.
        assert!((cap.cost_units(&dns()) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_sized_budget_dimension_is_infinite_not_masked() {
        // Regression: an occupancy metric used `.max(1)` denominators and a
        // `.min(1.0)` clamp, so a zero-SRAM device looked healthily
        // occupied while `cost_units` called the same demand infinite.
        let no_sram = PipelineBudget {
            stages: 12,
            sram_bytes: 0,
            parse_depth_bytes: 192,
        };
        let mut cap = DeviceCapacity::new(no_sram);
        // Any SRAM demand is infinitely expensive and never admitted.
        assert_eq!(cap.cost_units(&dns()), f64::INFINITY);
        assert!(!cap.fits(&dns()));
        assert!(cap.admit(0, dns()).is_err());
        // A stateless program is finite, admissible, and both metrics
        // agree on the stage fraction.
        let stateless = ProgramResources {
            stages: 3,
            sram_bytes: 0,
            parse_depth_bytes: 64,
        };
        assert!((cap.cost_units(&stateless) - 0.25).abs() < 1e-9);
        cap.admit(1, stateless).unwrap();
        assert!((cap.cost_units(&cap.used()) - 0.25).abs() < 1e-9);
        // An empty ledger on the degenerate device occupies nothing.
        cap.clear();
        assert_eq!(cap.cost_units(&cap.used()), 0.0);
    }

    #[test]
    fn fits_and_admit_agree() {
        // `admit` is implemented on the same combine rule as `fits`, so
        // the two can no longer drift; spot-check both directions around
        // the boundary (the exhaustive check is a proptest in
        // `tests/properties.rs`).
        let mut cap = DeviceCapacity::new(PipelineBudget::tofino_like());
        cap.admit(0, kvs()).unwrap();
        let five = ProgramResources {
            stages: 5,
            sram_bytes: 1 << 20,
            parse_depth_bytes: 64,
        };
        let six = ProgramResources { stages: 6, ..five };
        assert!(cap.fits(&five));
        assert!(!cap.fits(&six));
        assert!(cap.admit(1, five).is_ok());
        assert!(cap.admit(2, six).is_err());
    }

    #[test]
    fn shares_and_dominant_share_follow_the_ledger() {
        let mut cap = DeviceCapacity::new(PipelineBudget::tofino_like());
        // Not resident: no share.
        assert_eq!(cap.dominant_share(0), 0.0);
        cap.admit(0, kvs()).unwrap();
        let s = cap.shares(&kvs());
        assert!((s.stages - 7.0 / 12.0).abs() < 1e-9);
        assert!((s.sram - 40.0 / 48.0).abs() < 1e-9);
        assert!((s.parse - 96.0 / 192.0).abs() < 1e-9);
        // Dominant = max over the consumed dimensions = cost_units.
        assert!((cap.dominant_share(0) - cap.cost_units(&kvs())).abs() < 1e-9);
        // Parse depth never dominates: a parse-heavy, otherwise tiny
        // program has a small dominant share even at full parser depth.
        let deep = ProgramResources {
            stages: 1,
            sram_bytes: 1 << 20,
            parse_depth_bytes: 192,
        };
        let ds = cap.shares(&deep);
        assert_eq!(ds.parse, 1.0);
        assert!((ds.dominant() - 1.0 / 12.0).abs() < 1e-9);
        // Release returns the share to zero.
        cap.release(0);
        assert_eq!(cap.dominant_share(0), 0.0);
    }

    /// Checks that `huge`, whose sum with a small resident overflows,
    /// is refused by `fits`, `DeviceCapacity::admit` and
    /// `DeviceFabric::admit`, and leaves each ledger as it was.
    fn overflowing_demand_is_refused(huge: ProgramResources) {
        use crate::fabric::{DeviceFabric, DeviceId};
        let small = ProgramResources {
            stages: 2,
            sram_bytes: 2 << 20,
            parse_depth_bytes: 64,
        };
        let mut cap = DeviceCapacity::new(PipelineBudget::tofino_like());
        cap.admit(0, small).unwrap();
        assert!(!cap.fits(&huge));
        assert!(cap.admit(1, huge).is_err());
        assert_eq!(cap.used(), small);
        assert_eq!(cap.dominant_share(1), 0.0);
        let mut fabric = DeviceFabric::single(PipelineBudget::tofino_like());
        fabric.admit(DeviceId(0), 0, small).unwrap();
        assert!(fabric.admit(DeviceId(0), 1, huge).is_err());
        assert_eq!(fabric.residency(1), None);
        assert_eq!(fabric.device(DeviceId(0)).used(), small);
    }

    /// Regression: the stage sum used a plain `+`, so `u32::MAX` stages
    /// beside a 2-stage resident wrapped to 1 and was admitted (release)
    /// or panicked (debug).
    #[test]
    fn a_stage_demand_that_overflows_the_sum_is_refused() {
        overflowing_demand_is_refused(ProgramResources {
            stages: u32::MAX,
            sram_bytes: 0,
            parse_depth_bytes: 0,
        });
    }

    /// Regression: the same wrap-around on the SRAM sum.
    #[test]
    fn an_sram_demand_that_overflows_the_sum_is_refused() {
        overflowing_demand_is_refused(ProgramResources {
            stages: 0,
            sram_bytes: u64::MAX,
            parse_depth_bytes: 0,
        });
    }

    #[test]
    fn release_lowers_the_shared_parse_depth() {
        let mut cap = DeviceCapacity::new(PipelineBudget::tofino_like());
        cap.admit(0, kvs()).unwrap();
        let deep = ProgramResources {
            stages: 1,
            sram_bytes: 1 << 20,
            parse_depth_bytes: 128,
        };
        cap.admit(1, deep).unwrap();
        assert_eq!(cap.used().parse_depth_bytes, 128);
        assert!(cap.release(1));
        assert_eq!(cap.used(), kvs());
        assert!(!cap.release(1));
    }

    #[test]
    fn used_tracks_allocations() {
        let mut cap = DeviceCapacity::new(PipelineBudget::tofino_like());
        assert_eq!(cap.cost_units(&cap.used()), 0.0);
        cap.admit(0, dns()).unwrap();
        assert!((cap.cost_units(&cap.used()) - 0.5).abs() < 1e-9);
        cap.clear();
        assert_eq!(cap.cost_units(&cap.used()), 0.0);
    }
}
