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

use std::collections::BTreeMap;

use crate::pipeline::{PipelineBudget, PipelineError, ProgramResources};

/// Identifier of an application holding (or requesting) device resources.
pub type AppSlot = u64;

/// A ledger of per-application resource allocations on one device.
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
    allocs: BTreeMap<AppSlot, ProgramResources>,
}

impl DeviceCapacity {
    /// Creates an empty ledger over `budget`.
    pub fn new(budget: PipelineBudget) -> Self {
        DeviceCapacity {
            budget,
            allocs: BTreeMap::new(),
        }
    }

    /// The underlying budget.
    pub fn budget(&self) -> PipelineBudget {
        self.budget
    }

    /// Number of applications currently holding resources.
    pub fn resident_count(&self) -> usize {
        self.allocs.len()
    }

    /// Whether `app` currently holds an allocation.
    pub fn is_resident(&self, app: AppSlot) -> bool {
        self.allocs.contains_key(&app)
    }

    /// Aggregate resources in use: stages and SRAM sum across residents,
    /// parse depth is the maximum any resident requires.
    pub fn used(&self) -> ProgramResources {
        self.allocs
            .values()
            .fold(ProgramResources::default(), |acc, r| ProgramResources {
                stages: acc.stages + r.stages,
                sram_bytes: acc.sram_bytes + r.sram_bytes,
                parse_depth_bytes: acc.parse_depth_bytes.max(r.parse_depth_bytes),
            })
    }

    /// The single combine rule shared by [`DeviceCapacity::fits`] and
    /// [`DeviceCapacity::admit`]: stages and SRAM add to the current
    /// residents, parse depth is a shared maximum. The result must pass
    /// the budget's own check.
    fn alongside_residents(&self, extra: &ProgramResources) -> ProgramResources {
        let used = self.used();
        ProgramResources {
            stages: used.stages + extra.stages,
            sram_bytes: used.sram_bytes + extra.sram_bytes,
            parse_depth_bytes: used.parse_depth_bytes.max(extra.parse_depth_bytes),
        }
    }

    /// Checks whether `extra` would fit alongside the current residents
    /// (the verdict only: a refusal builds no explanation).
    pub fn fits(&self, extra: &ProgramResources) -> bool {
        self.budget.fits(&self.alongside_residents(extra))
    }

    /// Grants `app` the resources `r`, or explains why it cannot.
    ///
    /// Re-admitting a resident app first releases its old allocation, so
    /// an app can grow or shrink its share in place. Admission succeeds
    /// exactly when [`DeviceCapacity::fits`] (with the app's own previous
    /// share excluded) holds — both go through the same combine rule.
    pub fn admit(&mut self, app: AppSlot, r: ProgramResources) -> Result<(), PipelineError> {
        let previous = self.allocs.remove(&app);
        match self.budget.admit(&self.alongside_residents(&r)) {
            Ok(()) => {
                self.allocs.insert(app, r);
                Ok(())
            }
            Err(e) => {
                let used = self.used();
                // Roll back the speculative release; keep the budget's own
                // diagnosis (it names the violated dimension) and add the
                // contention the decision actually saw — the app's own
                // previous share excluded.
                if let Some(p) = previous {
                    self.allocs.insert(app, p);
                }
                let why = match e {
                    PipelineError::DoesNotFit(why) => why,
                    other => other.to_string(),
                };
                Err(PipelineError::DoesNotFit(format!(
                    "app {app}: {why} ({} stages / {} B SRAM held by other apps)",
                    used.stages, used.sram_bytes
                )))
            }
        }
    }

    /// Releases whatever `app` holds; returns `true` if it held anything.
    pub fn release(&mut self, app: AppSlot) -> bool {
        self.allocs.remove(&app).is_some()
    }

    /// Releases every allocation.
    pub fn clear(&mut self) {
        self.allocs.clear();
    }

    /// Fraction of a budget dimension that `amount` represents, with one
    /// convention shared by [`DeviceCapacity::cost_units`],
    /// [`DeviceCapacity::occupancy`] and [`DeviceCapacity::shares`]:
    /// demanding any amount of a dimension the device does not have is
    /// infinitely expensive, demanding none of it is free. (The old
    /// `occupancy` used `.max(1)` denominators and clamped to 1.0,
    /// silently reporting a zero-sized dimension as healthy and masking
    /// overcommit.)
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
        self.allocs
            .get(&app)
            .map_or(0.0, |r| self.shares(r).dominant())
    }

    /// The scalar cost of a program: its dominant share — the largest
    /// fraction of any *consumed* budget dimension (see
    /// [`ResourceShares::dominant`]), in `[0, ∞]`. A program whose cost
    /// exceeds 1 can never fit.
    pub fn cost_units(&self, r: &ProgramResources) -> f64 {
        self.shares(r).dominant()
    }

    /// Fraction of the bottleneck dimension currently allocated. Every
    /// allocation goes through [`DeviceCapacity::admit`], so this stays
    /// in `[0, 1]` — it is deliberately *not* clamped, so an overcommit
    /// introduced by a future bug (or a shrunk budget) reads as `> 1`
    /// instead of being masked.
    pub fn occupancy(&self) -> f64 {
        self.shares(&self.used()).dominant()
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
        assert!(cap.is_resident(0));
        // 7 + 6 = 13 stages > 12: the second app does not fit.
        assert!(matches!(
            cap.admit(1, dns()),
            Err(PipelineError::DoesNotFit(_))
        ));
        assert!(!cap.is_resident(1));
        // Releasing the first makes room.
        assert!(cap.release(0));
        cap.admit(1, dns()).unwrap();
        assert_eq!(cap.resident_count(), 1);
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
        // Regression: `occupancy` used `.max(1)` denominators and a
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
        assert!((cap.occupancy() - 0.25).abs() < 1e-9);
        // An empty ledger on the degenerate device occupies nothing.
        cap.clear();
        assert_eq!(cap.occupancy(), 0.0);
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

    #[test]
    fn occupancy_tracks_allocations() {
        let mut cap = DeviceCapacity::new(PipelineBudget::tofino_like());
        assert_eq!(cap.occupancy(), 0.0);
        cap.admit(0, dns()).unwrap();
        assert!((cap.occupancy() - 0.5).abs() < 1e-9);
        cap.clear();
        assert_eq!(cap.occupancy(), 0.0);
    }
}
