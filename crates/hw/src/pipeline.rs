//! P4-style dataplane resource admission.
//!
//! P4xos and (conceptually) the Tofino programs are match-action
//! pipelines. This module provides a [`PipelineBudget`] resource model
//! that decides whether a program fits a given target, mirroring the
//! paper's observation that switches "have limited resources (per Gbps)
//! and a vendor-provided target architecture, that may not fit all
//! applications" (§10).

/// Errors from dataplane resource admission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineError {
    /// The program does not fit the target's resources.
    DoesNotFit(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::DoesNotFit(why) => write!(f, "program does not fit target: {why}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Resource demands of a dataplane program.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProgramResources {
    /// Match-action stages required.
    pub stages: u32,
    /// Total register/table SRAM, bytes.
    pub sram_bytes: u64,
    /// Maximum header depth the parser must reach, bytes.
    pub parse_depth_bytes: u32,
}

/// Resource budget of a dataplane target.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PipelineBudget {
    /// Available match-action stages.
    pub stages: u32,
    /// Available stateful SRAM, bytes.
    pub sram_bytes: u64,
    /// Maximum supported parse depth, bytes.
    pub parse_depth_bytes: u32,
}

impl PipelineBudget {
    /// A Tofino-class switch budget: 12 stages, tens of MB of SRAM and a
    /// bounded parser — the limit behind §9.2's note that DNS names deeper
    /// than the maximum parse depth need iterative handling.
    pub fn tofino_like() -> Self {
        PipelineBudget {
            stages: 12,
            sram_bytes: 48 << 20,
            parse_depth_bytes: 192,
        }
    }

    /// Whether a program fits: [`PipelineBudget::admit`]'s verdict
    /// without its explanation, for callers that only branch on it.
    pub fn fits(&self, p: &ProgramResources) -> bool {
        p.stages <= self.stages
            && p.sram_bytes <= self.sram_bytes
            && p.parse_depth_bytes <= self.parse_depth_bytes
    }

    /// Checks whether a program fits, explaining the first violated limit.
    pub fn admit(&self, p: &ProgramResources) -> Result<(), PipelineError> {
        if p.stages > self.stages {
            return Err(PipelineError::DoesNotFit(format!(
                "needs {} stages, target has {}",
                p.stages, self.stages
            )));
        }
        if p.sram_bytes > self.sram_bytes {
            return Err(PipelineError::DoesNotFit(format!(
                "needs {} B SRAM, target has {} B",
                p.sram_bytes, self.sram_bytes
            )));
        }
        if p.parse_depth_bytes > self.parse_depth_bytes {
            return Err(PipelineError::DoesNotFit(format!(
                "needs parse depth {}, target supports {}",
                p.parse_depth_bytes, self.parse_depth_bytes
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A P4-NetFPGA budget: fewer stages but a deep, flexible parser.
    fn netfpga_like() -> PipelineBudget {
        PipelineBudget {
            stages: 8,
            sram_bytes: 4 << 20,
            parse_depth_bytes: 512,
        }
    }

    #[test]
    fn budget_admission() {
        let tofino = PipelineBudget::tofino_like();
        let small = ProgramResources {
            stages: 6,
            sram_bytes: 1 << 20,
            parse_depth_bytes: 64,
        };
        assert!(tofino.admit(&small).is_ok());
        // A DNS parse deeper than the parser budget does not fit (§9.2).
        let deep_dns = ProgramResources {
            stages: 6,
            sram_bytes: 1 << 20,
            parse_depth_bytes: 300,
        };
        assert!(matches!(
            tofino.admit(&deep_dns),
            Err(PipelineError::DoesNotFit(_))
        ));
        // The same program fits the FPGA's flexible parser.
        assert!(netfpga_like().admit(&deep_dns).is_ok());
    }

    #[test]
    fn budget_stage_and_sram_limits() {
        let b = netfpga_like();
        assert!(b
            .admit(&ProgramResources {
                stages: 9,
                ..Default::default()
            })
            .is_err());
        assert!(b
            .admit(&ProgramResources {
                sram_bytes: 1 << 30,
                ..Default::default()
            })
            .is_err());
    }

    /// `fits` is `admit`'s verdict on and around every limit, and the
    /// refusal it skips building still names the first violated limit.
    #[test]
    fn fits_is_admits_verdict_without_the_message() {
        let b = netfpga_like();
        for stages in [0, 8, 9] {
            for sram_bytes in [0, 4 << 20, (4 << 20) + 1] {
                for parse_depth_bytes in [0, 512, 513] {
                    let p = ProgramResources {
                        stages,
                        sram_bytes,
                        parse_depth_bytes,
                    };
                    assert_eq!(b.fits(&p), b.admit(&p).is_ok(), "{p:?}");
                }
            }
        }
        let over = ProgramResources {
            stages: 9,
            sram_bytes: 1 << 30,
            parse_depth_bytes: 64,
        };
        assert_eq!(
            b.admit(&over).unwrap_err().to_string(),
            "program does not fit target: needs 9 stages, target has 8"
        );
    }
}
