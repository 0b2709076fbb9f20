//! P4-style dataplane building blocks.
//!
//! P4xos and (conceptually) the Tofino programs are match-action pipelines
//! operating on register arrays. This module provides the two stateful
//! primitives such programs use — bounded [`RegisterArray`]s and exact-match
//! [`MatchTable`]s — together with a [`PipelineBudget`] resource model that
//! decides whether a program fits a given target, mirroring the paper's
//! observation that switches "have limited resources (per Gbps) and a
//! vendor-provided target architecture, that may not fit all applications"
//! (§10).

use inc_sim::FixedHashMap;

/// Errors from dataplane state primitives.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineError {
    /// Index beyond a register array's bounds.
    IndexOutOfRange {
        /// Offending index.
        index: u64,
        /// Array size.
        size: u64,
    },
    /// A table is at capacity.
    TableFull,
    /// The program does not fit the target's resources.
    DoesNotFit(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::IndexOutOfRange { index, size } => {
                write!(f, "register index {index} out of range (size {size})")
            }
            PipelineError::TableFull => write!(f, "match table full"),
            PipelineError::DoesNotFit(why) => write!(f, "program does not fit target: {why}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// A bounded array of fixed-width registers, as P4 targets provide.
///
/// P4xos keeps acceptor state (rounds, vrounds, values) in register arrays
/// indexed by consensus instance; on the ASIC the array size is a hard
/// resource limit, so instance numbers wrap (the paper's Tofino port needed
/// "architecture-specific changes to the code for memory accesses", §6).
///
/// # Examples
///
/// ```
/// use inc_hw::RegisterArray;
///
/// let mut regs: RegisterArray<u32> = RegisterArray::new("rounds", 1024);
/// regs.write(5, 7).unwrap();
/// assert_eq!(*regs.read(5).unwrap(), 7);
/// assert!(regs.write(4096, 1).is_err());
/// assert_eq!(regs.wrap_index(1024 + 3), 3); // ASIC-style wraparound
/// ```
#[derive(Clone, Debug)]
pub struct RegisterArray<T> {
    name: String,
    slots: Vec<T>,
}

impl<T: Default + Clone> RegisterArray<T> {
    /// Allocates `size` zero-initialised registers.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(name: impl Into<String>, size: u64) -> Self {
        assert!(size > 0, "register array must have at least one slot");
        RegisterArray {
            name: name.into(),
            slots: vec![T::default(); size as usize],
        }
    }

    /// Returns the array name (for resource accounting).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of registers.
    pub fn size(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Reads register `index`.
    pub fn read(&self, index: u64) -> Result<&T, PipelineError> {
        self.slots
            .get(index as usize)
            .ok_or(PipelineError::IndexOutOfRange {
                index,
                size: self.size(),
            })
    }

    /// Writes register `index`.
    pub fn write(&mut self, index: u64, value: T) -> Result<(), PipelineError> {
        let size = self.size();
        match self.slots.get_mut(index as usize) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(PipelineError::IndexOutOfRange { index, size }),
        }
    }

    /// Maps an unbounded sequence number onto the array, as ASIC ports of
    /// P4xos must (`index mod size`).
    pub fn wrap_index(&self, seq: u64) -> u64 {
        seq % self.size()
    }

    /// Resets all registers to the default value.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = T::default();
        }
    }
}

/// An exact-match table with bounded capacity.
#[derive(Clone, Debug)]
pub struct MatchTable<K, V> {
    name: String,
    capacity: usize,
    entries: FixedHashMap<K, V>,
}

impl<K: std::hash::Hash + Eq, V> MatchTable<K, V> {
    /// Creates a table holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(name: impl Into<String>, capacity: usize) -> Self {
        assert!(capacity > 0);
        MatchTable {
            name: name.into(),
            capacity,
            entries: FixedHashMap::default(),
        }
    }

    /// Returns the table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Inserts an entry; fails when full (unless replacing).
    pub fn insert(&mut self, key: K, value: V) -> Result<Option<V>, PipelineError> {
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            return Err(PipelineError::TableFull);
        }
        Ok(self.entries.insert(key, value))
    }

    /// Looks up an entry.
    pub fn lookup(&self, key: &K) -> Option<&V> {
        self.entries.get(key)
    }

    /// Removes an entry.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.entries.remove(key)
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

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

    /// A P4-NetFPGA budget: fewer stages but a deep, flexible parser.
    pub fn netfpga_like() -> Self {
        PipelineBudget {
            stages: 8,
            sram_bytes: 4 << 20,
            parse_depth_bytes: 512,
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

    #[test]
    fn register_read_write_bounds() {
        let mut r: RegisterArray<u64> = RegisterArray::new("r", 8);
        assert_eq!(*r.read(0).unwrap(), 0);
        r.write(7, 42).unwrap();
        assert_eq!(*r.read(7).unwrap(), 42);
        assert!(matches!(
            r.read(8),
            Err(PipelineError::IndexOutOfRange { index: 8, size: 8 })
        ));
        assert!(r.write(100, 1).is_err());
    }

    #[test]
    fn register_wraparound() {
        let r: RegisterArray<u32> = RegisterArray::new("r", 16);
        assert_eq!(r.wrap_index(15), 15);
        assert_eq!(r.wrap_index(16), 0);
        assert_eq!(r.wrap_index(35), 3);
    }

    #[test]
    fn register_clear() {
        let mut r: RegisterArray<u8> = RegisterArray::new("r", 4);
        r.write(2, 9).unwrap();
        r.clear();
        assert_eq!(*r.read(2).unwrap(), 0);
    }

    #[test]
    fn table_capacity_enforced() {
        let mut t: MatchTable<u32, &str> = MatchTable::new("fwd", 2);
        t.insert(1, "a").unwrap();
        t.insert(2, "b").unwrap();
        assert_eq!(t.insert(3, "c"), Err(PipelineError::TableFull));
        // Replacement of an existing key is allowed at capacity.
        assert_eq!(t.insert(1, "a2").unwrap(), Some("a"));
        assert_eq!(t.lookup(&1), Some(&"a2"));
        t.remove(&2);
        t.insert(3, "c").unwrap();
        assert_eq!(t.len(), 2);
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
        assert!(PipelineBudget::netfpga_like().admit(&deep_dns).is_ok());
    }

    #[test]
    fn budget_stage_and_sram_limits() {
        let b = PipelineBudget::netfpga_like();
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
        let b = PipelineBudget::netfpga_like();
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
