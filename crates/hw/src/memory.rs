//! Memory technologies on the acceleration platform.
//!
//! §5.3 quantifies the cost of memory choices on the NetFPGA SUME: 4 GB of
//! DRAM costs 4.8 W and holds ×65k the entries of on-chip memory; 18 MB of
//! SRAM costs 6 W; on-chip BRAM is cheap but tiny. Latency follows the same
//! ladder. These specs drive both the capacity limits of the LaKe cache
//! levels and the power contribution of the memory interface modules.

use inc_sim::Nanos;

/// Static description of one memory resource.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemorySpec {
    /// Usable capacity in bytes.
    pub capacity_bytes: u64,
    /// Random access latency.
    pub access_latency: Nanos,
    /// Interface power when active, watts.
    pub power_w: f64,
}

impl MemorySpec {
    /// The SUME's 4 GB DDR3 DRAM (§5.3: 4.8 W; 33 M 64 B value chunks and
    /// 268 M hash entries).
    pub fn sume_dram() -> Self {
        MemorySpec {
            capacity_bytes: 4 << 30,
            access_latency: Nanos::from_nanos(270),
            power_w: 4.8,
        }
    }

    /// The SUME's 18 MB QDRII+ SRAM (§5.3: 6 W; holds a 4.7 M entry free
    /// list).
    pub fn sume_sram() -> Self {
        MemorySpec {
            capacity_bytes: 18 << 20,
            access_latency: Nanos::from_nanos(40),
            power_w: 6.0,
        }
    }

    /// Virtex-7 on-chip BRAM available to a design like LaKe's L1 cache.
    ///
    /// §5.3: the DRAM store holds ×65k the entries of the on-chip design —
    /// a 64 KB value budget against the 4 GB DRAM (4 GiB / 64 KiB = 65,536)
    /// out of the chip's few-MB total BRAM.
    pub fn lake_l1_bram() -> Self {
        MemorySpec {
            capacity_bytes: 64 << 10,
            access_latency: Nanos::from_nanos(10),
            power_w: 0.0, // Folded into the logic module's power.
        }
    }

    /// How many fixed-size entries fit.
    pub fn entries(&self, entry_bytes: u64) -> u64 {
        self.capacity_bytes.checked_div(entry_bytes).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_capacity_matches_section_5_3() {
        let dram = MemorySpec::sume_dram();
        // §5.3: 4GB DRAM holds 33M entries of 64B value chunks...
        assert!(dram.entries(64) >= 33_000_000);
        // ...and 268M hash table entries (16B each fits the claim).
        assert!(dram.entries(16) >= 268_000_000);
    }

    #[test]
    fn sram_free_list_capacity() {
        let sram = MemorySpec::sume_sram();
        // §5.3: list of up to 4.7M free chunks (4B pointers).
        assert!(sram.entries(4) >= 4_700_000);
    }

    #[test]
    fn onchip_is_tiny_but_fast() {
        let bram = MemorySpec::lake_l1_bram();
        let dram = MemorySpec::sume_dram();
        // §5.3: DRAM holds x65k the entries of the on-chip design.
        let ratio = dram.capacity_bytes / bram.capacity_bytes;
        assert_eq!(ratio, 65_536);
        assert!(bram.access_latency < dram.access_latency);
    }

    #[test]
    fn power_ladder_matches_paper() {
        // §5.3: DRAM 4.8 W, SRAM 6 W, together >= 10 W (§5.1).
        let total = MemorySpec::sume_dram().power_w + MemorySpec::sume_sram().power_w;
        assert!(total >= 10.0);
    }

    #[test]
    fn zero_entry_size() {
        assert_eq!(MemorySpec::sume_dram().entries(0), 0);
    }
}
