//! Calibration constants derived from the paper's measurements.
//!
//! Every constant cites the section it reproduces. Where the paper's own
//! numbers are loosely specified or mutually inconsistent, the value chosen
//! here favours reproducing the *headline* figure of each experiment; the
//! cases are noted at their constants, and `tests/paper_claims.rs` holds
//! each headline claim to these values.

/// i7-6700K platform idle power without any network card, watts.
///
/// Chosen so that §5.1's "idle server (without a NetFPGA card) was roughly
/// equivalent to a standalone LaKe card" holds against
/// [`LAKE_STANDALONE_IDLE_W`], and so the in-server LaKe idle reaches 59 W
/// (§4.2).
pub const I7_PLATFORM_IDLE_W: f64 = 29.5;

/// Mellanox MCX311A ConnectX-3 10GE NIC power, watts (§4.1/§4.2: with this
/// NIC the idle server reads 39 W on the wall meter).
pub const MELLANOX_NIC_W: f64 = 9.5;

/// Intel X520 10GE NIC power, watts. The paper found the host *more* power
/// efficient with this NIC (crossing point moved past 300 Kpps) but with a
/// lower peak throughput (§4.2).
pub const INTEL_X520_NIC_W: f64 = 5.0;

/// NetFPGA SUME reference-NIC design, standalone wall power, watts.
///
/// Derived: LaKe standalone idle (29.2 W) minus LaKe logic over the
/// reference NIC (2.2 W, §5.2) minus external memories (10.8 W, §5.3).
pub const NETFPGA_REFERENCE_NIC_W: f64 = 16.2;

/// LaKe logic overhead over the reference NIC: five PEs, interconnect and
/// the packet classifier, watts (§5.2).
pub const LAKE_LOGIC_W: f64 = 2.2;

/// Power of one LaKe processing element, watts (§5.1: "about 0.25W").
pub const LAKE_PE_W: f64 = 0.25;

/// Number of PEs needed for 10GE line rate (§3.1).
pub const LAKE_DEFAULT_PES: u32 = 5;

/// 4 GB DDR3 DRAM on the SUME board, watts (§5.3).
pub const SUME_DRAM_W: f64 = 4.8;

/// 18 MB QDR SRAM on the SUME board, watts (§5.3).
pub const SUME_SRAM_W: f64 = 6.0;

/// Fraction of external-memory interface power saved by holding the
/// interfaces in reset (§5.1: "Reset to the external memory interfaces can
/// save 40% of their power").
pub const MEMORY_RESET_SAVING: f64 = 0.40;

/// Power saved by clock gating the LaKe module and PEs, watts (§5.1:
/// "less than 1W").
pub const LAKE_CLOCK_GATING_SAVING_W: f64 = 0.9;

/// LaKe standalone idle power (all five PEs and both memories active),
/// watts. Equals reference NIC + logic + memories.
pub const LAKE_STANDALONE_IDLE_W: f64 =
    NETFPGA_REFERENCE_NIC_W + LAKE_LOGIC_W + SUME_DRAM_W + SUME_SRAM_W;

/// Maximum additional dynamic power of LaKe under full load, watts.
/// Figure 3(a): the LaKe curve is nearly flat from idle to line rate.
pub const LAKE_DYNAMIC_MAX_W: f64 = 2.0;

/// P4xos on NetFPGA, standalone idle power, watts (§4.3: "18.2W when
/// idle").
pub const P4XOS_STANDALONE_IDLE_W: f64 = 18.2;

/// P4xos maximum additional dynamic power, watts (§4.3: "no more than
/// 1.2W").
pub const P4XOS_DYNAMIC_MAX_W: f64 = 1.2;

/// Emu DNS standalone idle power, watts. Derived from §4.4: in-server idle
/// 47.5 W minus the i7 platform's 29.5 W.
pub const EMU_DNS_STANDALONE_IDLE_W: f64 = 18.0;

/// Emu DNS maximum additional dynamic power, watts (§4.4: "starting at
/// 47.5W and reaching less than 48W under full load").
pub const EMU_DNS_DYNAMIC_MAX_W: f64 = 0.5;

/// Peak memcached throughput on the i7 host, packets/second (§4.2).
pub const MEMCACHED_PEAK_PPS: f64 = 1_000_000.0;

/// Peak LaKe throughput: 10GE line rate with small queries (§3.1/§4.2).
pub const LAKE_LINE_RATE_PPS: f64 = 13_000_000.0;

/// Per-PE query capacity (§5.2: "each processing core can support up to
/// 3.3Mqps").
pub const LAKE_PE_CAPACITY_QPS: f64 = 3_300_000.0;

/// Peak libpaxos acceptor throughput, messages/second (§3.2).
pub const LIBPAXOS_ACCEPTOR_PEAK_MPS: f64 = 178_000.0;

/// Peak libpaxos leader throughput, messages/second. Slightly below the
/// acceptor: the leader does strictly more per-message work (sequencing
/// plus fan-out); Figure 3(b) shows the leader curve saturating earlier.
pub const LIBPAXOS_LEADER_PEAK_MPS: f64 = 160_000.0;

/// Peak DPDK acceptor throughput, messages/second. Kernel-bypass removes
/// the socket bottleneck; Figure 3(b) extends the DPDK curves well past
/// the libpaxos peak.
pub const DPDK_ACCEPTOR_PEAK_MPS: f64 = 900_000.0;

/// Peak DPDK leader throughput, messages/second.
pub const DPDK_LEADER_PEAK_MPS: f64 = 800_000.0;

/// Peak P4xos throughput on the NetFPGA, messages/second (§3.2).
pub const P4XOS_FPGA_PEAK_MPS: f64 = 10_000_000.0;

/// Peak P4xos throughput on the Tofino ASIC, messages/second (§3.2:
/// "over 2.5 billion consensus messages per second").
pub const P4XOS_ASIC_PEAK_MPS: f64 = 2_500_000_000.0;

/// Peak Emu DNS throughput, requests/second (§4.4: "roughly 1M requests").
pub const EMU_DNS_PEAK_RPS: f64 = 1_000_000.0;

/// Peak NSD (software DNS) throughput, requests/second (§4.4: 956 K).
pub const NSD_PEAK_RPS: f64 = 956_000.0;

/// LaKe on-chip (L1) cache hit latency upper bound, nanoseconds (§5.3:
/// "no more than 1.4µs").
pub const LAKE_L1_HIT_NS: u64 = 1_400;

/// LaKe off-chip (L2/DRAM) hit latency, median, nanoseconds (§5.3).
pub const LAKE_L2_HIT_MEDIAN_NS: u64 = 1_670;

/// LaKe off-chip hit latency, 99th percentile at 100 Kqps, nanoseconds.
pub const LAKE_L2_HIT_P99_NS: u64 = 1_900;

/// LaKe hardware-miss (answered by host software) latency, median,
/// nanoseconds (§5.3: 13.5 µs).
pub const LAKE_MISS_MEDIAN_NS: u64 = 13_500;

/// LaKe hardware-miss latency, 99th percentile, nanoseconds (§5.3).
pub const LAKE_MISS_P99_NS: u64 = 14_300;

/// Tofino: fraction of the L2-forwarding maximum power drawn when idle
/// (§6: "the difference between the minimum and maximum consumption is
/// less than 20%" — the value leaves that headroom even with the P4xos
/// overhead added on top).
pub const TOFINO_IDLE_FRACTION: f64 = 0.82;

/// Tofino: relative power added by running P4xos alongside L2 forwarding
/// at full load (§6: "no more than 2%").
pub const TOFINO_P4XOS_OVERHEAD: f64 = 0.02;

/// Tofino: relative power added by the diag.p4 diagnostic program (§6:
/// "4.8% more power than the layer 2 forwarding program under full load").
pub const TOFINO_DIAG_OVERHEAD: f64 = 0.048;

/// DRAM capacity: value-chunk entries of 64 B (§5.3: 33 M entries).
pub const DRAM_VALUE_ENTRIES: u64 = 33_000_000;

/// DRAM capacity: hash-table entries (§5.3: 268 M entries).
pub const DRAM_HASH_ENTRIES: u64 = 268_000_000;

/// SRAM free-chunk list capacity (§5.3: 4.7 M chunks).
pub const SRAM_FREELIST_ENTRIES: u64 = 4_700_000;

/// On-chip-only design capacity ratio versus DRAM (§5.3: ×65k fewer).
pub const ONCHIP_VS_DRAM_RATIO: u64 = 65_000;

/// Arista-class switch: watts per 100G port (§9.4: "less than 5W per 100G
/// port").
pub const SWITCH_W_PER_100G_PORT: f64 = 5.0;

/// §9.4: power attributable to forwarding one million 1500 B-or-smaller
/// queries per second through such a switch, watts ("less than 1W").
pub const SWITCH_W_PER_MQPS: f64 = 1.0;

/// Gap between a parked LaKe (memories in reset, module clock-gated) and
/// the reference NIC, watts (§9.2: "about 5W gap").
pub const LAKE_PARKED_GAP_W: f64 = 5.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lake_standalone_composition() {
        // §4.2/§5.1 consistency: standalone LaKe ~= idle i7 without cards.
        assert!((LAKE_STANDALONE_IDLE_W - 29.2).abs() < 1e-9);
        assert!((LAKE_STANDALONE_IDLE_W - I7_PLATFORM_IDLE_W).abs() < 1.0);
    }

    #[test]
    fn in_server_idle_readings_match_paper() {
        // §4.2: LaKe in server idles at ~59 W.
        let lake = I7_PLATFORM_IDLE_W + LAKE_STANDALONE_IDLE_W;
        assert!((lake - 59.0).abs() < 0.5, "{lake}");
        // §4.3: P4xos base is ~10 W below LaKe.
        let p4xos = I7_PLATFORM_IDLE_W + P4XOS_STANDALONE_IDLE_W;
        assert!((lake - p4xos - 10.0).abs() < 1.5, "{}", lake - p4xos);
        // §4.4: Emu DNS in server idles at 47.5 W.
        let emu = I7_PLATFORM_IDLE_W + EMU_DNS_STANDALONE_IDLE_W;
        assert!((emu - 47.5).abs() < 0.1, "{emu}");
        // §4.2: idle server with Mellanox NIC reads 39 W.
        let server = I7_PLATFORM_IDLE_W + MELLANOX_NIC_W;
        assert!((server - 39.0).abs() < 0.1, "{server}");
    }

    #[test]
    fn memory_dominates_lake_power() {
        // §5.1: "The biggest contributor to power consumption is the
        // external memories—no less than 10W."
        let mems = SUME_DRAM_W + SUME_SRAM_W;
        assert!(mems >= 10.0, "{mems}");
    }

    #[test]
    fn lake_logic_includes_five_pes() {
        let pes_total = LAKE_PE_W * LAKE_DEFAULT_PES as f64;
        assert!(pes_total <= LAKE_LOGIC_W, "{pes_total} > {LAKE_LOGIC_W}");
    }

    #[test]
    fn five_pes_reach_line_rate() {
        // §3.1/§5.2: 5 PEs at 3.3 Mqps suffice for ~13 Mqps line rate.
        assert!(LAKE_PE_CAPACITY_QPS * LAKE_DEFAULT_PES as f64 >= LAKE_LINE_RATE_PPS);
    }
}
