//! Helpers shared by the golden-digest integration tests.

// Each test crate that mounts this module uses a different subset.
#![allow(dead_code)]

use inc::ondemand::FleetShift;

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a state `h`.
pub fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over a controller's full shift log: `at`, `app`, `to`,
/// `rate_pps` bits, `benefit_w` bits and `reason` of every entry.
pub fn shift_log_digest(shifts: &[FleetShift]) -> u64 {
    let mut h = FNV_OFFSET;
    for s in shifts {
        fnv(&mut h, &s.at.as_nanos().to_le_bytes());
        fnv(&mut h, &(s.app as u64).to_le_bytes());
        fnv(&mut h, format!("{:?}", s.to).as_bytes());
        fnv(&mut h, &s.rate_pps.to_bits().to_le_bytes());
        fnv(&mut h, &s.benefit_w.to_bits().to_le_bytes());
        fnv(&mut h, format!("{:?}", s.reason).as_bytes());
    }
    h
}
