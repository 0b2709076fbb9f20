//! Helpers shared by the golden integration tests.

// Each test crate that mounts this module uses a different subset.
#![allow(dead_code)]

use inc::hw::Placement;
use inc::ondemand::{FleetShift, FleetTimeline};
use inc::sim::Nanos;

/// `app`'s shifts out of a fleet run's log, in decision order.
pub fn shifts_of(timeline: &FleetTimeline, app: usize) -> Vec<(Nanos, Placement)> {
    let of_app = timeline.shifts.iter().filter(|s| s.1 == app);
    of_app.map(|&(at, _, to)| (at, to)).collect()
}

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

/// The first line where `got` and `want` differ, with three lines of
/// context on either side; `None` when they are the same.
pub fn first_divergence(got: &str, want: &str) -> Option<String> {
    let (got, want): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    let at = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i))?;
    let context = |lines: &[&str]| {
        let span = at.saturating_sub(3)..(at + 4).min(lines.len());
        let shown: Vec<String> = span
            .map(|i| format!("  {:>5} {}", i + 1, lines[i]))
            .collect();
        shown.join("\n")
    };
    Some(format!(
        "first divergent line {}\nrecorded:\n{}\nthis run:\n{}",
        at + 1,
        context(&want),
        context(&got)
    ))
}
