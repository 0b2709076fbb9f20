//! Open-loop pacing for load generators.
//!
//! The paper offers load with OSNT at a fixed rate the experimenter can
//! change mid-run (§4.1). A [`Pacer`] is that send timer: one send every
//! inter-arrival gap of the offered rate, re-reading the rate on every
//! tick. Any `f64` is a valid rate — one too high to separate two sends
//! by a nanosecond sends every nanosecond, and one with no representable
//! gap idles like rate 0 — so no offered rate can hang or panic a run.

use crate::sim::Ctx;
use crate::time::Nanos;

/// How often an idle pacer re-reads its rate.
const IDLE_POLL: Nanos = Nanos::from_millis(10);

/// The gap between sends at `rate_pps`, at least 1 ns; `None` when the
/// rate sends nothing — zero, negative, NaN, or so low the gap overflows
/// [`Nanos`].
///
/// # Examples
///
/// ```
/// use inc_sim::{pace_gap, Nanos};
///
/// assert_eq!(pace_gap(1_000.0), Some(Nanos::from_millis(1)));
/// assert_eq!(pace_gap(f64::INFINITY), Some(Nanos::from_nanos(1)));
/// assert_eq!(pace_gap(1e-12), None);
/// assert_eq!(pace_gap(0.0), None);
/// ```
pub fn pace_gap(rate_pps: f64) -> Option<Nanos> {
    let secs = 1.0 / rate_pps;
    (rate_pps > 0.0 && secs * 1e9 <= u64::MAX as f64)
        .then(|| Nanos::from_secs_f64(secs).max(Nanos::from_nanos(1)))
}

/// An open-loop send timer at an offered rate.
///
/// The owner schedules the first tick with [`Pacer::schedule`]; on each
/// of its timers it sends when [`Pacer::sends`] says so and then calls
/// [`Pacer::schedule`] again. A rig that wants silence sets the rate
/// to 0: the pacer then only re-reads its rate.
#[derive(Clone, Copy, Debug)]
pub struct Pacer {
    /// [`pace_gap`] of the offered rate.
    gap: Option<Nanos>,
}

impl Pacer {
    /// A pacer offering `rate_pps` sends per second.
    pub fn new(rate_pps: f64) -> Self {
        Pacer {
            gap: pace_gap(rate_pps),
        }
    }

    /// Changes the offered rate; takes effect at the next tick.
    pub fn set_rate(&mut self, rate_pps: f64) {
        self.gap = pace_gap(rate_pps);
    }

    /// Whether a tick at the current rate sends.
    pub fn sends(&self) -> bool {
        self.gap.is_some()
    }

    /// Schedules the next tick as timer `tag`: one gap ahead, or a 10 ms
    /// re-check while the rate sends nothing.
    pub fn schedule<M>(&self, ctx: &mut Ctx<'_, M>, tag: u64) {
        ctx.schedule_in(self.gap.unwrap_or(IDLE_POLL), tag);
    }
}
