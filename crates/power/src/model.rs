//! The software/hardware tipping point of two power-versus-load curves.

/// Finds the smallest load in `[lo, hi]` where power function `sw`
/// rises to or above `hw`, scanning then bisecting.
///
/// This is the paper's *tipping point*: the rate `R` where the software
/// system's power first meets the in-network system's power
/// (`P_sw(R) = P_hw(R)`, §8). Returns `lo` if `sw` already meets `hw`
/// there, and `None` if `sw` stays below `hw` on the whole interval
/// (hardware never pays off).
///
/// # Examples
///
/// ```
/// use inc_power::crossover_fn;
///
/// // Software: 39 W idle to 110 W at 1 Mpps; hardware: a flat 59 W.
/// let sw = |r: f64| 39.0 + 71.0 * r / 1e6;
/// let r = crossover_fn(sw, |_| 59.0, 0.0, 1_000_000.0).unwrap();
/// assert!((r - 281_690.0).abs() < 1_000.0);
/// ```
pub fn crossover_fn(
    sw: impl Fn(f64) -> f64,
    hw: impl Fn(f64) -> f64,
    lo: f64,
    hi: f64,
) -> Option<f64> {
    const STEPS: usize = 1024;
    let diff = |r: f64| sw(r) - hw(r);
    if diff(lo) >= 0.0 {
        // Software never cheaper: tipping point is immediately at/below lo.
        return Some(lo);
    }
    let step = (hi - lo) / STEPS as f64;
    let mut x0 = lo;
    for i in 1..=STEPS {
        let x1 = lo + step * i as f64;
        if diff(x1) >= 0.0 {
            // Bisect within [x0, x1].
            let (mut a, mut b) = (x0, x1);
            for _ in 0..64 {
                let m = 0.5 * (a + b);
                if diff(m) >= 0.0 {
                    b = m;
                } else {
                    a = m;
                }
            }
            return Some(0.5 * (a + b));
        }
        x0 = x1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_found() {
        // sw: 39 + 71x/1e6, hw: constant 59 -> x = 20/71 * 1e6.
        let x = crossover_fn(|r| 39.0 + 71.0 * r / 1e6, |_| 59.0, 0.0, 1e6).unwrap();
        assert!((x - 20.0 / 71.0 * 1e6).abs() < 1.0, "{x}");
    }

    #[test]
    fn crossover_absent() {
        assert_eq!(crossover_fn(|_| 30.0, |_| 59.0, 0.0, 1e6), None);
    }

    #[test]
    fn crossover_immediate_when_hw_cheaper_everywhere() {
        assert_eq!(crossover_fn(|_| 80.0, |_| 59.0, 0.0, 1e6), Some(0.0));
    }
}
