//! Simulation time.
//!
//! Simulated time is an unsigned 64-bit tick counter. The engine itself does not
//! assign physical meaning to a tick; the PIM models in this workspace use
//! **1 tick = 1 picosecond**, which lets them express the paper's nanosecond-scale
//! cycle times (1 ns heavyweight cycle, 5 ns lightweight cycle) exactly while still
//! leaving room for runs of 10^8 operations (≈ 10^13 ticks ≪ 2^64).

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// Number of ticks per picosecond under the convention used by the PIM models.
pub(crate) const TICKS_PER_PS: u64 = 1;
/// Number of ticks per nanosecond under the convention used by the PIM models.
pub const TICKS_PER_NS: u64 = 1_000;
/// Number of ticks per microsecond under the convention used by the PIM models.
pub(crate) const TICKS_PER_US: u64 = 1_000_000;
/// Number of ticks per millisecond under the convention used by the PIM models.
pub(crate) const TICKS_PER_MS: u64 = 1_000_000_000;

/// An absolute point in simulated time, measured in ticks from the start of the run.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulated time, measured in ticks.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Time zero: the beginning of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as an "infinite horizon" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw ticks.
    #[inline]
    pub const fn from_ticks(t: u64) -> Self {
        SimTime(t)
    }

    /// Construct from picoseconds (1 tick = 1 ps).
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps * TICKS_PER_PS)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * TICKS_PER_NS)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * TICKS_PER_US)
    }

    /// Construct from a fractional number of nanoseconds, rounding to the nearest tick.
    /// Negative inputs clamp to time zero.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        SimTime(SimDuration::from_ns_f64(ns).ticks())
    }

    /// Raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Time expressed as (possibly fractional) nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_NS as f64
    }

    /// Time expressed as (possibly fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / (TICKS_PER_MS as f64 * 1e3)
    }

    /// Saturating difference between two times.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw ticks.
    #[inline]
    pub const fn from_ticks(t: u64) -> Self {
        SimDuration(t)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * TICKS_PER_NS)
    }

    /// Construct from a fractional number of nanoseconds, rounding to the nearest tick.
    ///
    /// Negative inputs clamp to zero.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        if ns <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(round_ticks(ns * TICKS_PER_NS as f64))
    }

    /// Raw tick count.
    #[inline]
    pub const fn ticks(self) -> u64 {
        self.0
    }

    /// Duration expressed as fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / TICKS_PER_NS as f64
    }

    /// Duration scaled by an integer factor (saturating).
    #[inline]
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

/// Additions saturate at `u64::MAX` ticks: a time or duration past the end of
/// representable time stays there (beyond every horizon) instead of wrapping
/// back to the start.
impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "time subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl core::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ns", self.as_ns_f64())
    }
}

/// `ticks.round() as u64`, bit for bit, without the `round` call and the
/// saturating conversion on the common path (on the baseline x86-64 target
/// `f64::round` is a libm call). For `0 < ticks < 2⁵²` truncation is the floor
/// and `ticks - floor` is exact, so adding one at a fraction of at least ½ is
/// Rust's half-away-from-zero rounding. Every other value — larger, zero,
/// negative, infinite or NaN — goes through `ticks.round() as u64` itself.
#[inline]
fn round_ticks(ticks: f64) -> u64 {
    const TWO_POW_52: f64 = (1u64 << 52) as f64;
    if ticks > 0.0 && ticks < TWO_POW_52 {
        let floor = ticks as i64;
        (floor + i64::from(ticks - floor as f64 >= 0.5)) as u64
    } else {
        ticks.round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(SimTime::from_ns(3).ticks(), 3 * TICKS_PER_NS);
        assert_eq!(SimTime::from_us(2).ticks(), 2 * TICKS_PER_US);
        assert_eq!(SimDuration::from_ns(7).as_ns_f64(), 7.0);
        assert_eq!(SimTime::from_ps(10).ticks(), 10);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ns(10);
        let d = SimDuration::from_ns(5);
        assert_eq!(t + d, SimTime::from_ns(15));
        assert_eq!((t + d) - t, d);
        let mut t2 = t;
        t2 += d;
        assert_eq!(t2, SimTime::from_ns(15));
        assert_eq!(t2 - d, t);
    }

    #[test]
    fn duration_sum_and_scale() {
        let total: SimDuration = (1..=4).map(SimDuration::from_ns).sum();
        assert_eq!(total, SimDuration::from_ns(10));
        assert_eq!(
            SimDuration::from_ns(3).saturating_mul(4),
            SimDuration::from_ns(12)
        );
    }

    #[test]
    fn saturating_behaviour() {
        let early = SimTime::from_ns(5);
        let late = SimTime::from_ns(9);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_ns(4));
        assert_eq!(
            SimDuration::from_ns(1) - SimDuration::from_ns(2),
            SimDuration::ZERO
        );
        // Sums past the top of the range stay there instead of wrapping.
        let near_end = SimTime::from_ticks(u64::MAX - 3);
        let big = SimDuration::from_ticks(u64::MAX - 1);
        assert_eq!(near_end + SimDuration::from_ticks(3), SimTime::MAX);
        assert_eq!(near_end + big, SimTime::MAX);
        let mut t = near_end;
        t += big;
        assert_eq!(t, SimTime::MAX);
        assert_eq!(big + big, SimDuration::from_ticks(u64::MAX));
        let mut d = big;
        d += SimDuration::from_ticks(2);
        assert_eq!(d, SimDuration::from_ticks(u64::MAX));
        let total: SimDuration = [big, big, big].into_iter().sum();
        assert_eq!(total, SimDuration::from_ticks(u64::MAX));
    }

    #[test]
    fn fractional_ns_rounding() {
        assert_eq!(SimDuration::from_ns_f64(1.4999).ticks(), 1500);
        assert_eq!(SimDuration::from_ns_f64(0.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_ns_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_ns_f64(2.0), SimDuration::from_ns(2));

        // The integer rounding must equal the float expressions, kept as oracles.
        let old_from_ns = |ns: f64| {
            if ns <= 0.0 {
                0
            } else {
                (ns * TICKS_PER_NS as f64).round() as u64
            }
        };
        let old_round = |ticks: f64| ticks.round() as u64;
        // Log-uniform `ns` over 1e-12 ..= 1e20 from a pinned stream.
        let mut s = crate::random::RandomStream::new(0x71C5, 1);
        for _ in 0..200_000 {
            let ns = 10f64.powf(s.uniform(-12.0, 20.0));
            let got = SimDuration::from_ns_f64(ns).ticks();
            assert_eq!(got, old_from_ns(ns), "ns = {ns:e}");
        }
        // Every small tie and its one-ulp neighbours, where the half-way rule decides.
        for k in 0..4096u32 {
            let tie = f64::from(k) + 0.5;
            for ticks in [tie.next_down(), tie, tie.next_up()] {
                assert_eq!(round_ticks(ticks), old_round(ticks), "ticks = {ticks:e}");
            }
        }
        // Both sides of the switch to the float path at 2⁵², saturation, and the
        // values the integer path must leave alone.
        let p52 = (1u64 << 52) as f64;
        for ticks in [
            p52 - 1.0,
            p52 - 0.5,
            p52,
            p52 + 1.0,
            2f64.powi(63),
            2f64.powi(64),
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            0.0,
            -0.0,
            -0.5,
            -2.5,
            -1e300,
            0.5f64.next_down(),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
        ] {
            assert_eq!(round_ticks(ticks), old_round(ticks), "ticks = {ticks:e}");
            let ns = ticks / TICKS_PER_NS as f64;
            let got = SimDuration::from_ns_f64(ns).ticks();
            assert_eq!(got, old_from_ns(ns), "ns = {ns:e}");
        }
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_ns(1) < SimTime::from_ns(2));
        assert!(SimTime::ZERO < SimTime::MAX);
        let s = format!("{}", SimTime::from_ns(2));
        assert!(s.contains("ns"));
    }
}
