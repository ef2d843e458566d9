//! Typed quantities: byte counts and link rates.
//!
//! Buffer accounting throughout the switch model is in [`Bytes`]; link and
//! drain rates are [`BitRate`]s. Keeping these as newtypes prevents the
//! classic bits/bytes mix-up in threshold formulas.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use crate::time::SimDuration;

/// A byte count (buffer occupancy, packet size, threshold...).
///
/// # Example
///
/// ```
/// use dcn_sim::Bytes;
/// let mtu = Bytes::new(1_048);
/// assert_eq!(mtu + mtu, Bytes::new(2_096));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);
    /// The largest representable count; useful as an "unlimited" threshold.
    pub const MAX: Bytes = Bytes(u64::MAX);

    /// Creates a byte count.
    pub const fn new(n: u64) -> Self {
        Bytes(n)
    }

    /// Creates a byte count from kilobytes (×1000).
    pub const fn from_kb(kb: u64) -> Self {
        Bytes(kb * 1_000)
    }

    /// Creates a byte count from megabytes (×10⁶).
    pub const fn from_mb(mb: u64) -> Self {
        Bytes(mb * 1_000_000)
    }

    /// The raw count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The count as a float (for ratios and reporting).
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Scales the count by a non-negative factor, saturating at the
    /// representable range. Used by threshold formulas (`α × remaining`).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    pub fn scale(self, factor: f64) -> Bytes {
        assert!(
            factor >= 0.0 && !factor.is_nan(),
            "scale factor must be non-negative, got {factor}"
        );
        Bytes((self.0 as f64 * factor).min(u64::MAX as f64) as u64)
    }

    /// Integer ceiling division, e.g. packets needed to carry this many
    /// bytes at a given MTU.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero bytes.
    pub fn div_ceil_by(self, chunk: Bytes) -> u64 {
        assert!(chunk.0 > 0, "chunk must be non-zero");
        self.0.div_ceil(chunk.0)
    }
}

/// A frame-sized count stored in two bytes (packets, MMU charges) widens
/// losslessly.
impl From<u16> for Bytes {
    fn from(n: u16) -> Bytes {
        Bytes(u64::from(n))
    }
}

/// The checked way into a two-byte field: fails above `u16::MAX`.
impl TryFrom<Bytes> for u16 {
    type Error = std::num::TryFromIntError;
    fn try_from(b: Bytes) -> Result<u16, Self::Error> {
        u16::try_from(b.0)
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        *self = *self + rhs;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        debug_assert!(self.0 >= rhs.0, "negative byte count: {self} - {rhs}");
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Bytes {
    fn sub_assign(&mut self, rhs: Bytes) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Bytes {
    type Output = Bytes;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> Bytes {
        Bytes(self.0 / rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 10_000 {
            write!(f, "{}B", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.1}KB", self.0 as f64 / 1e3)
        } else {
            write!(f, "{:.2}MB", self.0 as f64 / 1e6)
        }
    }
}

/// A transmission or drain rate in bits per second.
///
/// # Example
///
/// ```
/// use dcn_sim::{BitRate, Bytes};
/// let link = BitRate::from_gbps(25);
/// // Serializing a 1000-byte packet at 25 Gbps takes 320 ns.
/// assert_eq!(link.tx_time(Bytes::new(1_000)).as_nanos(), 320);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BitRate(u64);

impl BitRate {
    /// A zero rate (a fully paused or disconnected drain).
    pub const ZERO: BitRate = BitRate(0);

    /// Creates a rate in bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        BitRate(bps)
    }

    /// Creates a rate in megabits per second.
    pub const fn from_mbps(mbps: u64) -> Self {
        BitRate(mbps * 1_000_000)
    }

    /// Creates a rate in gigabits per second.
    pub const fn from_gbps(gbps: u64) -> Self {
        BitRate(gbps * 1_000_000_000)
    }

    /// The raw rate in bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// The rate as a float in bits per second.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Whether the rate is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Time to serialize `bytes` at this rate, rounded up to whole
    /// nanoseconds. A zero rate yields [`SimDuration::MAX`] (never
    /// completes), which models a fully-paused drain.
    pub fn tx_time(self, bytes: Bytes) -> SimDuration {
        if self.0 == 0 {
            return SimDuration::MAX;
        }
        let bits = bytes.as_u64().saturating_mul(8);
        // ns = bits / (bps / 1e9), computed as bits * 1e9 / bps: in u64
        // when the product fits (any packet does), else in u128.
        SimDuration::from_nanos(match bits.checked_mul(1_000_000_000) {
            Some(bit_ns) => bit_ns.div_ceil(self.0),
            None => tx_nanos_wide(bits, self.0),
        })
    }

    /// Bytes fully drained over `dur` at this rate (floor).
    pub fn bytes_over(self, dur: SimDuration) -> Bytes {
        Bytes::new(match self.0.checked_mul(dur.as_nanos()) {
            Some(bit_ns) => bit_ns / 1_000_000_000 / 8,
            None => drained_bytes_wide(self.0, dur.as_nanos()),
        })
    }

    /// Scales the rate by a non-negative factor (e.g. DCQCN rate cuts),
    /// saturating at the representable range.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    pub fn scale(self, factor: f64) -> BitRate {
        assert!(
            factor >= 0.0 && !factor.is_nan(),
            "scale factor must be non-negative, got {factor}"
        );
        BitRate((self.0 as f64 * factor).min(u64::MAX as f64) as u64)
    }

    /// Saturating addition (DCQCN additive increase).
    pub fn saturating_add(self, rhs: BitRate) -> BitRate {
        BitRate(self.0.saturating_add(rhs.0))
    }

    /// The smaller of two rates.
    pub fn min(self, rhs: BitRate) -> BitRate {
        BitRate(self.0.min(rhs.0))
    }
}

impl Add for BitRate {
    type Output = BitRate;
    fn add(self, rhs: BitRate) -> BitRate {
        self.saturating_add(rhs)
    }
}

impl Div<u64> for BitRate {
    type Output = BitRate;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> BitRate {
        BitRate(self.0 / rhs)
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.1}Gbps", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.1}Mbps", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

/// [`BitRate::tx_time`] in `u128`, for products past `u64` — and the
/// oracle its `u64` path is tested against.
fn tx_nanos_wide(bits: u64, bps: u64) -> u64 {
    let ns = (bits as u128 * 1_000_000_000).div_ceil(bps as u128);
    ns.min(u64::MAX as u128) as u64
}

/// [`BitRate::bytes_over`] in `u128`, likewise.
fn drained_bytes_wide(bps: u64, nanos: u64) -> u64 {
    let bits = bps as u128 * nanos as u128 / 1_000_000_000;
    (bits / 8).min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_rounds_up() {
        // 1 byte at 3 bps: 8/3 s -> ceil in ns.
        let r = BitRate::from_bps(3);
        assert_eq!(r.tx_time(Bytes::new(1)).as_nanos(), 2_666_666_667);
    }

    #[test]
    fn tx_time_zero_rate_is_never() {
        assert_eq!(BitRate::ZERO.tx_time(Bytes::new(1)), SimDuration::MAX);
    }

    #[test]
    fn u64_fast_paths_equal_the_u128_expressions() {
        let mut rng = crate::rng::SimRng::seed_from_u64(0x7715);
        let edges = [0, 1, 7, 8, 1_048, u64::MAX / 8, u64::MAX - 1, u64::MAX];
        let rates = [1, 3, 1_000_000_000, 25_000_000_000, 400_000_000_000];
        // Random operands of every magnitude, so both sides of the
        // overflow boundary are hit.
        let wide = |rng: &mut crate::rng::SimRng| rng.next_u64() >> rng.below(64);
        let check = |x: u64, bps: u64| {
            let rate = BitRate::from_bps(bps);
            assert_eq!(
                rate.tx_time(Bytes::new(x)).as_nanos(),
                tx_nanos_wide(x.saturating_mul(8), bps),
                "tx_time({x} B) at {bps} bps"
            );
            assert_eq!(
                rate.bytes_over(SimDuration::from_nanos(x)).as_u64(),
                drained_bytes_wide(bps, x),
                "bytes_over({x} ns) at {bps} bps"
            );
        };
        for &bps in &rates {
            for &x in &edges {
                check(x, bps);
            }
        }
        for _ in 0..20_000 {
            let bps = 1 + rng.below(400_000_000_000);
            check(wide(&mut rng), bps);
            check(
                wide(&mut rng),
                rates[rng.below(rates.len() as u64) as usize],
            );
        }
        assert_eq!(BitRate::ZERO.bytes_over(SimDuration::MAX), Bytes::ZERO);
    }

    #[test]
    fn bytes_over_inverts_tx_time() {
        let r = BitRate::from_gbps(100);
        let b = Bytes::new(1_048);
        let drained = r.bytes_over(r.tx_time(b));
        // Rounding up tx time may slightly overshoot, never undershoot.
        assert!(drained >= b);
    }

    #[test]
    fn scale_bounds() {
        assert_eq!(Bytes::new(100).scale(0.5), Bytes::new(50));
        assert_eq!(BitRate::from_gbps(10).scale(0.5), BitRate::from_gbps(5));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn scale_rejects_negative() {
        let _ = Bytes::new(1).scale(-0.1);
    }

    #[test]
    fn div_ceil_by_counts_packets() {
        assert_eq!(Bytes::new(2_500).div_ceil_by(Bytes::new(1_000)), 3);
        assert_eq!(Bytes::new(2_000).div_ceil_by(Bytes::new(1_000)), 2);
        assert_eq!(Bytes::ZERO.div_ceil_by(Bytes::new(1_000)), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Bytes::from_mb(4).to_string(), "4.00MB");
        assert_eq!(BitRate::from_gbps(25).to_string(), "25.0Gbps");
    }
}
