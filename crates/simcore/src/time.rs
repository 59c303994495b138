//! Virtual time: instants and durations with integer-nanosecond resolution.
//!
//! The paper reports run times like `8h9m50s` (Table I); [`SimDuration`]'s
//! `Display` implementation reproduces exactly that format so the regenerated
//! tables are directly comparable, and [`SimDuration::parse`] reads the
//! paper's values back for assertions in tests.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant in virtual time, measured in nanoseconds since simulation start.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time in nanoseconds.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

const NANOS_PER_MICRO: u64 = 1_000;
const NANOS_PER_MILLI: u64 = 1_000_000;
const NANOS_PER_SEC: u64 = 1_000_000_000;
const NANOS_PER_MIN: u64 = 60 * NANOS_PER_SEC;
const NANOS_PER_HOUR: u64 = 60 * NANOS_PER_MIN;

impl SimTime {
    /// The origin of virtual time.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw nanoseconds since simulation start.
    pub const fn from_nanos(n: u64) -> Self {
        SimTime(n)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration elapsed since `earlier`. Saturates at zero if `earlier`
    /// is in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Elapsed time since the origin.
    pub fn elapsed(self) -> SimDuration {
        SimDuration(self.0)
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    pub const fn from_nanos(n: u64) -> Self {
        SimDuration(n)
    }

    /// Construct from microseconds.
    pub const fn from_micros(n: u64) -> Self {
        SimDuration(n * NANOS_PER_MICRO)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(n: u64) -> Self {
        SimDuration(n * NANOS_PER_MILLI)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(n: u64) -> Self {
        SimDuration(n * NANOS_PER_SEC)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(n: u64) -> Self {
        SimDuration(n * NANOS_PER_MIN)
    }

    /// Construct from whole hours.
    pub const fn from_hours(n: u64) -> Self {
        SimDuration(n * NANOS_PER_HOUR)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    /// Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((secs * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / NANOS_PER_MILLI
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / NANOS_PER_SEC
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Multiply by a non-negative factor, rounding to the nearest nanosecond.
    pub fn mul_f64(self, factor: f64) -> Self {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> Self {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// True if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Parse a paper-style duration string such as `8h9m50s`, `9m50s`,
    /// `50s`, `120ms`, `5us`, or `17ns`. Units may be combined in descending
    /// order; every unit is optional but at least one must be present.
    pub fn parse(s: &str) -> Result<SimDuration, DurationParseError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(DurationParseError::Empty);
        }
        let mut total: u64 = 0;
        let mut rest = s;
        let mut matched = false;
        // Units must be consumed in descending order of magnitude so that
        // e.g. the `m` of `ms` is not mistaken for minutes.
        let units: [(&str, u64); 6] = [
            ("h", NANOS_PER_HOUR),
            ("ms", NANOS_PER_MILLI),
            ("m", NANOS_PER_MIN),
            ("us", NANOS_PER_MICRO),
            ("ns", 1),
            ("s", NANOS_PER_SEC),
        ];
        'outer: while !rest.is_empty() {
            let digits_end = rest
                .find(|c: char| !c.is_ascii_digit() && c != '.')
                .ok_or(DurationParseError::MissingUnit)?;
            if digits_end == 0 {
                return Err(DurationParseError::BadNumber);
            }
            let (num_str, tail) = rest.split_at(digits_end);
            let value: f64 = num_str.parse().map_err(|_| DurationParseError::BadNumber)?;
            for (unit, nanos) in units {
                if let Some(t) = tail.strip_prefix(unit) {
                    // `m` would also strip the front of `ms`; the ordering of
                    // the table above guarantees `ms` is tried first.
                    total = total
                        .checked_add((value * nanos as f64).round() as u64)
                        .ok_or(DurationParseError::Overflow)?;
                    rest = t;
                    matched = true;
                    continue 'outer;
                }
            }
            return Err(DurationParseError::MissingUnit);
        }
        if matched {
            Ok(SimDuration(total))
        } else {
            Err(DurationParseError::Empty)
        }
    }
}

/// Error returned by [`SimDuration::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurationParseError {
    /// The input contained no duration components.
    Empty,
    /// A numeric component could not be parsed.
    BadNumber,
    /// A numeric component was not followed by a recognised unit.
    MissingUnit,
    /// The total duration overflowed the nanosecond counter.
    Overflow,
}

impl fmt::Display for DurationParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurationParseError::Empty => write!(f, "empty duration string"),
            DurationParseError::BadNumber => write!(f, "malformed number in duration"),
            DurationParseError::MissingUnit => write!(f, "missing or unknown duration unit"),
            DurationParseError::Overflow => write!(f, "duration overflows u64 nanoseconds"),
        }
    }
}

impl std::error::Error for DurationParseError {}

impl fmt::Display for SimDuration {
    /// Formats like the paper's Table I: `8h9m50s` for hour-scale values,
    /// then `9m50s`, `1.234s`, `12.345ms`, `6.789us`, `17ns` as the
    /// magnitude shrinks.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0;
        if n >= NANOS_PER_HOUR {
            // Round to the nearest second, as the paper does.
            let total_secs = (n + NANOS_PER_SEC / 2) / NANOS_PER_SEC;
            let h = total_secs / 3600;
            let m = (total_secs % 3600) / 60;
            let s = total_secs % 60;
            write!(f, "{h}h{m}m{s}s")
        } else if n >= NANOS_PER_MIN {
            let total_secs = (n + NANOS_PER_SEC / 2) / NANOS_PER_SEC;
            let m = total_secs / 60;
            let s = total_secs % 60;
            write!(f, "{m}m{s}s")
        } else if n >= NANOS_PER_SEC {
            write!(f, "{:.3}s", n as f64 / NANOS_PER_SEC as f64)
        } else if n >= NANOS_PER_MILLI {
            write!(f, "{:.3}ms", n as f64 / NANOS_PER_MILLI as f64)
        } else if n >= NANOS_PER_MICRO {
            write!(f, "{:.3}us", n as f64 / NANOS_PER_MICRO as f64)
        } else {
            write!(f, "{n}ns")
        }
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({self})")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({self})")
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table1_formats_round_trip() {
        // The exact strings from the paper's Table I.
        for s in ["8h9m50s", "8h7m10s", "24h16m12s", "24h2m47s"] {
            let d = SimDuration::parse(s).unwrap();
            assert_eq!(d.to_string(), s, "round-trip of {s}");
        }
    }

    #[test]
    fn display_magnitudes() {
        assert_eq!(SimDuration::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimDuration::from_micros(6789).to_string(), "6.789ms");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(59).to_string(), "59.000s");
        assert_eq!(SimDuration::from_secs(60).to_string(), "1m0s");
        assert_eq!(SimDuration::from_secs(3661).to_string(), "1h1m1s");
    }

    #[test]
    fn display_rounds_to_nearest_second_at_hour_scale() {
        let d = SimDuration::from_hours(8) + SimDuration::from_millis(750);
        assert_eq!(d.to_string(), "8h0m1s");
    }

    #[test]
    fn parse_compound_and_simple() {
        assert_eq!(SimDuration::parse("90s").unwrap(), SimDuration::from_secs(90));
        assert_eq!(
            SimDuration::parse("1h30m").unwrap(),
            SimDuration::from_mins(90)
        );
        assert_eq!(
            SimDuration::parse("250ms").unwrap(),
            SimDuration::from_millis(250)
        );
        assert_eq!(SimDuration::parse("10us").unwrap(), SimDuration::from_micros(10));
        assert_eq!(SimDuration::parse("5ns").unwrap(), SimDuration::from_nanos(5));
        assert_eq!(
            SimDuration::parse("2m").unwrap(),
            SimDuration::from_mins(2),
            "bare m is minutes"
        );
    }

    #[test]
    fn parse_fractional() {
        assert_eq!(
            SimDuration::parse("1.5s").unwrap(),
            SimDuration::from_millis(1500)
        );
    }

    #[test]
    fn parse_errors() {
        assert_eq!(SimDuration::parse(""), Err(DurationParseError::Empty));
        assert_eq!(SimDuration::parse("12"), Err(DurationParseError::MissingUnit));
        assert_eq!(SimDuration::parse("h"), Err(DurationParseError::BadNumber));
        assert_eq!(SimDuration::parse("3x"), Err(DurationParseError::MissingUnit));
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(10);
        assert_eq!(t.as_nanos(), 10 * NANOS_PER_SEC);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_secs(10));
        assert_eq!(SimTime::ZERO.since(t), SimDuration::ZERO, "saturates");
        assert_eq!(t - SimTime::ZERO, SimDuration::from_secs(10));
        let back = t - SimDuration::from_secs(4);
        assert_eq!(back.elapsed(), SimDuration::from_secs(6));
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::from_secs(2) * 3;
        assert_eq!(d, SimDuration::from_secs(6));
        assert_eq!(d / 2, SimDuration::from_secs(3));
        assert_eq!(
            d.saturating_sub(SimDuration::from_secs(10)),
            SimDuration::ZERO
        );
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(3));
        assert!(SimDuration::ZERO.is_zero());
    }

    #[test]
    fn from_secs_f64_clamps() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1500)
        );
    }
}
