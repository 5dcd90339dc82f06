//! Deterministic QoS primitives for background-work throttling.
//!
//! [`TokenBucket`] meters background traffic (e.g. rebuild I/O) against a
//! byte-per-second budget of simulated time. It is driven entirely by
//! [`SimTime`] instants, so refills are exactly reproducible: two buckets
//! fed the same instants and charges hold the same token balance.

use crate::size::ByteSize;
use crate::time::SimTime;

/// A byte-granularity token bucket over simulated time.
///
/// The bucket refills continuously at `rate` bytes per simulated second,
/// capped at `burst` bytes. Work is admitted while the balance is
/// positive; a charge may drive the balance negative (callers often only
/// learn the true cost of an operation after performing it), and the debt
/// is paid back by subsequent refills before new work is admitted.
///
/// # Examples
///
/// ```
/// use reo_sim::{ByteSize, SimDuration, SimTime, TokenBucket};
///
/// // 10 MiB/s budget, 1 MiB burst.
/// let mut bucket = TokenBucket::new(10 << 20, ByteSize::from_mib(1), SimTime::ZERO);
/// assert!(bucket.has_tokens());
/// bucket.charge(ByteSize::from_mib(2)); // overdraft allowed
/// assert!(!bucket.has_tokens());
/// // 100 ms at 10 MiB/s refills 1 MiB: still in debt.
/// bucket.refill(SimTime::ZERO + SimDuration::from_millis(100));
/// assert!(!bucket.has_tokens());
/// bucket.refill(SimTime::ZERO + SimDuration::from_millis(200));
/// assert!(bucket.has_tokens());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct TokenBucket {
    rate_bytes_per_sec: u64,
    burst_bytes: i128,
    /// Current balance in bytes; negative while in overdraft.
    tokens: i128,
    last_refill: SimTime,
    /// Sub-second refill remainder in byte-nanoseconds, carried so long
    /// refill sequences lose nothing to integer division.
    carry_byte_nanos: u128,
}

impl TokenBucket {
    /// Creates a bucket that starts full.
    ///
    /// # Panics
    ///
    /// Panics if `rate_bytes_per_sec` or `burst` is zero.
    pub fn new(rate_bytes_per_sec: u64, burst: ByteSize, now: SimTime) -> Self {
        assert!(rate_bytes_per_sec > 0, "throttle rate must be non-zero");
        assert!(!burst.is_zero(), "burst must be non-zero");
        TokenBucket {
            rate_bytes_per_sec,
            burst_bytes: burst.as_bytes() as i128,
            tokens: burst.as_bytes() as i128,
            last_refill: now,
            carry_byte_nanos: 0,
        }
    }

    /// The current balance, clamped at zero (debt reads as empty).
    pub fn available(&self) -> ByteSize {
        ByteSize::from_bytes(self.tokens.max(0) as u64)
    }

    /// `true` while the balance is positive — the gate for starting one
    /// more unit of background work.
    pub fn has_tokens(&self) -> bool {
        self.tokens > 0
    }

    /// Accrues tokens for the simulated time elapsed since the last
    /// refill, capped at the burst size. Time never moves backwards; a
    /// stale `now` is a no-op.
    pub fn refill(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(self.last_refill);
        if elapsed.as_nanos() == 0 {
            return;
        }
        self.last_refill = now;
        let byte_nanos =
            elapsed.as_nanos() as u128 * self.rate_bytes_per_sec as u128 + self.carry_byte_nanos;
        let earned = byte_nanos / 1_000_000_000;
        self.carry_byte_nanos = byte_nanos % 1_000_000_000;
        self.tokens = (self.tokens + earned as i128).min(self.burst_bytes);
    }

    /// Charges `bytes` of completed work against the balance. May drive
    /// the balance negative (overdraft); [`has_tokens`] stays `false`
    /// until refills repay the debt.
    ///
    /// [`has_tokens`]: TokenBucket::has_tokens
    pub fn charge(&mut self, bytes: ByteSize) {
        self.tokens -= bytes.as_bytes() as i128;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn starts_full_and_admits_until_overdraft() {
        let mut b = TokenBucket::new(1 << 20, ByteSize::from_kib(64), SimTime::ZERO);
        assert_eq!(b.available(), ByteSize::from_kib(64));
        assert!(b.has_tokens());
        b.charge(ByteSize::from_kib(64));
        assert!(!b.has_tokens());
        assert_eq!(b.available(), ByteSize::ZERO);
        // Debt reads as empty, not negative.
        b.charge(ByteSize::from_kib(64));
        assert_eq!(b.available(), ByteSize::ZERO);
    }

    #[test]
    fn refill_is_proportional_and_capped() {
        // 1 MiB/s, 256 KiB burst.
        let mut b = TokenBucket::new(1 << 20, ByteSize::from_kib(256), SimTime::ZERO);
        b.charge(ByteSize::from_kib(256));
        b.refill(at(125)); // 125 ms at 1 MiB/s = 128 KiB
        assert_eq!(b.available(), ByteSize::from_kib(128));
        b.refill(at(10_000)); // far past the cap
        assert_eq!(b.available(), ByteSize::from_kib(256), "capped at burst");
    }

    #[test]
    fn debt_must_be_repaid_before_tokens_flow() {
        let mut b = TokenBucket::new(1 << 20, ByteSize::from_kib(64), SimTime::ZERO);
        b.charge(ByteSize::from_kib(128)); // 64 KiB of debt
        b.refill(at(62)); // ~63.5 KiB earned: still in debt
        assert!(!b.has_tokens());
        b.refill(at(80)); // ~80 KiB earned in total: repaid + positive
        assert!(b.has_tokens());
    }

    #[test]
    fn sub_second_remainders_are_not_lost() {
        // 3 bytes/s: each 100 ms refill earns 0.3 bytes; ten of them must
        // sum to exactly 3 bytes.
        let mut b = TokenBucket::new(3, ByteSize::from_bytes(100), SimTime::ZERO);
        b.charge(ByteSize::from_bytes(100));
        for step in 1..=10u64 {
            b.refill(at(step * 100));
        }
        assert_eq!(b.available(), ByteSize::from_bytes(3));
    }

    #[test]
    fn stale_refill_is_a_no_op() {
        let mut b = TokenBucket::new(1 << 20, ByteSize::from_kib(64), at(100));
        b.charge(ByteSize::from_kib(64));
        b.refill(at(50)); // earlier than last_refill
        assert_eq!(b.available(), ByteSize::ZERO);
    }

    #[test]
    fn equal_drive_sequences_hold_equal_balances() {
        let mut a = TokenBucket::new(7 << 19, ByteSize::from_kib(96), SimTime::ZERO);
        let mut b = a;
        for step in 0..50u64 {
            a.refill(at(step * 37));
            a.charge(ByteSize::from_kib(step % 5));
            b.refill(at(step * 37));
            b.charge(ByteSize::from_kib(step % 5));
            assert_eq!(a.available(), b.available());
            assert_eq!(a.has_tokens(), b.has_tokens());
        }
    }
}
