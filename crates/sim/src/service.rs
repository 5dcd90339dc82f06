//! Device service-time models.

use serde::{Deserialize, Serialize};

use crate::{ByteSize, SimDuration};

const NANOS_PER_SEC: u64 = 1_000_000_000;

/// A two-parameter service-time model for a storage or network device.
///
/// The time to service one operation of `n` bytes is
///
/// ```text
/// service_time(n) = per_op_latency + n / bytes_per_sec
/// ```
///
/// This is the classic latency/bandwidth decomposition: the fixed term models
/// command setup, seek, or flash-channel access latency; the linear term
/// models media/link transfer. It is deliberately simple — every experiment
/// in the Reo paper compares *relative* behaviour across protection schemes
/// on identical hardware, so a calibrated affine model preserves every
/// reported shape.
///
/// # Examples
///
/// ```
/// use reo_sim::{ByteSize, ServiceModel, SimDuration};
///
/// let hdd = ServiceModel::new(SimDuration::from_millis(8), 120 * 1024 * 1024);
/// let t = hdd.service_time(ByteSize::from_mib(120));
/// // 8ms seek + 1s transfer
/// assert_eq!(t, SimDuration::from_millis(1008));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceModel {
    per_op_latency: SimDuration,
    bytes_per_sec: u64,
}

impl ServiceModel {
    /// Creates a service model with the given fixed per-operation latency
    /// and sustained bandwidth in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    pub fn new(per_op_latency: SimDuration, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be non-zero");
        ServiceModel {
            per_op_latency,
            bytes_per_sec,
        }
    }

    /// A model that costs nothing. Useful in unit tests of higher layers.
    pub fn instant() -> Self {
        ServiceModel {
            per_op_latency: SimDuration::ZERO,
            bytes_per_sec: u64::MAX,
        }
    }

    /// The fixed per-operation latency term.
    pub fn per_op_latency(&self) -> SimDuration {
        self.per_op_latency
    }

    /// The sustained-bandwidth term, in bytes per second.
    pub fn bytes_per_sec(&self) -> u64 {
        self.bytes_per_sec
    }

    /// Time to service a single operation transferring `bytes`.
    pub fn service_time(&self, bytes: ByteSize) -> SimDuration {
        self.per_op_latency + self.transfer_time(bytes)
    }

    /// Time for the transfer term alone (no per-operation latency).
    ///
    /// Used when several chunks stream in one sequential operation, so the
    /// fixed cost is paid once.
    pub fn transfer_time(&self, bytes: ByteSize) -> SimDuration {
        if self.bytes_per_sec == u64::MAX {
            return SimDuration::ZERO;
        }
        // nanos = bytes * 1e9 / bw: in u64 while the product fits (up to
        // about 17 GiB, which every chunk is), in u128 beyond, where a u64
        // product would overflow. Both divide the same exact product.
        let bytes = bytes.as_bytes();
        let nanos = match bytes.checked_mul(NANOS_PER_SEC) {
            Some(product) => product / self.bytes_per_sec,
            None => {
                (u128::from(bytes) * u128::from(NANOS_PER_SEC) / u128::from(self.bytes_per_sec))
                    as u64
            }
        };
        SimDuration::from_nanos(nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_is_affine() {
        let m = ServiceModel::new(SimDuration::from_micros(100), 1_000_000_000);
        // 1e9 B/s => 1 byte per nanosecond.
        let t = m.service_time(ByteSize::from_bytes(500));
        assert_eq!(
            t,
            SimDuration::from_micros(100) + SimDuration::from_nanos(500)
        );
    }

    #[test]
    fn instant_model_is_free() {
        let m = ServiceModel::instant();
        assert_eq!(m.service_time(ByteSize::from_gib(100)), SimDuration::ZERO);
    }

    #[test]
    fn batch_pays_latency_per_op() {
        // Five operations pay the fixed cost five times; the same bytes
        // streamed as one operation pay it once.
        let m = ServiceModel::new(SimDuration::from_micros(10), 1_000_000_000);
        let op = ByteSize::from_bytes(1000);
        assert_eq!(
            m.service_time(op) * 5,
            SimDuration::from_micros(50) + SimDuration::from_nanos(5000)
        );
        let streamed = m.service_time(op) + m.transfer_time(ByteSize::from_bytes(4000));
        assert_eq!(
            streamed,
            SimDuration::from_micros(10) + SimDuration::from_nanos(5000)
        );
    }

    #[test]
    fn large_transfers_do_not_overflow() {
        let m = ServiceModel::new(SimDuration::ZERO, 100 * 1024 * 1024);
        let t = m.service_time(ByteSize::from_gib(1024));
        assert!(t.as_secs_f64() > 10_000.0);
    }

    #[test]
    fn u64_transfer_time_is_the_u128_quotient() {
        // The largest size whose product with 1e9 fits a u64, and the next,
        // which takes the u128 path.
        let largest = u64::MAX / NANOS_PER_SEC;
        let sizes = [0, 1, 16 << 10, 64 << 10, 1 << 34, largest, largest + 1];
        for bw in [1, 470 * 1024 * 1024 + 1, u64::MAX - 1] {
            let m = ServiceModel::new(SimDuration::ZERO, bw);
            for bytes in sizes {
                let wide = u128::from(bytes) * u128::from(NANOS_PER_SEC) / u128::from(bw);
                let t = m.transfer_time(ByteSize::from_bytes(bytes));
                assert_eq!(t.as_nanos(), wide as u64, "{bytes} bytes at {bw} B/s");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_bandwidth_panics() {
        let _ = ServiceModel::new(SimDuration::ZERO, 0);
    }
}
