//! Per-stripe redundancy schemes.

use std::fmt;

/// The redundancy level of a stripe (Figure 4 of the paper).
///
/// A stripe on an `n`-device array holds either `n - k` data chunks plus
/// `k` Reed–Solomon parity chunks (`Parity(k)`), or one data chunk
/// replicated to every device (`Replication`).
///
/// # Examples
///
/// ```
/// use reo_stripe::RedundancyScheme;
///
/// let two_parity = RedundancyScheme::parity(2);
/// assert_eq!(two_parity.parity_chunks(5), 2);
/// assert_eq!(two_parity.data_chunks_per_stripe(5), 3);
/// assert_eq!(two_parity.failures_tolerated(5), 2);
///
/// let repl = RedundancyScheme::Replication;
/// assert_eq!(repl.failures_tolerated(5), 4);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RedundancyScheme {
    /// `k` parity chunks per stripe. `Parity(0)` means no redundancy
    /// (Reo's cold clean data).
    Parity(u8),
    /// The data chunk is replicated across all devices (Reo's metadata and
    /// dirty data).
    Replication,
}

impl RedundancyScheme {
    /// Shorthand constructor for [`RedundancyScheme::Parity`].
    pub const fn parity(k: u8) -> Self {
        RedundancyScheme::Parity(k)
    }

    /// Number of parity chunks in a stripe on an `n`-device array.
    ///
    /// For replication this is `n - 1` (every chunk beyond the first is
    /// redundant).
    ///
    /// # Panics
    ///
    /// Panics if the scheme does not fit the array (`k >= n`).
    pub fn parity_chunks(self, n: usize) -> usize {
        match self {
            RedundancyScheme::Parity(k) => {
                assert!(
                    (k as usize) < n,
                    "parity count {k} needs more than {n} devices"
                );
                k as usize
            }
            RedundancyScheme::Replication => n - 1,
        }
    }

    /// Number of data chunks a stripe can hold on an `n`-device array.
    ///
    /// # Panics
    ///
    /// Panics if the scheme does not fit the array.
    pub fn data_chunks_per_stripe(self, n: usize) -> usize {
        match self {
            RedundancyScheme::Parity(k) => {
                assert!(
                    (k as usize) < n,
                    "parity count {k} needs more than {n} devices"
                );
                n - k as usize
            }
            RedundancyScheme::Replication => 1,
        }
    }

    /// How many whole-device failures a stripe under this scheme survives
    /// on an `n`-device array.
    pub fn failures_tolerated(self, n: usize) -> usize {
        match self {
            RedundancyScheme::Parity(k) => (k as usize).min(n.saturating_sub(1)),
            RedundancyScheme::Replication => n - 1,
        }
    }

    /// The fraction of stripe space holding user data (the scheme's ideal
    /// space efficiency): `m / n` for parity, `1 / n` for replication.
    pub fn space_efficiency(self, n: usize) -> f64 {
        match self {
            RedundancyScheme::Parity(k) => (n - k as usize) as f64 / n as f64,
            RedundancyScheme::Replication => 1.0 / n as f64,
        }
    }

    /// The scheme as an array of `healthy` devices can give it: parity is
    /// clamped to leave one data chunk per stripe.
    ///
    /// # Examples
    ///
    /// ```
    /// use reo_stripe::RedundancyScheme;
    ///
    /// assert_eq!(RedundancyScheme::parity(2).clamped_to(5), RedundancyScheme::parity(2));
    /// assert_eq!(RedundancyScheme::parity(2).clamped_to(2), RedundancyScheme::parity(1));
    /// assert_eq!(RedundancyScheme::parity(2).clamped_to(1), RedundancyScheme::parity(0));
    /// ```
    pub fn clamped_to(self, healthy: usize) -> Self {
        match self {
            RedundancyScheme::Parity(k) => {
                RedundancyScheme::Parity(k.min(healthy.saturating_sub(1) as u8))
            }
            RedundancyScheme::Replication => RedundancyScheme::Replication,
        }
    }

    /// `true` if the scheme stores whole copies rather than parity.
    pub const fn is_replication(self) -> bool {
        matches!(self, RedundancyScheme::Replication)
    }
}

impl fmt::Display for RedundancyScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RedundancyScheme::Parity(k) => write!(f, "{k}-parity"),
            RedundancyScheme::Replication => write!(f, "full-replication"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_geometry() {
        let s = RedundancyScheme::parity(1);
        assert_eq!(s.parity_chunks(5), 1);
        assert_eq!(s.data_chunks_per_stripe(5), 4);
        assert_eq!(s.failures_tolerated(5), 1);
    }

    #[test]
    fn zero_parity_tolerates_nothing() {
        let s = RedundancyScheme::parity(0);
        assert_eq!(s.failures_tolerated(5), 0);
        assert_eq!(s.data_chunks_per_stripe(5), 5);
        assert_eq!(s.space_efficiency(5), 1.0);
    }

    #[test]
    fn replication_geometry() {
        let s = RedundancyScheme::Replication;
        assert_eq!(s.data_chunks_per_stripe(5), 1);
        assert_eq!(s.parity_chunks(5), 4);
        assert_eq!(s.failures_tolerated(5), 4);
        assert!((s.space_efficiency(5) - 0.2).abs() < 1e-12);
        assert!(s.is_replication());
    }

    #[test]
    fn paper_space_efficiency_numbers() {
        // Section VI-B: "for a five-device flash array, the space
        // efficiency of 0-parity is 100%, and that of 1-parity and
        // 2-parity is 80% and 60%".
        assert_eq!(RedundancyScheme::parity(0).space_efficiency(5), 1.00);
        assert_eq!(RedundancyScheme::parity(1).space_efficiency(5), 0.80);
        assert_eq!(RedundancyScheme::parity(2).space_efficiency(5), 0.60);
        // Section VI-D: full replication on 5 devices => 20%.
        assert_eq!(RedundancyScheme::Replication.space_efficiency(5), 0.20);
    }

    #[test]
    #[should_panic(expected = "needs more than")]
    fn parity_must_fit_array() {
        let _ = RedundancyScheme::parity(5).data_chunks_per_stripe(5);
    }

    #[test]
    fn display_names() {
        assert_eq!(RedundancyScheme::parity(2).to_string(), "2-parity");
        assert_eq!(
            RedundancyScheme::Replication.to_string(),
            "full-replication"
        );
    }
}
