//! Command status codes — Table III of the Reo paper.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The sense codes the Reo object storage returns for commands and queries.
///
/// Reproduces Table III verbatim:
///
/// | Code  | Meaning                                       |
/// |-------|-----------------------------------------------|
/// | 0     | The command is successful                     |
/// | -1    | The command is unsuccessful                   |
/// | 0x63  | Data is corrupted                             |
/// | 0x64  | The cache is full                             |
/// | 0x65  | Recovery starts                               |
/// | 0x66  | Recovery ends                                 |
/// | 0x67  | The allocated space for data redundancy is full |
///
/// Two codes extend the table for partial (sub-device) failures, modeled
/// on the T10 SCSI sense keys the paper's OSD layer mirrors:
///
/// | Code  | Meaning                                       |
/// |-------|-----------------------------------------------|
/// | 0x68  | Medium error: a chunk read hit corrupt media (T10 `3h`) |
/// | 0x69  | Recovered error: data was served after repair (T10 `1h`) |
/// | 0x6A  | Not ready: the target is replaying its journal after a restart (T10 `2h`) |
///
/// # Examples
///
/// ```
/// use reo_osd::SenseCode;
///
/// assert_eq!(SenseCode::Success.as_i16(), 0);
/// assert_eq!(SenseCode::Corrupted.as_i16(), 0x63);
/// assert!(SenseCode::Corrupted.is_error());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SenseCode {
    /// `0`: the command is successful.
    Success,
    /// `-1`: the command is unsuccessful.
    Failure,
    /// `0x63`: the addressed data is corrupted (and, for queries during an
    /// outage, irrecoverable).
    Corrupted,
    /// `0x64`: the cache is full — a replacement is demanded.
    CacheFull,
    /// `0x65`: recovery has started (a device failure occurred).
    RecoveryStarts,
    /// `0x66`: recovery has ended.
    RecoveryEnds,
    /// `0x67`: the space allocated for data redundancy is full.
    RedundancySpaceFull,
    /// `0x68`: a chunk read hit corrupt media (the analog of the T10
    /// `MEDIUM ERROR` sense key). The addressed data could not be served
    /// from flash; redundancy may still recover it.
    MediumError,
    /// `0x69`: the command succeeded, but only after error recovery — a
    /// degraded read or retried transient fault (the analog of the T10
    /// `RECOVERED ERROR` sense key). Not an error.
    RecoveredError,
    /// `0x6A`: the target is warming up after a restart — journal replay
    /// has not finished, so the addressed data cannot be served yet (the
    /// analog of the T10 `NOT READY` sense key). Retry after recovery.
    NotReady,
}

impl SenseCode {
    /// The wire value, matching Table III.
    pub const fn as_i16(self) -> i16 {
        match self {
            SenseCode::Success => 0,
            SenseCode::Failure => -1,
            SenseCode::Corrupted => 0x63,
            SenseCode::CacheFull => 0x64,
            SenseCode::RecoveryStarts => 0x65,
            SenseCode::RecoveryEnds => 0x66,
            SenseCode::RedundancySpaceFull => 0x67,
            SenseCode::MediumError => 0x68,
            SenseCode::RecoveredError => 0x69,
            SenseCode::NotReady => 0x6A,
        }
    }

    /// A stable lower-case label for export (the JSONL `sense_mix`,
    /// `trace`, and flight-recorder records all use these).
    pub const fn label(self) -> &'static str {
        match self {
            SenseCode::Success => "success",
            SenseCode::Failure => "failure",
            SenseCode::Corrupted => "corrupted",
            SenseCode::CacheFull => "cache-full",
            SenseCode::RecoveryStarts => "recovery-starts",
            SenseCode::RecoveryEnds => "recovery-ends",
            SenseCode::RedundancySpaceFull => "redundancy-space-full",
            SenseCode::MediumError => "medium-error",
            SenseCode::RecoveredError => "recovered-error",
            SenseCode::NotReady => "not-ready",
        }
    }

    /// `true` when the completion counts as *available* to the client:
    /// hard errors ([`SenseCode::is_error`]) and `NotReady` shedding do
    /// not; recovered errors do. Feeds the availability SLO.
    pub const fn is_available(self) -> bool {
        !self.is_error() && !matches!(self, SenseCode::NotReady)
    }

    /// `true` for codes indicating the command did not succeed outright.
    ///
    /// Informational codes (recovery start/end, cache full, redundancy
    /// space full) are conditions, not failures, but they are not
    /// [`SenseCode::Success`] either; `Failure`, `Corrupted`, and
    /// `MediumError` are hard errors. `RecoveredError` reports success
    /// with a caveat, matching T10's classification of its `1h` key.
    /// `NotReady` is a retryable condition (the data is not lost, the
    /// target just has not finished replaying its journal), so like T10's
    /// `2h` key it is not classified as a hard error.
    pub const fn is_error(self) -> bool {
        matches!(
            self,
            SenseCode::Failure | SenseCode::Corrupted | SenseCode::MediumError
        )
    }
}

impl fmt::Display for SenseCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SenseCode::Success => "the command is successful",
            SenseCode::Failure => "the command is unsuccessful",
            SenseCode::Corrupted => "data is corrupted",
            SenseCode::CacheFull => "the cache is full",
            SenseCode::RecoveryStarts => "recovery starts",
            SenseCode::RecoveryEnds => "recovery ends",
            SenseCode::RedundancySpaceFull => "the allocated space for data redundancy is full",
            SenseCode::MediumError => "medium error: corrupt media under the addressed data",
            SenseCode::RecoveredError => "the command succeeded after error recovery",
            SenseCode::NotReady => "the target is not ready: journal replay in progress",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [SenseCode; 10] = [
        SenseCode::Success,
        SenseCode::Failure,
        SenseCode::Corrupted,
        SenseCode::CacheFull,
        SenseCode::RecoveryStarts,
        SenseCode::RecoveryEnds,
        SenseCode::RedundancySpaceFull,
        SenseCode::MediumError,
        SenseCode::RecoveredError,
        SenseCode::NotReady,
    ];

    #[test]
    fn table_iii_values() {
        assert_eq!(SenseCode::Success.as_i16(), 0);
        assert_eq!(SenseCode::Failure.as_i16(), -1);
        assert_eq!(SenseCode::Corrupted.as_i16(), 0x63);
        assert_eq!(SenseCode::CacheFull.as_i16(), 0x64);
        assert_eq!(SenseCode::RecoveryStarts.as_i16(), 0x65);
        assert_eq!(SenseCode::RecoveryEnds.as_i16(), 0x66);
        assert_eq!(SenseCode::RedundancySpaceFull.as_i16(), 0x67);
        // Partial-failure extensions, outside Table III's range.
        assert_eq!(SenseCode::MediumError.as_i16(), 0x68);
        assert_eq!(SenseCode::RecoveredError.as_i16(), 0x69);
        assert_eq!(SenseCode::NotReady.as_i16(), 0x6A);
    }

    #[test]
    fn wire_values_are_distinct() {
        let mut values: Vec<i16> = ALL.iter().map(|c| c.as_i16()).collect();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), ALL.len());
    }

    #[test]
    fn error_classification() {
        assert!(!SenseCode::Success.is_error());
        assert!(SenseCode::Failure.is_error());
        assert!(SenseCode::Corrupted.is_error());
        assert!(!SenseCode::RecoveryStarts.is_error());
        assert!(!SenseCode::CacheFull.is_error());
        assert!(SenseCode::MediumError.is_error());
        assert!(!SenseCode::RecoveredError.is_error());
        assert!(!SenseCode::NotReady.is_error());
    }

    #[test]
    fn labels_are_stable_and_unique() {
        let labels: Vec<&str> = ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels[0], "success");
        assert_eq!(labels[9], "not-ready");
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }

    #[test]
    fn availability_classification() {
        assert!(SenseCode::Success.is_available());
        assert!(SenseCode::RecoveredError.is_available());
        assert!(!SenseCode::NotReady.is_available());
        assert!(!SenseCode::MediumError.is_available());
        assert!(!SenseCode::Failure.is_available());
    }

    #[test]
    fn display_matches_table_descriptions() {
        assert_eq!(SenseCode::CacheFull.to_string(), "the cache is full");
        assert_eq!(SenseCode::Corrupted.to_string(), "data is corrupted");
    }
}
