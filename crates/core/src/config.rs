//! System and protection-scheme configuration.

use reo_backend::BackendConfig;
use reo_flashsim::DeviceConfig;
use reo_osd_target::ProtectionPolicy;
use reo_sim::ByteSize;
use reo_stripe::RedundancyScheme;

/// One of the six protection configurations the paper evaluates.
///
/// # Examples
///
/// ```
/// use reo_core::SchemeConfig;
///
/// assert_eq!(SchemeConfig::Parity(1).label(), "1-parity");
/// assert_eq!(SchemeConfig::Reo { reserve: 0.20 }.label(), "Reo-20%");
/// assert!(SchemeConfig::Reo { reserve: 0.10 }.is_differentiated());
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SchemeConfig {
    /// Uniform protection with `k` parity chunks per stripe (the paper's
    /// `0-parity`, `1-parity`, `2-parity` baselines).
    Parity(u8),
    /// Uniform full replication of every object.
    FullReplication,
    /// Reo's differentiated redundancy with `reserve` (0.10 / 0.20 /
    /// 0.40) of the flash space reserved for parity of hot objects.
    Reo {
        /// Fraction of cache space reserved for redundancy.
        reserve: f64,
    },
}

impl SchemeConfig {
    /// The six configurations of the normal-run figures, in the paper's
    /// legend order.
    pub fn normal_run_set() -> Vec<SchemeConfig> {
        vec![
            SchemeConfig::Parity(0),
            SchemeConfig::Parity(1),
            SchemeConfig::Parity(2),
            SchemeConfig::Reo { reserve: 0.10 },
            SchemeConfig::Reo { reserve: 0.20 },
            SchemeConfig::Reo { reserve: 0.40 },
        ]
    }

    /// The figure legend label.
    pub fn label(&self) -> String {
        match self {
            SchemeConfig::Parity(k) => format!("{k}-parity"),
            SchemeConfig::FullReplication => "full-replication".to_string(),
            SchemeConfig::Reo { reserve } => format!("Reo-{:.0}%", reserve * 100.0),
        }
    }

    /// `true` for Reo (class-differentiated) configurations.
    pub fn is_differentiated(&self) -> bool {
        matches!(self, SchemeConfig::Reo { .. })
    }

    /// The target-side protection policy.
    pub fn policy(&self) -> ProtectionPolicy {
        match self {
            SchemeConfig::Parity(k) => ProtectionPolicy::uniform(RedundancyScheme::Parity(*k)),
            SchemeConfig::FullReplication => {
                ProtectionPolicy::uniform(RedundancyScheme::Replication)
            }
            SchemeConfig::Reo { .. } => ProtectionPolicy::differentiated(),
        }
    }

    /// The cache manager's redundancy reserve (0 for uniform baselines,
    /// which never classify).
    pub fn redundancy_reserve(&self) -> f64 {
        match self {
            SchemeConfig::Reo { reserve } => *reserve,
            _ => 0.0,
        }
    }
}

impl std::fmt::Display for SchemeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Full configuration of a [`crate::CacheSystem`].
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// The protection scheme under test.
    pub scheme: SchemeConfig,
    /// Number of flash devices (the paper's array has 5).
    pub devices: usize,
    /// Total flash cache capacity (the paper sets it to 4–12% of the
    /// workload data set). Spread evenly across devices.
    pub cache_capacity: ByteSize,
    /// Stripe chunk size (the paper uses 64 KB for normal-run and
    /// dirty-data experiments, 1 MB for the failure experiments).
    pub chunk_size: ByteSize,
    /// Per-device service models.
    pub device: DeviceConfig,
    /// Backend (HDD + network) service models.
    pub backend: BackendConfig,
    /// Recompute the adaptive hot threshold and reclassify every this
    /// many requests (Reo configurations only).
    pub classification_period: usize,
    /// Background rebuilds executed between consecutive requests while
    /// recovery is pending (Section IV-D: on-demand access first).
    pub recovery_batch: usize,
    /// Run a rebuild batch only every this many requests (1 = after every
    /// request). Larger values model a rebuild process that is slow
    /// relative to request traffic, stretching the recovery window.
    pub recovery_period: usize,
    /// Rebuild in class-priority order (`true`, Reo's differentiated
    /// recovery) or FIFO block order (`false`, the ablation baseline).
    pub prioritized_recovery: bool,
    /// The write-back flusher keeps the dirty fraction of the cache at or
    /// below this share of capacity by flushing the oldest dirty objects
    /// to the backend between requests. The paper assumes "the total
    /// amount of dirty data objects is small enough" for replication;
    /// this is the knob that keeps it so.
    pub dirty_flush_watermark: f64,
    /// Classify hotness by `Freq / Size` (`true`, the paper) or plain
    /// `Freq` (`false`, the ablation baseline).
    pub size_aware_hotness: bool,
    /// Seed of the partial-failure injector. Systems built with equal
    /// configurations, traces, and seeds suffer byte-for-byte identical
    /// injected damage.
    pub fault_seed: u64,
    /// Auto-flush the metadata journal's staging buffer to durable media
    /// every this many appended records. Dirty writes flush eagerly
    /// regardless (the acknowledgment barrier); this knob bounds how many
    /// *clean* metadata records a power loss can discard.
    pub fsync_interval: u32,
    /// Take a journal checkpoint (truncating the log) every this many
    /// requests; `0` restricts checkpoints to startup and recovery, so
    /// replay cost grows with the whole history.
    pub checkpoint_period: usize,
    /// Cap rebuild traffic at this percentage of one device's read
    /// throughput (the rebuild QoS token bucket); a cluster's migrations
    /// drain through a bucket of the same shape. `0` disables the
    /// throttle entirely — rebuilds run as fast as the recovery batch
    /// allows, the pre-throttle behaviour. Only the quiesce drain
    /// (`drain_recovery`) runs unmetered; between requests the cap holds
    /// however idle the foreground is.
    pub rebuild_bandwidth_pct: u32,
}

impl SystemConfig {
    /// A configuration mirroring the paper's testbed for the given scheme
    /// and cache size: five SSDs, 64 KB chunks, HDD+10GbE backend.
    ///
    /// # Panics
    ///
    /// Panics if `cache_capacity` is zero.
    pub fn paper_defaults(scheme: SchemeConfig, cache_capacity: ByteSize) -> Self {
        assert!(!cache_capacity.is_zero(), "cache capacity must be non-zero");
        let devices = 5;
        let per_device = ByteSize::from_bytes(cache_capacity.as_bytes() / devices as u64);
        SystemConfig {
            scheme,
            devices,
            cache_capacity,
            chunk_size: ByteSize::from_kib(64),
            device: DeviceConfig {
                capacity: per_device,
                ..DeviceConfig::intel_540s()
            },
            backend: BackendConfig::paper_testbed(),
            classification_period: 500,
            recovery_batch: 4,
            recovery_period: 1,
            prioritized_recovery: true,
            dirty_flush_watermark: 0.05,
            size_aware_hotness: true,
            fault_seed: 0x5EED_FA17,
            fsync_interval: 32,
            checkpoint_period: 10_000,
            rebuild_bandwidth_pct: 0,
        }
    }

    /// Returns the config with a different chunk size (the failure
    /// experiments use 1 MB).
    pub fn with_chunk_size(mut self, chunk_size: ByteSize) -> Self {
        self.chunk_size = chunk_size;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(SchemeConfig::Parity(0).label(), "0-parity");
        assert_eq!(SchemeConfig::Parity(2).label(), "2-parity");
        assert_eq!(SchemeConfig::FullReplication.label(), "full-replication");
        assert_eq!(SchemeConfig::Reo { reserve: 0.40 }.label(), "Reo-40%");
    }

    #[test]
    fn normal_run_set_is_the_paper_six() {
        let labels: Vec<String> = SchemeConfig::normal_run_set()
            .iter()
            .map(SchemeConfig::label)
            .collect();
        assert_eq!(
            labels,
            vec!["0-parity", "1-parity", "2-parity", "Reo-10%", "Reo-20%", "Reo-40%"]
        );
    }

    #[test]
    fn policy_mapping() {
        assert_eq!(
            SchemeConfig::Parity(1).policy(),
            ProtectionPolicy::uniform(RedundancyScheme::parity(1))
        );
        assert_eq!(
            SchemeConfig::Reo { reserve: 0.2 }.policy(),
            ProtectionPolicy::differentiated()
        );
        assert_eq!(SchemeConfig::Parity(1).redundancy_reserve(), 0.0);
        assert_eq!(SchemeConfig::Reo { reserve: 0.2 }.redundancy_reserve(), 0.2);
    }

    #[test]
    fn paper_defaults_divide_capacity() {
        let cfg = SystemConfig::paper_defaults(SchemeConfig::Parity(0), ByteSize::from_gib(2));
        assert_eq!(cfg.devices, 5);
        assert_eq!(
            cfg.device.capacity.as_bytes() * 5,
            ByteSize::from_gib(2).as_bytes() / 5 * 5
        );
        // The SSD is the calibrated one in everything but its size.
        let intel_540s = DeviceConfig {
            capacity: cfg.device.capacity,
            ..DeviceConfig::intel_540s()
        };
        assert_eq!(cfg.device, intel_540s);
        assert_eq!(cfg.chunk_size, ByteSize::from_kib(64));
        let big_chunks = cfg.with_chunk_size(ByteSize::from_mib(1));
        assert_eq!(big_chunks.chunk_size, ByteSize::from_mib(1));
    }
}
