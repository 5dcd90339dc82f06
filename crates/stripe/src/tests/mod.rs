//! Unit tests of the stripe manager, split along the modules they
//! exercise.

mod extent;
mod io;
mod manager;
mod rebuild;
mod recovery;

use reo_flashsim::{DeviceConfig, FlashArray};
use reo_sim::{ByteSize, ServiceModel, SimClock, SimDuration};

use crate::StripeManager;

pub(crate) fn test_array(n: usize, capacity_mib: u64) -> FlashArray {
    let cfg = DeviceConfig {
        capacity: ByteSize::from_mib(capacity_mib),
        read: ServiceModel::new(SimDuration::from_micros(100), 512 * 1024 * 1024),
        write: ServiceModel::new(SimDuration::from_micros(200), 512 * 1024 * 1024),
        erase_block: ByteSize::from_kib(128),
        pe_cycle_limit: 3000,
    };
    FlashArray::new(n, cfg, SimClock::new())
}

pub(crate) fn mgr(n: usize) -> StripeManager {
    StripeManager::new(test_array(n, 64), ByteSize::from_kib(4))
}

pub(crate) fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 131 + 17) % 256) as u8).collect()
}
