//! Property tests: random operation sequences against the stripe manager
//! must preserve its invariants, and must leave the simulation exactly
//! where the per-chunk manager it replaced ([`reference`]) leaves it.

// Frozen, so what the twins do not call stays in it.
#[allow(dead_code)]
mod reference;

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use reo_flashsim::{
    ChunkHandle, DeviceConfig, DeviceId, FaultPlan, FlashArray, FlashDevice, FlashError,
    ShareStatus,
};
use reo_sim::{ByteSize, ServiceModel, SimClock, SimDuration};
use reo_stripe::{ObjectLayout, ObjectStatus, RedundancyScheme, StripeError, StripeManager};

fn test_array(n: usize) -> FlashArray {
    let cfg = DeviceConfig {
        capacity: ByteSize::from_mib(256),
        read: ServiceModel::new(SimDuration::from_micros(100), 512 * 1024 * 1024),
        write: ServiceModel::new(SimDuration::from_micros(200), 512 * 1024 * 1024),
        erase_block: ByteSize::from_kib(128),
        pe_cycle_limit: 3000,
    };
    FlashArray::new(n, cfg, SimClock::new())
}

/// One step of a random workload against the manager.
#[derive(Clone, Debug)]
enum Op {
    Store { size_kib: u64, scheme: u8 },
    Read { slot: usize },
    Remove { slot: usize },
    FailDevice { device: usize },
    ReplaceAndRebuild { device: usize },
    Overwrite { slot: usize, chunk: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..200, 0u8..4).prop_map(|(size_kib, scheme)| Op::Store { size_kib, scheme }),
        (0usize..16).prop_map(|slot| Op::Read { slot }),
        (0usize..16).prop_map(|slot| Op::Remove { slot }),
        (0usize..5).prop_map(|device| Op::FailDevice { device }),
        (0usize..5).prop_map(|device| Op::ReplaceAndRebuild { device }),
        (0usize..16, 0u64..4).prop_map(|(slot, chunk)| Op::Overwrite { slot, chunk }),
    ]
}

fn scheme_of(code: u8) -> RedundancyScheme {
    match code {
        0 => RedundancyScheme::parity(0),
        1 => RedundancyScheme::parity(1),
        2 => RedundancyScheme::parity(2),
        _ => RedundancyScheme::Replication,
    }
}

/// Every chunk present on the manager's devices, in device and handle
/// order.
fn present_chunks(mgr: &StripeManager) -> Vec<(DeviceId, ChunkHandle)> {
    let devices = (0..mgr.array().device_count()).map(DeviceId);
    devices
        .flat_map(|d| {
            let present = mgr.array().device(d).chunk_handles();
            present.into_iter().map(move |h| (d, h))
        })
        .collect()
}

/// Holds the recovery sweeps, which subtract and intersect sorted ranges,
/// to what walking the expanded `(device, handle)` pairs finds: after a
/// crash that journaled every other live object the orphan sweep frees
/// exactly the chunks no reinstalled extent names, and when one object
/// comes back a second time one stripe further along, the chunks claimed
/// twice are exactly those both claimants name.
fn recovery_sweeps_match_the_expanded_pairs(
    mgr: &StripeManager,
    live: &[ObjectLayout],
) -> Result<(), TestCaseError> {
    let blobs: Vec<Vec<u8>> = live
        .iter()
        .map(|layout| mgr.export_object_meta(layout).expect("live layout"))
        .collect();
    let journaled = || blobs.iter().step_by(2);
    // A blob's first stripe, and its first handle after it.
    let first_of = |blob: &[u8]| u64::from_le_bytes(blob[20..28].try_into().expect("8 bytes"));
    let mut blank = mgr.clone();
    blank.simulate_crash();
    let mut crashed = blank.clone();
    for blob in journaled() {
        crashed.install_object_meta(blob).expect("own export");
    }
    prop_assert!(crashed.chunk_refs().double_allocated_chunks().is_empty());

    if let Some(blob) = blobs.first() {
        let first = first_of(blob) + 1;
        let mut shifted = blob.clone();
        shifted[20..28].copy_from_slice(&first.to_le_bytes());
        shifted[28..36].copy_from_slice(&first.to_le_bytes());
        // Installed over an extent that starts where it does, it replaces
        // that extent; every other extent keeps its claim.
        let (mut others, mut alone, mut both) = (blank.clone(), blank.clone(), crashed.clone());
        for blob in journaled().filter(|blob| first_of(blob) != first) {
            others.install_object_meta(blob).expect("own export");
        }
        alone
            .install_object_meta(&shifted)
            .expect("a legal placement");
        both.install_object_meta(&shifted)
            .expect("a legal placement");
        let claimed: BTreeSet<_> = others.referenced_chunks().into_iter().collect();
        let mut twice = alone.referenced_chunks();
        twice.retain(|pair| claimed.contains(pair));
        prop_assert_eq!(both.chunk_refs().double_allocated_chunks(), twice);
    }

    let referenced: BTreeSet<_> = crashed.referenced_chunks().into_iter().collect();
    let mut kept = present_chunks(&crashed);
    let present = kept.len();
    kept.retain(|pair| referenced.contains(pair));
    let refs = crashed.chunk_refs();
    prop_assert_eq!(
        crashed.remove_unreferenced_chunks(&refs),
        present - kept.len()
    );
    prop_assert_eq!(present_chunks(&crashed), kept);
    Ok(())
}

/// One step of the differential workload.
#[derive(Clone, Debug)]
enum Step {
    Store { size: u64, scheme: u8, real: bool },
    Fill { over: u64 },
    Read { slot: usize },
    Overwrite { slot: usize, first: u64, span: u64 },
    Remove { slot: usize },
    Fail { device: usize },
    Spare { device: usize },
    Corrupt { slot: usize, chunk: u64 },
    LatentCorruption,
    ArmTransient { rate_pct: u32 },
    Slow { device: usize, tenths: u32 },
    CrashAndReplay,
}

fn arb_step() -> impl Strategy<Value = Step> {
    // Up to ~40 chunks of 16 KiB, rarely chunk-aligned; one in four with a
    // real payload, so real and size-only objects share the array and the
    // devices' runs split around real chunks. Two schemes in five are
    // replication, the scheme of every dirty object.
    let store = || {
        (1u64..640 * 1024, 0u8..5, 0u8..4).prop_map(|(size, scheme, real)| Step::Store {
            size,
            scheme,
            real: real == 0,
        })
    };
    let read = || (0usize..12).prop_map(|slot| Step::Read { slot });
    // From the object's first few chunks to its last, mostly: what a write
    // hit on a dirty object is.
    let whole_overwrite = || {
        (0usize..12, 0u64..3, 30u64..40).prop_map(|(slot, first, span)| Step::Overwrite {
            slot,
            first,
            span,
        })
    };
    // Stores and reads are listed more than once so they make up most of a
    // sequence, and half the failures name no device, so stretches of it
    // run on a healthy array.
    prop_oneof![
        store(),
        store(),
        store(),
        (1u64..8, 0u8..4, 0u8..4).prop_map(|(chunks, scheme, real)| Step::Store {
            size: chunks * 16 * 1024,
            scheme,
            real: real == 0,
        }),
        // A size-only replicated store of the tightest healthy device's
        // room, less a chunk, plus `over` bytes.
        (0u64..32 * 1024).prop_map(|over| Step::Fill { over }),
        read(),
        read(),
        read(),
        read(),
        (0usize..12, 0u64..40, 0u64..40).prop_map(|(slot, first, span)| Step::Overwrite {
            slot,
            first,
            span
        }),
        whole_overwrite(),
        whole_overwrite(),
        (0usize..12).prop_map(|slot| Step::Remove { slot }),
        (0usize..16).prop_map(|device| Step::Fail { device }),
        (0usize..8).prop_map(|device| Step::Spare { device }),
        (0usize..12, 0u64..40).prop_map(|(slot, chunk)| Step::Corrupt { slot, chunk }),
        Just(Step::LatentCorruption),
        (0u32..40).prop_map(|rate_pct| Step::ArmTransient { rate_pct }),
        (0usize..8, 5u32..40).prop_map(|(device, tenths)| Step::Slow { device, tenths }),
        Just(Step::CrashAndReplay),
    ]
}

/// The requests the manager answers by arithmetic per device where the
/// reference walks the object's chunks.
#[derive(Clone, Copy, Debug)]
enum ClosedForm {
    /// A store some device has no room for: refused before anything is
    /// written, where the reference writes chunk by chunk up to the one
    /// refused and takes them back.
    RefusedUnwritten,
    /// A size-only overwrite of three or more whole chunks of a replicated
    /// object on devices whose chunks are all intact.
    LockstepOverwrite,
    /// A read of a size-only object of more than one stripe on an intact
    /// array that serves read runs.
    CountedRead,
    /// A read of a size-only object of more than one stripe that some
    /// device of it cannot vouch for, where a device's share of the whole
    /// stripes is lost or absent as a whole and the rest are intact, within
    /// what a stripe tolerates, and no device of it has transient faults
    /// armed: the whole stripes counted per device, only the last walked.
    DegradedCountedRead,
    /// The status of an object of more than one stripe that some device of
    /// it cannot vouch for, decided from each device's share of its whole
    /// stripes: only the last stripe probed chunk by chunk.
    ShareStatus,
    /// A rebuild of a size-only object of more than one stripe onto a spare
    /// that holds none of it: the spare's chunks gathered into one write
    /// run per length, where the reference writes them one by one.
    RebuildRun,
}

/// Steps of one whole run of the differential test that met each closed
/// form's precondition (a row per form): all of them, and those with a
/// slowed device in the array.
static MET: [[AtomicU64; 2]; 6] = [const { [const { AtomicU64::new(0) }; 2] }; 6];

/// The extent-and-run manager and the per-chunk reference, each over its
/// own array and fault plan built from the same seed.
struct Twins {
    new: StripeManager,
    old: reference::StripeManager,
    new_plan: FaultPlan,
    old_plan: FaultPlan,
    live: Vec<(ObjectLayout, reference::ObjectLayout)>,
    owner: u64,
    /// Owners of the objects stored with a real payload.
    real: BTreeSet<u64>,
    /// The stripe the next store starts at.
    next_stripe: u64,
}

/// `width` small devices (so stores meet `DeviceFull`).
fn twin_array(width: usize) -> FlashArray {
    let cfg = DeviceConfig {
        capacity: ByteSize::from_mib(2),
        read: ServiceModel::new(SimDuration::from_micros(90), 520 * 1024 * 1024),
        write: ServiceModel::new(SimDuration::from_micros(220), 470 * 1024 * 1024),
        erase_block: ByteSize::from_kib(128),
        pe_cycle_limit: 3000,
    };
    FlashArray::new(width, cfg, SimClock::new())
}

/// `Ok` and `Err` payloads of both sides, rendered: the error types are
/// distinct but print alike.
fn shown<T: std::fmt::Debug, E: std::fmt::Debug>(r: &Result<T, E>) -> String {
    format!("{r:?}")
}

impl Twins {
    fn new(seed: u64, width: usize) -> Self {
        let chunk = ByteSize::from_kib(16);
        let array = || twin_array(width);
        Twins {
            new: StripeManager::new(array(), chunk),
            old: reference::StripeManager::new(array(), chunk),
            new_plan: FaultPlan::new(seed),
            old_plan: FaultPlan::new(seed),
            live: Vec::new(),
            owner: 0,
            real: BTreeSet::new(),
            next_stripe: 0,
        }
    }

    fn devices(&self) -> impl Iterator<Item = &FlashDevice> {
        let array = self.new.array();
        (0..array.device_count()).map(|d| array.device(DeviceId(d)))
    }

    /// Counts a step that met `form`'s precondition.
    fn met(&self, form: ClosedForm) {
        let row = &MET[form as usize];
        row[0].fetch_add(1, Ordering::Relaxed);
        if self.devices().any(|d| d.slowdown() != 1.0) {
            row[1].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The devices `n` was placed over, as its layout blob records them.
    fn devices_of(&self, n: &ObjectLayout) -> Vec<&FlashDevice> {
        let blob = self.new.export_object_meta(n).expect("live layout");
        let placed = u64::from_le_bytes(blob[36..44].try_into().expect("8 bytes"));
        let placed = self
            .devices()
            .enumerate()
            .filter(|(d, _)| placed >> d & 1 == 1);
        placed.map(|(_, device)| device).collect()
    }

    /// How many devices of `n`, an object some device of which cannot
    /// vouch for all it holds, hold nothing readable of its whole stripes,
    /// when every one answers for its share as a whole: `None` for one
    /// stripe, a mixed share, or devices that all vouch.
    fn lost_shares(&self, n: &ObjectLayout) -> Option<usize> {
        let devices = self.devices_of(n);
        let (first, stripes) = (n.stripes().next()?, n.stripes().count() as u64);
        if stripes < 2 || devices.iter().all(|d| d.all_chunks_intact()) {
            return None;
        }
        let shares = devices.iter().map(|d| {
            match d.share_status(ChunkHandle::new(first.as_u64()), stripes - 1) {
                ShareStatus::Intact => Some(0),
                ShareStatus::Unreadable => Some(1),
                ShareStatus::Mixed => None,
            }
        });
        shares.sum()
    }

    /// Everything observable about the two simulations must be equal.
    fn assert_same_state(&self) -> Result<(), TestCaseError> {
        let (new, old) = (self.new.array(), self.old.array());
        prop_assert_eq!(new.clock().now(), old.clock().now());
        for d in (0..new.device_count()).map(DeviceId) {
            let (n, o) = (new.device(d), old.device(d));
            prop_assert_eq!(n.stats(), o.stats(), "{} counters", d);
            prop_assert_eq!(n.busy_until(), o.busy_until(), "{} horizon", d);
            prop_assert_eq!(n.used(), o.used(), "{} occupancy", d);
            prop_assert_eq!(n.chunk_handles(), o.chunk_handles(), "{} chunks", d);
            prop_assert_eq!(
                n.intact_handles(),
                o.intact_handles(),
                "{} intact chunks",
                d
            );
            prop_assert_eq!(n.all_chunks_intact(), o.all_chunks_intact());
        }
        prop_assert_eq!(self.new.usage(), self.old.usage());
        prop_assert_eq!(self.new.transient_retries(), self.old.transient_retries());
        prop_assert_eq!(self.new.stripe_count(), self.old.stripe_count());
        prop_assert_eq!(self.new.referenced_chunks(), self.old.referenced_chunks());
        for (n, o) in &self.live {
            prop_assert_eq!(
                shown(&self.new.object_status(n)),
                shown(&self.old.object_status(o))
            );
        }
        Ok(())
    }

    fn remove(&mut self, slot: usize) {
        let (n, o) = self.live.swap_remove(slot);
        self.new.remove_object(&n);
        self.old.remove_object(&o);
    }

    fn step(&mut self, step: Step) -> Result<(), TestCaseError> {
        match step {
            Step::Store { size, scheme, real } => {
                self.owner += 1;
                // Bytes seeded by the owner, the same on both sides.
                let payload: Option<Vec<u8>> = real.then(|| {
                    let byte =
                        |i: u64| (self.owner.wrapping_add(i).wrapping_mul(2654435761) >> 24) as u8;
                    (0..size).map(byte).collect()
                });
                let (size, scheme) = (ByteSize::from_bytes(size), scheme_of(scheme));
                let n = self
                    .new
                    .store_object(self.owner, size, scheme, payload.as_deref());
                let first = self.next_stripe;
                let store = |old: &mut reference::StripeManager| {
                    old.store_object(self.owner, size, scheme, payload.as_deref())
                };
                match &n {
                    Ok(n) => {
                        prop_assert_eq!(n.stripes().next().map(|s| s.as_u64()), Some(first));
                        self.next_stripe = n.stripes().last().expect("a stripe").as_u64() + 1;
                    }
                    // Refused before anything was written: the reference,
                    // which writes chunk by chunk, refuses it too, and is
                    // not sent it, so the state after the step is the state
                    // before it on both sides.
                    Err(StripeError::Flash(FlashError::DeviceFull { .. })) => {
                        self.met(ClosedForm::RefusedUnwritten);
                        prop_assert!(store(&mut self.old.clone()).is_err());
                        return self.assert_same_state();
                    }
                    Err(_) => {}
                }
                let o = store(&mut self.old);
                prop_assert_eq!(n.is_ok(), o.is_ok());
                match (n, o) {
                    (Ok(n), Ok(o)) => {
                        prop_assert_eq!(n.scheme(), o.scheme());
                        prop_assert!(n
                            .stripes()
                            .map(|s| s.as_u64())
                            .eq(o.stripes().iter().map(|s| s.as_u64())));
                        if self.live.len() == 12 {
                            self.remove(0);
                        }
                        if real {
                            self.real.insert(self.owner);
                        }
                        self.live.push((n, o));
                    }
                    (n, o) => prop_assert_eq!(shown(&n), shown(&o)),
                }
            }
            Step::Fill { over } => {
                // A replica is the whole object on every device: the store
                // leaves the tightest device less than a chunk of room, or
                // is refused there, mostly on its short last chunk.
                let chunk = self.new.chunk_size().as_bytes();
                let tightest = self
                    .devices()
                    .filter(|d| d.is_healthy())
                    .map(|d| d.available());
                let size = tightest
                    .min()
                    .map_or(0, |room| (room.as_bytes() + over).saturating_sub(chunk));
                if size > 0 {
                    return self.step(Step::Store {
                        size,
                        scheme: 3,
                        real: false,
                    });
                }
            }
            Step::Read { slot } => {
                if let Some((n, o)) = self.live.get(slot) {
                    if n.stripes().count() > 1
                        && !self.real.contains(&n.owner())
                        && self.devices().all(|d| d.serves_read_runs())
                    {
                        self.met(ClosedForm::CountedRead);
                    }
                    let width = self.devices_of(n).len();
                    let armed = self
                        .devices_of(n)
                        .iter()
                        .any(|d| d.transient_faults_armed());
                    let lost = self.lost_shares(n);
                    if !self.real.contains(&n.owner())
                        && !armed
                        && lost.is_some_and(|l| l > 0 && l <= n.scheme().failures_tolerated(width))
                    {
                        self.met(ClosedForm::DegradedCountedRead);
                    }
                    let n = self.new.read_object(n);
                    let o = self.old.read_object(o);
                    let n = n.map(|r| (r.degraded, r.completed_at, r.bytes));
                    let o = o.map(|r| (r.degraded, r.completed_at, r.bytes));
                    prop_assert_eq!(n.is_ok(), o.is_ok());
                    match (n, o) {
                        (Ok(n), Ok(o)) => prop_assert_eq!(n, o),
                        (n, o) => prop_assert_eq!(shown(&n), shown(&o)),
                    }
                }
            }
            Step::Overwrite { slot, first, span } => {
                // Size-only, so on size-only objects only: a real stripe
                // takes real payloads.
                let sized = |(n, _): &&(ObjectLayout, _)| !self.real.contains(&n.owner());
                if let Some((n, o)) = self.live.get(slot).filter(sized) {
                    let chunks = n.size().div_ceil(self.new.chunk_size());
                    let last = (first + span).min(chunks - 1);
                    if first <= last {
                        let whole = (last + 1).min(n.size() / self.new.chunk_size());
                        if whole >= first + 3
                            && n.scheme().is_replication()
                            && self.devices().all(FlashDevice::all_chunks_intact)
                        {
                            self.met(ClosedForm::LockstepOverwrite);
                        }
                        let n = self.new.overwrite_chunks(n, first..=last);
                        let o = self.old.overwrite_chunks(o, first..=last);
                        prop_assert_eq!(shown(&n), shown(&o));
                    }
                }
            }
            Step::Remove { slot } => {
                if slot < self.live.len() {
                    self.remove(slot);
                }
            }
            Step::Fail { device } => {
                if device < self.new.array().device_count() {
                    self.new.fail_device(DeviceId(device));
                    self.old.fail_device(DeviceId(device));
                }
            }
            Step::Spare { device } => {
                let device = device % self.new.array().device_count();
                self.new.replace_device(DeviceId(device));
                self.old.replace_device(DeviceId(device));
                // Rebuild what can be rebuilt; drop what cannot.
                for slot in (0..self.live.len()).rev() {
                    let (n, o) = &self.live[slot];
                    if self.lost_shares(n).is_some() {
                        self.met(ClosedForm::ShareStatus);
                    }
                    let status = self.new.object_status(n);
                    prop_assert_eq!(shown(&status), shown(&self.old.object_status(o)));
                    let keep = match status {
                        Ok(ObjectStatus::Intact) => true,
                        Ok(ObjectStatus::Degraded) => {
                            let spare = self.new.array().device(DeviceId(device));
                            let mut stripes = n.stripes().map(|s| ChunkHandle::new(s.as_u64()));
                            if !self.real.contains(&n.owner())
                                && n.stripes().count() > 1
                                && self.devices_of(n).iter().any(|d| d.id() == spare.id())
                                && !stripes.any(|h| spare.holds_chunk(h))
                            {
                                self.met(ClosedForm::RebuildRun);
                            }
                            let n = self.new.rebuild_object(n);
                            let o = self.old.rebuild_object(o);
                            prop_assert_eq!(shown(&n), shown(&o));
                            n.is_ok()
                        }
                        Ok(ObjectStatus::Lost) | Err(_) => false,
                    };
                    if !keep {
                        self.remove(slot);
                    }
                }
            }
            Step::Corrupt { slot, chunk } => {
                if let Some((n, o)) = self.live.get(slot) {
                    if chunk < n.size().div_ceil(self.new.chunk_size()) {
                        self.new.corrupt_data_chunk(n, chunk).expect("live layout");
                        self.old.corrupt_data_chunk(o, chunk).expect("live layout");
                    }
                }
            }
            Step::LatentCorruption => {
                let n = self.new.inject_latent_corruption(&mut self.new_plan, 0.02);
                let o = self.old.inject_latent_corruption(&mut self.old_plan, 0.02);
                prop_assert_eq!(n, o);
            }
            Step::ArmTransient { rate_pct } => {
                // Below 10 % disarms: sequences also return to the shortcut.
                let rate = if rate_pct < 10 {
                    0.0
                } else {
                    f64::from(rate_pct) / 100.0
                };
                self.new.arm_transient_faults(&mut self.new_plan, rate);
                self.old.arm_transient_faults(&mut self.old_plan, rate);
            }
            Step::Slow { device, tenths } => {
                let device = device % self.new.array().device_count();
                let factor = f64::from(tenths) / 10.0;
                self.new
                    .slow_device(&mut self.new_plan, DeviceId(device), factor);
                self.old
                    .slow_device(&mut self.old_plan, DeviceId(device), factor);
            }
            Step::CrashAndReplay => {
                // Journal every live object, lose the DRAM side, replay and
                // sweep the orphans, as a target's restore does. Each side
                // installs its own export: the extent side records how an
                // object was placed, the reference where every chunk went,
                // and both must come back naming the same chunks, and
                // collect the same orphans.
                let blobs: Vec<(Vec<u8>, Vec<u8>)> = self
                    .live
                    .iter()
                    .map(|(n, o)| {
                        let n = self.new.export_object_meta(n).expect("live layout");
                        (n, self.old.export_object_meta(o).expect("live layout"))
                    })
                    .collect();
                self.new.simulate_crash();
                self.old.simulate_crash();
                self.next_stripe = 0;
                for ((was, _), (n, o)) in std::mem::take(&mut self.live).iter().zip(blobs) {
                    let n = self.new.install_object_meta(&n).expect("own export");
                    let o = self.old.install_object_meta(&o).expect("own export");
                    prop_assert_eq!(
                        (n.owner(), n.size(), n.scheme()),
                        (was.owner(), was.size(), was.scheme())
                    );
                    prop_assert!(n.stripes().eq(was.stripes()));
                    let end = n.stripes().last().expect("a stripe").as_u64() + 1;
                    self.next_stripe = self.next_stripe.max(end);
                    self.live.push((n, o));
                }
                let refs = self.new.chunk_refs();
                prop_assert_eq!(
                    self.new.remove_unreferenced_chunks(&refs),
                    self.old.remove_unreferenced_chunks()
                );
            }
        }
        self.assert_same_state()
    }
}

/// One seeded sequence of steps on `width` devices: the twins must agree
/// after every step, and again once everything is removed.
fn run_sequence(steps: &[Step], seed: u64, width: usize) -> Result<(), TestCaseError> {
    let mut twins = Twins::new(seed, width);
    for (i, step) in steps.iter().enumerate() {
        if let Err(e) = twins.step(step.clone()) {
            let from = i.saturating_sub(8);
            return Err(TestCaseError::fail(format!(
                "{e:?} after step {i} of {:?}",
                &steps[from..=i]
            )));
        }
    }
    while !twins.live.is_empty() {
        twins.remove(0);
    }
    twins.assert_same_state()?;
    prop_assert_eq!(twins.new.usage().total(), ByteSize::ZERO);
    Ok(())
}

/// Hand-written sequences on four devices, one per closed form, each with
/// device 0 slowed to half speed before anything else happens: whatever
/// the generated cases reach, every form is reached by construction.
fn fixed_sequences() -> [(ClosedForm, Vec<Step>); 6] {
    let slow = Step::Slow {
        device: 0,
        tenths: 20,
    };
    // Five parity stripes (3+1) and thirteen replicated chunks, size-only.
    let parity = Step::Store {
        size: 200_000,
        scheme: 1,
        real: false,
    };
    let replicated = Step::Store {
        size: 200_000,
        scheme: 3,
        real: false,
    };
    let whole = Step::Overwrite {
        slot: 0,
        first: 0,
        span: 39,
    };
    let read = Step::Read { slot: 0 };
    let (fail, spare) = (Step::Fail { device: 1 }, Step::Spare { device: 1 });
    [
        (
            ClosedForm::RefusedUnwritten,
            vec![slow.clone(), Step::Fill { over: 20 * 1024 }],
        ),
        (
            ClosedForm::LockstepOverwrite,
            vec![slow.clone(), replicated.clone(), whole],
        ),
        (
            ClosedForm::CountedRead,
            vec![slow.clone(), parity.clone(), read.clone()],
        ),
        (
            ClosedForm::DegradedCountedRead,
            vec![slow.clone(), parity.clone(), fail.clone(), read],
        ),
        (
            ClosedForm::ShareStatus,
            vec![slow.clone(), parity, fail.clone(), spare.clone()],
        ),
        (ClosedForm::RebuildRun, vec![slow, replicated, fail, spare]),
    ]
}

/// Runs [`fixed_sequences`], and fails unless each met its closed form
/// with a slowed device.
fn run_fixed_sequences() {
    for (form, steps) in fixed_sequences() {
        let slowed = || MET[form as usize][1].load(Ordering::Relaxed);
        let before = slowed();
        if let Err(e) = run_sequence(&steps, 7, 4) {
            panic!("the fixed {form:?} sequence: {e:?}");
        }
        assert!(slowed() > before, "the fixed {form:?} sequence missed it");
    }
}

/// Fails unless every closed form's precondition was met, and met with a
/// slowed device.
fn assert_every_closed_form_met() {
    let met = MET
        .each_ref()
        .map(|row| row.each_ref().map(|n| n.load(Ordering::Relaxed)));
    println!("closed forms met (all, slowed): {met:?}");
    assert!(
        met.iter().flatten().all(|&n| n > 0),
        "a closed form was never reached: {met:?}"
    );
}

/// The same seeded sequence of stores (size-only and with real payloads, on
/// one array), reads, overwrites, removals, device failures, spares and
/// rebuilds, corruptions, transient faults, slow devices and crash replays
/// — on one to eight devices — leaves the
/// extent-and-run manager and the per-chunk reference in the same
/// simulation after every step: every completion instant, error and byte
/// read, every device's counters, horizon and chunks, the byte accounting,
/// the retry count and the chunks the stripe metadata references and the
/// orphans a crash's sweep collects. And the run reaches what it guards:
/// each closed form's precondition was met, and met with a slowed device —
/// by [`fixed_sequences`] first, then by the generated cases.
#[test]
fn extent_runs_match_the_per_chunk_reference() {
    run_fixed_sequences();
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        fn sequences(
            steps in proptest::collection::vec(arb_step(), 1..120),
            seed: u64,
            width in 1usize..=8,
        ) {
            run_sequence(&steps, seed, width)?;
        }
    }
    sequences();
    assert_every_closed_form_met();
}

/// [`extent_runs_match_the_per_chunk_reference`] at 2,000 sequences, the
/// first 128 of them its own: a long slice for the optimised build, where
/// the debug re-probes behind the closed forms are compiled out.
#[test]
#[ignore = "a long slice: run in release with --ignored"]
fn extent_runs_match_the_per_chunk_reference_at_length() {
    run_fixed_sequences();
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        fn sequences(
            steps in proptest::collection::vec(arb_step(), 1..120),
            seed: u64,
            width in 1usize..=8,
        ) {
            run_sequence(&steps, seed, width)?;
        }
    }
    sequences();
    assert_every_closed_form_met();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever happens — stores, removals, failures, spares, rebuilds,
    /// overwrites — the manager's byte accounting never goes negative,
    /// its status reports never panic, simulated time never rewinds, a
    /// crash at any step is swept as the expanded pairs say, and removing
    /// everything at the end returns the accounting to zero.
    #[test]
    fn random_ops_preserve_invariants(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let mut mgr = StripeManager::new(test_array(5), ByteSize::from_kib(16));
        let mut live: Vec<ObjectLayout> = Vec::new();
        let mut owner = 0u64;
        let mut last_time = mgr.array().clock().now();

        for op in ops {
            match op {
                Op::Store { size_kib, scheme } => {
                    owner += 1;
                    match mgr.store_object(
                        owner,
                        ByteSize::from_kib(size_kib),
                        scheme_of(scheme),
                        None,
                    ) {
                        Ok(layout) => {
                            if live.len() < 16 {
                                live.push(layout);
                            } else {
                                let removed = live.swap_remove(0);
                                mgr.remove_object(&removed);
                                live.push(layout);
                            }
                        }
                        Err(StripeError::Flash(_)) | Err(StripeError::NoHealthyDevices) => {}
                        Err(e) => return Err(TestCaseError::fail(format!("store: {e}"))),
                    }
                }
                Op::Read { slot } => {
                    if let Some(layout) = live.get(slot) {
                        match mgr.read_object(layout) {
                            Ok(_) | Err(StripeError::ObjectLost { .. }) => {}
                            Err(StripeError::Flash(_)) => {}
                            Err(e) => return Err(TestCaseError::fail(format!("read: {e}"))),
                        }
                    }
                }
                Op::Remove { slot } => {
                    if slot < live.len() {
                        let layout = live.swap_remove(slot);
                        mgr.remove_object(&layout);
                    }
                }
                Op::FailDevice { device } => {
                    mgr.fail_device(DeviceId(device));
                }
                Op::ReplaceAndRebuild { device } => {
                    mgr.replace_device(DeviceId(device));
                    // Rebuild what can be rebuilt; drop what cannot.
                    let mut keep = Vec::new();
                    for layout in live.drain(..) {
                        match mgr.object_status(&layout) {
                            Ok(ObjectStatus::Lost) | Err(_) => {
                                mgr.remove_object(&layout);
                            }
                            Ok(ObjectStatus::Degraded) => {
                                match mgr.rebuild_object(&layout) {
                                    Ok(_) => keep.push(layout),
                                    Err(_) => {
                                        mgr.remove_object(&layout);
                                    }
                                }
                            }
                            Ok(ObjectStatus::Intact) => keep.push(layout),
                        }
                    }
                    live = keep;
                }
                Op::Overwrite { slot, chunk } => {
                    if let Some(layout) = live.get(slot) {
                        let chunks = layout.size().div_ceil(mgr.chunk_size());
                        if chunk < chunks {
                            match mgr.overwrite_chunk(layout, chunk, None) {
                                Ok(_)
                                | Err(StripeError::ObjectLost { .. })
                                | Err(StripeError::Flash(_)) => {}
                                Err(e) => {
                                    return Err(TestCaseError::fail(format!("overwrite: {e}")))
                                }
                            }
                        }
                    }
                }
            }

            // Invariants that must hold after every step.
            let now = mgr.array().clock().now();
            prop_assert!(now >= last_time, "simulated time went backwards");
            last_time = now;
            let usage = mgr.usage();
            prop_assert!(usage.total() >= usage.user_bytes);
            let eff = usage.space_efficiency();
            prop_assert!((0.0..=1.0).contains(&eff), "efficiency {eff} out of range");
            for layout in &live {
                // Status must be computable for every live object.
                prop_assert!(mgr.object_status(layout).is_ok());
            }
            recovery_sweeps_match_the_expanded_pairs(&mgr, &live)?;
        }

        // Drain: all accounting returns to zero.
        for layout in live.drain(..) {
            mgr.remove_object(&layout);
        }
        prop_assert_eq!(mgr.usage().total(), ByteSize::ZERO);
        prop_assert_eq!(mgr.stripe_count(), 0);
    }

    /// Real payloads survive any single-device failure for every scheme
    /// that tolerates one, across random sizes.
    #[test]
    fn single_failure_payload_integrity(
        size in 1usize..100_000,
        victim in 0usize..5,
        scheme in 1u8..4,
        seed: u64,
    ) {
        let mut mgr = StripeManager::new(test_array(5), ByteSize::from_kib(8));
        let data: Vec<u8> = (0..size)
            .map(|i| (seed.wrapping_add(i as u64).wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        let layout = mgr
            .store_object(1, ByteSize::from_bytes(size as u64), scheme_of(scheme), Some(&data))
            .expect("store");
        mgr.fail_device(DeviceId(victim));
        let out = mgr.read_object(&layout).expect("schemes with k >= 1 survive one failure");
        prop_assert_eq!(out.bytes.as_deref(), Some(&data[..]));
    }

    /// The Reed–Solomon tolerance boundary is exact: corrupting any
    /// subset of a stripe's data chunks no larger than its parity count
    /// `m` reads back byte-for-byte; any larger subset errors out —
    /// never silently wrong data.
    #[test]
    fn parity_tolerance_boundary_is_exact(
        m in 1u8..3,
        mask in 0u32..32,
        seed: u64,
    ) {
        let mut mgr = StripeManager::new(test_array(5), ByteSize::from_kib(8));
        // Size the object to exactly one full (5 - m) + m stripe.
        let data_chunks = 5 - m as usize;
        let size = data_chunks * 8 * 1024;
        let data: Vec<u8> = (0..size)
            .map(|i| (seed.wrapping_add(i as u64).wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        let layout = mgr
            .store_object(
                1,
                ByteSize::from_bytes(size as u64),
                RedundancyScheme::parity(m),
                Some(&data),
            )
            .expect("store");

        let victims: Vec<u64> = (0..data_chunks as u64)
            .filter(|i| mask & (1 << i) != 0)
            .collect();
        for &v in &victims {
            mgr.corrupt_data_chunk(&layout, v).expect("corrupt");
        }

        match mgr.read_object(&layout) {
            Ok(out) => {
                prop_assert!(
                    victims.len() <= m as usize,
                    "{} corruptions must exceed {} parity",
                    victims.len(),
                    m
                );
                prop_assert_eq!(out.bytes.as_deref(), Some(&data[..]));
                prop_assert_eq!(out.degraded, !victims.is_empty());
            }
            Err(StripeError::ObjectLost { .. }) => {
                prop_assert!(
                    victims.len() > m as usize,
                    "{} corruptions within {} parity must be repairable",
                    victims.len(),
                    m
                );
            }
            Err(e) => return Err(TestCaseError::fail(format!("read: {e}"))),
        }
    }
}
