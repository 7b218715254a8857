//! Device probe: wraps the log device and every segment device the
//! library resolves, so each I/O it issues is classified by role and
//! counted. In traced runs each operation is also a span under the
//! calling thread's current call (see [`crate::trace`]).
//!
//! The probe also carries a crash fence: once [`Probe::crash`] is called,
//! every write, sync and resize through that probe fails with
//! [`DeviceError::Crashed`], so nothing the dropped instance would still
//! write (a final status block, a spool flush) reaches the files.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use rvm::log::status::STATUS_BLOCK_SIZE;
use rvm::scrub::is_sidecar;
use rvm::segment::{file_resolver, DeviceResolver};
use rvm_storage::{Device, DeviceError, Result, VerifiedRead};

use crate::disk::Disk;
use crate::trace::{self, Name};

/// What a device operation carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Role {
    /// Log records.
    Log = 0,
    /// The log's dual-copy status block.
    Status = 1,
    /// External data segment pages.
    Seg = 2,
    /// Checksum-catalog sidecars (`{segment}.sums`).
    Sums = 3,
}

impl Role {
    pub const ALL: [Role; 4] = [Role::Log, Role::Status, Role::Seg, Role::Sums];
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    Read = 0,
    Write = 1,
    Sync = 2,
}

impl Op {
    pub const ALL: [Op; 3] = [Op::Read, Op::Write, Op::Sync];
}

/// Role of a log-device access starting at `offset`: the two status-block
/// copies occupy the first `2 × STATUS_BLOCK_SIZE` bytes.
pub fn log_role(offset: u64) -> Role {
    if offset < 2 * STATUS_BLOCK_SIZE {
        Role::Status
    } else {
        Role::Log
    }
}

/// Role of every access to the segment device resolved under `name`.
pub fn segment_role(name: &str) -> Role {
    if is_sidecar(name) {
        Role::Sums
    } else {
        Role::Seg
    }
}

/// Operation and byte counts per role, shared by every probed device of
/// a run. Relaxed: the cells publish nothing; readers diff snapshots
/// taken at quiescent points.
#[derive(Debug, Default)]
pub struct Counters {
    calls: [[AtomicU64; 3]; 4],
    bytes: [[AtomicU64; 3]; 4],
}

impl Counters {
    fn add(&self, role: Role, op: Op, bytes: u64) {
        self.calls[role as usize][op as usize].fetch_add(1, Ordering::Relaxed);
        self.bytes[role as usize][op as usize].fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> DevCounts {
        let load = |a: &[[AtomicU64; 3]; 4]| {
            std::array::from_fn(|r| std::array::from_fn(|o| a[r][o].load(Ordering::Relaxed)))
        };
        DevCounts {
            calls: load(&self.calls),
            bytes: load(&self.bytes),
        }
    }
}

/// A copy of [`Counters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DevCounts {
    calls: [[u64; 3]; 4],
    bytes: [[u64; 3]; 4],
}

impl DevCounts {
    fn zip(&self, other: &DevCounts, f: impl Fn(u64, u64) -> u64) -> DevCounts {
        let z = |a: &[[u64; 3]; 4], b: &[[u64; 3]; 4]| {
            std::array::from_fn(|r| std::array::from_fn(|o| f(a[r][o], b[r][o])))
        };
        DevCounts {
            calls: z(&self.calls, &other.calls),
            bytes: z(&self.bytes, &other.bytes),
        }
    }

    pub fn since(&self, earlier: &DevCounts) -> DevCounts {
        self.zip(earlier, |a, b| a - b)
    }

    pub fn plus(&self, other: &DevCounts) -> DevCounts {
        self.zip(other, |a, b| a + b)
    }

    pub fn calls(&self, role: Role, op: Op) -> u64 {
        self.calls[role as usize][op as usize]
    }

    pub fn bytes(&self, role: Role, op: Op) -> u64 {
        self.bytes[role as usize][op as usize]
    }

    /// Bytes written to every device, all roles.
    pub fn written(&self) -> u64 {
        Role::ALL.iter().map(|&r| self.bytes(r, Op::Write)).sum()
    }
}

/// The counters and crash fence for the devices of one RVM instance.
#[derive(Clone)]
pub struct Probe {
    counters: Arc<Counters>,
    fence: Arc<AtomicBool>,
}

impl Probe {
    pub fn new(counters: Arc<Counters>) -> Self {
        Self {
            counters,
            fence: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Fails every later write, sync and resize through this probe, as a
    /// machine crash would.
    pub fn crash(&self) {
        self.fence.store(true, Ordering::SeqCst);
    }

    /// Wraps the log device.
    pub fn log(&self, inner: Arc<dyn Device>) -> Arc<dyn Device> {
        self.wrap(inner, None)
    }

    /// A resolver that opens segment `name` as the file `disk` holds
    /// under that name, through the library's own file resolver, and
    /// probes it.
    pub fn resolver(&self, disk: Arc<Disk>) -> DeviceResolver {
        let inner = file_resolver();
        let probe = self.clone();
        Arc::new(move |name: &str, min_len: u64| {
            let dev = inner(&disk.path(name)?, min_len)?;
            Ok(probe.wrap(dev, Some(segment_role(name))))
        })
    }

    fn wrap(&self, inner: Arc<dyn Device>, fixed_role: Option<Role>) -> Arc<dyn Device> {
        Arc::new(ProbeDevice {
            inner,
            fixed_role,
            probe: self.clone(),
            last_write: AtomicU8::new(Role::Log as u8),
        })
    }
}

struct ProbeDevice {
    inner: Arc<dyn Device>,
    /// `None` for the log device, whose role depends on the offset.
    fixed_role: Option<Role>,
    probe: Probe,
    /// Role of the latest write, which a following sync is charged to.
    last_write: AtomicU8,
}

impl ProbeDevice {
    fn role_at(&self, offset: u64) -> Role {
        self.fixed_role.unwrap_or_else(|| log_role(offset))
    }

    fn sync_role(&self) -> Role {
        match self.fixed_role {
            Some(role) => role,
            None if self.last_write.load(Ordering::Relaxed) == Role::Status as u8 => Role::Status,
            None => Role::Log,
        }
    }

    fn check_fence(&self) -> Result<()> {
        if self.probe.fence.load(Ordering::SeqCst) {
            Err(DeviceError::Crashed)
        } else {
            Ok(())
        }
    }

    fn io<T>(&self, role: Role, op: Op, bytes: u64, f: impl FnOnce() -> Result<T>) -> Result<T> {
        self.probe.counters.add(role, op, bytes);
        trace::span(Name::Dev(role, op), 0, f)
    }
}

impl Device for ProbeDevice {
    fn len(&self) -> Result<u64> {
        self.inner.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let len = buf.len() as u64;
        self.io(self.role_at(offset), Op::Read, len, || {
            self.inner.read_at(offset, buf)
        })
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.check_fence()?;
        let role = self.role_at(offset);
        self.last_write.store(role as u8, Ordering::Relaxed);
        self.io(role, Op::Write, data.len() as u64, || {
            self.inner.write_at(offset, data)
        })
    }

    fn sync(&self) -> Result<()> {
        self.check_fence()?;
        self.io(self.sync_role(), Op::Sync, 0, || self.inner.sync())
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.check_fence()?;
        self.inner.set_len(len)
    }

    fn read_verified(
        &self,
        offset: u64,
        buf: &mut [u8],
        verify: &(dyn Fn(&[u8]) -> bool + Sync),
    ) -> Result<VerifiedRead> {
        let len = buf.len() as u64;
        self.io(self.role_at(offset), Op::Read, len, || {
            self.inner.read_verified(offset, buf, verify)
        })
    }

    fn replica_health(&self) -> Option<(usize, usize)> {
        self.inner.replica_health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvm_storage::MemDevice;

    #[test]
    fn log_offsets_below_the_two_status_copies_are_status() {
        assert_eq!(log_role(0), Role::Status);
        assert_eq!(log_role(STATUS_BLOCK_SIZE), Role::Status);
        assert_eq!(log_role(2 * STATUS_BLOCK_SIZE - 1), Role::Status);
        assert_eq!(log_role(2 * STATUS_BLOCK_SIZE), Role::Log);
    }

    #[test]
    fn sidecars_are_sums_and_everything_else_is_seg() {
        assert_eq!(segment_role("tpca.seg"), Role::Seg);
        assert_eq!(segment_role("tpca.seg.sums"), Role::Sums);
        assert_eq!(segment_role(&rvm::scrub::sidecar_name("x")), Role::Sums);
    }

    #[test]
    fn log_device_counts_by_role_and_charges_syncs_to_the_last_write() {
        let counters = Arc::new(Counters::default());
        let probe = Probe::new(counters.clone());
        let dev = probe.log(Arc::new(MemDevice::with_len(1 << 20)));
        dev.write_at(0, &[1; 512]).unwrap();
        dev.sync().unwrap();
        dev.write_at(2 * STATUS_BLOCK_SIZE, &[2; 1024]).unwrap();
        dev.sync().unwrap();
        dev.read_at(STATUS_BLOCK_SIZE, &mut [0; 64]).unwrap();
        let c = counters.snapshot();
        assert_eq!(c.bytes(Role::Status, Op::Write), 512);
        assert_eq!(c.calls(Role::Status, Op::Sync), 1);
        assert_eq!(c.bytes(Role::Log, Op::Write), 1024);
        assert_eq!(c.calls(Role::Log, Op::Sync), 1);
        assert_eq!(c.bytes(Role::Status, Op::Read), 64);
        assert_eq!(c.written(), 1536);
    }

    #[test]
    fn resolver_classifies_segments_and_sidecars() {
        let counters = Arc::new(Counters::default());
        let resolve = Probe::new(counters.clone()).resolver(Arc::new(Disk::default()));
        resolve("s", 4096).unwrap().write_at(0, &[1; 100]).unwrap();
        resolve("s.sums", 64)
            .unwrap()
            .write_at(0, &[1; 10])
            .unwrap();
        let c = counters.snapshot();
        assert_eq!(c.bytes(Role::Seg, Op::Write), 100);
        assert_eq!(c.bytes(Role::Sums, Op::Write), 10);
    }

    #[test]
    fn a_crashed_probe_refuses_writes_but_serves_reads() {
        let probe = Probe::new(Arc::new(Counters::default()));
        let dev = probe.log(Arc::new(MemDevice::with_len(1 << 16)));
        probe.crash();
        assert!(matches!(dev.write_at(0, &[1]), Err(DeviceError::Crashed)));
        assert!(matches!(dev.sync(), Err(DeviceError::Crashed)));
        dev.read_at(0, &mut [0; 8]).unwrap();
    }
}
