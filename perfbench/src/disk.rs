//! RAM-backed files for the log and segments.
//!
//! Each name is an anonymous `memfd` file, reached by the library's own
//! `FileDevice` through its `/proc/self/fd/<n>` path: real `pread`,
//! `pwrite` and `fdatasync` syscalls on a tmpfs inode. A disk-backed
//! `fdatasync` on a shared virtual disk swings by tens of percent from
//! one minute to the next, which no run length averages out; a memory
//! file keeps the force a syscall whose cost is the kernel's, not a
//! neighbour's. The files live and die with the process, so nothing is
//! written outside the working directory and nothing is left behind.

use std::collections::HashMap;
use std::ffi::{c_char, c_int, c_uint, CString};
use std::fs::File;
use std::io;
use std::os::fd::{AsRawFd, FromRawFd};
use std::sync::Mutex;

extern "C" {
    fn memfd_create(name: *const c_char, flags: c_uint) -> c_int;
}

const MFD_CLOEXEC: c_uint = 1;

/// Named memory files, created on first use.
#[derive(Default)]
pub struct Disk {
    files: Mutex<HashMap<String, File>>,
}

impl Disk {
    /// The path under which `name`'s file opens, creating it empty on
    /// first use.
    pub fn path(&self, name: &str) -> io::Result<String> {
        let mut files = self.files.lock().expect("disk table poisoned");
        let file = match files.get(name) {
            Some(f) => f,
            None => files.entry(name.to_string()).or_insert(memfd(name)?),
        };
        Ok(format!("/proc/self/fd/{}", file.as_raw_fd()))
    }

    /// Forgets every file. Devices still open keep their file alive until
    /// they close; the next [`Disk::path`] of a name starts empty.
    pub fn clear(&self) {
        self.files.lock().expect("disk table poisoned").clear();
    }
}

fn memfd(name: &str) -> io::Result<File> {
    let c_name = CString::new(name).map_err(io::Error::other)?;
    // SAFETY: `c_name` is NUL-terminated and outlives the call.
    let fd = unsafe { memfd_create(c_name.as_ptr(), MFD_CLOEXEC) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: `fd` is a fresh descriptor this process owns and nothing
    // else will close.
    Ok(unsafe { File::from_raw_fd(fd) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rvm_storage::{Device, FileDevice};

    #[test]
    fn names_map_to_shared_memory_files_until_cleared() {
        let disk = Disk::default();
        let a = FileDevice::create(disk.path("log").unwrap(), 4096).unwrap();
        a.write_at(100, b"rvm").unwrap();
        a.sync().unwrap();
        let b = FileDevice::open(disk.path("log").unwrap()).unwrap();
        let mut buf = [0u8; 3];
        b.read_at(100, &mut buf).unwrap();
        assert_eq!(&buf, b"rvm");
        assert_ne!(disk.path("seg").unwrap(), disk.path("log").unwrap());
        disk.clear();
        let c = FileDevice::open_or_create(disk.path("log").unwrap(), 0).unwrap();
        assert_eq!(c.len().unwrap(), 0, "a cleared name starts empty");
        assert_eq!(
            crate::sys::fs_kind(std::path::Path::new(&disk.path("log").unwrap())),
            "tmpfs"
        );
    }
}
