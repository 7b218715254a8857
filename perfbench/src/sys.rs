//! Process and host facts from libc, which the standard library already
//! links: CPU time and peak RSS (`getrusage`), the filesystem kind of the
//! data files (`statfs`) and the host name (`gethostname`); and the one
//! allocator setting the benchmark fixes (`mallopt`).

use std::ffi::{c_char, c_int, c_long, CString};
use std::path::Path;

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` on Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    _rest: [c_long; 13],
}

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn statfs(path: *const c_char, buf: *mut c_long) -> c_int;
    fn gethostname(name: *mut c_char, len: usize) -> c_int;
    fn mallopt(param: c_int, value: c_int) -> c_int;
}

const M_MMAP_THRESHOLD: c_int = -3;

/// Serves every allocation of 1 MiB or more (regions, recovery buffers)
/// with its own mapping, returned to the system when freed. By default
/// glibc raises this threshold after the first such free, and whether a
/// freed 8 MiB region is kept or returned then varies from run to run,
/// moving peak RSS in 8 MiB steps that say nothing about the library.
pub fn fix_mmap_threshold() {
    // SAFETY: mallopt only changes allocator tuning; called before any
    // thread starts.
    let ok = unsafe { mallopt(M_MMAP_THRESHOLD, 1 << 20) };
    assert_eq!(ok, 1, "mallopt(M_MMAP_THRESHOLD) rejected");
}

fn rusage() -> Rusage {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `ru` is a properly aligned, writable `struct rusage` with
    // the Linux layout, and getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    ru
}

/// User plus system CPU seconds the process has used.
pub fn cpu_seconds() -> f64 {
    let ru = rusage();
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&ru.ru_utime) + secs(&ru.ru_stime)
}

/// Peak resident set size of the process, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().ru_maxrss as f64 / 1024.0
}

/// The kind of filesystem holding `path`, from its `statfs` magic.
pub fn fs_kind(path: &Path) -> String {
    let Some(c_path) = path.to_str().and_then(|p| CString::new(p).ok()) else {
        return "unknown".into();
    };
    // `struct statfs` is 120 bytes on 64-bit Linux and begins with the
    // `f_type` word; the buffer is larger than any layout.
    let mut buf = [0 as c_long; 32];
    // SAFETY: `c_path` is NUL-terminated and `buf` is writable and larger
    // than `struct statfs`.
    if unsafe { statfs(c_path.as_ptr(), buf.as_mut_ptr()) } != 0 {
        return "unknown".into();
    }
    match buf[0] as u32 {
        0xEF53 => "ext4".into(),
        0x0102_1994 => "tmpfs".into(),
        0x794C_7630 => "overlayfs".into(),
        0x5846_5342 => "xfs".into(),
        0x9123_683E => "btrfs".into(),
        0x6969 => "nfs".into(),
        0x0102_1997 => "9p".into(),
        magic => format!("0x{magic:x}"),
    }
}

/// The host name, or "unknown".
pub fn hostname() -> String {
    let mut buf = [0u8; 256];
    // SAFETY: the buffer is writable for `len - 1` bytes, leaving a NUL
    // at the end even if the name is truncated.
    let rc = unsafe { gethostname(buf.as_mut_ptr().cast(), buf.len() - 1) };
    if rc != 0 {
        return "unknown".into();
    }
    let end = buf.iter().position(|&b| b == 0).unwrap_or(buf.len());
    String::from_utf8_lossy(&buf[..end]).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_facts_are_plausible() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(!hostname().is_empty());
        assert_ne!(fs_kind(Path::new(".")), "unknown");
    }
}
