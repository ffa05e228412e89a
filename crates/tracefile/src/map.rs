//! Read-only file mapping — the zero-copy byte source under
//! [`MappedTrace`](crate::MappedTrace).
//!
//! A [`TraceMap`] hands out one `&[u8]` covering the whole file. On
//! Linux (x86_64 / aarch64) that slice is a private read-only `mmap`
//! issued directly via the `syscall` instruction — the workspace
//! vendors no `libc` — so a multi-gigabyte `.lpt` costs no heap, is
//! paged in by the decode loop's own sequential access, and is handed
//! back behind it ([`TraceMap::release`]). Everywhere
//! else, when mapping fails, or when `LIFEPRED_NO_MMAP` is set, the
//! file is read into a `Vec<u8>` instead; callers cannot observe the
//! difference except through [`TraceMap::is_mapped`].
//!
//! Safety argument for the mapped mode, in one place:
//!
//! * the mapping is `PROT_READ` + `MAP_PRIVATE`, so the memory is
//!   immutable from this process and writes by other processes to the
//!   underlying file affect only their own pages, not the private
//!   mapping's semantics we rely on (we read each byte at most a few
//!   times and CRC-verify sections up front — a concurrently truncated
//!   file can at worst SIGBUS, the same contract `memmap2` documents);
//! * the pointer/length pair never outlives the [`TraceMap`]; borrowed
//!   section slices carry its lifetime, so `munmap` in `Drop` cannot
//!   race a live reader;
//! * [`TraceMap::release`] (`madvise(MADV_DONTNEED)`) only drops this
//!   process's page-table entries for part of the mapping, clamped to
//!   it. The pages were never written (`PROT_READ`), so no private copy
//!   exists to lose: the next read of a released byte faults the same
//!   file page back in, and a live `&[u8]` over it sees the same bytes.
//!   If the file changed underneath meanwhile, the re-read sees the
//!   change — the contract the mapping already has under concurrent
//!   modification, not a new one;
//! * `u8` has alignment 1, so any page-aligned base is aligned for the
//!   slice — multi-byte loads in the decoder go through
//!   `from_le_bytes` on byte slices, never through `&u64` casts.

#![allow(unsafe_code)]

use std::fs::File;
use std::io::{self, Read};
use std::ops::Range;
use std::path::Path;

/// Environment variable that forces the heap fallback: for exercising
/// both code paths in CI, for debugging, and for reading a file another
/// process may truncate (a mapping shrunk underneath its reader raises
/// SIGBUS; a heap copy made at open cannot).
pub(crate) const NO_MMAP_ENV: &str = "LIFEPRED_NO_MMAP";

/// Granularity of [`TraceMap::release`]: a multiple of every page size
/// the supported targets run with (4 KiB on x86_64, up to 64 KiB on
/// aarch64).
const RELEASE_ALIGN: usize = 64 << 10;

/// A whole file as one immutable byte slice: `mmap`-backed when the
/// platform supports it, a heap copy otherwise.
#[derive(Debug)]
pub struct TraceMap {
    /// `Some` in fallback mode; the slice is borrowed from this vec.
    heap: Option<Vec<u8>>,
    /// Base of the mapping (dangling in fallback mode, never read).
    ptr: *const u8,
    /// Byte length of the mapping.
    len: usize,
}

// SAFETY: the mapped bytes are immutable for the life of the value
// (PROT_READ, and no API exposes mutation; `release` drops page-table
// entries only, and the bytes fault back unchanged), so shared
// references can cross threads; the munmap in Drop requires exclusive
// ownership, which the borrow checker already guarantees.
unsafe impl Send for TraceMap {}
// SAFETY: as above — &TraceMap only permits reads of immutable memory.
unsafe impl Sync for TraceMap {}

impl TraceMap {
    /// Opens `path`, mapping it when possible and falling back to a
    /// full read into memory otherwise (unsupported platform, empty
    /// file, mapping failure, or `LIFEPRED_NO_MMAP` set).
    ///
    /// # Errors
    ///
    /// Any I/O error opening or reading the file.
    pub(crate) fn open(path: impl AsRef<Path>) -> io::Result<TraceMap> {
        let mut file = File::open(path)?;
        let len = file.metadata()?.len();
        if let Ok(len) = usize::try_from(len) {
            if len > 0 && std::env::var_os(NO_MMAP_ENV).is_none() {
                if let Some(ptr) = sys::map(&file, len) {
                    return Ok(TraceMap {
                        heap: None,
                        ptr,
                        len,
                    });
                }
            }
        }
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        Ok(TraceMap::from_vec(bytes))
    }

    /// Wraps an in-memory image (always heap mode). Useful for tests
    /// and for decoding images that were never written to disk.
    pub fn from_vec(bytes: Vec<u8>) -> TraceMap {
        TraceMap {
            ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
            len: bytes.len(),
            heap: Some(bytes),
        }
    }

    /// The file contents.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        match &self.heap {
            Some(bytes) => bytes,
            // SAFETY: in mapped mode `ptr` is the non-null base of a
            // live PROT_READ mapping of exactly `len` bytes (unmapped
            // only in Drop), and `u8` needs no alignment.
            None => unsafe { std::slice::from_raw_parts(self.ptr, self.len) },
        }
    }

    /// Length of the file in bytes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// `true` when the bytes come from an `mmap` rather than a heap
    /// copy.
    pub(crate) fn is_mapped(&self) -> bool {
        self.heap.is_none()
    }

    /// Drops the resident pages of file bytes `range` from this
    /// process, for a reader that has moved past them. Both ends round
    /// down to a 64 KiB boundary (the start never below the mapping),
    /// so back-to-back calls over adjacent ranges leave no gap and no
    /// byte at or past `range.end` is dropped. Reading a released byte
    /// again faults it back in from the file (see the module doc). A
    /// no-op in heap mode.
    pub(crate) fn release(&self, range: Range<usize>) {
        if self.heap.is_some() {
            return;
        }
        let base = self.ptr as usize;
        let align_down = |offset: usize| (base + offset.min(self.len)) & !(RELEASE_ALIGN - 1);
        let (start, end) = (align_down(range.start).max(base), align_down(range.end));
        if start < end {
            sys::release(start, end - start);
        }
    }
}

impl Drop for TraceMap {
    fn drop(&mut self) {
        if self.heap.is_none() {
            sys::unmap(self.ptr, self.len);
        }
    }
}

/// Raw `mmap`/`munmap`/`madvise` syscalls for the supported Linux
/// targets.
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use std::fs::File;
    use std::os::fd::AsRawFd;

    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;
    const MADV_DONTNEED: usize = 4;

    #[cfg(target_arch = "x86_64")]
    const SYS_MMAP: usize = 9;
    #[cfg(target_arch = "x86_64")]
    const SYS_MUNMAP: usize = 11;
    #[cfg(target_arch = "x86_64")]
    const SYS_MADVISE: usize = 28;
    #[cfg(target_arch = "aarch64")]
    const SYS_MMAP: usize = 222;
    #[cfg(target_arch = "aarch64")]
    const SYS_MUNMAP: usize = 215;
    #[cfg(target_arch = "aarch64")]
    const SYS_MADVISE: usize = 233;

    /// Issues a raw 6-argument syscall. Returns the kernel's value;
    /// errors are encoded as `-errno` in `[-4095, -1]`.
    fn syscall6(nr: usize, a: usize, b: usize, c: usize, d: usize, e: usize, f: usize) -> isize {
        let ret: isize;
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the `syscall` instruction with the Linux x86_64 ABI
        // (nr in rax, args in rdi/rsi/rdx/r10/r8/r9) clobbers only
        // rcx/r11/flags, all declared; no memory is written by the
        // calls this module issues beyond kernel-managed mappings.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") nr as isize => ret,
                in("rdi") a,
                in("rsi") b,
                in("rdx") c,
                in("r10") d,
                in("r8") e,
                in("r9") f,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        #[cfg(target_arch = "aarch64")]
        // SAFETY: `svc 0` with the Linux aarch64 ABI (nr in x8, args
        // in x0..x5, return in x0); no registers beyond the declared
        // operands are clobbered.
        unsafe {
            core::arch::asm!(
                "svc 0",
                in("x8") nr,
                inlateout("x0") a => ret,
                in("x1") b,
                in("x2") c,
                in("x3") d,
                in("x4") e,
                in("x5") f,
                options(nostack),
            );
        }
        ret
    }

    /// Maps `len` bytes of `file` read-only/private; `None` on any
    /// kernel error (the caller falls back to a heap read).
    pub(super) fn map(file: &File, len: usize) -> Option<*const u8> {
        let fd = file.as_raw_fd();
        let ret = syscall6(SYS_MMAP, 0, len, PROT_READ, MAP_PRIVATE, fd as usize, 0);
        if (-4095..0).contains(&ret) {
            return None;
        }
        Some(ret as *const u8)
    }

    /// Unmaps a mapping produced by [`map`].
    pub(super) fn unmap(ptr: *const u8, len: usize) {
        // A munmap failure here would mean the pointer/length pair was
        // not a live mapping — a bug upstream; leaking the mapping is
        // the only safe response in Drop, so the result is ignored.
        let _ = syscall6(SYS_MUNMAP, ptr as usize, len, 0, 0, 0, 0);
    }

    /// `madvise(MADV_DONTNEED)` over `len` bytes at the page-aligned
    /// `addr`, inside a mapping produced by [`map`].
    pub(super) fn release(addr: usize, len: usize) {
        // Advice only: a failure leaves the pages resident, which is
        // what not asking would have done, so the result is ignored.
        let _ = syscall6(SYS_MADVISE, addr, len, MADV_DONTNEED, 0, 0, 0);
    }
}

/// Fallback for platforms without a raw-syscall mmap port: `map` never
/// succeeds, so every open takes the heap path.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    use std::fs::File;

    pub(super) fn map(_file: &File, _len: usize) -> Option<*const u8> {
        None
    }

    pub(super) fn unmap(_ptr: *const u8, _len: usize) {
        unreachable!("no mapping can exist on this platform");
    }

    pub(super) fn release(_addr: usize, _len: usize) {
        unreachable!("no mapping can exist on this platform");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// A file path in a directory of the test's own, which is removed
    /// with everything in it when the value drops, pass or fail.
    struct TempFile {
        dir: std::path::PathBuf,
        path: std::path::PathBuf,
    }

    impl TempFile {
        fn new(name: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("lpt-map-{}-{name}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("tempdir");
            let path = dir.join(name);
            TempFile { dir, path }
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    #[test]
    fn maps_a_file_and_reads_it_back() {
        let file = TempFile::new("mapped.bin");
        let path = &file.path;
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        File::create(path)
            .and_then(|mut f| f.write_all(&data))
            .expect("write");
        let map = TraceMap::open(path).expect("open");
        assert_eq!(map.len(), data.len());
        assert_eq!(map.as_bytes(), &data[..]);
        if cfg!(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        )) && std::env::var_os(NO_MMAP_ENV).is_none()
        {
            assert!(map.is_mapped(), "expected the mmap path on this platform");
        }
    }

    #[test]
    fn released_pages_read_back_the_same_bytes() {
        let file = TempFile::new("released.bin");
        let path = &file.path;
        let data: Vec<u8> = (0..1_000_000u32).map(|i| (i % 253) as u8).collect();
        File::create(path)
            .and_then(|mut f| f.write_all(&data))
            .expect("write");
        let map = TraceMap::open(path).expect("open");
        let bytes = map.as_bytes();
        assert_eq!(bytes, &data[..]);
        let (ahead, behind) = (300_000, 200_000);
        map.release(0..map.len());
        map.release(ahead..behind);
        map.release(999_999..usize::MAX);
        assert_eq!(bytes, &data[..], "re-faulted pages hold the file's bytes");
        TraceMap::from_vec(data.clone()).release(0..data.len());
    }

    #[test]
    fn empty_files_use_the_heap_path() {
        let file = TempFile::new("empty.bin");
        let path = &file.path;
        File::create(path).expect("create");
        let map = TraceMap::open(path).expect("open");
        assert_eq!(map.len(), 0);
        assert!(!map.is_mapped());
        assert_eq!(map.as_bytes(), b"");
    }

    #[test]
    fn from_vec_is_heap_backed() {
        let map = TraceMap::from_vec(vec![1, 2, 3]);
        assert!(!map.is_mapped());
        assert_eq!(map.as_bytes(), &[1, 2, 3]);
        assert_eq!(map.len(), 3);
    }

    #[test]
    fn maps_are_sendable() {
        let file = TempFile::new("sendable.bin");
        let path = &file.path;
        File::create(path)
            .and_then(|mut f| f.write_all(b"cross-thread bytes"))
            .expect("write");
        let map = TraceMap::open(path).expect("open");
        let sum =
            std::thread::spawn(move || map.as_bytes().iter().map(|&b| u64::from(b)).sum::<u64>())
                .join()
                .expect("thread");
        assert!(sum > 0);
    }
}
