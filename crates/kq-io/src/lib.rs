//! Out-of-core byte sources: how files enter the zero-copy data plane.
//!
//! Every executor in this workspace moves payloads as [`kq_stream::Bytes`]
//! — refcounted slices whose splitters operate on raw byte ranges. Until
//! this crate, the only way *into* that plane was an O(file) heap read
//! (`std::fs::read`), which bounds the working set by RAM and pays a full
//! copy before the first chunk moves. [`read_path`] instead opens an input
//! as either:
//!
//! * a **heap buffer** — one `read` into an owned `Vec`, exactly the old
//!   behavior; right for small files, and the only choice on non-unix
//!   targets or when `mmap` fails; or
//! * a **memory-mapped region** — `mmap(PROT_READ, MAP_PRIVATE)` of the
//!   whole file plus `madvise(MADV_SEQUENTIAL)`, wrapped as a
//!   [`kq_stream::MmapRegion`]-backed `Bytes`. Ingest becomes O(1) in
//!   file size: no byte is copied or touched until a splitter or command
//!   actually reads it, and the pages are demand-paged and evictable, so
//!   multi-GB corpus files flow through the existing line-aligned
//!   splitters without ever being resident all at once.
//!
//! The choice is policy, not plumbing: [`MmapMode::Auto`] maps files at or
//! above [`IngestOptions::mmap_threshold`] (default
//! [`DEFAULT_MMAP_THRESHOLD`]) and heap-reads the rest — tiny inputs are
//! cheaper to read than to map — while `On`/`Off` force one side for
//! benchmarks and differential tests.
//!
//! # Sharp edges
//!
//! * **Length snapshot / truncation (`SIGBUS`).** The mapping covers the
//!   file's length as observed at open time. A file that *grows* later is
//!   simply seen at its snapshot length; a file **truncated** under a live
//!   map raises `SIGBUS` on the first touch past the new end. This is
//!   inherent to `mmap` and documented rather than defended against —
//!   corpus inputs are not mutated mid-run. Heap ingest is immune.
//! * **Empty files** cannot be mapped (`mmap` with length 0 is `EINVAL`);
//!   they ingest as empty heap `Bytes` even under [`MmapMode::On`].
//! * **Bytes, not text.** Ingest validates nothing: a file is a byte
//!   string, as under `LC_ALL=C`, and only the kernels that read
//!   characters decode their own input. [`read_path_text`] adds one UTF-8
//!   check for callers that want it.
//! * **Unmap lifecycle.** The map lives as long as any `Bytes` slice of
//!   it; the last drop unmaps exactly once (see `kq_stream::bytes`).

#![warn(missing_docs)]

mod lock;
mod spill;

pub use lock::FileLock;
pub use spill::RunWriter;

use kq_stream::Bytes;
use std::fs::File;
use std::io;
use std::path::Path;

/// When to memory-map an input instead of heap-reading it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MmapMode {
    /// Map files of at least [`IngestOptions::mmap_threshold`] bytes,
    /// heap-read smaller ones (the default).
    #[default]
    Auto,
    /// Always map (non-empty files; empty ones fall back to heap).
    On,
    /// Never map.
    Off,
}

impl std::str::FromStr for MmapMode {
    type Err = String;

    fn from_str(s: &str) -> Result<MmapMode, String> {
        match s {
            "auto" => Ok(MmapMode::Auto),
            "on" => Ok(MmapMode::On),
            "off" => Ok(MmapMode::Off),
            other => Err(format!("expected 'auto', 'on', or 'off', got {other:?}")),
        }
    }
}

impl std::fmt::Display for MmapMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MmapMode::Auto => "auto",
            MmapMode::On => "on",
            MmapMode::Off => "off",
        })
    }
}

/// [`MmapMode::Auto`]'s default size floor: files below 1 MiB are cheaper
/// to heap-read than to map (page-table setup plus a syscall beat a single
/// small `read` only once the copy is substantial).
pub const DEFAULT_MMAP_THRESHOLD: usize = 1 << 20;

/// Ingest policy for [`read_path`]/[`read_path_text`].
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Heap versus map decision rule.
    pub mode: MmapMode,
    /// Minimum file size [`MmapMode::Auto`] maps, in bytes.
    pub mmap_threshold: usize,
}

impl Default for IngestOptions {
    fn default() -> IngestOptions {
        IngestOptions {
            mode: MmapMode::Auto,
            mmap_threshold: DEFAULT_MMAP_THRESHOLD,
        }
    }
}

impl IngestOptions {
    /// Options with the given mode and the default threshold.
    pub fn with_mode(mode: MmapMode) -> IngestOptions {
        IngestOptions {
            mode,
            ..IngestOptions::default()
        }
    }
}

/// Opens `path` as a [`Bytes`] according to the ingest policy: a mapped
/// region (O(1), demand-paged) or a heap buffer (one full read).
///
/// Mapping failures (exotic filesystems, resource limits) fall back to the
/// heap read rather than failing the run — the map is an optimization, the
/// bytes are the contract.
pub fn read_path(path: impl AsRef<Path>, opts: &IngestOptions) -> io::Result<Bytes> {
    let path = path.as_ref();
    let file = File::open(path)?;
    // Length snapshot: the mapping (or read) covers exactly the size seen
    // here — see the module docs for the truncation caveat.
    let len = file.metadata()?.len();
    let len = usize::try_from(len)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "file exceeds address space"))?;
    let want_map = len > 0
        && match opts.mode {
            MmapMode::On => true,
            MmapMode::Off => false,
            MmapMode::Auto => len >= opts.mmap_threshold,
        };
    if want_map {
        #[cfg(unix)]
        if let Some(mapped) = map_file(&file, len, MapAdvice::Sequential) {
            kq_trace::span("ingest", "read")
                .label("map")
                .v(len as f64)
                .done();
            return Ok(mapped);
        }
    }
    let span = kq_trace::span("ingest", "read").label("heap").v(len as f64);
    let out = heap_read(file, len);
    span.done();
    out
}

/// [`read_path`] plus one `str::from_utf8` check: bytes that are not
/// UTF-8 are an `InvalidData` error. The data plane itself takes any
/// bytes; this is for callers that want text.
pub fn read_path_text(path: impl AsRef<Path>, opts: &IngestOptions) -> io::Result<Bytes> {
    let bytes = read_path(path, opts)?;
    match bytes.to_str() {
        Ok(_) => Ok(bytes),
        Err(_) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "input is not valid UTF-8",
        )),
    }
}

/// The heap side of the policy: one `read` into an owned buffer sized by
/// the length snapshot.
pub(crate) fn heap_read(mut file: File, len: usize) -> io::Result<Bytes> {
    use std::io::Read;
    let mut buf = Vec::with_capacity(len);
    file.read_to_end(&mut buf)?;
    Ok(Bytes::from(buf))
}

/// Access-pattern hint passed to [`map_file`], forwarded to `madvise`.
#[cfg(unix)]
#[derive(Clone, Copy)]
pub(crate) enum MapAdvice {
    /// Front-to-back scan: ask for aggressive read-ahead. Right for ingest
    /// maps that one splitter walks once.
    Sequential,
    /// Fine-grained interleaved access: disable read-ahead so a fault maps
    /// only the touched page. Right for spilled runs — a k-way merge reads
    /// a few lines at a time from each of many runs, and sequential
    /// read-ahead would fault large windows of *every* run resident at
    /// once, defeating the memory bound the spill exists to provide (the
    /// run bytes are fresh in the page cache anyway, so read-ahead has no
    /// latency to hide).
    Random,
}

/// Maps the whole file read-only with the given access-pattern hint.
/// `None` on any mapping failure (the caller falls back to a heap read).
#[cfg(unix)]
pub(crate) fn map_file(file: &File, len: usize, advice: MapAdvice) -> Option<Bytes> {
    use std::os::unix::io::AsRawFd;
    // SAFETY: mapping a readable fd PROT_READ/MAP_PRIVATE is always
    // memory-safe; the failure sentinel is checked before use.
    let ptr = unsafe {
        libc::mmap(
            std::ptr::null_mut(),
            len,
            libc::PROT_READ,
            libc::MAP_PRIVATE,
            file.as_raw_fd(),
            0,
        )
    };
    if ptr == libc::MAP_FAILED {
        return None;
    }
    // Best-effort kernel hint; see `MapAdvice` for which callers want
    // which pattern.
    let hint = match advice {
        MapAdvice::Sequential => libc::MADV_SEQUENTIAL,
        MapAdvice::Random => libc::MADV_RANDOM,
    };
    unsafe {
        libc::madvise(ptr, len, hint);
    }
    // SAFETY: `ptr` is a fresh successful mapping of exactly `len > 0`
    // bytes and nothing else will unmap it; the region's Drop does.
    let region = unsafe { kq_stream::MmapRegion::from_raw(ptr as *mut u8, len) };
    Some(Bytes::from_mmap_region(region))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    struct TempFile(PathBuf);

    impl TempFile {
        fn new(name: &str, content: &[u8]) -> TempFile {
            let path = std::env::temp_dir().join(format!("kq-io-{}-{name}", std::process::id()));
            std::fs::write(&path, content).unwrap();
            TempFile(path)
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    fn opts(mode: MmapMode) -> IngestOptions {
        IngestOptions::with_mode(mode)
    }

    #[test]
    fn all_modes_read_identical_bytes() {
        let content = "alpha\nbeta\ngamma\n".repeat(100);
        let f = TempFile::new("modes", content.as_bytes());
        for mode in [MmapMode::Auto, MmapMode::On, MmapMode::Off] {
            let got = read_path(&f.0, &opts(mode)).unwrap();
            assert_eq!(got.as_bytes(), content.as_bytes(), "mode {mode}");
        }
    }

    #[cfg(unix)]
    #[test]
    fn mode_on_maps_and_mode_off_does_not() {
        let f = TempFile::new("backing", b"one\ntwo\n");
        assert!(read_path(&f.0, &opts(MmapMode::On))
            .unwrap()
            .is_mmap_backed());
        assert!(!read_path(&f.0, &opts(MmapMode::Off))
            .unwrap()
            .is_mmap_backed());
    }

    #[cfg(unix)]
    #[test]
    fn auto_threshold_picks_the_backing() {
        let small = TempFile::new("small", b"tiny\n");
        let big = TempFile::new("big", "line\n".repeat(1000).as_bytes());
        let policy = IngestOptions {
            mode: MmapMode::Auto,
            mmap_threshold: 1024,
        };
        assert!(!read_path(&small.0, &policy).unwrap().is_mmap_backed());
        assert!(read_path(&big.0, &policy).unwrap().is_mmap_backed());
    }

    #[test]
    fn empty_file_falls_back_to_heap_even_forced() {
        let f = TempFile::new("empty", b"");
        let got = read_path(&f.0, &opts(MmapMode::On)).unwrap();
        assert!(got.is_empty());
        assert!(!got.is_mmap_backed(), "zero-length files cannot be mapped");
    }

    #[test]
    fn missing_file_is_an_io_error() {
        assert!(read_path("/no/such/kq-io-file", &IngestOptions::default()).is_err());
    }

    #[cfg(unix)]
    #[test]
    fn slices_of_a_map_outlive_the_original_handle() {
        // The unmap must wait for the *last* reference: drop the whole-file
        // Bytes first, then read through a surviving slice.
        let content = "first\nsecond\nthird\n";
        let f = TempFile::new("lifecycle", content.as_bytes());
        let whole = read_path(&f.0, &opts(MmapMode::On)).unwrap();
        assert!(whole.is_mmap_backed());
        let pieces = whole.split_stream(2);
        assert!(pieces.iter().all(|p| p.shares_buffer(&whole)));
        drop(whole);
        let rebuilt: Vec<u8> = pieces
            .iter()
            .flat_map(|p| p.as_bytes().iter().copied())
            .collect();
        assert_eq!(rebuilt, content.as_bytes());
    }

    #[test]
    fn text_validation_is_identical_across_backings() {
        let foreign = TempFile::new("foreign", &[0xff, 0xfe, b'x', b'\n']);
        let clean = TempFile::new("clean", "ok\n".repeat(10).as_bytes());
        for mode in [MmapMode::On, MmapMode::Off] {
            let err = read_path_text(&foreign.0, &opts(mode)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "mode {mode}");
            assert!(err.to_string().contains("not valid UTF-8"));
            let ok = read_path_text(&clean.0, &opts(mode)).unwrap();
            assert_eq!(ok.as_bytes(), "ok\n".repeat(10).as_bytes());
        }
    }

    #[test]
    fn mmap_mode_parses_and_rejects() {
        assert_eq!("auto".parse::<MmapMode>().unwrap(), MmapMode::Auto);
        assert_eq!("on".parse::<MmapMode>().unwrap(), MmapMode::On);
        assert_eq!("off".parse::<MmapMode>().unwrap(), MmapMode::Off);
        let err = "yes".parse::<MmapMode>().unwrap_err();
        assert!(err.contains("'auto', 'on', or 'off'"), "{err}");
    }
}
