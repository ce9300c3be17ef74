//! Temp-file spill runs: how a bounded-memory fold writes a sorted run to
//! disk and gets it back as a demand-paged [`Bytes`].
//!
//! A [`RunWriter`] is a buffered temp file under a caller-chosen directory
//! (`kq-spill-<pid>-<seq>.run`; the sequence number is process-global, so
//! concurrent folds sharing one directory never collide). `finish()`
//! flushes, memory-maps the file through the same `PROT_READ/MAP_PRIVATE`
//! path the ingest door uses (with `MADV_RANDOM` rather than the ingest
//! door's `MADV_SEQUENTIAL`: the k-way merge interleaves fine-grained
//! reads across many runs, and read-ahead would fault large windows of
//! every run resident at once), and — crucially — **unlinks
//! the file immediately**. On unix the mapping keeps the inode alive, so
//! the bytes stay readable (and evictable: consumed pages can be dropped
//! with `madvise` and refault from disk), while the directory entry is
//! already gone. Cleanup is therefore automatic on *every* exit path —
//! success, error, panic, early-exit cancellation — with no tracking list:
//! the kernel reclaims the blocks when the last slice of the map drops. A
//! writer dropped before `finish()` (the abandoned-run path) unlinks its
//! file in `Drop`. The only way to leak a run file is `SIGKILL` between
//! `create` and either exit, which no userspace policy can defend against;
//! stale leftovers from a killed process are identifiable by the pid in
//! the name.

use crate::Bytes;
use std::fs::{self, File};
use std::io::{self, BufWriter, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-global run counter: two folds spilling into the same directory
/// (one per barrier stage under the dataflow scheduler) must never race to
/// the same name, so uniqueness cannot be per-writer state.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Largest single `write` of a run, and so the largest page-cache folio a
/// filesystem that sizes folios by the write gives it: small enough that
/// the pages one fault maps are a window a reader can release again
/// (see `Bytes::release_range`), large enough that writing and
/// faulting a run back cost a fraction of what 64 KiB pieces do.
const WRITE_GRAIN: usize = 1 << 18;

/// A sorted run being spilled to a temp file. Write line-aligned text with
/// [`RunWriter::write`], then call [`RunWriter::finish`] to get the run
/// back as a mapped (or, on mapping failure, heap) [`Bytes`]; dropping an
/// unfinished writer deletes the file.
#[derive(Debug)]
pub struct RunWriter {
    /// `Some` until `finish()` takes it; `Drop` keys the abandoned-run
    /// unlink off this.
    inner: Option<BufWriter<File>>,
    path: PathBuf,
    written: usize,
}

impl RunWriter {
    /// Opens a fresh uniquely-named run file under `dir` (created if
    /// missing).
    pub fn create(dir: &Path) -> io::Result<RunWriter> {
        fs::create_dir_all(dir)?;
        let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("kq-spill-{}-{seq}.run", std::process::id()));
        // Read access is required too: `finish()` maps (or re-reads) the
        // same fd. create_new guards against clobbering a stale leftover.
        let file = File::options()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        Ok(RunWriter {
            inner: Some(BufWriter::new(file)),
            path,
            written: 0,
        })
    }

    /// Appends a fragment of the run's text to it, as bytes: the data
    /// plane does not re-view merged lines as `str` just to write them
    /// ([`finish`](RunWriter::finish) validates the run once, as a whole).
    pub fn write(&mut self, fragment: &[u8]) -> io::Result<()> {
        let inner = self.inner.as_mut().expect("write after finish");
        // At most `WRITE_GRAIN` per write: a filesystem that sizes its
        // page-cache folios by the write puts the run in folios no larger
        // than that, and a fault on the mapped run maps at most one folio —
        // a window a reader's release can drop again, where a folio the
        // size of the whole run would stay mapped while any reader touches
        // any byte of it.
        for piece in fragment.chunks(WRITE_GRAIN) {
            inner.write_all(piece)?;
        }
        self.written += fragment.len();
        Ok(())
    }

    /// Bytes written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Flushes, maps the run back as demand-paged [`Bytes`] (heap read if
    /// mapping is unavailable), and unlinks the file — see the module docs
    /// for why unlink-after-map makes cleanup automatic.
    pub fn finish(mut self) -> io::Result<Bytes> {
        let mut writer = self.inner.take().expect("finish called twice");
        writer.flush()?;
        let mut file = writer.into_inner().map_err(|e| e.into_error())?;
        let _ = fs::remove_file(&self.path);
        Ok(if self.written == 0 {
            Bytes::new()
        } else {
            #[cfg(unix)]
            let mapped = crate::map_file(&file, self.written, crate::MapAdvice::Random);
            #[cfg(not(unix))]
            let mapped: Option<Bytes> = None;
            match mapped {
                Some(b) => b,
                None => {
                    file.seek(io::SeekFrom::Start(0))?;
                    crate::heap_read(file, self.written)?
                }
            }
        })
    }
}

impl Drop for RunWriter {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            // Abandoned before finish (error or cancellation): the run is
            // garbage — close the fd and remove the file.
            let _ = fs::remove_file(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir().join(format!("kq-spill-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            TempDir(dir)
        }

        fn entries(&self) -> usize {
            fs::read_dir(&self.0).map(|d| d.count()).unwrap_or(0)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    fn roundtrip_and_unlink_on_finish() {
        let dir = TempDir::new("roundtrip");
        let mut w = RunWriter::create(&dir.0).unwrap();
        let payload = "alpha\nbeta\n".repeat(500);
        w.write(&payload.as_bytes()[..payload.len() / 2]).unwrap();
        w.write(&payload.as_bytes()[payload.len() / 2..]).unwrap();
        assert_eq!(w.written(), payload.len());
        assert_eq!(dir.entries(), 1, "run file exists while writing");
        let bytes = w.finish().unwrap();
        assert_eq!(dir.entries(), 0, "finish must unlink immediately");
        // The unlinked inode stays readable through the mapping.
        assert_eq!(bytes.as_bytes(), payload.as_bytes());
    }

    #[test]
    fn a_run_comes_back_byte_for_byte() {
        let dir = TempDir::new("nontext");
        let mut w = RunWriter::create(&dir.0).unwrap();
        w.write(b"ok\n\xff\n").unwrap();
        assert_eq!(w.finish().unwrap().as_bytes(), b"ok\n\xff\n");
        assert_eq!(dir.entries(), 0);
    }

    #[test]
    fn dropped_writer_removes_its_file() {
        let dir = TempDir::new("abandon");
        let mut w = RunWriter::create(&dir.0).unwrap();
        w.write(b"half a run\n").unwrap();
        assert_eq!(dir.entries(), 1);
        drop(w);
        assert_eq!(dir.entries(), 0, "abandoned runs must not leak");
    }

    #[test]
    fn empty_run_finishes_empty_and_clean() {
        let dir = TempDir::new("empty");
        let w = RunWriter::create(&dir.0).unwrap();
        let bytes = w.finish().unwrap();
        assert!(bytes.is_empty());
        assert_eq!(dir.entries(), 0);
    }

    #[test]
    fn concurrent_writers_in_one_directory_never_collide() {
        let dir = TempDir::new("concurrent");
        let writers: Vec<RunWriter> = (0..8).map(|_| RunWriter::create(&dir.0).unwrap()).collect();
        assert_eq!(dir.entries(), 8, "every writer got its own file");
        for (i, mut w) in writers.into_iter().enumerate() {
            w.write(format!("run {i}\n").as_bytes()).unwrap();
            assert_eq!(
                w.finish().unwrap().as_bytes(),
                format!("run {i}\n").as_bytes()
            );
        }
        assert_eq!(dir.entries(), 0);
    }
}
