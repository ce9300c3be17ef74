//! A tiny virtual filesystem.
//!
//! Several corpus commands consume *files* rather than their standard input:
//! `xargs cat` treats each input line as a path, `comm -23 - dict` reads a
//! dictionary, `paste words nextwords` joins two intermediate files, and
//! multi-pipeline scripts communicate through `> file` redirections. The
//! virtual filesystem keeps all of that hermetic and deterministic.
//!
//! Files carry an optional *type description* so our in-process `file(1)`
//! can report e.g. "POSIX shell script, ASCII text executable" for the
//! `shortest-scripts.sh` benchmark.

use kq_stream::Bytes;
use parking_lot::RwLock;
use std::collections::BTreeMap;

#[derive(Debug, Default)]
struct Entry {
    content: Bytes,
    file_type: Option<String>,
}

/// An in-memory map from path to file content (plus `file(1)` type).
///
/// Reads take a read lock; script execution writes intermediate files while
/// parallel workers read inputs, hence the `RwLock`.
#[derive(Debug, Default)]
pub struct Vfs {
    files: RwLock<BTreeMap<String, Entry>>,
}

impl Vfs {
    /// Creates an empty filesystem.
    pub fn new() -> Vfs {
        Vfs::default()
    }

    /// Writes (or overwrites) a file. Accepts anything convertible to
    /// [`Bytes`]; handing in a `Bytes` (e.g. a pipeline redirection
    /// target) stores the shared slice without copying — unless the slice
    /// pins a much larger backing buffer, in which case it is compacted
    /// so a few-byte file never retains a multi-MiB input allocation.
    pub fn write(&self, path: impl Into<String>, content: impl Into<Bytes>) {
        self.files.write().insert(
            path.into(),
            Entry {
                content: content.into().compact(),
                file_type: None,
            },
        );
    }

    /// Writes a file with an explicit `file(1)` type description. Applies
    /// the same slice compaction as [`Vfs::write`].
    pub fn write_typed(
        &self,
        path: impl Into<String>,
        content: impl Into<Bytes>,
        file_type: impl Into<String>,
    ) {
        self.files.write().insert(
            path.into(),
            Entry {
                content: content.into().compact(),
                file_type: Some(file_type.into()),
            },
        );
    }

    /// Reads a file's content as a shared byte slice: a refcount bump, no
    /// copy. This is what the executors' input gathering uses.
    pub fn read_bytes(&self, path: &str) -> Option<Bytes> {
        self.files.read().get(path).map(|e| e.content.clone())
    }

    /// Reads a file's content as an owned `String` (copies; compatibility
    /// for text-shaping call sites off the hot path — planning samples and
    /// test fixtures). Bytes that are not UTF-8 degrade lossily.
    ///
    /// Commands never read operands through this door: they take the
    /// bytes ([`Vfs::read_bytes`]), and a command that reads characters
    /// decodes them as it decodes piped input, so a file and a pipe of
    /// the same bytes fail alike.
    pub fn read(&self, path: &str) -> Option<String> {
        self.files
            .read()
            .get(path)
            .map(|e| String::from_utf8_lossy(e.content.as_bytes()).into_owned())
    }

    /// The `file(1)` description for a path: the declared type if present,
    /// a heuristic otherwise, `None` when the file does not exist.
    pub fn file_type(&self, path: &str) -> Option<String> {
        let files = self.files.read();
        let entry = files.get(path)?;
        Some(match &entry.file_type {
            Some(t) => t.clone(),
            None if entry.content.as_bytes().starts_with(b"#!") => {
                "POSIX shell script, ASCII text executable".to_owned()
            }
            None if entry.content.is_empty() => "empty".to_owned(),
            None => "ASCII text".to_owned(),
        })
    }

    /// True when the path exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    /// All paths, sorted (for `ls`).
    pub fn paths(&self) -> Vec<String> {
        self.files.read().keys().cloned().collect()
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.read().len()
    }

    /// True when no files exist.
    pub fn is_empty(&self) -> bool {
        self.files.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_roundtrip() {
        let vfs = Vfs::new();
        vfs.write("/x", "hello\n");
        assert_eq!(vfs.read("/x").as_deref(), Some("hello\n"));
        assert_eq!(vfs.read("/y"), None);
        assert!(vfs.exists("/x"));
        assert!(!vfs.exists("/y"));
    }

    #[test]
    fn file_type_heuristics() {
        let vfs = Vfs::new();
        vfs.write("script", "#!/bin/sh\necho hi\n");
        vfs.write("text", "plain\n");
        vfs.write("empty", "");
        vfs.write_typed("elf", "\u{7f}ELF...", "ELF 64-bit LSB executable");
        assert_eq!(
            vfs.file_type("script").unwrap(),
            "POSIX shell script, ASCII text executable"
        );
        assert_eq!(vfs.file_type("text").unwrap(), "ASCII text");
        assert_eq!(vfs.file_type("empty").unwrap(), "empty");
        assert_eq!(vfs.file_type("elf").unwrap(), "ELF 64-bit LSB executable");
        assert_eq!(vfs.file_type("missing"), None);
    }

    #[test]
    fn paths_sorted() {
        let vfs = Vfs::new();
        vfs.write("b", "");
        vfs.write("a", "");
        assert_eq!(vfs.paths(), vec!["a", "b"]);
        assert_eq!(vfs.len(), 2);
        assert!(!vfs.is_empty());
    }
}
