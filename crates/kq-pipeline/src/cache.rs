//! The combiner cache: keys by argv as written, in-process reuse, and an
//! optional versioned on-disk store.
//!
//! # Keys
//!
//! Entries are keyed by the command's argv words as written
//! ([`cache_key`]): each word percent-escaped, joined by `\x1f`. No code
//! here reads a flag — only the command's own parser knows which words
//! are flags, which take values and which spellings mean the same — so
//! `sort -rn` and `sort -nr` are two entries, synthesized once each, and
//! `sort -k 1n` never shares the entry of `sort -k1n`. The key is not the
//! display line: several commands join their words with unquoted spaces,
//! so `cat - 'a b'` and `cat - a b` display alike. A
//! [`Command::custom`] wrapper keys as its argv would, behind a `custom`
//! prefix: its argv may name a shipped program (`grep x`) while it runs
//! something else, and an in-memory hit is trusted without a replay, so
//! sharing the built-in's entry would hand it the built-in's combiner.
//!
//! # The on-disk store
//!
//! [`CombinerCache::open`] attaches a line-oriented store:
//!
//! ```text
//! kumquat-combiner-cache v2 seed=<rng_seed> max_size=<n>
//! <escaped-key>\t-                      # synthesis proved: no combiner
//! <escaped-key>\t?                      # no combiner: every probe failed
//! <escaped-key>\t+\t<cand>;<cand>;...   # the plausible set (kq_dsl::codec)
//! ```
//!
//! The header pins both the format version (which fixes what a key
//! means) and the synthesis configuration fingerprint: a version bump or
//! a different `rng_seed`/`max_size` would make cached results
//! unreproducible or unreachable, so a mismatched or corrupted file is
//! **ignored with a warning, never trusted** — any malformed line
//! discards the whole file. Saving writes to a temp file and renames, so
//! concurrent processes sharing a path can race without producing a torn
//! file.
//!
//! ## Cross-process exclusion
//!
//! Rename atomicity alone cannot stop two concurrent planners from
//! *losing entries*: both load the same (possibly empty) store,
//! synthesize different commands, and the second rename silently discards
//! the first writer's work. Load and persist therefore serialize on an
//! advisory `flock` over a sidecar `<path>.lock` file (the store itself
//! is replaced by rename, so its inode cannot carry the lock): readers
//! take it shared, and [`CombinerCache::save`] takes it exclusive for a
//! read-**merge**-write — the current store is re-parsed under the lock
//! and any compatible entry this process does not already have passes
//! through into the new file, so concurrent planners union their results
//! instead of last-writer-wins. On targets without `flock` the lock
//! degrades to a no-op (single-process workflows are unaffected).
//!
//! # Trust policy
//!
//! An entry freshly synthesized in this process is trusted outright. An
//! entry loaded from disk is *pending*: the first lookup replays its
//! candidates against a fresh observation ([`kq_synth::spot_check`]) and
//! either promotes it (counted `validated`) or discards it and
//! re-synthesizes (counted `rejected`). Negative entries cannot be
//! replayed and are trusted as-is — a wrong negative only loses
//! parallelism (the stage runs sequentially), never correctness. A
//! negative whose input profile was `Unsupported` (every probe failed,
//! e.g. on a file dependency the script writes later) describes the
//! context as much as the command, so it is stored as its own verdict
//! (`?`) and trusted only for as long as the context stays that way: the
//! first lookup runs the probes again (`kq_synth::probe_profile`, three
//! tiny command runs) and either confirms it (counted `validated` — no
//! miss, no synthesis) or discards it and synthesizes.

use kq_coreutils::Command;
use kq_dsl::ast::Candidate;
use kq_dsl::codec::{decode_candidate, encode_candidate, escape_token, unescape_token};
use kq_synth::{SynthesisConfig, SynthesizedCombiner};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The cache key of a command: its argv words as written (see the
/// module docs). Every word is percent-escaped before being joined with
/// `\x1f`, so a hostile argument containing the separator byte cannot make
/// two different commands collide on one key.
pub fn cache_key(command: &Command) -> String {
    let key = argv_key(command.argv());
    if command.is_custom() {
        custom_key(key)
    } else {
        key
    }
}

/// `key` as the key of a [`Command::custom`] wrapper.
pub(crate) fn custom_key(key: String) -> String {
    format!("custom\x1f{key}")
}

/// The key of the argv `words`, custom prefix aside.
pub(crate) fn argv_key(words: &[String]) -> String {
    let escaped: Vec<String> = words.iter().map(|w| escape_token(w)).collect();
    escaped.join("\x1f")
}

/// The store's first line: the format version and the synthesis
/// configuration it was written under.
fn store_header(fingerprint: (u64, usize)) -> String {
    format!(
        "kumquat-combiner-cache v2 seed={} max_size={}",
        fingerprint.0, fingerprint.1
    )
}

/// An advisory cross-process lock over a store path, held for the
/// value's lifetime (dropping closes the descriptor, which releases the
/// `flock`). Lock failures — including non-unix targets, where the shim
/// has no `flock` — degrade silently to the old unlocked behavior: the
/// lock protects against *lost entries*, never against corruption (the
/// versioned header and temp+rename already handle that). The `flock`
/// itself lives behind [`kq_io::FileLock`] — this crate denies `unsafe`
/// code.
struct StoreLock {
    _lock: kq_io::FileLock,
}

impl StoreLock {
    /// The sidecar lock path: `<store>.lock`, a stable inode next to a
    /// store that rename keeps replacing.
    fn lock_path(store: &Path) -> PathBuf {
        let mut name = store.as_os_str().to_owned();
        name.push(".lock");
        PathBuf::from(name)
    }

    /// Blocks until the lock is granted (shared for readers, exclusive
    /// for the save's read-merge-write critical section).
    fn acquire(store: &Path, exclusive: bool) -> StoreLock {
        StoreLock {
            _lock: kq_io::FileLock::acquire(&Self::lock_path(store), exclusive),
        }
    }
}

/// Lookup/persistence counters, surfaced by the CLI's report lines.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Lookups answered without synthesizing (trusted in-memory entries
    /// plus promoted disk entries).
    pub hits: usize,
    /// Lookups that fell through to synthesis (bumped by the planner
    /// when it records a synthesis result — plain inserts, e.g. manual
    /// registrations, do not count).
    pub misses: usize,
    /// Disk entries promoted after replay validation.
    pub validated: usize,
    /// Disk entries that failed replay validation and were re-synthesized.
    pub rejected: usize,
    /// Entries read from the on-disk store at open time.
    pub loaded: usize,
}

/// A verdict as the on-disk store holds it.
#[derive(Debug, Clone, PartialEq)]
enum Stored {
    /// `-`: synthesis proved no combiner exists.
    NoCombiner,
    /// `?`: no combiner, because every input probe failed.
    Unsupported,
    /// `+`: the plausible set.
    Plausible(Vec<Candidate>),
}

/// One cached verdict.
enum Slot {
    /// Trusted: synthesized (or validated) in this process. `None` means
    /// synthesis proved no combiner exists.
    Ready {
        combiner: Option<Arc<SynthesizedCombiner>>,
        /// Whether `save` writes this entry (manual registrations stay
        /// process-local).
        persist: bool,
    },
    /// Trusted: every input probe failed in this process, so there is no
    /// combiner here. Saved as [`Stored::Unsupported`].
    Unsupported,
    /// Loaded from disk, pending validation.
    Disk(Stored),
}

/// What a cache lookup found (validation is the caller's job — it needs
/// the command and an execution context).
pub enum CacheLookup {
    /// A trusted entry.
    Ready(Option<Arc<SynthesizedCombiner>>),
    /// A disk entry whose candidates must be spot-checked first.
    NeedsValidation(Vec<Candidate>),
    /// A disk entry that says every input probe failed: settle it with
    /// [`CombinerCache::resolve_probe`] after probing again.
    NeedsProbe,
    /// Nothing cached.
    Miss,
}

/// The planner's combiner cache (see the module docs).
pub struct CombinerCache {
    entries: HashMap<String, Slot>,
    path: Option<PathBuf>,
    fingerprint: (u64, usize),
    dirty: bool,
    /// Lookup/persistence counters.
    pub stats: CacheStats,
    /// Diagnostics from loading (version mismatch, corruption) — the CLI
    /// prints these as notes.
    pub warnings: Vec<String>,
}

impl CombinerCache {
    /// A process-local cache (no disk store) — the planner default.
    pub fn in_memory(config: &SynthesisConfig) -> CombinerCache {
        CombinerCache {
            entries: HashMap::new(),
            path: None,
            fingerprint: (config.rng_seed, config.max_size),
            dirty: false,
            stats: CacheStats::default(),
            warnings: Vec::new(),
        }
    }

    /// Attaches an on-disk store, loading any compatible entries. A
    /// missing file is a cold cache; an unreadable, version-mismatched, or
    /// corrupted file is ignored with a warning (and overwritten on the
    /// next save).
    pub fn open(path: impl Into<PathBuf>, config: &SynthesisConfig) -> CombinerCache {
        let path = path.into();
        let mut cache = CombinerCache::in_memory(config);
        // Shared lock: serializes with a concurrent writer's
        // read-merge-write critical section (see the module docs).
        let _lock = StoreLock::acquire(&path, false);
        match std::fs::read_to_string(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => cache.warnings.push(format!(
                "combiner cache {}: {e}; starting cold",
                path.display()
            )),
            Ok(text) => match parse_store(&text, cache.fingerprint) {
                Ok(entries) => {
                    cache.stats.loaded = entries.len();
                    cache.entries = entries
                        .into_iter()
                        .map(|(k, v)| (k, Slot::Disk(v)))
                        .collect();
                }
                Err(reason) => cache.warnings.push(format!(
                    "combiner cache {}: {reason}; ignoring the file",
                    path.display()
                )),
            },
        }
        cache.path = Some(path);
        cache
    }

    /// The attached store path, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Whether any entry — trusted, or on disk pending validation — is
    /// held for `key`. Touches no counter.
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// Looks up a key. Bumps the hit counter for trusted entries; disk
    /// entries are returned for validation without touching counters —
    /// settle them with [`CombinerCache::resolve_validation`] or a fresh
    /// [`CombinerCache::insert`].
    pub fn lookup(&mut self, key: &str) -> CacheLookup {
        match self.entries.get(key) {
            None => CacheLookup::Miss,
            Some(Slot::Ready { combiner, .. }) => {
                self.stats.hits += 1;
                CacheLookup::Ready(combiner.clone())
            }
            Some(Slot::Unsupported) => {
                self.stats.hits += 1;
                CacheLookup::Ready(None)
            }
            Some(Slot::Disk(Stored::Unsupported)) => CacheLookup::NeedsProbe,
            Some(Slot::Disk(Stored::NoCombiner)) => {
                // Negative entries cannot be replayed; trust them (worst
                // case a stage stays sequential).
                let slot = Slot::Ready {
                    combiner: None,
                    persist: true,
                };
                self.entries.insert(key.to_owned(), slot);
                self.stats.hits += 1;
                CacheLookup::Ready(None)
            }
            Some(Slot::Disk(Stored::Plausible(candidates))) => {
                CacheLookup::NeedsValidation(candidates.clone())
            }
        }
    }

    /// Settles a [`CacheLookup::NeedsValidation`] verdict. On success the
    /// entry is promoted (and the composite rebuilt from its plausible
    /// set); on failure it is dropped and the caller re-synthesizes.
    pub fn resolve_validation(
        &mut self,
        key: &str,
        candidates: Vec<Candidate>,
        valid: bool,
    ) -> Option<Arc<SynthesizedCombiner>> {
        if valid {
            let combiner = Arc::new(SynthesizedCombiner::from_plausible(candidates));
            self.entries.insert(
                key.to_owned(),
                Slot::Ready {
                    combiner: Some(combiner.clone()),
                    persist: true,
                },
            );
            self.stats.hits += 1;
            self.stats.validated += 1;
            Some(combiner)
        } else {
            self.entries.remove(key);
            self.stats.rejected += 1;
            None
        }
    }

    /// Settles a [`CacheLookup::NeedsProbe`] verdict: `Some(None)` (no
    /// combiner, a validated hit) when the probes still all fail, `None`
    /// (entry dropped, the caller synthesizes) when one now succeeds.
    pub fn resolve_probe(
        &mut self,
        key: &str,
        still_unsupported: bool,
    ) -> Option<Option<Arc<SynthesizedCombiner>>> {
        if still_unsupported {
            self.entries.insert(key.to_owned(), Slot::Unsupported);
            self.stats.hits += 1;
            self.stats.validated += 1;
            Some(None)
        } else {
            self.entries.remove(key);
            self.stats.rejected += 1;
            None
        }
    }

    /// Records that synthesis found no combiner because every input probe
    /// failed (see the trust policy in the module docs).
    pub fn insert_unsupported(&mut self, key: impl Into<String>) {
        self.dirty = true;
        self.entries.insert(key.into(), Slot::Unsupported);
    }

    /// Records a synthesis result (or a manual registration with
    /// `persist = false`).
    pub fn insert(
        &mut self,
        key: impl Into<String>,
        combiner: Option<Arc<SynthesizedCombiner>>,
        persist: bool,
    ) {
        self.dirty |= persist;
        self.entries
            .insert(key.into(), Slot::Ready { combiner, persist });
    }

    /// Writes the store back to its path (temp file + rename, so a
    /// concurrent reader never sees a torn file). No-op for in-memory
    /// caches or when nothing changed. Returns whether a write happened.
    ///
    /// Holds the exclusive store lock across a read-**merge**-write:
    /// compatible entries another process persisted since this cache
    /// loaded pass through into the new file (and into this cache, as
    /// pending disk entries that validate like any other), so concurrent
    /// planners sharing a store union their syntheses instead of the
    /// last rename discarding the first writer's work.
    pub fn save(&mut self) -> Result<bool, String> {
        let Some(path) = &self.path else {
            return Ok(false);
        };
        if !self.dirty {
            return Ok(false);
        }
        let _lock = StoreLock::acquire(path, true);
        // Merge under the lock: adopt entries we do not have. A file that
        // is unreadable, mismatched, or corrupt contributes nothing (the
        // same trust rule as open) and is simply overwritten.
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(disk_entries) = parse_store(&text, self.fingerprint) {
                for (key, value) in disk_entries {
                    self.entries.entry(key).or_insert(Slot::Disk(value));
                }
            }
        }
        let mut lines: Vec<String> = Vec::with_capacity(self.entries.len() + 1);
        lines.push(store_header(self.fingerprint));
        let mut body: Vec<String> = Vec::new();
        for (key, slot) in &self.entries {
            let encoded_key = escape_token(key);
            match slot {
                Slot::Ready { persist: false, .. } => {}
                Slot::Ready {
                    combiner: None,
                    persist: true,
                } => body.push(format!("{encoded_key}\t-")),
                Slot::Ready {
                    combiner: Some(c),
                    persist: true,
                } => body.push(format!("{encoded_key}\t+\t{}", encode_set(&c.plausible))),
                Slot::Unsupported | Slot::Disk(Stored::Unsupported) => {
                    body.push(format!("{encoded_key}\t?"))
                }
                // Entries loaded but never needed this run pass through.
                Slot::Disk(Stored::NoCombiner) => body.push(format!("{encoded_key}\t-")),
                Slot::Disk(Stored::Plausible(cands)) => {
                    body.push(format!("{encoded_key}\t+\t{}", encode_set(cands)))
                }
            }
        }
        body.sort(); // stable file contents for identical cache states
        lines.extend(body);
        let mut text = lines.join("\n");
        text.push('\n');
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, &text).map_err(|e| format!("{}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path).map_err(|e| format!("{}: {e}", path.display()))?;
        self.dirty = false;
        Ok(true)
    }
}

fn encode_set(candidates: &[Candidate]) -> String {
    candidates
        .iter()
        .map(encode_candidate)
        .collect::<Vec<_>>()
        .join(";")
}

type StoreEntries = Vec<(String, Stored)>;

fn parse_store(text: &str, fingerprint: (u64, usize)) -> Result<StoreEntries, String> {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or("");
    let expected = store_header(fingerprint);
    if header != expected {
        return Err(format!(
            "header {header:?} does not match this build/configuration ({expected:?})"
        ));
    }
    let mut entries: StoreEntries = Vec::new();
    for (no, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split('\t');
        let key = unescape_token(fields.next().unwrap_or(""))
            .map_err(|e| format!("line {}: bad key: {e}", no + 2))?;
        match (fields.next(), fields.next(), fields.next()) {
            (Some("-"), None, None) => entries.push((key, Stored::NoCombiner)),
            (Some("?"), None, None) => entries.push((key, Stored::Unsupported)),
            (Some("+"), Some(cands), None) => {
                let mut set = Vec::new();
                for part in cands.split(';') {
                    set.push(
                        decode_candidate(part)
                            .map_err(|e| format!("line {}: bad candidate: {e}", no + 2))?,
                    );
                }
                if set.is_empty() {
                    return Err(format!("line {}: empty plausible set", no + 2));
                }
                entries.push((key, Stored::Plausible(set)));
            }
            _ => return Err(format!("line {}: malformed entry", no + 2)),
        }
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kq_coreutils::parse_command;
    use kq_dsl::ast::RecOp;

    fn key_of(line: &str) -> String {
        cache_key(&parse_command(line).unwrap())
    }

    #[test]
    fn spellings_key_apart_as_written() {
        // Only the command's parser knows two spellings mean the same;
        // the key does not guess.
        assert_ne!(key_of("sort -rn"), key_of("sort -nr"));
        assert_ne!(key_of("sort -k1n"), key_of("sort -k 1n"));
        assert_ne!(key_of("grep -cn p"), key_of("grep -nc p"));
        assert_eq!(key_of("sort -k 1n"), key_of("sort  -k  '1n'"));
        // Words, not the display line: these two display alike.
        let (quoted, split) = ("cat - 'a b'", "cat - a b");
        assert_eq!(
            parse_command(quoted).unwrap().display(),
            parse_command(split).unwrap().display()
        );
        assert_ne!(key_of(quoted), key_of(split));
    }

    #[test]
    fn differing_operands_or_flags_miss() {
        assert_ne!(key_of("grep -cn p"), key_of("grep -cn q"));
        assert_ne!(key_of("grep -c p"), key_of("grep -cn p"));
        // The same text is a different pattern as a fixed string.
        assert_ne!(key_of("grep -F a.c"), key_of("grep a.c"));
        assert_ne!(key_of("grep -e p"), key_of("grep -e q"));
        assert_ne!(key_of("sort"), key_of("sort -r"));
        assert_ne!(key_of("cut -d ',' -f 1"), key_of("cut -d ',' -f 2"));
        assert_ne!(key_of("head -n 3"), key_of("head -n 4"));
        assert_ne!(key_of("comm -23 - /a"), key_of("comm -23 - /b"));
        // Numeric shorthand is kept whole, distinct from -n forms.
        assert_ne!(key_of("head -15"), key_of("head -n 15"));
        // A stdin dash is an operand, not noise.
        assert_ne!(key_of("cat -"), key_of("cat"));
        assert_ne!(key_of("comm -23 - /a"), key_of("comm -13 - /a"));
    }

    #[test]
    fn separator_bytes_in_arguments_cannot_collide_keys() {
        // Keying is defensive independently of what command parsers
        // accept (sed, for one, rejects such scripts outright): a single
        // hostile `-e` expression containing the field separator must not
        // produce the same key as two separate expressions. `cache_key`
        // reads argv (behind the custom prefix), so a custom wrapper
        // stands in for the parser.
        struct Noop;
        impl kq_coreutils::UnixCommand for Noop {
            fn display(&self) -> String {
                "sed".to_owned()
            }
            fn run(
                &self,
                input: kq_coreutils::Bytes,
                _: &kq_coreutils::ExecContext,
            ) -> Result<kq_coreutils::Bytes, kq_coreutils::CmdError> {
                Ok(input)
            }
        }
        let argv = |words: &[&str]| -> Command {
            Command::custom(
                words.iter().map(|w| (*w).to_owned()).collect(),
                Box::new(Noop),
            )
        };
        let hostile = argv(&["sed", "-e", "1d\x1f-e=2d"]);
        let honest = argv(&["sed", "-e", "1d", "-e", "2d"]);
        assert_ne!(cache_key(&hostile), cache_key(&honest));
        // Keys are the words as written: a repeated expression keys apart
        // from a single one, and so does a repeated flag.
        assert_ne!(
            cache_key(&argv(&["sed", "-e", "1d", "-e", "1d"])),
            cache_key(&argv(&["sed", "-e", "1d"]))
        );
        assert_ne!(key_of("grep -c -c a"), key_of("grep -c a"));
        // Separator bytes in operands and in any other word escape too.
        assert_ne!(key_of("grep a\x1fb"), key_of("grep a"));
        assert_ne!(cache_key(&argv(&["x\x1fy"])), cache_key(&argv(&["x", "y"])));
    }

    #[test]
    fn a_custom_command_keys_on_its_argv() {
        use kq_coreutils::{Bytes, CmdError, ExecContext, UnixCommand};
        struct Upper;
        impl UnixCommand for Upper {
            fn display(&self) -> String {
                "upper -x".to_owned()
            }
            fn run(&self, input: Bytes, _: &ExecContext) -> Result<Bytes, CmdError> {
                Ok(Bytes::from(input.to_str().unwrap().to_uppercase()))
            }
        }
        let cmd = Command::custom(vec!["upper".to_owned(), "-x".to_owned()], Box::new(Upper));
        assert_eq!(cache_key(&cmd), "custom\x1fupper\x1f-x");
    }

    #[test]
    fn a_custom_command_never_shares_a_built_in_key() {
        use kq_coreutils::{Bytes, CmdError, ExecContext, UnixCommand};
        struct Same;
        impl UnixCommand for Same {
            fn display(&self) -> String {
                "grep x".to_owned()
            }
            fn run(&self, input: Bytes, _: &ExecContext) -> Result<Bytes, CmdError> {
                Ok(input)
            }
        }
        let custom = Command::custom(vec!["grep".to_owned(), "x".to_owned()], Box::new(Same));
        assert!(custom.is_custom() && !parse_command("grep x").unwrap().is_custom());
        assert_ne!(cache_key(&custom), key_of("grep x"));
        assert_eq!(
            cache_key(&custom),
            format!("custom\x1f{}", key_of("grep x"))
        );
    }

    fn sample_combiner() -> Arc<SynthesizedCombiner> {
        Arc::new(SynthesizedCombiner::from_plausible(vec![
            Candidate::rec(RecOp::Back(kq_stream::Delim::Newline, Box::new(RecOp::Add))),
            Candidate::rec(RecOp::Fuse(kq_stream::Delim::Newline, Box::new(RecOp::Add))),
        ]))
    }

    fn tmpfile(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("kq-cache-{tag}-{}", std::process::id()))
    }

    #[test]
    fn roundtrip_through_disk() {
        let path = tmpfile("roundtrip");
        let config = SynthesisConfig::default();
        let mut cache = CombinerCache::open(&path, &config);
        cache.insert("wc\x1f-l\x1f|", Some(sample_combiner()), true);
        cache.insert("sed\x1f|\x1f1d", None, true);
        cache.insert("manual\x1f|", Some(sample_combiner()), false);
        assert!(cache.save().unwrap());

        let mut reloaded = CombinerCache::open(&path, &config);
        assert_eq!(reloaded.stats.loaded, 2, "manual entry must not persist");
        match reloaded.lookup("wc\x1f-l\x1f|") {
            CacheLookup::NeedsValidation(cands) => {
                assert_eq!(cands.len(), 2);
                let promoted = reloaded
                    .resolve_validation("wc\x1f-l\x1f|", cands, true)
                    .unwrap();
                assert_eq!(promoted.plausible.len(), 2);
                assert_eq!(
                    promoted.primary().to_string(),
                    sample_combiner().primary().to_string()
                );
            }
            _ => panic!("expected a pending disk entry"),
        }
        // Negative entries come back trusted.
        assert!(matches!(
            reloaded.lookup("sed\x1f|\x1f1d"),
            CacheLookup::Ready(None)
        ));
        assert!(matches!(reloaded.lookup("manual\x1f|"), CacheLookup::Miss));
        assert_eq!(reloaded.stats.validated, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn an_all_probes_failed_verdict_persists_and_is_probed_again() {
        let path = tmpfile("unsupported");
        let config = SynthesisConfig::default();
        let mut cache = CombinerCache::open(&path, &config);
        cache.insert_unsupported("comm\x1f-2\x1f-3\x1f|\x1f-\x1flater");
        // Trusted where it was observed.
        assert!(matches!(
            cache.lookup("comm\x1f-2\x1f-3\x1f|\x1f-\x1flater"),
            CacheLookup::Ready(None)
        ));
        assert!(cache.save().unwrap());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().any(|l| l.ends_with("\t?")), "{text}");

        // Reloaded: pending until the probes are run again.
        for (still_unsupported, hits, rejected) in [(true, 2, 0), (false, 0, 1)] {
            let mut reloaded = CombinerCache::open(&path, &config);
            assert_eq!(reloaded.stats.loaded, 1);
            let key = "comm\x1f-2\x1f-3\x1f|\x1f-\x1flater";
            assert!(matches!(reloaded.lookup(key), CacheLookup::NeedsProbe));
            let resolved = reloaded.resolve_probe(key, still_unsupported);
            assert_eq!(resolved.is_some(), still_unsupported);
            let again = reloaded.lookup(key);
            if still_unsupported {
                assert!(matches!(again, CacheLookup::Ready(None)));
            } else {
                assert!(matches!(again, CacheLookup::Miss));
            }
            assert_eq!(reloaded.stats.hits, hits);
            assert_eq!(reloaded.stats.rejected, rejected);
            assert_eq!(reloaded.stats.misses, 0);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejected_validation_discards_the_entry() {
        let config = SynthesisConfig::default();
        let mut cache = CombinerCache::in_memory(&config);
        cache.entries.insert(
            "k".to_owned(),
            Slot::Disk(Stored::Plausible(vec![Candidate::rec(RecOp::Concat)])),
        );
        let CacheLookup::NeedsValidation(cands) = cache.lookup("k") else {
            panic!("expected pending entry");
        };
        assert!(cache.resolve_validation("k", cands, false).is_none());
        assert!(matches!(cache.lookup("k"), CacheLookup::Miss));
        assert_eq!(cache.stats.rejected, 1);
    }

    #[test]
    fn version_mismatch_is_ignored_with_a_warning() {
        let path = tmpfile("version");
        std::fs::write(&path, "kumquat-combiner-cache v0 seed=1 max_size=7\nx\t-\n").unwrap();
        let cache = CombinerCache::open(&path, &SynthesisConfig::default());
        assert_eq!(cache.stats.loaded, 0);
        assert!(
            cache.warnings.iter().any(|w| w.contains("does not match")),
            "{:?}",
            cache.warnings
        );
        // A `v1` store keyed by normalized flag sets, written under this
        // very configuration: its entries are not carried along either.
        let (seed, max_size) = CombinerCache::in_memory(&SynthesisConfig::default()).fingerprint;
        let v1 = format!("kumquat-combiner-cache v1 seed={seed} max_size={max_size}\nx\t-\n");
        std::fs::write(&path, v1).unwrap();
        let cache = CombinerCache::open(&path, &SynthesisConfig::default());
        assert_eq!(cache.stats.loaded, 0);
        assert!(
            cache.warnings.iter().any(|w| w.contains("does not match")),
            "{:?}",
            cache.warnings
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn config_fingerprint_mismatch_is_ignored() {
        let path = tmpfile("fingerprint");
        let writer_config = SynthesisConfig {
            rng_seed: 7,
            ..SynthesisConfig::default()
        };
        let mut cache = CombinerCache::open(&path, &writer_config);
        cache.insert("k", None, true);
        cache.save().unwrap();
        // A reader with a different seed must not trust the file.
        let reader = CombinerCache::open(&path, &SynthesisConfig::default());
        assert_eq!(reader.stats.loaded, 0);
        assert!(!reader.warnings.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_files_are_never_trusted() {
        let header =
            store_header(CombinerCache::in_memory(&SynthesisConfig::default()).fingerprint);
        for (tag, body) in [
            ("truncated", "wc\t+\tab back nl"), // candidate cut short
            ("garbage", "wc\t?\twhat"),         // unknown verdict tag
            ("binary", "\u{1}\u{2}\u{3}"),      // not even a record
            ("badescape", "wc%zz\t-"),          // malformed key escape
            ("emptyset", "wc\t+\t"),            // positive with no candidates
        ] {
            let path = tmpfile(tag);
            std::fs::write(&path, format!("{header}\n{body}\n")).unwrap();
            let cache = CombinerCache::open(&path, &SynthesisConfig::default());
            assert_eq!(cache.stats.loaded, 0, "{tag}: nothing may load");
            assert!(
                cache
                    .warnings
                    .iter()
                    .any(|w| w.contains("ignoring the file")),
                "{tag}: must warn, got {:?}",
                cache.warnings
            );
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn interleaved_saves_union_instead_of_losing_entries() {
        // The lost-update shape: two planners load the same cold store,
        // synthesize different commands, and flush one after the other.
        // Without the locked read-merge-write the second rename would
        // discard the first writer's entry.
        let path = tmpfile("union");
        let config = SynthesisConfig::default();
        let mut a = CombinerCache::open(&path, &config);
        let mut b = CombinerCache::open(&path, &config);
        a.insert("wc\x1f-l\x1f|", Some(sample_combiner()), true);
        b.insert("sed\x1f|\x1f1d", None, true);
        assert!(a.save().unwrap());
        assert!(b.save().unwrap());
        let mut reloaded = CombinerCache::open(&path, &config);
        assert_eq!(
            reloaded.stats.loaded, 2,
            "an interleaved write lost an entry"
        );
        assert!(matches!(
            reloaded.lookup("sed\x1f|\x1f1d"),
            CacheLookup::Ready(None)
        ));
        assert!(matches!(
            reloaded.lookup("wc\x1f-l\x1f|"),
            CacheLookup::NeedsValidation(_)
        ));
        // The merge also flows the other process's entries into the
        // still-open cache, as pending disk entries.
        assert!(matches!(
            b.lookup("wc\x1f-l\x1f|"),
            CacheLookup::NeedsValidation(_)
        ));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(StoreLock::lock_path(&path)).ok();
    }

    #[test]
    fn save_is_idempotent_and_skips_clean_caches() {
        let path = tmpfile("idempotent");
        let config = SynthesisConfig::default();
        let mut cache = CombinerCache::open(&path, &config);
        assert!(!cache.save().unwrap(), "clean cache must not write");
        cache.insert("a", None, true);
        assert!(cache.save().unwrap());
        let first = std::fs::read_to_string(&path).unwrap();
        assert!(!cache.save().unwrap(), "no changes, no rewrite");
        // Reload + save-through keeps byte-identical content.
        let mut reloaded = CombinerCache::open(&path, &config);
        reloaded.insert("b", None, true);
        reloaded.save().unwrap();
        let second = std::fs::read_to_string(&path).unwrap();
        assert!(second.contains(&first.lines().nth(1).unwrap().to_owned()));
        std::fs::remove_file(&path).ok();
        // In-memory caches never write.
        let mut mem = CombinerCache::in_memory(&config);
        mem.insert("a", None, true);
        assert!(!mem.save().unwrap());
    }
}
