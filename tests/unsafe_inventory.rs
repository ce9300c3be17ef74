//! The workspace's unsafe-code inventory.
//!
//! Policy: `unsafe` lives only at the I/O and data-plane boundaries —
//! `kq-io` (mmap, madvise, flock), `kq-stream` (the mapped-region Bytes
//! backing), and the vendored `crates/shims/*` (the libc shim itself) —
//! and every other crate *denies* it at the crate root, so a stray
//! `unsafe` block elsewhere is a compile error, not a review hazard.
//! This test pins both halves of the policy by scanning the tree, so the
//! allowed set cannot grow silently.

use std::path::{Path, PathBuf};

/// Crate directories (relative to the workspace root) allowed to contain
/// `unsafe` code.
const ALLOWED_UNSAFE: &[&str] = &["crates/kq-io", "crates/kq-stream", "crates/shims"];

/// Crate roots that must carry `#![deny(unsafe_code)]`.
const DENYING_ROOTS: &[&str] = &[
    "src/lib.rs",
    "crates/kq-pattern/src/lib.rs",
    "crates/kq-coreutils/src/lib.rs",
    "crates/kq-dsl/src/lib.rs",
    "crates/kq-synth/src/lib.rs",
    "crates/kq-pipeline/src/lib.rs",
    "crates/kq-workloads/src/lib.rs",
    "crates/kq-analyze/src/lib.rs",
    "crates/kq-trace/src/lib.rs",
    "crates/cli/src/lib.rs",
    "crates/bench/src/lib.rs",
];

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// True when the file uses the `unsafe` keyword outside comments.
/// (`unsafe_code` in lint attributes does not count: the keyword check
/// requires a non-identifier character after `unsafe`.)
fn uses_unsafe(path: &Path) -> bool {
    let text = std::fs::read_to_string(path).unwrap();
    for line in text.lines() {
        let code = line.split("//").next().unwrap_or("");
        let mut rest = code;
        while let Some(pos) = rest.find("unsafe") {
            let before_ok = pos == 0
                || !rest[..pos]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
            let after = rest[pos + "unsafe".len()..].chars().next();
            let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
            if before_ok && after_ok {
                return true;
            }
            rest = &rest[pos + "unsafe".len()..];
        }
    }
    false
}

#[test]
fn unsafe_code_stays_inside_the_io_boundary() {
    let root = workspace_root();
    let mut files = Vec::new();
    rust_files(&root, &mut files);
    assert!(files.len() > 50, "workspace scan found too few files");
    let mut violations = Vec::new();
    for file in &files {
        if !uses_unsafe(file) {
            continue;
        }
        let rel = file.strip_prefix(&root).unwrap();
        // This scanner necessarily spells the keyword in its own strings.
        if rel == Path::new("tests/unsafe_inventory.rs") {
            continue;
        }
        if !ALLOWED_UNSAFE
            .iter()
            .any(|allowed| rel.starts_with(allowed))
        {
            violations.push(rel.display().to_string());
        }
    }
    assert!(
        violations.is_empty(),
        "unsafe code outside the allowed boundary crates ({ALLOWED_UNSAFE:?}): \
         {violations:?}"
    );
}

#[test]
fn every_other_crate_root_denies_unsafe_code() {
    let root = workspace_root();
    let mut missing = Vec::new();
    for rel in DENYING_ROOTS {
        let text = std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"));
        if !text.contains("#![deny(unsafe_code)]") {
            missing.push(*rel);
        }
    }
    assert!(
        missing.is_empty(),
        "crate roots missing #![deny(unsafe_code)]: {missing:?}"
    );
}
