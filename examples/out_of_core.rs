//! Out-of-core ingest probe: maps a (large) file with `kq-io`, splits it,
//! and scans it chunk by chunk — printing the process's resident set
//! after each step so the demand-paging behavior is visible.
//!
//! ```text
//! cargo run --release --example out_of_core -- /path/to/big.txt
//! ```
//!
//! Expected shape on a multi-hundred-MiB file: RSS stays flat at map and
//! split time (no page is touched), and bounded — far below the file size
//! — through the scan (a release cursor drops pages behind it).

use kq_io::{IngestOptions, MmapMode};

fn rss_kib() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmRSS"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn main() {
    let path = std::env::args().nth(1).expect("usage: out_of_core <file>");
    let base = rss_kib();
    println!("baseline               rss = {base} KiB");

    let mapped = kq_io::read_path(&path, &IngestOptions::with_mode(MmapMode::On)).unwrap();
    println!(
        "mapped {:>12} B   rss = {} KiB (+{} KiB)  mmap-backed: {}",
        mapped.len(),
        rss_kib(),
        rss_kib().saturating_sub(base),
        mapped.is_mmap_backed()
    );

    let pieces = mapped.split_stream(8);
    println!(
        "split into {} pieces    rss = {} KiB (+{} KiB)",
        pieces.len(),
        rss_kib(),
        rss_kib().saturating_sub(base)
    );
    drop(pieces);

    let mut cursor = kq_stream::ReleaseCursor::new(4 << 20);
    let (mut lines, mut consumed) = (0, 0);
    for chunk in mapped.chunks(1 << 20) {
        lines += chunk.count_newlines();
        consumed += chunk.len();
        cursor.advance(&mapped, consumed);
    }
    cursor.finish(&mapped);
    println!(
        "scanned {lines:>11} lines rss = {} KiB (+{} KiB)",
        rss_kib(),
        rss_kib().saturating_sub(base)
    );
    drop(mapped);
    println!("dropped (unmapped)      rss = {} KiB", rss_kib());
}
