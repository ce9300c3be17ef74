//! VFS hazard lints over a parsed script.
//!
//! These lints read the access model the dataflow scheduler's dependency
//! pass runs under ([`kq_pipeline::scheduler::VfsAccess`], read by
//! [`kq_pipeline::scheduler::statement_deps`]) — reads are the
//! statement's input files plus every argv word after the program name
//! (any word could name a file: `comm - dict`), `xargs` reads
//! unboundedly, and the only write is the statement's `>` redirection
//! target. Working on the same relation means a hazard the lints flag is
//! a hazard the scheduler actually orders around (or, for `KQ101`, cannot
//! order around).
//!
//! To keep the conservative read set from spraying false positives
//! (`grep fox` does not read a file named `fox`), the lints only consider
//! paths the script itself writes: a token is treated as a path exactly
//! when some statement's redirection targets it.

use crate::diag::{Diagnostic, Severity};
use kq_pipeline::scheduler::VfsAccess;
use kq_pipeline::Script;

/// Runs the three VFS hazard lints (`KQ101`, `KQ102`, `KQ103`).
pub fn vfs_hazards(script: &Script) -> Vec<Diagnostic> {
    let access = VfsAccess::of(script);
    let mut out = Vec::new();

    let reads_path = |j: usize, path: &str| access[j].reads.iter().any(|r| r == path);

    for (j, st) in script.statements.iter().enumerate() {
        // KQ103 — self-alias: the statement reads the very path its `>`
        // redirection writes. The VFS gathers input before storing output,
        // so this runs, but it silently depends on that buffering order
        // and breaks under any emitter that streams to the target.
        if let Some(w) = &access[j].write {
            if reads_path(j, w) {
                out.push(
                    Diagnostic::new(
                        "KQ103",
                        Severity::Warning,
                        format!(
                            "statement reads its own redirection target {w}; \
                             the result depends on input being gathered before \
                             the write"
                        ),
                    )
                    .at_statement(j, st.span),
                );
            }
        }

        // KQ101 — use-before-def: the statement reads a path that only
        // *later* statements write. Statements execute in dependency
        // order, never backwards, so the read sees stale (or missing)
        // data no schedule can fix.
        for r in &access[j].reads {
            let written_earlier = (0..j).any(|i| access[i].write.as_deref() == Some(r));
            let written_later =
                (j + 1..access.len()).any(|i| access[i].write.as_deref() == Some(r.as_str()));
            let own_write = access[j].write.as_deref() == Some(r.as_str());
            if written_later && !written_earlier && !own_write {
                out.push(
                    Diagnostic::new(
                        "KQ101",
                        Severity::Warning,
                        format!(
                            "{r} is read here but only written by a later \
                             statement; the read sees stale or missing data"
                        ),
                    )
                    .at_statement(j, st.span),
                );
            }
        }
    }

    // KQ102 — dead write: statement i's redirection target is overwritten
    // by a later statement before anything reads it, so i's output (and
    // possibly i itself) is wasted work. An intervening `xargs` statement
    // may read anything, which suppresses the lint.
    for i in 0..access.len() {
        let Some(w) = access[i].write.clone() else {
            continue;
        };
        let Some(next_write) =
            (i + 1..access.len()).find(|&k| access[k].write.as_deref() == Some(w.as_str()))
        else {
            continue;
        };
        let read_in_between = (i + 1..=next_write).any(|k| access[k].may_read(&w));
        if !read_in_between {
            out.push(
                Diagnostic::new(
                    "KQ102",
                    Severity::Warning,
                    format!(
                        "write to {w} is dead: statement {} overwrites it \
                         before any statement reads it",
                        next_write + 1
                    ),
                )
                .at_statement(i, script.statements[i].span),
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn lint(script_text: &str) -> Vec<Diagnostic> {
        let env: HashMap<String, String> = HashMap::new();
        let script = kq_pipeline::parse::parse_script(script_text, &env).unwrap();
        vfs_hazards(&script)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn well_formed_scripts_are_clean() {
        let d = lint("cat /in.txt | grep fox | sort > /tmp/a\ncat /tmp/a | wc -l\n");
        assert_eq!(codes(&d), Vec::<&str>::new());
    }

    #[test]
    fn use_before_def_fires_only_for_script_written_paths() {
        let d = lint("cat /tmp/out | wc -l\ncat /in.txt | sort > /tmp/out\n");
        assert_eq!(codes(&d), vec!["KQ101"]);
        assert_eq!(d[0].statement, Some(0));
        // `grep fox` never trips the lint: fox is not a write target.
        let d = lint("cat /in.txt | grep fox\n");
        assert!(d.is_empty());
    }

    #[test]
    fn dead_write_detected_unless_read_or_xargs_intervenes() {
        let d = lint("cat /a | sort > /t\ncat /b | sort > /t\ncat /t | wc -l\n");
        assert_eq!(codes(&d), vec!["KQ102"]);
        assert_eq!(d[0].statement, Some(0));
        // A read between the writes keeps the first write alive.
        let d =
            lint("cat /a | sort > /t\ncat /t | wc -l\ncat /b | sort > /t\ncat /t | head -n 1\n");
        assert!(codes(&d).is_empty());
        // xargs may read anything: suppressed.
        let d = lint(
            "cat /a | sort > /t\ncat /lst | xargs wc -l\ncat /b | sort > /t\ncat /t | wc -l\n",
        );
        assert!(codes(&d).is_empty());
    }

    #[test]
    fn self_alias_is_flagged_once_as_kq103() {
        let d = lint("cat /t | sort > /t\n");
        assert_eq!(codes(&d), vec!["KQ103"]);
    }
}
