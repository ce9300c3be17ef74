//! The five workloads and the end-to-end metrics, by name.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test below keeps the two in step.

use crate::inputs;

/// Where a run workload's input comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    /// `kq_workloads::inputs::gutenberg_text`.
    Gutenberg,
    /// [`inputs::word_lines`].
    WordLines,
    /// [`inputs::keyed_lines`].
    KeyedLines,
}

impl InputKind {
    pub fn generate(self, bytes: usize, seed: u64) -> String {
        match self {
            InputKind::Gutenberg => kq_workloads::inputs::gutenberg_text(bytes, seed),
            InputKind::WordLines => inputs::word_lines(bytes, seed),
            InputKind::KeyedLines => inputs::keyed_lines(bytes, seed),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// `kumquat run <script> --no-verify --combiner-cache <warm file>`.
    Run {
        /// Script text; `{IN}` is the input file and `{OUT}` the
        /// directory that redirect targets are written under.
        script: &'static str,
        input: InputKind,
        input_kib: usize,
        /// `--spill-mb`, for the one workload that spills.
        spill_mb: Option<usize>,
    },
    /// `kumquat corpus --plan --combiner-cache <file deleted before each run>`.
    SynthCorpus,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "freq-fold",
        why: "paper Fig. 1 word count: three merge folds behind cheap maps, KB output; the fold barrier (kq-dsl merge, kq-coreutils sort) does the work",
        kind: Kind::Run {
            script: "cat {IN} | tr -cs A-Za-z '\\n' | tr A-Z a-z | sort | uniq -c | sort -rn",
            input: InputKind::Gutenberg,
            input_kib: 8 * 1024,
            spill_mb: None,
        },
    },
    Workload {
        name: "map-scan",
        why: "selective grep first, so chunk-local stages, split and task overhead do all the work and folds see KBs: a fold change must show no change here",
        kind: Kind::Run {
            script: "cat {IN} | grep 'l[ia][gn][hd]t* of' | tr A-Z a-z | sed s/river/stream/ | cut -d ' ' -f 1-6 | sort -u | wc -l",
            input: InputKind::Gutenberg,
            input_kib: 32 * 1024,
            spill_mb: None,
        },
    },
    Workload {
        name: "multi-stmt",
        why: "8-statement redirect script: inter-statement overlap, VFS ordering, head early exit and 32 plan-time cache lookups on one shared pool",
        kind: Kind::Run {
            script: "cat {IN} | grep -v qqq | tr A-Z a-z | sort | uniq -c | sort -rn > {OUT}/freq\n\
                     cat {IN} | cut -d ' ' -f 1 | sort -u > {OUT}/first\n\
                     cat {IN} | grep Apple | wc -l\n\
                     cat {IN} | tr A-Z a-z | head -n 3\n\
                     cat {IN} | cut -d ' ' -f 2 | sort | uniq -c | sort -rn | head -n 5\n\
                     cat {IN} | grep dog | cut -d ' ' -f 3 | sort -u | wc -l\n\
                     cat {IN} | grep -c bird\n\
                     cat {OUT}/freq | head -n 10",
            input: InputKind::WordLines,
            input_kib: 4 * 1024,
            spill_mb: None,
        },
    },
    Workload {
        name: "sort-spill",
        why: "sort under a spill budget of half the input: runs written and mapped back (kq-io, kq-dsl spill merge); output equals input, so emit and memory show only here",
        kind: Kind::Run {
            script: "cat {IN} | sort",
            input: InputKind::KeyedLines,
            input_kib: 32 * 1024,
            spill_mb: Some(16),
        },
    },
    Workload {
        name: "synth-corpus",
        why: "cold synthesis of all 70 paper scripts (Table 10): kq-synth and kq-dsl enumerate and evaluate candidates; the executor does nothing",
        kind: Kind::SynthCorpus,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// An end-to-end metric: what a user of the binary sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// All five are better when lower.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.2,
    },
    EndToEnd {
        name: "wall_w1_s",
        unit: "s",
        bound: 0.2,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        bound: 0.2,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.12,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_names_every_workload_with_its_why() {
        for w in &WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(BENCHMARK_JSON.contains(&entry), "missing {entry}");
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert_eq!(BENCHMARK_JSON.matches("\"why\"").count(), WORKLOADS.len());
    }

    #[test]
    fn benchmark_json_gives_every_end_to_end_metric_its_unit_and_bound() {
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(BENCHMARK_JSON.contains(&entry), "missing {entry}");
        }
        assert_eq!(
            BENCHMARK_JSON.matches("\"bound\"").count(),
            END_TO_END.len()
        );
    }

    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        for (name, unit, better) in crate::layers::PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(BENCHMARK_JSON.contains(&entry), "missing {entry}");
        }
        let listed = BENCHMARK_JSON.matches("\"better\"").count() - END_TO_END.len();
        assert_eq!(listed, crate::layers::PER_LAYER.len());
    }
}
