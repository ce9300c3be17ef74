//! # kq-analyze — static analysis over KumQuat scripts and dataflow graphs
//!
//! KumQuat's core loop is *dynamic*: it observes a command on generated
//! inputs and synthesizes its combiner from behavior alone (the paper's
//! Figure 2). This crate is the static complement — the analysis that can
//! run without executing anything, in three layers:
//!
//! 1. **Effect lattice** ([`kq_pipeline::lattice`], re-exported here):
//!    per-command effect classes derived from the normalized command
//!    signature. `stateless` classifications short-circuit dynamic
//!    synthesis in the planner; the analyzer surfaces all classes as
//!    `KQ301`/`KQ302` infos.
//! 2. **Graph verification** ([`graph`]): each statement compiles to the
//!    same [`kq_pipeline::dataflow::DataflowGraph`] IR the work-stealing
//!    scheduler executes, and the scheduler's own validator
//!    ([`kq_pipeline::dataflow::DataflowGraph::validate`]) checks it; each
//!    problem is one finding, by class: structure (`KQ201`), queue credit
//!    (`KQ202`) and fusion (`KQ203`). The rewrites the planner applies are
//!    named from the static plan's licence flags, which the planner's own
//!    rules set ([`kq_pipeline::plan::PlannedStatement::new`]): the
//!    `sort | uniq` pairs that run as one fold — with the numeric `sort`
//!    after a counting pair where the fold closes in its order —
//!    ([`Analysis::fold_pairs`]), the `tr -s` stages that run chunk-local
//!    ([`Analysis::seams`]) and the `sort` stages whose folds sort raw
//!    chunks ([`Analysis::sortings`]).
//! 3. **Hazard lints** ([`hazards`]): use-before-def, dead writes, and
//!    read/write aliasing over the exact access relation the scheduler's
//!    dependency pass uses (`KQ101`–`KQ103`).
//!
//! The entry point is [`check_script`]; `kumquat check <script>` is its
//! CLI face. Findings carry stable codes, severities, and source spans
//! (see [`diag`] for the code table) and render as human text
//! ([`Analysis::render_human`]) or JSON ([`Analysis::to_json`]).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod graph;
pub mod hazards;

pub use diag::{Diagnostic, Severity};
pub use graph::{FoldPairSite, SeamSite, SortingSite};
pub use kq_pipeline::lattice::{classify, effects, fold_pair, EffectClass, EffectSet, FoldPair};

use kq_pipeline::lattice;
use kq_pipeline::parse::parse_script;
use kq_pipeline::{Script, SourceSpan};
use std::collections::HashMap;

/// One stage's static classification, for reporting.
#[derive(Debug, Clone)]
pub struct StageClass {
    /// Statement index (0-based).
    pub statement: usize,
    /// Stage index within the statement (0-based).
    pub stage: usize,
    /// The command's display form.
    pub command: String,
    /// The effect class.
    pub class: EffectClass,
}

/// The result of analyzing one script.
#[derive(Debug)]
pub struct Analysis {
    /// Every finding, in source order (parse errors first, then lattice
    /// infos, hazards, and graph findings per statement).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of statements the script parsed into (0 on parse error).
    pub statements: usize,
    /// Total stage count.
    pub stages: usize,
    /// Per-stage effect classes, flattened.
    pub classes: Vec<StageClass>,
    /// The `sort | uniq` pairs the lattice licenses to run as one fold
    /// (what the planner fuses when both stages parallelize), in source
    /// order, each saying whether the fold also closes in the order of the
    /// numeric `sort` after it. Facts about the plan, not findings: they are rendered after
    /// the diagnostics and do not count among them.
    pub fold_pairs: Vec<FoldPairSite>,
    /// The `tr -s` stages the lattice licenses to run chunk by chunk under
    /// a one-newline seam, in source order. Facts about the plan like
    /// [`Analysis::fold_pairs`], rendered with them.
    pub seams: Vec<SeamSite>,
    /// The `sort` stages whose folds the lattice licenses to sort raw
    /// chunks, in source order. Facts about the plan like
    /// [`Analysis::fold_pairs`], rendered with them.
    pub sortings: Vec<SortingSite>,
}

impl Analysis {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Stages whose class is [`EffectClass::Stateless`] — the ones whose
    /// combiner the planner materializes without dynamic synthesis.
    pub fn short_circuitable(&self) -> usize {
        self.classes
            .iter()
            .filter(|c| c.class == EffectClass::Stateless)
            .count()
    }

    /// Whether the check passes: no errors, and no warnings either when
    /// `deny_warnings` is set.
    pub fn passes(&self, deny_warnings: bool) -> bool {
        self.errors() == 0 && (!deny_warnings || self.warnings() == 0)
    }

    /// Renders the analysis as human-readable text: one line per finding
    /// plus a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let notes = (self.fold_pairs.iter().map(|site| &site.note))
            .chain(self.seams.iter().map(|site| &site.note))
            .chain(self.sortings.iter().map(|site| &site.note));
        for note in notes {
            out.push_str(note);
            out.push('\n');
        }
        out.push_str(&format!(
            "check: {} statement(s), {} stage(s), {} statically classified \
             ({} short-circuit synthesis), {} error(s), {} warning(s)\n",
            self.statements,
            self.stages,
            self.classes
                .iter()
                .filter(|c| c.class != EffectClass::Unknown)
                .count(),
            self.short_circuitable(),
            self.errors(),
            self.warnings(),
        ));
        out
    }

    /// Renders the analysis as a JSON document (stable field names; no
    /// external serializer — the build is offline).
    pub fn to_json(&self) -> String {
        let diags: Vec<String> = self.diagnostics.iter().map(diag::diagnostic_json).collect();
        let classes: Vec<String> = self
            .classes
            .iter()
            .map(|c| {
                format!(
                    "{{\"statement\":{},\"stage\":{},\"command\":\"{}\",\"class\":\"{}\"}}",
                    c.statement,
                    c.stage,
                    diag::json_escape(&c.command),
                    c.class.as_str()
                )
            })
            .collect();
        let fold_pairs: Vec<String> = self
            .fold_pairs
            .iter()
            .map(|site| {
                format!(
                    "{{\"statement\":{},\"stage\":{},\"fold\":\"{}\"{}}}",
                    site.statement,
                    site.stage,
                    site.pair.as_str(),
                    if site.count_order {
                        ",\"closes\":\"count order\""
                    } else {
                        ""
                    }
                )
            })
            .collect();
        let seams: Vec<String> = self
            .seams
            .iter()
            .map(|site| {
                format!(
                    "{{\"statement\":{},\"stage\":{}}}",
                    site.statement, site.stage
                )
            })
            .collect();
        let sortings: Vec<String> = self
            .sortings
            .iter()
            .map(|site| {
                format!(
                    "{{\"statement\":{},\"stage\":{}}}",
                    site.statement, site.stage
                )
            })
            .collect();
        format!(
            "{{\"summary\":{{\"statements\":{},\"stages\":{},\"short_circuitable\":{},\
             \"errors\":{},\"warnings\":{}}},\"classes\":[{}],\"fold_pairs\":[{}],\
             \"seams\":[{}],\"sortings\":[{}],\"diagnostics\":[{}]}}",
            self.statements,
            self.stages,
            self.short_circuitable(),
            self.errors(),
            self.warnings(),
            classes.join(","),
            fold_pairs.join(","),
            seams.join(","),
            sortings.join(","),
            diags.join(",")
        )
    }
}

/// Analyzes a script text against shell variables: parse, classify every
/// stage on the effect lattice, lint for VFS hazards, and verify each
/// statement's dataflow graph. Never executes a command.
pub fn check_script(script_text: &str, env: &HashMap<String, String>) -> Analysis {
    let script = match parse_script(script_text, env) {
        Ok(script) => script,
        Err(e) => {
            let span = SourceSpan {
                line: e.line,
                col: e.col,
                offset: e.offset,
                len: 1,
            };
            return Analysis {
                diagnostics: vec![Diagnostic::new(
                    "KQ001",
                    Severity::Error,
                    format!("parse error: {}", e.message),
                )
                .at_statement(e.statement, span)],
                statements: 0,
                stages: 0,
                classes: Vec::new(),
                fold_pairs: Vec::new(),
                seams: Vec::new(),
                sortings: Vec::new(),
            };
        }
    };
    check_parsed(&script)
}

/// [`check_script`] for an already-parsed script.
pub fn check_parsed(script: &Script) -> Analysis {
    let mut diagnostics = Vec::new();
    let mut classes = Vec::new();
    let mut class_table: Vec<Vec<EffectClass>> = Vec::new();

    for (si, statement) in script.statements.iter().enumerate() {
        let mut row = Vec::new();
        for (gi, stage) in statement.stages.iter().enumerate() {
            let class = lattice::classify(&stage.command);
            row.push(class);
            classes.push(StageClass {
                statement: si,
                stage: gi,
                command: stage.command.display(),
                class,
            });
            match class {
                EffectClass::Unknown => {}
                EffectClass::Stateless => diagnostics.push(
                    Diagnostic::new(
                        "KQ301",
                        Severity::Info,
                        format!(
                            "`{}` is statically stateless: its concat combiner \
                             needs no dynamic synthesis",
                            stage.command.display()
                        ),
                    )
                    .at_stage(si, gi, stage.span),
                ),
                class => diagnostics.push(
                    Diagnostic::new(
                        "KQ302",
                        Severity::Info,
                        format!(
                            "`{}` classifies as {} on the effect lattice \
                             (advisory; synthesis still provides the combiner)",
                            stage.command.display(),
                            class.as_str()
                        ),
                    )
                    .at_stage(si, gi, stage.span),
                ),
            }
        }
        class_table.push(row);
    }

    diagnostics.extend(hazards::vfs_hazards(script));
    let plans: Vec<_> = script
        .statements
        .iter()
        .zip(&class_table)
        .map(|(statement, classes)| graph::static_plan(statement, classes))
        .collect();
    diagnostics.extend(graph::verify_graphs(script, &plans));

    Analysis {
        diagnostics,
        statements: script.statements.len(),
        stages: script.statements.iter().map(|s| s.stages.len()).sum(),
        classes,
        fold_pairs: graph::fold_pair_sites(script, &plans),
        seams: graph::seam_sites(script, &plans),
        sortings: graph::sorting_sites(script, &plans),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(text: &str) -> Analysis {
        check_script(text, &HashMap::new())
    }

    #[test]
    fn clean_pipeline_passes_with_lattice_infos_only() {
        let a = check("cat /in.txt | grep fox | tr A-Z a-z | sort | uniq -c\n");
        assert!(a.passes(true), "unexpected findings: {:?}", a.diagnostics);
        assert_eq!(a.statements, 1);
        assert_eq!(a.stages, 4);
        assert_eq!(a.short_circuitable(), 2); // grep, tr
        let infos: Vec<&str> = a.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(infos, vec!["KQ301", "KQ301", "KQ302", "KQ302"]);
        // The pair is named, in both renderings, and is not a finding.
        assert_eq!(a.fold_pairs.len(), 1);
        assert!(a
            .render_human()
            .contains("counting fold: s1 stages 3-4 'sort | uniq -c'\n"));
        assert!(a
            .to_json()
            .contains("\"fold_pairs\":[{\"statement\":0,\"stage\":2,\"fold\":\"counting\"}]"));
        assert!(a.seams.is_empty());
        // A seam stage is named the same way.
        let a = check("cat /in.txt | tr -cs A-Za-z '\\n' | sort\n");
        assert!(a.passes(true), "unexpected findings: {:?}", a.diagnostics);
        assert!(a
            .render_human()
            .contains("seam: s1 stage 1 'tr -cs A-Za-z '\\n'' runs chunk-local\n"));
        assert!(a
            .to_json()
            .contains("\"seams\":[{\"statement\":0,\"stage\":0}]"));
        // And so is a sort whose fold sorts raw chunks — but not the sort
        // of a counting pair.
        assert!(a
            .render_human()
            .contains("sorting fold: s1 stage 2 'sort'\n"));
        assert!(a
            .to_json()
            .contains("\"sortings\":[{\"statement\":0,\"stage\":1}]"));
        let a = check("cat /in.txt | sort | uniq -c\n");
        assert!(a.sortings.is_empty() && a.to_json().contains("\"sortings\":[]"));
    }

    #[test]
    fn parse_errors_surface_as_kq001_with_position() {
        let a = check("cat /in.txt | sort >\n");
        assert!(!a.passes(false));
        assert_eq!(a.diagnostics.len(), 1);
        let d = &a.diagnostics[0];
        assert_eq!((d.code, d.severity), ("KQ001", Severity::Error));
        assert!(d.message.contains("missing redirection target"));
        assert_eq!(d.span.unwrap().line, 1);
    }

    #[test]
    fn hazards_fail_only_under_deny_warnings() {
        let a = check("cat /t.txt | grep a | sort > /t.txt\n");
        assert_eq!(a.warnings(), 1);
        assert!(a.passes(false));
        assert!(!a.passes(true));
    }

    #[test]
    fn json_output_round_trips_the_counts() {
        let a = check("cat /in.txt | grep fox | wc -l\n");
        let json = a.to_json();
        assert!(json.starts_with("{\"summary\":{\"statements\":1,\"stages\":2,"));
        assert!(json.contains("\"class\":\"stateless\""));
        assert!(json.contains("\"class\":\"commutative-fold\""));
    }
}
