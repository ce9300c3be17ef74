//! Diagnostics: lint codes, severities, source locations, and the two
//! rendering formats (human text and JSON).
//!
//! # Lint codes
//!
//! Codes are stable — tests, CI jobs, and editor integrations key on
//! them — and grouped by analysis layer:
//!
//! | code | severity | meaning |
//! |---|---|---|
//! | `KQ001` | error | the script does not parse |
//! | `KQ101` | warning | use-before-def: a statement reads a path the script only writes *later* |
//! | `KQ102` | warning | dead write: a redirection target is overwritten before anything reads it |
//! | `KQ103` | warning | self-alias: a statement reads its own redirection target |
//! | `KQ201` | error | a statement's dataflow graph violates a structural invariant (node order, stage coverage) |
//! | `KQ203` | error | illegal fusion: a node the plan does not license — a fused run over a stage that is not chunk-local or a seam stage anywhere but the head of a seam worker, a multi-stage fold that is no licensed pair, a sorting fold over no licensed sort, a counting fold over no counting pair |
//!
//! `KQ202` (zero queue credit) is retired: every caller clamps the credit
//! to at least one chunk, so no graph could draw it. Its code is not
//! reused.
//! | `KQ301` | info | a stage is statically `stateless`; dynamic synthesis is short-circuited |
//! | `KQ302` | info | a stage's effect class is known statically (advisory; synthesis still runs) |

use kq_pipeline::SourceSpan;
use std::fmt;

/// How serious a finding is. Ordering: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: static facts worth surfacing (effect classes).
    Info,
    /// A hazard that executes today but is fragile or wasteful; fails the
    /// check under `--deny-warnings`.
    Warning,
    /// The script cannot be analyzed or would misbehave; always fails.
    Error,
}

impl Severity {
    /// Lowercase name (`"info"`, `"warning"`, `"error"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding: a stable code, a severity, a message, and where.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable lint code (`"KQ101"`).
    pub code: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Human-readable description of the finding.
    pub message: String,
    /// Statement index (0-based) the finding anchors to, if any.
    pub statement: Option<usize>,
    /// Stage index within the statement, if the finding is stage-level.
    pub stage: Option<usize>,
    /// Source position in the original script text, if known.
    pub span: Option<SourceSpan>,
}

impl Diagnostic {
    /// Builds a diagnostic with no location; chain the `at_*` builders.
    pub fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            statement: None,
            stage: None,
            span: None,
        }
    }

    /// Anchors the diagnostic to a statement and its source span.
    pub fn at_statement(mut self, statement: usize, span: SourceSpan) -> Diagnostic {
        self.statement = Some(statement);
        self.span = Some(span);
        self
    }

    /// Anchors the diagnostic to a stage within a statement.
    pub fn at_stage(mut self, statement: usize, stage: usize, span: SourceSpan) -> Diagnostic {
        self.statement = Some(statement);
        self.stage = Some(stage);
        self.span = Some(span);
        self
    }
}

impl fmt::Display for Diagnostic {
    /// `warning[KQ102] statement 1, line 1, col 1: write to /tmp/x ...`
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity.as_str(), self.code)?;
        if let Some(si) = self.statement {
            write!(f, " statement {}", si + 1)?;
            if let Some(gi) = self.stage {
                write!(f, " stage {}", gi + 1)?;
            }
            if let Some(span) = self.span {
                write!(f, ", line {}, col {}", span.line, span.col)?;
            }
        }
        write!(f, ": {}", self.message)
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders one diagnostic as a JSON object.
pub(crate) fn diagnostic_json(d: &Diagnostic) -> String {
    let mut fields = vec![
        format!("\"code\":\"{}\"", d.code),
        format!("\"severity\":\"{}\"", d.severity.as_str()),
        format!("\"message\":\"{}\"", json_escape(&d.message)),
    ];
    if let Some(si) = d.statement {
        fields.push(format!("\"statement\":{si}"));
    }
    if let Some(gi) = d.stage {
        fields.push(format!("\"stage\":{gi}"));
    }
    if let Some(span) = d.span {
        fields.push(format!(
            "\"span\":{{\"line\":{},\"col\":{},\"offset\":{},\"len\":{}}}",
            span.line, span.col, span.offset, span.len
        ));
    }
    format!("{{{}}}", fields.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_code_location_and_message() {
        let span = SourceSpan {
            line: 2,
            col: 5,
            offset: 20,
            len: 9,
        };
        let d = Diagnostic::new("KQ102", Severity::Warning, "dead write").at_statement(1, span);
        assert_eq!(
            d.to_string(),
            "warning[KQ102] statement 2, line 2, col 5: dead write"
        );
    }

    #[test]
    fn json_escapes_control_characters_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn diagnostic_json_serializes_optional_fields() {
        let d = Diagnostic::new("KQ001", Severity::Error, "nope");
        assert_eq!(
            diagnostic_json(&d),
            "{\"code\":\"KQ001\",\"severity\":\"error\",\"message\":\"nope\"}"
        );
    }
}
