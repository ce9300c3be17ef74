//! `awk` — a purpose-built interpreter for the AWK subset appearing in the
//! KumQuat corpus (Table 10): pattern/action items with field references,
//! `NF`, `NR`, `length`, numeric/string comparisons, `print` lists, field
//! assignment (`{$1=$1};1` — the whitespace normalizer), `-v` variable
//! presets (only `OFS` is used), and the bare `1` truthy pattern.
//!
//! AWK's string/number duality is honoured where the corpus depends on it:
//! comparing a field against a numeric constant coerces numerically
//! (`"$1 >= 1000"` on `uniq -c` output), while string-vs-string compares
//! byte-wise.

use crate::{Bytes, CmdError, ExecContext, UnixCommand};
use std::collections::HashMap;

#[derive(Debug, Clone, PartialEq)]
enum Expr {
    Num(f64),
    Str(String),
    /// `$e` — field reference; `$0` is the whole record.
    Field(Box<Expr>),
    /// `NF` — number of fields.
    Nf,
    /// `NR` — the current record's number; in `END`, the records read.
    Nr,
    /// `length` — length of `$0`.
    Length,
    /// A scalar variable (e.g. `OFS`, or an unset user variable).
    Var(String),
    Compare(CmpOp, Box<Expr>, Box<Expr>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CmpOp {
    Eq,
    Ne,
    Ge,
    Le,
    Gt,
    Lt,
}

#[derive(Debug, Clone, PartialEq)]
enum Stmt {
    /// `print` with an (optionally empty) expression list.
    Print(Vec<Expr>),
    /// `$n = expr` or `var = expr`.
    Assign(Target, Expr),
    /// `var += expr` (numeric accumulation; fields coerce to numbers).
    AddAssign(Target, Expr),
}

#[derive(Debug, Clone, PartialEq)]
enum Target {
    Field(Expr),
    Var(String),
}

/// Which phase of the run an item belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    /// Once, before any input line.
    Begin,
    /// Per input line (the default).
    Main,
    /// Once, after the last input line.
    End,
}

#[derive(Debug, Clone, PartialEq)]
struct Item {
    section: Section,
    pattern: Option<Expr>,
    action: Option<Vec<Stmt>>,
}

/// The `awk` command.
pub struct AwkCmd {
    items: Vec<Item>,
    presets: Vec<(String, String)>,
    display: String,
}

impl AwkCmd {
    /// Parses `awk [-v var=val]... 'program'`.
    pub fn parse(args: &[String]) -> Result<AwkCmd, CmdError> {
        let mut presets = Vec::new();
        let mut program: Option<&String> = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "-v" {
                let kv = it
                    .next()
                    .ok_or_else(|| CmdError::new("awk", "missing -v assignment"))?;
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| CmdError::new("awk", "malformed -v assignment"))?;
                presets.push((k.to_owned(), unescape(v)));
            } else if program.is_none() {
                program = Some(a);
            } else {
                return Err(CmdError::new("awk", "file operands are not supported"));
            }
        }
        let text = program.ok_or_else(|| CmdError::new("awk", "missing program"))?;
        let items = parse_program(text)?;
        let mut display = String::from("awk");
        for a in args {
            display.push(' ');
            if a.contains(' ') || a.contains('$') || a.contains('{') {
                display.push('\'');
                display.push_str(a);
                display.push('\'');
            } else {
                display.push_str(a);
            }
        }
        Ok(AwkCmd {
            items,
            presets,
            display,
        })
    }
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c == '\\' {
            match it.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some(o) => out.push(o),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

// ---- lexer ----

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Dollar,
    Num(f64),
    Str(String),
    Ident(String),
    Op(CmpOp),
    Assign,
    AddAssign,
    Comma,
    Semi,
    LBrace,
    RBrace,
}

fn lex(text: &str) -> Result<Vec<Tok>, CmdError> {
    let mut toks = Vec::new();
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' | '\n' => i += 1,
            '$' => {
                toks.push(Tok::Dollar);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            ';' => {
                toks.push(Tok::Semi);
                i += 1;
            }
            '{' => {
                toks.push(Tok::LBrace);
                i += 1;
            }
            '}' => {
                toks.push(Tok::RBrace);
                i += 1;
            }
            '"' => {
                let mut s = String::new();
                i += 1;
                while i < chars.len() && chars[i] != '"' {
                    if chars[i] == '\\' && i + 1 < chars.len() {
                        s.push(match chars[i + 1] {
                            't' => '\t',
                            'n' => '\n',
                            o => o,
                        });
                        i += 2;
                    } else {
                        s.push(chars[i]);
                        i += 1;
                    }
                }
                if i >= chars.len() {
                    return Err(CmdError::new("awk", "unterminated string"));
                }
                i += 1;
                toks.push(Tok::Str(s));
            }
            '=' if chars.get(i + 1) == Some(&'=') => {
                toks.push(Tok::Op(CmpOp::Eq));
                i += 2;
            }
            '+' if chars.get(i + 1) == Some(&'=') => {
                toks.push(Tok::AddAssign);
                i += 2;
            }
            '=' => {
                toks.push(Tok::Assign);
                i += 1;
            }
            '!' if chars.get(i + 1) == Some(&'=') => {
                toks.push(Tok::Op(CmpOp::Ne));
                i += 2;
            }
            '>' if chars.get(i + 1) == Some(&'=') => {
                toks.push(Tok::Op(CmpOp::Ge));
                i += 2;
            }
            '<' if chars.get(i + 1) == Some(&'=') => {
                toks.push(Tok::Op(CmpOp::Le));
                i += 2;
            }
            '>' => {
                toks.push(Tok::Op(CmpOp::Gt));
                i += 1;
            }
            '<' => {
                toks.push(Tok::Op(CmpOp::Lt));
                i += 1;
            }
            d if d.is_ascii_digit() || d == '.' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_digit() || chars[i] == '.') {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                toks.push(Tok::Num(text.parse().map_err(|_| {
                    CmdError::new("awk", format!("bad number {text:?}"))
                })?));
            }
            a if a.is_ascii_alphabetic() || a == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push(Tok::Ident(chars[start..i].iter().collect()));
            }
            other => {
                return Err(CmdError::new(
                    "awk",
                    format!("unexpected character {other:?}"),
                ))
            }
        }
    }
    Ok(toks)
}

// ---- parser ----

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

fn parse_program(text: &str) -> Result<Vec<Item>, CmdError> {
    let mut p = Parser {
        toks: lex(text)?,
        pos: 0,
    };
    let mut items = Vec::new();
    loop {
        while p.peek() == Some(&Tok::Semi) {
            p.pos += 1;
        }
        if p.peek().is_none() {
            break;
        }
        items.push(p.parse_item()?);
    }
    if items.is_empty() {
        return Err(CmdError::new("awk", "empty program"));
    }
    Ok(items)
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn err(&self, msg: &str) -> CmdError {
        CmdError::new("awk", format!("{msg} (token {})", self.pos))
    }

    fn parse_item(&mut self) -> Result<Item, CmdError> {
        let section = match self.peek() {
            Some(Tok::Ident(name)) if name == "BEGIN" => {
                self.pos += 1;
                Section::Begin
            }
            Some(Tok::Ident(name)) if name == "END" => {
                self.pos += 1;
                Section::End
            }
            _ => Section::Main,
        };
        if section != Section::Main && self.peek() != Some(&Tok::LBrace) {
            return Err(self.err("BEGIN/END must be followed by an action"));
        }
        let pattern = if self.peek() != Some(&Tok::LBrace) {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let action = if self.peek() == Some(&Tok::LBrace) {
            self.pos += 1;
            let mut stmts = Vec::new();
            loop {
                while self.peek() == Some(&Tok::Semi) {
                    self.pos += 1;
                }
                if self.peek() == Some(&Tok::RBrace) {
                    self.pos += 1;
                    break;
                }
                if self.peek().is_none() {
                    return Err(self.err("unterminated action"));
                }
                stmts.push(self.parse_stmt()?);
            }
            Some(stmts)
        } else {
            None
        };
        if pattern.is_none() && action.is_none() {
            return Err(self.err("expected pattern or action"));
        }
        Ok(Item {
            section,
            pattern,
            action,
        })
    }

    fn parse_stmt(&mut self) -> Result<Stmt, CmdError> {
        if self.peek() == Some(&Tok::Ident("print".to_owned())) {
            self.pos += 1;
            let mut exprs = Vec::new();
            if !matches!(self.peek(), None | Some(Tok::Semi) | Some(Tok::RBrace)) {
                exprs.push(self.parse_expr()?);
                while self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                    exprs.push(self.parse_expr()?);
                }
            }
            return Ok(Stmt::Print(exprs));
        }
        // Assignment: target '=' expr
        let target = match self.peek() {
            Some(Tok::Dollar) => {
                self.pos += 1;
                Target::Field(self.parse_primary()?)
            }
            Some(Tok::Ident(name)) => {
                let name = name.clone();
                self.pos += 1;
                Target::Var(name)
            }
            _ => return Err(self.err("expected statement")),
        };
        match self.peek() {
            Some(Tok::Assign) => {
                self.pos += 1;
                let value = self.parse_expr()?;
                Ok(Stmt::Assign(target, value))
            }
            Some(Tok::AddAssign) => {
                self.pos += 1;
                let value = self.parse_expr()?;
                Ok(Stmt::AddAssign(target, value))
            }
            _ => Err(self.err("expected '=' or '+=' in assignment")),
        }
    }

    fn parse_expr(&mut self) -> Result<Expr, CmdError> {
        let lhs = self.parse_primary()?;
        if let Some(Tok::Op(op)) = self.peek() {
            let op = *op;
            self.pos += 1;
            let rhs = self.parse_primary()?;
            return Ok(Expr::Compare(op, Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn parse_primary(&mut self) -> Result<Expr, CmdError> {
        match self.peek().cloned() {
            Some(Tok::Dollar) => {
                self.pos += 1;
                let idx = self.parse_primary()?;
                Ok(Expr::Field(Box::new(idx)))
            }
            Some(Tok::Num(n)) => {
                self.pos += 1;
                Ok(Expr::Num(n))
            }
            Some(Tok::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Str(s))
            }
            Some(Tok::Ident(name)) => {
                self.pos += 1;
                match name.as_str() {
                    "NF" => Ok(Expr::Nf),
                    "NR" => Ok(Expr::Nr),
                    "length" => Ok(Expr::Length),
                    _ => Ok(Expr::Var(name)),
                }
            }
            _ => Err(self.err("expected expression")),
        }
    }
}

// ---- evaluation ----

/// An AWK value with the string/number duality.
#[derive(Debug, Clone)]
enum Value {
    Num(f64),
    Str(String),
    /// A field that looks numeric: compares numerically against numbers.
    StrNum(String, f64),
}

impl Value {
    fn as_num(&self) -> f64 {
        match self {
            Value::Num(n) => *n,
            Value::StrNum(_, n) => *n,
            Value::Str(s) => numeric_prefix(s),
        }
    }

    fn as_str(&self) -> String {
        match self {
            Value::Num(n) => format_num(*n),
            Value::Str(s) | Value::StrNum(s, _) => s.clone(),
        }
    }

    fn truthy(&self) -> bool {
        match self {
            Value::Num(n) => *n != 0.0,
            Value::StrNum(_, n) => *n != 0.0,
            Value::Str(s) => !s.is_empty(),
        }
    }
}

fn numeric_prefix(s: &str) -> f64 {
    let t = s.trim_start();
    let mut end = 0;
    let bytes = t.as_bytes();
    if end < bytes.len() && (bytes[end] == b'-' || bytes[end] == b'+') {
        end += 1;
    }
    while end < bytes.len() && (bytes[end].is_ascii_digit() || bytes[end] == b'.') {
        end += 1;
    }
    t[..end].parse().unwrap_or(0.0)
}

fn looks_numeric(s: &str) -> bool {
    let t = s.trim();
    !t.is_empty() && t.parse::<f64>().is_ok()
}

fn format_num(n: f64) -> String {
    if n == n.trunc() && n.abs() < 1e16 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// A record being processed: `$0` plus its field decomposition.
struct Record {
    line: String,
    fields: Vec<String>,
}

impl Record {
    fn new(line: &str) -> Record {
        Record {
            line: line.to_owned(),
            fields: line.split_ascii_whitespace().map(str::to_owned).collect(),
        }
    }

    fn field(&self, n: usize) -> &str {
        if n == 0 {
            &self.line
        } else {
            self.fields.get(n - 1).map(String::as_str).unwrap_or("")
        }
    }

    fn set_field(&mut self, n: usize, value: String, ofs: &str) {
        if n == 0 {
            self.line = value;
            self.fields = self
                .line
                .split_ascii_whitespace()
                .map(str::to_owned)
                .collect();
            return;
        }
        if self.fields.len() < n {
            self.fields.resize(n, String::new());
        }
        self.fields[n - 1] = value;
        self.line = self.fields.join(ofs);
    }
}

struct Interp<'a> {
    vars: HashMap<String, String>,
    items: &'a [Item],
    /// Records read so far (`NR`).
    nr: usize,
}

impl Interp<'_> {
    fn ofs(&self) -> String {
        self.vars
            .get("OFS")
            .cloned()
            .unwrap_or_else(|| " ".to_owned())
    }

    fn eval(&self, expr: &Expr, rec: &Record) -> Value {
        match expr {
            Expr::Num(n) => Value::Num(*n),
            Expr::Str(s) => Value::Str(s.clone()),
            Expr::Nf => Value::Num(rec.fields.len() as f64),
            Expr::Nr => Value::Num(self.nr as f64),
            Expr::Length => Value::Num(rec.line.chars().count() as f64),
            Expr::Var(name) => {
                let v = self.vars.get(name).cloned().unwrap_or_default();
                if looks_numeric(&v) {
                    let n = numeric_prefix(&v);
                    Value::StrNum(v, n)
                } else {
                    Value::Str(v)
                }
            }
            Expr::Field(idx) => {
                let n = self.eval(idx, rec).as_num().max(0.0) as usize;
                let s = rec.field(n);
                if looks_numeric(s) {
                    Value::StrNum(s.to_owned(), numeric_prefix(s))
                } else {
                    Value::Str(s.to_owned())
                }
            }
            Expr::Compare(op, lhs, rhs) => {
                let l = self.eval(lhs, rec);
                let r = self.eval(rhs, rec);
                let numeric = matches!(l, Value::Num(_) | Value::StrNum(..))
                    && matches!(r, Value::Num(_) | Value::StrNum(..));
                let ord = if numeric {
                    l.as_num().partial_cmp(&r.as_num())
                } else {
                    Some(l.as_str().cmp(&r.as_str()))
                };
                let Some(ord) = ord else {
                    return Value::Num(0.0);
                };
                let hit = match op {
                    CmpOp::Eq => ord.is_eq(),
                    CmpOp::Ne => !ord.is_eq(),
                    CmpOp::Ge => ord.is_ge(),
                    CmpOp::Le => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Lt => ord.is_lt(),
                };
                Value::Num(if hit { 1.0 } else { 0.0 })
            }
        }
    }

    fn run_line(&mut self, line: &str, out: &mut String) {
        self.nr += 1;
        self.run_items(Section::Main, line, out);
    }

    fn run_items(&mut self, section: Section, line: &str, out: &mut String) {
        let mut rec = Record::new(line);
        for item in self.items {
            if item.section != section {
                continue;
            }
            let selected = match &item.pattern {
                Some(p) => self.eval(p, &rec).truthy(),
                None => true,
            };
            if !selected {
                continue;
            }
            match &item.action {
                None => {
                    out.push_str(&rec.line);
                    out.push('\n');
                }
                Some(stmts) => {
                    for stmt in stmts {
                        match stmt {
                            Stmt::Print(exprs) => {
                                if exprs.is_empty() {
                                    out.push_str(&rec.line);
                                } else {
                                    let ofs = self.ofs();
                                    let parts: Vec<String> =
                                        exprs.iter().map(|e| self.eval(e, &rec).as_str()).collect();
                                    out.push_str(&parts.join(&ofs));
                                }
                                out.push('\n');
                            }
                            Stmt::Assign(target, value) => {
                                let v = self.eval(value, &rec).as_str();
                                match target {
                                    Target::Field(idx) => {
                                        let n = self.eval(idx, &rec).as_num().max(0.0) as usize;
                                        let ofs = self.ofs();
                                        rec.set_field(n, v, &ofs);
                                    }
                                    Target::Var(name) => {
                                        self.vars.insert(name.clone(), v);
                                    }
                                }
                            }
                            Stmt::AddAssign(target, value) => {
                                let add = self.eval(value, &rec).as_num();
                                match target {
                                    Target::Field(idx) => {
                                        let n = self.eval(idx, &rec).as_num().max(0.0) as usize;
                                        let cur = numeric_prefix(rec.field(n));
                                        let ofs = self.ofs();
                                        rec.set_field(n, format_num(cur + add), &ofs);
                                    }
                                    Target::Var(name) => {
                                        let cur = self
                                            .vars
                                            .get(name)
                                            .map(|v| numeric_prefix(v))
                                            .unwrap_or(0.0);
                                        self.vars.insert(name.clone(), format_num(cur + add));
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

impl UnixCommand for AwkCmd {
    fn display(&self) -> String {
        self.display.clone()
    }

    fn decodes(&self) -> bool {
        true
    }

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let input = crate::decode(&input, "awk")?;
        let text = || -> Result<String, CmdError> {
            let mut interp = Interp {
                vars: self.presets.iter().cloned().collect(),
                items: &self.items,
                nr: 0,
            };
            let mut out = String::with_capacity(input.len());
            interp.run_items(Section::Begin, "", &mut out);
            let mut last = "";
            for line in input.split_terminator('\n') {
                interp.run_line(line, &mut out);
                last = line;
            }
            // In END, `$0` holds the last record read (as in GNU awk).
            interp.run_items(Section::End, last, &mut out);
            Ok(out)
        };
        text().map(Bytes::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_command;

    fn run(cmd: &str, input: &str) -> String {
        parse_command(cmd)
            .unwrap()
            .run_str(input, &ExecContext::default())
            .unwrap()
    }

    #[test]
    fn numeric_threshold_pattern() {
        // poets 8.2_1: keep uniq -c lines with count >= 1000.
        let input = "   1500 the\n     30 ox\n   1000 a\n";
        assert_eq!(
            run(r#"awk "\$1 >= 1000""#, input),
            "   1500 the\n   1000 a\n"
        );
    }

    #[test]
    fn pattern_with_print_action() {
        // poets find_anagrams: print the word when its count >= 2.
        let input = "      2 abc\n      1 xyz\n";
        assert_eq!(run(r#"awk "\$1 >= 2 {print \$2}""#, input), "abc\n");
    }

    #[test]
    fn length_patterns() {
        assert_eq!(
            run(r#"awk "length >= 16""#, "short\nabcdefghijklmnop\n"),
            "abcdefghijklmnop\n"
        );
        assert_eq!(run("awk 'length <= 2'", "ab\nabc\na\n"), "ab\na\n");
    }

    #[test]
    fn whitespace_normalizer() {
        // unix50 19.sh: `{$1=$1};1` squeezes runs of blanks.
        assert_eq!(run(r#"awk "{\$1=\$1};1""#, "  a   b\tc \n"), "a b c\n");
        // Empty lines survive as empty lines.
        assert_eq!(run(r#"awk "{\$1=\$1};1""#, "\n"), "\n");
    }

    #[test]
    fn print_reordered_fields_with_ofs() {
        let input = "3 bus\n";
        assert_eq!(
            run(r#"awk -v OFS="\t" "{print \$2,\$1}""#, input),
            "bus\t3\n"
        );
    }

    #[test]
    fn print_field_and_whole_record() {
        // unix50 14.sh: prefix each line with its second field.
        assert_eq!(run(r#"awk "{print \$2, \$0}""#, "a b c\n"), "b a b c\n");
    }

    #[test]
    fn print_nf() {
        assert_eq!(run("awk '{print NF}'", "a b c\n\nx\n"), "3\n0\n1\n");
    }

    #[test]
    fn equality_pattern_with_two_prints() {
        let input = "2 x y\n3 p q\n2 m n\n";
        assert_eq!(
            run(r#"awk "\$1 == 2 {print \$2, \$3}""#, input),
            "x y\nm n\n"
        );
    }

    #[test]
    fn string_comparison_is_bytewise() {
        assert_eq!(run(r#"awk "\$1 == \"b\"""#, "a 1\nb 2\n"), "b 2\n");
    }

    #[test]
    fn bare_one_prints_everything() {
        assert_eq!(run("awk 1", "x\ny\n"), "x\ny\n");
    }

    #[test]
    fn field_index_expression() {
        assert_eq!(run("awk '{print $NF}'", "a b c\n"), "c\n");
    }

    #[test]
    fn end_sum_reducer() {
        // The classic column summer: output is a bare total.
        assert_eq!(
            run(
                "awk '{s += $1} END {print s}'",
                "3
4
5
"
            ),
            "12
"
        );
        // Non-numeric fields coerce to 0, as in GNU awk.
        assert_eq!(
            run(
                "awk '{s += $1} END {print s}'",
                "2 x
zz
"
            ),
            "2
"
        );
        // No input lines: s is unset, printing an empty line.
        assert_eq!(run("awk '{s += $1} END {print s}'", ""), "\n");
    }

    #[test]
    fn end_sum_is_divide_and_conquer_addable() {
        // The property that makes bare `add` the correct combiner.
        let f = |input: &str| run("awk '{s += $1} END {print s}'", input);
        let y1: i64 = f("1\n2\n").trim().parse().unwrap();
        let y2: i64 = f("30\n9\n").trim().parse().unwrap();
        let y12: i64 = f("1\n2\n30\n9\n").trim().parse().unwrap();
        assert_eq!(y12, y1 + y2);
    }

    #[test]
    fn begin_runs_before_input() {
        assert_eq!(
            run("awk 'BEGIN {print \"hdr\"} {print $1}'", "a b\n"),
            "hdr\na\n"
        );
    }

    #[test]
    fn nr_numbers_records_and_counts_them_in_end() {
        assert_eq!(run("awk '{print NR}'", "a\nb c\n\nd\n"), "1\n2\n3\n4\n");
        assert_eq!(run("awk 'END {print NR}'", "a\nb\nc\n"), "3\n");
        assert_eq!(run("awk 'END {print NR}'", ""), "0\n");
        assert_eq!(run("awk 'NR >= 2'", "a\nb\nc\n"), "b\nc\n");
    }

    #[test]
    fn end_sees_last_record() {
        assert_eq!(run("awk 'END {print $1}'", "a\nb\nlast x\n"), "last\n");
    }

    #[test]
    fn add_assign_on_field() {
        assert_eq!(run("awk '{$1 += 10};1'", "5 x\n"), "15 x\n");
    }

    #[test]
    fn begin_end_require_action() {
        assert!(parse_command("awk 'BEGIN'").is_err());
        assert!(parse_command("awk 'END >= 2'").is_err());
    }

    #[test]
    fn parse_errors() {
        assert!(parse_command("awk").is_err());
        assert!(parse_command("awk '{print $1'").is_err());
        assert!(parse_command("awk '@'").is_err());
    }
}
