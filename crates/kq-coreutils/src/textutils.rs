//! Small text-filter commands: `col -bx`, `rev`, `fmt -w N`, and
//! `iconv -f utf-8 -t ascii//translit`.

use crate::{Bytes, CmdError, ExecContext, UnixCommand};

/// `col -bx` — process backspaces (keeping the last character written to
/// each column) and expand tabs to spaces. The spell benchmark uses it to
/// flatten troff-style emboldening.
pub struct ColCmd {
    no_backspaces: bool,
    expand_tabs: bool,
}

impl ColCmd {
    /// Parses `col` arguments.
    pub fn parse(args: &[String]) -> Result<ColCmd, CmdError> {
        let mut no_backspaces = false;
        let mut expand_tabs = false;
        for a in args {
            let Some(flags) = a.strip_prefix('-') else {
                return Err(CmdError::new("col", format!("unexpected operand {a}")));
            };
            for f in flags.chars() {
                match f {
                    'b' => no_backspaces = true,
                    'x' => expand_tabs = true,
                    other => return Err(CmdError::new("col", format!("unknown flag -{other}"))),
                }
            }
        }
        Ok(ColCmd {
            no_backspaces,
            expand_tabs,
        })
    }
}

impl UnixCommand for ColCmd {
    fn display(&self) -> String {
        let mut s = String::from("col");
        if self.no_backspaces || self.expand_tabs {
            s.push_str(" -");
            if self.no_backspaces {
                s.push('b');
            }
            if self.expand_tabs {
                s.push('x');
            }
        }
        s
    }

    fn decodes(&self) -> bool {
        true
    }

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let input = crate::decode(&input, "col")?;
        let text = || -> Result<String, CmdError> {
            let mut out = String::with_capacity(input.len());
            for line in input.split_terminator('\n') {
                let mut cols: Vec<char> = Vec::with_capacity(line.len());
                for c in line.chars() {
                    match c {
                        '\u{8}' if self.no_backspaces => {
                            cols.pop();
                        }
                        '\t' if self.expand_tabs => {
                            let next_stop = (cols.len() / 8 + 1) * 8;
                            while cols.len() < next_stop {
                                cols.push(' ');
                            }
                        }
                        '\r' => {}
                        other => cols.push(other),
                    }
                }
                out.extend(cols);
                out.push('\n');
            }
            Ok(out)
        };
        text().map(Bytes::from)
    }
}

/// `rev` — reverse the characters of every line.
pub struct RevCmd;

impl UnixCommand for RevCmd {
    fn display(&self) -> String {
        "rev".to_owned()
    }

    fn decodes(&self) -> bool {
        true
    }

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let input = crate::decode(&input, "rev")?;
        let text = || -> Result<String, CmdError> {
            let mut out = String::with_capacity(input.len());
            for line in input.split_terminator('\n') {
                out.extend(line.chars().rev());
                out.push('\n');
            }
            Ok(out)
        };
        text().map(Bytes::from)
    }
}

/// `fmt -w N` — greedy word-wrap to width N. With `-w1`, every word lands
/// on its own line (the unix50 tokenizer idiom).
pub struct FmtCmd {
    width: usize,
}

impl FmtCmd {
    /// Parses `fmt` arguments (`-w N`, `-wN`, `-N`).
    pub fn parse(args: &[String]) -> Result<FmtCmd, CmdError> {
        let mut width = 75usize;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let spec: &str = if a == "-w" {
                it.next()
                    .ok_or_else(|| CmdError::new("fmt", "missing width"))?
            } else if let Some(body) = a.strip_prefix("-w") {
                body
            } else if let Some(body) = a.strip_prefix('-') {
                body
            } else {
                return Err(CmdError::new("fmt", format!("unexpected operand {a}")));
            };
            width = spec
                .parse()
                .map_err(|_| CmdError::new("fmt", format!("invalid width {spec:?}")))?;
        }
        Ok(FmtCmd { width })
    }
}

impl UnixCommand for FmtCmd {
    fn display(&self) -> String {
        format!("fmt -w{}", self.width)
    }

    fn decodes(&self) -> bool {
        true
    }

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let input = crate::decode(&input, "fmt")?;
        let text = || -> Result<String, CmdError> {
            let mut out = String::with_capacity(input.len());
            let mut line_len = 0usize;
            for line in input.split_terminator('\n') {
                if line.trim().is_empty() {
                    if line_len > 0 {
                        out.push('\n');
                        line_len = 0;
                    }
                    out.push('\n');
                    continue;
                }
                for word in line.split_ascii_whitespace() {
                    let wlen = word.chars().count();
                    if line_len == 0 {
                        out.push_str(word);
                        line_len = wlen;
                    } else if line_len + 1 + wlen <= self.width {
                        out.push(' ');
                        out.push_str(word);
                        line_len += 1 + wlen;
                    } else {
                        out.push('\n');
                        out.push_str(word);
                        line_len = wlen;
                    }
                }
            }
            if line_len > 0 {
                out.push('\n');
            }
            Ok(out)
        };
        text().map(Bytes::from)
    }
}

/// `iconv -f utf-8 -t ascii//translit` — transliterate Latin accents to
/// ASCII; characters without a transliteration become `?` as GNU does.
pub struct IconvCmd;

impl IconvCmd {
    /// Parses `iconv` arguments; only the utf-8 → ascii//translit pair the
    /// corpus uses is supported.
    pub fn parse(args: &[String]) -> Result<IconvCmd, CmdError> {
        let mut from: Option<&str> = None;
        let mut to: Option<&str> = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "-f" => from = it.next().map(String::as_str),
                "-t" => to = it.next().map(String::as_str),
                other => {
                    return Err(CmdError::new(
                        "iconv",
                        format!("unexpected operand {other}"),
                    ))
                }
            }
        }
        match (from, to) {
            (Some(f), Some(t))
                if f.eq_ignore_ascii_case("utf-8")
                    && t.to_ascii_lowercase().starts_with("ascii") =>
            {
                Ok(IconvCmd)
            }
            _ => Err(CmdError::new(
                "iconv",
                "only -f utf-8 -t ascii//translit is supported",
            )),
        }
    }
}

fn translit(c: char) -> Option<&'static str> {
    Some(match c {
        'á' | 'à' | 'â' | 'ä' | 'ã' | 'å' => "a",
        'é' | 'è' | 'ê' | 'ë' => "e",
        'í' | 'ì' | 'î' | 'ï' => "i",
        'ó' | 'ò' | 'ô' | 'ö' | 'õ' => "o",
        'ú' | 'ù' | 'û' | 'ü' => "u",
        'ý' | 'ÿ' => "y",
        'ñ' => "n",
        'ç' => "c",
        'Á' | 'À' | 'Â' | 'Ä' | 'Ã' | 'Å' => "A",
        'É' | 'È' | 'Ê' | 'Ë' => "E",
        'Í' | 'Ì' | 'Î' | 'Ï' => "I",
        'Ó' | 'Ò' | 'Ô' | 'Ö' | 'Õ' => "O",
        'Ú' | 'Ù' | 'Û' | 'Ü' => "U",
        'Ñ' => "N",
        'Ç' => "C",
        'ß' => "ss",
        'æ' => "ae",
        'Æ' => "AE",
        'œ' => "oe",
        'Œ' => "OE",
        '“' | '”' => "\"",
        '‘' | '’' => "'",
        '–' | '—' => "-",
        '…' => "...",
        _ => return None,
    })
}

impl UnixCommand for IconvCmd {
    fn display(&self) -> String {
        "iconv -f utf-8 -t ascii//translit".to_owned()
    }

    fn decodes(&self) -> bool {
        true
    }

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        let input = crate::decode(&input, "iconv")?;
        let text = || -> Result<String, CmdError> {
            let mut out = String::with_capacity(input.len());
            for c in input.chars() {
                if c.is_ascii() {
                    out.push(c);
                } else if let Some(t) = translit(c) {
                    out.push_str(t);
                } else {
                    out.push('?');
                }
            }
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
    fn col_strips_backspace_overstrikes() {
        // troff bold: "b\bbo\bol\bld\bd" renders as "bold".
        assert_eq!(run("col -bx", "b\u{8}bo\u{8}ol\u{8}ld\u{8}d\n"), "bold\n");
    }

    #[test]
    fn col_expands_tabs() {
        assert_eq!(run("col -bx", "a\tb\n"), "a       b\n");
        assert_eq!(run("col -bx", "abcdefgh\ti\n"), "abcdefgh        i\n");
    }

    #[test]
    fn rev_reverses_each_line() {
        assert_eq!(run("rev", "abc\nxy\n"), "cba\nyx\n");
        assert_eq!(run("rev", "\n"), "\n");
    }

    #[test]
    fn fmt_w1_puts_each_word_on_a_line() {
        assert_eq!(run("fmt -w1", "one two three\n"), "one\ntwo\nthree\n");
        assert_eq!(run("fmt -w 1", "a b\n"), "a\nb\n");
    }

    #[test]
    fn fmt_wraps_greedily() {
        assert_eq!(run("fmt -w7", "aa bb cc dd\n"), "aa bb\ncc dd\n");
    }

    #[test]
    fn iconv_transliterates() {
        assert_eq!(run("iconv -f utf-8 -t ascii//translit", "café\n"), "cafe\n");
        assert_eq!(
            run("iconv -f utf-8 -t ascii//translit", "naïve — déjà\n"),
            "naive - deja\n"
        );
        assert_eq!(run("iconv -f utf-8 -t ascii//translit", "λ\n"), "?\n");
    }

    #[test]
    fn iconv_rejects_other_charsets() {
        assert!(parse_command("iconv -f latin1 -t utf-8").is_err());
    }
}
