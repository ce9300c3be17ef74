//! `tr` — translate, delete, or squeeze characters.
//!
//! Implements the GNU SET grammar subset used by the corpus: character
//! ranges (`A-Za-z`), escapes (`\n`, `\t`, `\\`, octal `\012`), POSIX
//! classes (`[:punct:]`), bracketed repeats (`[\012*]`, `[c*n]`), and the
//! classic bracketed ranges (`[a-z]`, which GNU treats as literal brackets
//! around a range — `tr '[a-z]' '[A-Z]'` works because `[` maps to `[`).
//!
//! Flags: any combination of `-c` (complement SET1), `-d` (delete), and
//! `-s` (squeeze), including the combined forms `-cs`, `-sc`, `-ds`.
//!
//! Pure deletion (`tr -d`, `tr -cd` — no squeeze, ASCII SET1) takes a
//! **byte fast path** like `grep`'s: runs of kept bytes go to the gather
//! of `fastpath`, which copies them into one buffer (a delete
//! that removes nothing returns the input handle, zero copies). Translate, squeeze and `-ds`
//! over ASCII sets run from a 256-entry **byte table** built once in
//! [`TrCmd::parse`] (`ByteTable`): one load per input byte, no branch on
//! the data. The character-at-a-time implementation remains for a
//! non-ASCII SET and as the oracle ([`TrCmd::run_reference`]) the
//! differential tests compare both fast paths against.
//!
//! # The newline seam
//!
//! A squeezing `tr` carries one character of state from one line-aligned
//! piece of its input to the next: the last character it wrote. When the
//! command passes `'\n'` through untouched and squeezes it — the word
//! splitter `tr -cs A-Za-z '\n'` and its relatives — that character is
//! `'\n'` after every non-empty piece, whatever the piece held, so
//! `f(x ++ y) = f(x) ++ (f(y) minus one leading '\n')`.
//! Its [`UnixCommand::newline_seam`] answers whether a command is of that
//! kind; the dataflow executor uses it to run the stage chunk by chunk.

use crate::fastpath::SliceRuns;
use crate::{Bytes, CmdError, EffectClass, ExecContext, UnixCommand};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetItem {
    Char(char),
    /// `[c*]` (pad to SET1's length) or `[c*n]`.
    Repeat(char, Option<usize>),
}

/// Largest `[c*n]` count accepted: no set is longer than the number of
/// characters there are, and a count read from the command line must not
/// size an allocation unchecked.
const MAX_REPEAT: usize = 0x11_0000;

fn parse_set(spec: &str, cmd: &str) -> Result<Vec<SetItem>, CmdError> {
    let chars: Vec<char> = spec.chars().collect();
    let mut items = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        // POSIX class [:name:]
        if c == '[' && chars.get(i + 1) == Some(&':') {
            let close = spec[i..]
                .find(":]")
                .ok_or_else(|| CmdError::new(cmd, "unterminated character class"))?;
            let name: String = chars[i + 2..i + close].iter().collect();
            for m in class_members(&name)
                .ok_or_else(|| CmdError::new(cmd, format!("unknown class [:{name}:]")))?
            {
                items.push(SetItem::Char(m));
            }
            i += close + 2;
            continue;
        }
        // Bracketed repeat [c*] or [c*n]; c may be an escape.
        if c == '[' {
            let (rep_char, consumed) = match chars.get(i + 1) {
                Some('\\') => {
                    let (ch, n) = parse_escape(&chars[i + 2..], cmd)?;
                    (Some(ch), 2 + n)
                }
                Some(&ch) => (Some(ch), 2),
                None => (None, 0),
            };
            if let Some(rep_char) = rep_char {
                if chars.get(i + consumed) == Some(&'*') {
                    // Collect optional digits then ']'.
                    let mut j = i + consumed + 1;
                    let mut digits = String::new();
                    while j < chars.len() && chars[j].is_ascii_digit() {
                        digits.push(chars[j]);
                        j += 1;
                    }
                    if chars.get(j) == Some(&']') {
                        // GNU: a count with a leading 0 is octal, and a
                        // count of zero means the same as none — fill.
                        let radix = if digits.starts_with('0') { 8 } else { 10 };
                        let count = match digits.as_str() {
                            "" => None,
                            digits => Some(
                                usize::from_str_radix(digits, radix)
                                    .ok()
                                    .filter(|&n| n <= MAX_REPEAT)
                                    .ok_or_else(|| {
                                        CmdError::new(
                                            cmd,
                                            format!("invalid repeat count '{digits}'"),
                                        )
                                    })?,
                            )
                            .filter(|&n| n > 0),
                        };
                        items.push(SetItem::Repeat(rep_char, count));
                        i = j + 1;
                        continue;
                    }
                }
            }
            // Not a repeat: '[' is an ordinary character.
            items.push(SetItem::Char('['));
            i += 1;
            continue;
        }
        if c == '\\' {
            let (ch, n) = parse_escape(&chars[i + 1..], cmd)?;
            // An escape may start a range, e.g. `\n-\r`; corpus never does.
            items.push(SetItem::Char(ch));
            i += 1 + n;
            continue;
        }
        // Range a-z (when '-' is not last).
        if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
            let (lo, hi) = (c, chars[i + 2]);
            if hi < lo {
                return Err(CmdError::new(cmd, "range out of order"));
            }
            for ch in lo..=hi {
                items.push(SetItem::Char(ch));
            }
            i += 3;
            continue;
        }
        items.push(SetItem::Char(c));
        i += 1;
    }
    Ok(items)
}

/// Parses a backslash escape body, returning the character and the number
/// of pattern characters consumed (after the backslash).
fn parse_escape(rest: &[char], cmd: &str) -> Result<(char, usize), CmdError> {
    match rest.first() {
        None => Err(CmdError::new(cmd, "trailing backslash")),
        Some('n') => Ok(('\n', 1)),
        Some('t') => Ok(('\t', 1)),
        Some('r') => Ok(('\r', 1)),
        Some('\\') => Ok(('\\', 1)),
        Some(&d) if ('0'..='7').contains(&d) => {
            // Octal escape: up to three digits.
            let mut val = 0u32;
            let mut n = 0;
            while n < 3 {
                match rest.get(n) {
                    Some(&c) if ('0'..='7').contains(&c) => {
                        val = val * 8 + c.to_digit(8).unwrap();
                        n += 1;
                    }
                    _ => break,
                }
            }
            Ok((char::from_u32(val).unwrap_or('\0'), n))
        }
        Some(&other) => Ok((other, 1)),
    }
}

fn class_members(name: &str) -> Option<Vec<char>> {
    let mut v = Vec::new();
    match name {
        "upper" => v.extend('A'..='Z'),
        "lower" => v.extend('a'..='z'),
        "digit" => v.extend('0'..='9'),
        "alpha" => {
            v.extend('A'..='Z');
            v.extend('a'..='z');
        }
        "alnum" => {
            v.extend('0'..='9');
            v.extend('A'..='Z');
            v.extend('a'..='z');
        }
        "punct" => v.extend(
            (0x21..=0x7eu8)
                .map(|b| b as char)
                .filter(|c| c.is_ascii_punctuation()),
        ),
        "space" => v.extend([' ', '\t', '\n', '\r', '\x0b', '\x0c']),
        "blank" => v.extend([' ', '\t']),
        _ => return None,
    }
    Some(v)
}

/// Expands SET1 items (repeats are invalid in SET1; GNU allows them but the
/// corpus never uses them there).
fn expand_set1(items: &[SetItem]) -> Vec<char> {
    let mut v = Vec::new();
    for item in items {
        match item {
            SetItem::Char(c) => v.push(*c),
            SetItem::Repeat(c, n) => {
                for _ in 0..n.unwrap_or(1) {
                    v.push(*c);
                }
            }
        }
    }
    v
}

/// Expands SET2 to exactly `target_len` characters: `[c*]` absorbs the
/// slack; otherwise the last character is repeated (GNU behaviour).
fn expand_set2(items: &[SetItem], target_len: usize) -> Vec<char> {
    let fixed: usize = items
        .iter()
        .map(|i| match i {
            SetItem::Char(_) => 1,
            SetItem::Repeat(_, n) => n.unwrap_or(0),
        })
        .sum();
    let mut v = Vec::with_capacity(target_len);
    for item in items {
        match item {
            SetItem::Char(c) => v.push(*c),
            SetItem::Repeat(c, n) => {
                let count = match n {
                    Some(n) => *n,
                    None => target_len.saturating_sub(fixed),
                };
                for _ in 0..count {
                    v.push(*c);
                }
            }
        }
    }
    if let Some(last) = v.last().copied() {
        while v.len() < target_len {
            v.push(last);
        }
    }
    v
}

/// Fast membership for ASCII plus spill-over for the rest.
#[derive(Debug, Clone)]
struct CharSet {
    ascii: [bool; 128],
    other: Vec<char>,
}

impl CharSet {
    fn from_chars(chars: &[char]) -> CharSet {
        let mut s = CharSet {
            ascii: [false; 128],
            other: Vec::new(),
        };
        for &c in chars {
            if (c as u32) < 128 {
                s.ascii[c as usize] = true;
            } else if !s.other.contains(&c) {
                s.other.push(c);
            }
        }
        s
    }

    #[inline]
    fn contains(&self, c: char) -> bool {
        if (c as u32) < 128 {
            self.ascii[c as usize]
        } else {
            self.other.contains(&c)
        }
    }
}

/// One entry per input byte: the byte it becomes, and how it takes part
/// in squeezing and deletion.
///
/// The low byte of an entry is the output byte. An entry without
/// [`ByteTable::LONE`] is written only when the byte written last differs
/// from it — a member of the squeeze set; [`ByteTable::DROP`] marks a byte
/// of the delete set of `-ds`, which writes nothing and is not "written
/// last" either. Built when every SET character is ASCII: a byte of
/// `0x80` and above is then outside SET1 and SET2, so the table gives
/// GNU's `LC_ALL=C` output on any bytes — and on UTF-8 the bytes of a
/// multi-byte character share one fate. Under `-c` that fate is to become
/// one fill character, which the table spells as: the lead byte becomes
/// the fill, and each continuation byte is the fill *repeated* — never
/// written, since the byte written last is then the fill itself. That
/// rule reads characters unless the fill is squeezed anyway (`-cs`), so
/// a `-c` translation without `-s` decodes its input first.
struct ByteTable {
    entries: [u16; 256],
    shape: TableShape,
}

/// Which loop a [`ByteTable`] needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TableShape {
    /// Every entry is [`ByteTable::LONE`]: a mapped copy.
    Map,
    /// Some entry squeezes, none drops: what was written last is what the
    /// previous input byte became.
    Squeeze,
    /// Some entry drops: what was written last is carried past them.
    Drop,
}

impl ByteTable {
    /// Never a repeat of the byte written last.
    const LONE: u16 = 1 << 8;
    const DROP: u16 = 1 << 9;
    /// "Nothing written yet": equal to no entry.
    const NONE: u16 = u16::MAX;

    fn new(entries: [u16; 256]) -> ByteTable {
        let shape = if entries.iter().any(|e| e & Self::DROP != 0) {
            TableShape::Drop
        } else if entries.iter().any(|e| e & Self::LONE == 0) {
            TableShape::Squeeze
        } else {
            TableShape::Map
        };
        ByteTable { entries, shape }
    }

    /// Both compacting loops are branchless: every byte is written, and
    /// the cursor moves on only past the ones that stay, so a squeezed or
    /// dropped byte costs what a kept one does and text that alternates
    /// between the two every few bytes mispredicts nothing.
    fn run(&self, input: &[u8]) -> Vec<u8> {
        let entries = &self.entries;
        if self.shape == TableShape::Map {
            return input.iter().map(|&b| entries[b as usize] as u8).collect();
        }
        let mut out = vec![0u8; input.len()];
        let (mut at, mut last) = (0usize, Self::NONE);
        if self.shape == TableShape::Squeeze {
            for &b in input {
                let entry = entries[b as usize];
                out[at] = entry as u8;
                at += usize::from(entry != last);
                last = entry & 0xFF;
            }
        } else {
            for &b in input {
                let entry = entries[b as usize];
                let dropped = entry & Self::DROP != 0;
                out[at] = entry as u8;
                at += usize::from(!dropped & (entry != last));
                last = if dropped { last } else { entry & 0xFF };
            }
        }
        out.truncate(at);
        out
    }
}

/// How [`TrCmd::run`] executes, decided once in [`TrCmd::parse`].
enum Kernel {
    /// [`TrCmd::run_delete_slices`].
    DeleteSlices,
    /// Translate, squeeze or `-ds` over ASCII sets.
    Table(Box<ByteTable>),
    /// A SET with a non-ASCII character, or a squeeze of non-ASCII
    /// characters themselves (`-cs` with one SET): character at a time.
    Reference,
}

/// The `tr` command.
pub struct TrCmd {
    complement: bool,
    delete: bool,
    squeeze: bool,
    set1: Vec<char>,
    set2_items: Vec<SetItem>,
    display: String,
    kernel: Kernel,
}

impl TrCmd {
    /// Parses `tr` arguments (already shell-split).
    pub fn parse(args: &[String]) -> Result<TrCmd, CmdError> {
        let mut complement = false;
        let mut delete = false;
        let mut squeeze = false;
        let mut sets: Vec<&String> = Vec::new();
        for a in args {
            if let Some(flags) = a.strip_prefix('-') {
                if flags.is_empty() || !flags.chars().all(|c| "cCds".contains(c)) {
                    // A literal operand starting with '-' never occurs in
                    // the corpus; treat as an error to catch typos.
                    return Err(CmdError::new("tr", format!("invalid option {a}")));
                }
                for f in flags.chars() {
                    match f {
                        'c' | 'C' => complement = true,
                        'd' => delete = true,
                        's' => squeeze = true,
                        _ => unreachable!(),
                    }
                }
            } else {
                sets.push(a);
            }
        }
        if sets.is_empty() || sets.len() > 2 {
            return Err(CmdError::new("tr", "expected one or two sets"));
        }
        if delete && sets.len() != 1 && !squeeze {
            return Err(CmdError::new("tr", "extra operand with -d"));
        }
        let set1 = expand_set1(&parse_set(sets[0], "tr")?);
        let set2_items = if sets.len() == 2 {
            parse_set(sets[1], "tr")?
        } else {
            Vec::new()
        };
        if !delete && sets.len() == 1 && !squeeze {
            return Err(CmdError::new("tr", "missing operand after SET1"));
        }
        let mut display = String::from("tr");
        for a in args {
            display.push(' ');
            display.push_str(&shell_quote(a));
        }
        let mut cmd = TrCmd {
            complement,
            delete,
            squeeze,
            set1,
            set2_items,
            display,
            kernel: Kernel::Reference,
        };
        cmd.kernel = if cmd.deletes_verbatim() {
            Kernel::DeleteSlices
        } else {
            cmd.byte_table()
                .map_or(Kernel::Reference, |t| Kernel::Table(Box::new(t)))
        };
        Ok(cmd)
    }

    /// The byte table of a translate, squeeze or `-ds` command whose sets
    /// are ASCII (see [`ByteTable`]); it follows
    /// [`run_reference`](Self::run_reference) case by case.
    fn byte_table(&self) -> Option<ByteTable> {
        let squeeze_members = if self.delete {
            expand_set1(&self.set2_items)
        } else {
            Vec::new()
        };
        if !self.set1.iter().chain(&squeeze_members).all(char::is_ascii) {
            return None;
        }
        let mut entries: [u16; 256] = std::array::from_fn(|b| b as u16 | ByteTable::LONE);
        if self.delete {
            for b in 0..=u8::MAX {
                // Every byte of a multi-byte character is outside an ASCII
                // SET1: deleted exactly under `-c`.
                let in_set1 = b.is_ascii() && self.set1.contains(&char::from(b));
                if in_set1 != self.complement {
                    entries[usize::from(b)] |= ByteTable::DROP;
                }
            }
            for c in squeeze_members {
                entries[c as usize] &= !ByteTable::LONE;
            }
        } else if self.set2_items.is_empty() {
            if self.complement {
                // The reference squeezes a repeated non-ASCII *character*.
                return None;
            }
            for &c in &self.set1 {
                entries[c as usize] &= !ByteTable::LONE;
            }
        } else {
            let (table, set2, fallback) = self.translation();
            if !set2.iter().all(char::is_ascii) {
                return None;
            }
            for (entry, &to) in entries.iter_mut().zip(&table) {
                *entry = to as u16 | ByteTable::LONE;
            }
            if self.complement {
                // One character in, one character out (see `ByteTable`).
                for (b, entry) in entries.iter_mut().enumerate().skip(0x80) {
                    *entry = if b < 0xC0 {
                        fallback as u16
                    } else {
                        fallback as u16 | ByteTable::LONE
                    };
                }
            }
            if self.squeeze {
                for entry in &mut entries {
                    if set2.contains(&char::from(*entry as u8)) {
                        *entry &= !ByteTable::LONE;
                    }
                }
            }
        }
        Some(ByteTable::new(entries))
    }

    /// The ASCII half of a translation: what each of the 128 ASCII
    /// characters becomes, SET2 as expanded, and its last character (what
    /// `-c` maps everything beyond ASCII to). With `-c`, GNU builds the
    /// complement of SET1 in ascending character order and maps it
    /// element-wise onto SET2 (padded with its last character).
    fn translation(&self) -> ([char; 128], Vec<char>, char) {
        let mut table: [char; 128] = std::array::from_fn(|i| char::from(i as u8));
        let from: Vec<char> = if self.complement {
            let set1 = CharSet::from_chars(&self.set1);
            table
                .iter()
                .copied()
                .filter(|&c| !set1.contains(c))
                .collect()
        } else {
            self.set1.clone()
        };
        let set2 = expand_set2(&self.set2_items, from.len().max(1));
        let fallback = *set2.last().expect("SET2 cannot be empty here");
        for (i, &c) in from.iter().enumerate() {
            if c.is_ascii() {
                table[c as usize] = set2[i.min(set2.len() - 1)];
            }
        }
        (table, set2, fallback)
    }
}

fn shell_quote(s: &str) -> String {
    if s.chars().any(|c| " \t\n'\"\\$*[]".contains(c)) {
        format!("'{}'", s.replace('\n', "\\n").replace('\t', "\\t"))
    } else {
        s.to_owned()
    }
}

impl TrCmd {
    /// True when the output is a byte subsequence of the input: pure
    /// deletion (no squeeze pass, no translation) over an ASCII SET1, so
    /// keep/delete is decidable per byte (every byte of a multi-byte
    /// UTF-8 character is ≥ 0x80 and shares the character's fate).
    fn deletes_verbatim(&self) -> bool {
        self.delete && !self.squeeze && self.set1.iter().all(|c| c.is_ascii())
    }

    /// The byte fast path for [`TrCmd::deletes_verbatim`] commands:
    /// scans bytes and gathers the runs of kept bytes of `input`.
    fn run_delete_slices(&self, input: &Bytes) -> Bytes {
        let mut keep = [false; 256];
        for (b, k) in keep.iter_mut().enumerate() {
            // Non-ASCII bytes belong to non-ASCII characters, which are
            // outside an ASCII SET1: kept unless SET1 is complemented.
            *k = if b < 128 {
                self.set1.contains(&(b as u8 as char)) == self.complement
            } else {
                !self.complement
            };
        }
        let mut runs = SliceRuns::new(input);
        let mut run_start: Option<usize> = None;
        for (i, &b) in input.as_bytes().iter().enumerate() {
            if keep[b as usize] {
                run_start.get_or_insert(i);
            } else if let Some(s) = run_start.take() {
                runs.keep(s..i);
            }
        }
        if let Some(s) = run_start.take() {
            runs.keep(s..input.len());
        }
        runs.finish()
    }

    /// The character-at-a-time implementation — the real path for a
    /// non-ASCII SET and the oracle the differential tests compare the
    /// byte fast path and the byte table against.
    #[doc(hidden)]
    pub fn run_reference(&self, input: &str) -> String {
        let set1 = CharSet::from_chars(&self.set1);
        let in_set1 = |c: char| set1.contains(c) != self.complement;

        let mut out = String::with_capacity(input.len());
        if self.delete {
            // Delete members of (complemented) SET1; with -s also squeeze
            // SET2 members afterwards.
            let squeeze_set = if self.squeeze {
                Some(CharSet::from_chars(&expand_set1(&self.set2_items)))
            } else {
                None
            };
            let mut prev: Option<char> = None;
            for c in input.chars() {
                if in_set1(c) {
                    continue;
                }
                if let Some(sq) = &squeeze_set {
                    if sq.contains(c) && prev == Some(c) {
                        continue;
                    }
                }
                out.push(c);
                prev = Some(c);
            }
            return out;
        }

        if self.set2_items.is_empty() {
            // Pure squeeze of SET1 members.
            let mut prev: Option<char> = None;
            for c in input.chars() {
                if in_set1(c) && prev == Some(c) {
                    continue;
                }
                out.push(c);
                prev = Some(c);
            }
            return out;
        }

        // Translate (then optionally squeeze SET2 members).
        let (table, set2, fallback) = self.translation();
        let translate = |c: char| -> char {
            if c.is_ascii() {
                table[c as usize]
            } else if self.complement {
                // Non-ASCII characters are outside every corpus SET1.
                fallback
            } else {
                c
            }
        };
        let squeeze_set = if self.squeeze {
            Some(CharSet::from_chars(&set2))
        } else {
            None
        };
        let mut prev: Option<char> = None;
        for c in input.chars() {
            let t = translate(c);
            if let Some(sq) = &squeeze_set {
                if sq.contains(t) && prev == Some(t) {
                    continue;
                }
            }
            out.push(t);
            prev = Some(t);
        }
        out
    }
}

impl UnixCommand for TrCmd {
    fn display(&self) -> String {
        self.display.clone()
    }

    /// The seam of [`UnixCommand::newline_seam`] (see the
    /// [module docs](self)): true when the command squeezes `'\n'` and
    /// neither deletes it nor translates it to something else:
    /// `-cs A-Za-z '\n'`, `-s ' ' '\n'`; not `-s '\n' ' '`, `-ds '\n' x`
    /// or `-cs 'A-Za-z\n' ' '`. Answered from the byte table, so `false`
    /// for a command with a non-ASCII SET.
    fn newline_seam(&self) -> bool {
        let Kernel::Table(table) = &self.kernel else {
            return false;
        };
        // Written as itself, never dropped, and squeezed.
        table.entries[b'\n' as usize] == u16::from(b'\n')
    }

    fn effect_class(&self) -> EffectClass {
        if self.squeeze {
            // Squeezing repeats merges across any split point.
            EffectClass::OrderSensitive
        } else {
            // Translate/delete is a pure per-byte map (`tr -d '\n'` too:
            // concat holds byte-wise; whether its output *streams*
            // line-aligned is a separate, probed property).
            EffectClass::Stateless
        }
    }

    fn decodes(&self) -> bool {
        match &self.kernel {
            Kernel::DeleteSlices => false,
            // `-c` without `-s` writes one fill per character (see
            // `ByteTable`): it reads characters.
            Kernel::Table(_) => self.complement && !self.squeeze,
            Kernel::Reference => true,
        }
    }

    fn run(&self, input: Bytes, _ctx: &ExecContext) -> Result<Bytes, CmdError> {
        Ok(match &self.kernel {
            Kernel::DeleteSlices => self.run_delete_slices(&input),
            Kernel::Table(table) => {
                if self.decodes() {
                    crate::decode(&input, "tr")?;
                }
                Bytes::from(table.run(input.as_bytes()))
            }
            Kernel::Reference => Bytes::from(self.run_reference(crate::decode(&input, "tr")?)),
        })
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
    fn simple_translate() {
        assert_eq!(run("tr A-Z a-z", "Hello World\n"), "hello world\n");
        assert_eq!(run("tr 'a-z' 'A-Z'", "abc\n"), "ABC\n");
    }

    #[test]
    fn bracketed_ranges_translate() {
        // GNU: brackets are literal and map onto each other.
        assert_eq!(run("tr '[a-z]' '[A-Z]'", "ab[c]\n"), "AB[C]\n");
    }

    #[test]
    fn single_char_target_pads() {
        assert_eq!(run("tr '[a-z]' 'P'", "abz!\n"), "PPP!\n");
    }

    #[test]
    fn complement_translate() {
        // Every non-letter becomes a newline.
        assert_eq!(run(r"tr -c A-Za-z '\n'", "ab c,d\n"), "ab\nc\nd\n");
    }

    #[test]
    fn complement_squeeze_is_the_word_splitter() {
        // The Figure 1 stage: runs of non-letters collapse to one newline.
        assert_eq!(
            run(r"tr -cs A-Za-z '\n'", "one  two!!three\n"),
            "one\ntwo\nthree\n"
        );
        // Leading separators produce a single leading newline.
        assert_eq!(run(r"tr -cs A-Za-z '\n'", "  x\n"), "\nx\n");
    }

    #[test]
    fn sc_flag_order_equivalent() {
        let a = run(r"tr -sc 'AEIOU' '[\012*]'", "HEAVEN\n");
        let b = run(r"tr -cs 'AEIOU' '[\012*]'", "HEAVEN\n");
        assert_eq!(a, b);
        assert_eq!(a, "\nEA\nE\n");
    }

    #[test]
    fn octal_repeat_expands_to_newline() {
        assert_eq!(run(r"tr -sc '[A-Z]' '[\012*]'", "AbC\n"), "A\nC\n");
    }

    #[test]
    fn delete_chars() {
        assert_eq!(run("tr -d ','", "a,b,,c\n"), "abc\n");
        assert_eq!(run(r"tr -d '\n'", "a\nb\n"), "ab");
        assert_eq!(run("tr -d '[:punct:]'", "a.b!c-\n"), "abc\n");
    }

    #[test]
    fn squeeze_only() {
        assert_eq!(run(r"tr -s ' ' '\n'", "a  b\n"), "a\nb\n");
        assert_eq!(run("tr -s 'a' 'a'", "aaab\n"), "ab\n");
    }

    #[test]
    fn posix_class_translate() {
        assert_eq!(run("tr '[:lower:]' '[:upper:]'", "aBc\n"), "ABC\n");
        assert_eq!(run("tr '[:upper:]' '[:lower:]'", "aBc\n"), "abc\n");
    }

    #[test]
    fn mixed_set_with_embedded_newline_escape() {
        // poets 8_1: tr -sc '[AEIOUaeiou\012]' ' '
        assert_eq!(
            run(r"tr -sc '[AEIOUaeiou\012]' ' '", "hello\nworld\n"),
            " e o\n o \n"
        );
    }

    #[test]
    fn space_prefixed_repeat_set() {
        // poets 6_5: tr -sc '[A-Z][a-z]' ' [\012*]' — SET2 starts with a
        // space (absorbed by NUL, the first complement element); every
        // other complement character maps to the newline fill.
        let out = run(r"tr -sc '[A-Z][a-z]' ' [\012*]'", "ab12cd\n");
        assert_eq!(out, "ab\ncd\n");
    }

    #[test]
    fn parse_errors() {
        assert!(parse_command("tr").is_err());
        assert!(parse_command("tr a-z").is_err()); // missing SET2
        assert!(parse_command("tr -q a b").is_err());
        assert!(parse_command("tr 'z-a' x").is_err());
    }

    fn tr(line: &str) -> TrCmd {
        let words = crate::split_words(line).unwrap();
        TrCmd::parse(&words[1..]).unwrap()
    }

    #[test]
    fn delete_that_removes_nothing_is_a_refcount_bump() {
        let input = Bytes::from("abc\ndef\n");
        let out = tr("tr -d 'Q'")
            .run(input.clone(), &ExecContext::default())
            .unwrap();
        assert_eq!(out, input);
        assert!(
            out.shares_buffer(&input),
            "no-op delete must be the input slice, not a copy"
        );
    }

    #[test]
    fn delete_slice_path_agrees_with_reference_on_edge_cases() {
        let cases = [
            "",
            "\n",
            "a,b,,c\n",
            "x.y!z",
            "a\u{e9}b,\u{e9}\n",
            ",,,",
            "mixed, stuff; here\n",
            "\na\n\nb",
        ];
        for cmd_line in [
            "tr -d ','",
            r"tr -d '\n'",
            "tr -d '[:punct:]'",
            "tr -cd 'a-z'",
            "tr -d 'a-c'",
        ] {
            let t = tr(cmd_line);
            assert!(t.deletes_verbatim(), "{cmd_line} should take the fast path");
            for input in cases {
                let fast = t.run(Bytes::from(input), &ExecContext::default()).unwrap();
                assert_eq!(
                    fast.to_str().unwrap(),
                    t.run_reference(input),
                    "{cmd_line:?} diverged on {input:?}"
                );
            }
        }
    }

    #[test]
    fn squeeze_and_translate_stay_off_the_fast_path() {
        assert!(!tr("tr -ds ',' 'x'").deletes_verbatim());
        assert!(!tr("tr a-z A-Z").deletes_verbatim());
        assert!(!tr("tr -s ' ' ' '").deletes_verbatim());
    }

    #[test]
    fn repeat_count_with_a_leading_zero_is_octal() {
        // GNU: `[x*010]` is eight copies, `[x*10]` ten.
        assert_eq!(
            run("tr abcdefghij '[x*010]y'", "abcdefghij\n"),
            "xxxxxxxxyy\n"
        );
        assert_eq!(
            run("tr abcdefghij '[x*10]y'", "abcdefghij\n"),
            "xxxxxxxxxx\n"
        );
        // A count of zero fills, like no count.
        assert_eq!(run("tr ab '[x*0]'", "ab\n"), "xx\n");
        assert!(parse_command("tr ab '[x*09]'").is_err());
        assert!(parse_command("tr ab '[x*99999999999999999999]'").is_err());
        assert!(parse_command("tr ab '[x*9999999999]'").is_err());
    }

    #[test]
    fn capital_c_complements_like_c() {
        assert_eq!(run("tr -C a-b x", "abc\n"), "abxx");
        assert_eq!(
            run(r"tr -Cs A-Za-z '\n'", "one  two\n"),
            run(r"tr -cs A-Za-z '\n'", "one  two\n")
        );
    }

    #[test]
    fn ascii_sets_run_from_the_byte_table() {
        for line in [
            r"tr -cs A-Za-z '\n'",
            "tr A-Z a-z",
            "tr -ds ',' 'x'",
            "tr -s ' '",
            r"tr -c A-Za-z '\n'",
        ] {
            assert!(matches!(tr(line).kernel, Kernel::Table(_)), "{line}");
        }
        let shape = |line: &str| match tr(line).kernel {
            Kernel::Table(table) => table.shape,
            _ => unreachable!("{line}"),
        };
        assert_eq!(shape("tr A-Z a-z"), TableShape::Map);
        assert_eq!(shape(r"tr -cs A-Za-z '\n'"), TableShape::Squeeze);
        assert_eq!(shape(r"tr -c A-Za-z '\n'"), TableShape::Squeeze);
        assert_eq!(shape("tr -ds ',' 'x'"), TableShape::Drop);
        // Non-ASCII sets, and a squeeze of non-ASCII characters themselves.
        for line in [
            "tr \u{e9} e",
            "tr e \u{e9}",
            "tr -ds x \u{e9}",
            "tr -cs a-z",
        ] {
            assert!(matches!(tr(line).kernel, Kernel::Reference), "{line}");
        }
        assert!(matches!(tr("tr -d x").kernel, Kernel::DeleteSlices));
    }

    #[test]
    fn byte_table_agrees_with_reference_on_edge_cases() {
        let cases = [
            "",
            "\n",
            "\n\n\n",
            "a",
            "  lead, then words  \n",
            "no newline at the end",
            "\u{e9}",
            "\u{e9}\u{e9}\n",
            "a\u{e9}\u{e9}  b\u{4e16}\u{754c},,c\n\n",
            "x,,y,,,\u{e9},,z\n",
            "aa  bb\n\n  cc",
        ];
        for cmd_line in [
            r"tr -cs A-Za-z '\n'",
            r"tr -sc '[A-Z][a-z]' '[\012*]'",
            r"tr -c A-Za-z '\n'",
            r"tr -s ' ' '\n'",
            r"tr -s '\n' ' '",
            "tr -s ' a'",
            "tr -ds ',' 'a\u{20}'",
            r"tr -cds 'a-z\n' 'a-z'",
            "tr A-Z a-z",
            "tr '[a-z]' 'P'",
            r"tr -sc '[AEIOUaeiou\012]' ' '",
            // Fall back to the reference.
            "tr -cs a-z",
            "tr \u{e9} e",
        ] {
            let t = tr(cmd_line);
            for input in cases {
                let fast = t.run(Bytes::from(input), &ExecContext::default()).unwrap();
                assert_eq!(
                    fast.to_str().unwrap(),
                    t.run_reference(input),
                    "{cmd_line:?} diverged on {input:?}"
                );
            }
        }
    }

    #[test]
    fn newline_seam_is_a_squeezed_untouched_newline() {
        for line in [
            r"tr -cs A-Za-z '\n'",
            r"tr -sc '[A-Z][a-z]' '[\012*]'",
            r"tr -s ' ' '\n'",
            r"tr -s '\n'",
            r"tr -ds x '\n'",
            r"tr -Cs A-Za-z '\012'",
        ] {
            assert!(tr(line).newline_seam(), "{line}");
        }
        for line in [
            r"tr -s '\n' ' '",        // retargets '\n'
            r"tr -ds '\n' x",         // deletes it
            r"tr -cs 'A-Za-z\n' ' '", // keeps it, squeezes something else
            r"tr -c A-Za-z '\n'",     // no squeeze
            "tr A-Z a-z",
            r"tr -d '\n'",
            r"tr -cs a-z", // reference kernel
        ] {
            assert!(!tr(line).newline_seam(), "{line}");
        }
        // The law itself, on pieces with every kind of edge.
        let pieces = ["  a b\n", "\n", ",,\n", "c  d\n", "\u{e9}e\n", "tail"];
        for line in [r"tr -cs A-Za-z '\n'", r"tr -s ' ' '\n'", r"tr -ds , '\n'"] {
            let t = tr(line);
            let whole = t.run_reference(&pieces.concat());
            let mut joined = String::new();
            for (i, piece) in pieces.iter().enumerate() {
                let out = t.run_reference(piece);
                joined.push_str(match out.strip_prefix('\n') {
                    Some(rest) if i > 0 => rest,
                    _ => &out,
                });
            }
            assert_eq!(joined, whole, "{line}");
        }
    }

    #[test]
    fn tr_output_not_stream_after_newline_delete() {
        // Relevant to Theorem 5's precondition: output loses its newline.
        let out = run(r"tr -d '\n'", "x\ny\n");
        assert!(!out.ends_with('\n'));
    }
}
