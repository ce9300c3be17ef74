//! In-process, GNU-compatible implementations of the Unix commands used by
//! the KumQuat benchmark corpus.
//!
//! KumQuat treats commands as black boxes — functions `Stream -> Stream`
//! (paper Definition 3.2) — and only ever observes their outputs. This crate
//! provides that black box: every command/flag combination appearing in the
//! paper's Table 10, implemented directly in Rust with GNU's observable
//! semantics (including quirks the combiner synthesis depends on, such as
//! `uniq -c`'s 7-column count padding, `cut`'s field-order behaviour, and
//! `comm`'s sorted-input requirement).
//!
//! Commands execute against an [`ExecContext`] carrying a virtual filesystem
//! so that file-consuming commands (`xargs cat`, `comm - dict`, `paste a b`)
//! work hermetically.
//!
//! The command interface is the zero-copy byte plane: [`UnixCommand::run`]
//! consumes and produces [`Bytes`] — refcounted slices of shared buffers —
//! so pass-through commands (`cat`) and the executors' split/hand-off
//! never copy stream payloads. [`Command::run_str`] is a thin owned-string
//! compatibility shim for tests and probes.
//!
//! # Bytes and characters
//!
//! A stream is bytes, as under `LC_ALL=C`. The byte-clean commands —
//! `cat`, `head`, `tail`, `wc`, `sort`, `uniq` (and `-c`), `cut -f` with an
//! ASCII delimiter, `tr` with ASCII sets (`-c` only
//! together with `-s`), `tac`, `sed`'s address forms (`Nq`, `Nd`, `$d`),
//! and `grep` with a byte-exact pattern
//! ([`kq_pattern::Regex::byte_exact`]) — never look at how bytes decode,
//! and give GNU's `LC_ALL=C` output on any input. A command whose output
//! on valid UTF-8 depends on where characters begin and end (`sed s///`,
//! `awk`, `cut -c`, the other `tr` and `grep` forms, `paste`, `comm`,
//! `diff`, `xargs`, and the text utilities) decodes its input and file
//! operands first, and fails with `<cmd>: input is not valid UTF-8` on
//! bytes that are not ([`UnixCommand::decodes`]).
//!
//! ```
//! use kq_coreutils::{parse_command, ExecContext};
//!
//! let uniq_c = parse_command("uniq -c").unwrap();
//! let out = uniq_c.run_str("a\na\nb\n", &ExecContext::default()).unwrap();
//! assert_eq!(out, "      2 a\n      1 b\n");   // GNU's 7-column padding
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod awk;
pub mod comm;
pub mod cut;
pub mod external;
pub mod extras;
mod fastpath;
pub mod grep;
pub mod headtail;
pub mod multi;
pub mod sed;
pub mod shellwords;
pub mod sort;
pub mod textutils;
pub mod tr;
pub mod uniq;
pub mod vfs;
pub mod wc;
pub mod xargs;

use std::fmt;
use std::sync::Arc;

pub use kq_stream::{Bytes, Rope};
pub use shellwords::split_words;
pub use vfs::Vfs;

/// The input of a kernel that reads characters, as text: one validating
/// scan, and bytes that are not UTF-8 are the command's error. Only such
/// kernels call this; every other command works on the bytes (see the
/// crate docs). The message names no byte offset: an offset inside a
/// chunk would differ with the worker count.
pub(crate) fn decode<'a>(input: &'a Bytes, command: &str) -> Result<&'a str, CmdError> {
    input
        .to_str()
        .map_err(|_| CmdError::new(command, "input is not valid UTF-8"))
}

/// An execution failure: the in-process analogue of a command writing to
/// stderr and exiting non-zero (e.g. `comm` on unsorted input, `cat` on a
/// missing file). KumQuat's preprocessing probes rely on observing these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmdError {
    /// The command that failed.
    pub command: String,
    /// A stderr-style message.
    pub message: String,
}

impl CmdError {
    /// An error attributed to `command` with a stderr-style `message`.
    pub fn new(command: impl Into<String>, message: impl Into<String>) -> CmdError {
        CmdError {
            command: command.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for CmdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.command, self.message)
    }
}

impl std::error::Error for CmdError {}

/// Shared execution environment: the virtual filesystem visible to
/// file-consuming commands.
#[derive(Debug, Clone, Default)]
pub struct ExecContext {
    /// The virtual filesystem. `Arc`-shared so parallel command instances
    /// can read it without copies.
    pub vfs: Arc<Vfs>,
}

impl ExecContext {
    /// A context over an existing filesystem.
    pub fn with_vfs(vfs: Vfs) -> ExecContext {
        ExecContext { vfs: Arc::new(vfs) }
    }
}

/// A black-box Unix command: a deterministic function from an input stream
/// to an output stream (paper Definition 3.2), which may also fail the way
/// a real command exits non-zero.
pub trait UnixCommand: Send + Sync {
    /// The original command line (for display and error messages).
    fn display(&self) -> String;

    /// Runs the command on `input`, producing its stdout.
    ///
    /// Input and output are [`Bytes`]: refcounted shared slices. Taking
    /// `Bytes` by value lets pass-through implementations return the
    /// input (or a slice of it) without copying, and lets executors hand
    /// split pieces to worker threads as refcount bumps.
    fn run(&self, input: Bytes, ctx: &ExecContext) -> Result<Bytes, CmdError>;

    /// True when the command consumes its standard input. `cat file.txt`,
    /// `paste a b` and friends do not; pipelines treat them as sources.
    fn reads_stdin(&self) -> bool {
        true
    }

    /// Prefix bound: `Some(n)` when the command's output is fully
    /// determined by the first `n` *complete* lines of its standard input
    /// — it never observes anything past them. `head -n k` and `sed kq`
    /// qualify; `sed kd` (needs the tail), `tail` (needs the end), and
    /// everything else do not. `None` (the default) means the command may
    /// read to end-of-input.
    ///
    /// This is the early-exit signal: a pipelined executor can stop
    /// feeding such a command the moment `n` complete lines exist and
    /// cancel everything upstream (the paper-corpus
    /// `… | sort -nr | head -n 1` shape). The contract is semantic, not
    /// advisory — `run` on any stream holding at least `n` newline
    /// terminated lines must return exactly what `run` on the full stream
    /// would.
    fn line_bound(&self) -> Option<usize> {
        None
    }

    /// True when `run` decodes its input as UTF-8 and fails on bytes that
    /// are not (see "Bytes and characters" in the crate docs). Such a
    /// failure may sit anywhere in the stream, and a serial run reads it
    /// all, so an executor must not cancel this command early on the
    /// strength of a prefix bound further down the pipeline. `false`
    /// (the default) means the command takes any bytes.
    fn decodes(&self) -> bool {
        false
    }

    /// Where the command sits on the static effect lattice
    /// ([`EffectClass`]), answered from its own parse of its arguments.
    /// [`EffectClass::Unknown`] (the default) claims nothing: synthesis
    /// decides.
    fn effect_class(&self) -> EffectClass {
        EffectClass::Unknown
    }

    /// The order the command puts its standard input in, when sorting
    /// that input is all it does (`sort`, with no `-m` and no operand);
    /// `None` (the default) otherwise. Over line-aligned pieces such a
    /// command satisfies `f(x1 ++ … ++ xk) = merge(f(x1), …, f(xk))`
    /// under this order, ties to the earlier piece.
    fn stdin_order(&self) -> Option<sort::LineOrder> {
        None
    }

    /// True when every non-empty newline-terminated piece of input leaves
    /// the command having written a `'\n'` that it will squeeze, so that
    /// over such pieces `f(x ++ y) = f(x) ++ (f(y) minus one leading
    /// '\n')` (`tr -cs A-Za-z '\n'`). `false` (the default) claims no
    /// such seam.
    fn newline_seam(&self) -> bool {
        false
    }

    /// `Some(counts)` when the command writes one line per run of
    /// identical adjacent input lines and nothing else: the line itself
    /// (`false`, `uniq`) or the line behind its count in `uniq -c`'s
    /// format (`true`). `None` (the default) for anything else.
    fn collapses_runs(&self) -> Option<bool> {
        None
    }

    /// What the command's own parse says synthesis should feed it (paper
    /// §3.2, "Preprocessing"): the patterns it matches, the line count it
    /// turns on, the field delimiter it splits at, and the flags its
    /// outputs merge under. [`SynthesisHints::default`] (the default)
    /// says nothing.
    fn synthesis_hints(&self) -> SynthesisHints {
        SynthesisHints::default()
    }
}

/// The literals a command line holds for synthesis to exercise
/// ([`UnixCommand::synthesis_hints`]). Every field is empty when the
/// command says nothing.
#[derive(Debug, Clone, Default)]
pub struct SynthesisHints {
    /// Patterns the command matches lines against (`grep`, `sed s///`).
    pub patterns: Vec<kq_pattern::Regex>,
    /// A line count the command's output turns on (`head -n 3`,
    /// `tail +2`, `sed 100q`, `sed 1d`).
    pub lines: Option<usize>,
    /// The delimiter the command splits lines into fields at (`cut -f`:
    /// its `-d`, TAB without one).
    pub field_delim: Option<char>,
    /// The flags of a `merge` combiner: the words of a `sort` that order
    /// its output, so that `sort -m <merge_flags>` merges in that order.
    pub merge_flags: Vec<String>,
}

/// The static effect classification of a command: the PaSh-style lattice
/// `kq_pipeline::lattice` acts on, strongest promise first. A command
/// states its own class ([`UnixCommand::effect_class`]) from what its
/// parser understood; anything it did not understand is
/// [`EffectClass::Unknown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EffectClass {
    /// A per-line (or per-byte) pure map: combiner is plain `concat`.
    /// The planner short-circuits synthesis for these.
    Stateless,
    /// Parallelizable with a structured, order-aware combiner (`head -n k`
    /// keeps a prefix, `uniq` re-merges the piece boundary). Synthesis is
    /// still consulted — the class only promises a combiner exists.
    PureParallelizable,
    /// Parallelizable with an order-insensitive aggregate (`sort` merges,
    /// `wc`/`grep -c` sum). Synthesis is still consulted.
    CommutativeFold,
    /// Correct only on the whole stream in order (`tail`, `nl`, `tr -s`,
    /// `sed` with addresses): naive splitting changes observable output,
    /// so synthesis decides (it may still find a rerun combiner) — except
    /// where the state that crosses a split is known exactly, which is
    /// what [`UnixCommand::newline_seam`] claims for a line-splitting
    /// `tr -s`.
    OrderSensitive,
    /// Not statically understood; dynamic synthesis decides.
    #[default]
    Unknown,
}

impl EffectClass {
    /// Stable lowercase name (used by `kumquat check --format json`).
    pub fn as_str(self) -> &'static str {
        match self {
            EffectClass::Stateless => "stateless",
            EffectClass::PureParallelizable => "pure-parallelizable",
            EffectClass::CommutativeFold => "commutative-fold",
            EffectClass::OrderSensitive => "order-sensitive",
            EffectClass::Unknown => "unknown",
        }
    }
}

/// A parsed command: argv plus its boxed implementation.
pub struct Command {
    argv: Vec<String>,
    imp: Box<dyn UnixCommand>,
    /// Built by [`Command::custom`]: its argv says nothing of what runs.
    custom: bool,
}

impl Command {
    /// Wraps a user-provided [`UnixCommand`] implementation.
    ///
    /// This is the paper's headline extension point: KumQuat "immediately
    /// work\[s\] with new commands ... without the need to manually develop
    /// new combiners". A downstream crate implements `UnixCommand` for its
    /// own stream processor, wraps it here, and hands it to
    /// `kq_synth::synthesize` — no registry changes needed.
    ///
    /// `argv` is only used for display, shell re-emission and the
    /// combiner cache's key; it should round-trip to an executable command
    /// line when shell emission is wanted.
    pub fn custom(argv: Vec<String>, imp: Box<dyn UnixCommand>) -> Command {
        assert!(!argv.is_empty(), "custom commands need a program name");
        Command {
            argv,
            imp,
            custom: true,
        }
    }

    /// True for a command built by [`Command::custom`], whose argv may
    /// name a shipped program without running it.
    pub fn is_custom(&self) -> bool {
        self.custom
    }

    /// The words of the command line.
    pub fn argv(&self) -> &[String] {
        &self.argv
    }

    /// The program name (`argv[0]`).
    pub fn program(&self) -> &str {
        &self.argv[0]
    }

    /// The original command line, re-quoted for display.
    pub fn display(&self) -> String {
        self.imp.display()
    }

    /// Runs the command on `input` (the zero-copy byte plane).
    pub fn run(&self, input: Bytes, ctx: &ExecContext) -> Result<Bytes, CmdError> {
        self.imp.run(input, ctx)
    }

    /// Owned-string compatibility shim over [`Command::run`]: copies the
    /// input into a fresh buffer and the output into a `String`. Tests and
    /// synthesis probes (which run on tiny generated streams) use this;
    /// the executors stay on [`Command::run`]. Output that is not UTF-8
    /// is an error.
    pub fn run_str(&self, input: &str, ctx: &ExecContext) -> Result<String, CmdError> {
        let out = self.imp.run(Bytes::from(input), ctx)?;
        match out.to_str() {
            Ok(text) => Ok(text.to_owned()),
            Err(_) => Err(CmdError::new(self.program(), "output is not valid UTF-8")),
        }
    }

    /// See [`UnixCommand::reads_stdin`].
    pub fn reads_stdin(&self) -> bool {
        self.imp.reads_stdin()
    }

    /// `answer` of the implementation for a command that reads its
    /// standard input, and the default — no claim — for a source: a
    /// file-operand `head big.txt` or `cat big.txt` is a pipeline head,
    /// whose parallelization question does not arise.
    fn on_stdin<T: Default>(&self, answer: impl FnOnce(&dyn UnixCommand) -> T) -> T {
        if self.imp.reads_stdin() {
            answer(&*self.imp)
        } else {
            T::default()
        }
    }

    /// See [`UnixCommand::line_bound`]; `None` for a source.
    pub fn line_bound(&self) -> Option<usize> {
        self.on_stdin(|imp| imp.line_bound())
    }

    /// See [`UnixCommand::decodes`].
    pub fn decodes(&self) -> bool {
        self.imp.decodes()
    }

    /// See [`UnixCommand::effect_class`]; [`EffectClass::Unknown`] for a
    /// source.
    pub fn effect_class(&self) -> EffectClass {
        self.on_stdin(|imp| imp.effect_class())
    }

    /// See [`UnixCommand::stdin_order`]; `None` for a source.
    pub fn stdin_order(&self) -> Option<sort::LineOrder> {
        self.on_stdin(|imp| imp.stdin_order())
    }

    /// See [`UnixCommand::newline_seam`]; `false` for a source.
    pub fn newline_seam(&self) -> bool {
        self.on_stdin(|imp| imp.newline_seam())
    }

    /// See [`UnixCommand::collapses_runs`]; `None` for a source.
    pub fn collapses_runs(&self) -> Option<bool> {
        self.on_stdin(|imp| imp.collapses_runs())
    }

    /// See [`UnixCommand::synthesis_hints`].
    pub fn synthesis_hints(&self) -> SynthesisHints {
        self.imp.synthesis_hints()
    }
}

impl fmt::Debug for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Command({})", self.display())
    }
}

/// Parses a single command line (no pipes) into a runnable [`Command`].
///
/// Accepts leading `VAR=value` environment assignments (they select
/// behaviour only for `LC_COLLATE=C`, which is our default collation
/// anyway) and dispatches on the program name.
pub fn parse_command(line: &str) -> Result<Command, CmdError> {
    let words = split_words(line).map_err(|e| CmdError::new("sh", e))?;
    from_argv(&words)
}

/// Builds a runnable [`Command`] from pre-split argv words.
pub fn from_argv(words: &[String]) -> Result<Command, CmdError> {
    // Skip leading VAR=VALUE assignments (e.g. `LC_COLLATE=C comm ...`).
    let mut start = 0;
    while start < words.len()
        && words[start].contains('=')
        && !words[start].starts_with('-')
        && words[start].split('=').next().is_some_and(|name| {
            !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        })
        && words[start].find('=').unwrap() > 0
    {
        start += 1;
    }
    let argv: Vec<String> = words[start..].to_vec();
    if argv.is_empty() {
        return Err(CmdError::new("sh", "empty command"));
    }
    let prog = argv[0].as_str();
    let rest = &argv[1..];
    let imp: Box<dyn UnixCommand> = match prog {
        // `cat -n` is line numbering, not concatenation.
        "cat" if rest.first().is_some_and(|a| a == "-n") && rest.len() == 1 => {
            Box::new(extras::NlCmd::cat_n())
        }
        "cat" => Box::new(CatCmd::new(rest)),
        "nl" => Box::new(extras::NlCmd::parse(rest)?),
        "tac" => Box::new(bare(prog, rest, extras::TacCmd)?),
        "fold" => Box::new(extras::FoldCmd::parse(rest)?),
        "expand" => Box::new(bare(prog, rest, extras::ExpandCmd)?),
        "shuf" => Box::new(bare(prog, rest, extras::ShufCmd)?),
        "tr" => Box::new(tr::TrCmd::parse(rest)?),
        "sort" => Box::new(sort::SortCmd::parse(rest)?),
        "uniq" => Box::new(uniq::UniqCmd::parse(rest)?),
        "grep" => Box::new(grep::GrepCmd::parse(rest)?),
        "sed" => Box::new(sed::SedCmd::parse(rest)?),
        "cut" => Box::new(cut::CutCmd::parse(rest)?),
        "head" => Box::new(headtail::HeadCmd::parse(rest)?),
        "tail" => Box::new(headtail::TailCmd::parse(rest)?),
        "wc" => Box::new(wc::WcCmd::parse(rest)?),
        "comm" => Box::new(comm::CommCmd::parse(rest)?),
        "awk" | "gawk" => Box::new(awk::AwkCmd::parse(rest)?),
        "xargs" => Box::new(xargs::XargsCmd::parse(rest)?),
        "col" => Box::new(textutils::ColCmd::parse(rest)?),
        "rev" => Box::new(bare(prog, rest, textutils::RevCmd)?),
        "fmt" => Box::new(textutils::FmtCmd::parse(rest)?),
        "iconv" => Box::new(textutils::IconvCmd::parse(rest)?),
        "paste" => Box::new(multi::PasteCmd::parse(rest)?),
        "diff" => Box::new(multi::DiffCmd::parse(rest)?),
        "ls" => Box::new(multi::LsCmd),
        "mkfifo" | "rm" => Box::new(multi::NoopCmd {
            line: argv.join(" "),
        }),
        other => {
            return Err(CmdError::new(other, "unknown command"));
        }
    };
    Ok(Command {
        argv,
        imp,
        custom: false,
    })
}

/// `command`, a program that takes no arguments here: it reads its
/// standard input only, so a file operand — or an option — is an error,
/// not something to drop.
fn bare<C>(program: &str, args: &[String], command: C) -> Result<C, CmdError> {
    match args.first() {
        None => Ok(command),
        Some(a) if a.starts_with('-') && a != "-" => {
            Err(CmdError::new(program, format!("unknown option {a}")))
        }
        Some(_) => Err(CmdError::new(program, "file operands are not supported")),
    }
}

/// `cat` — concatenates its file arguments, or copies stdin when invoked
/// with no arguments (or with `-`).
struct CatCmd {
    files: Vec<String>,
}

impl CatCmd {
    fn new(args: &[String]) -> CatCmd {
        CatCmd {
            files: args.to_vec(),
        }
    }
}

impl UnixCommand for CatCmd {
    fn display(&self) -> String {
        if self.files.is_empty() {
            "cat".to_owned()
        } else {
            format!("cat {}", self.files.join(" "))
        }
    }

    fn reads_stdin(&self) -> bool {
        self.files.is_empty() || self.files.iter().any(|f| f == "-")
    }

    fn effect_class(&self) -> EffectClass {
        // Copying the input and nothing else is the identity map; any
        // file around `-` is text the pieces do not hold.
        if self.files.is_empty() || self.files == ["-"] {
            EffectClass::Stateless
        } else {
            EffectClass::Unknown
        }
    }

    fn run(&self, input: Bytes, ctx: &ExecContext) -> Result<Bytes, CmdError> {
        if self.files.is_empty() {
            // Pure pass-through: the refcount bump *is* the copy.
            return Ok(input);
        }
        let mut out = Rope::new();
        for f in &self.files {
            if f == "-" {
                out.push(input.clone());
            } else {
                match ctx.vfs.read_bytes(f) {
                    Some(content) => out.push(content),
                    None => {
                        return Err(CmdError::new(
                            "cat",
                            format!("{f}: No such file or directory"),
                        ))
                    }
                }
            }
        }
        Ok(out.into_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ExecContext {
        let vfs = Vfs::default();
        vfs.write("a.txt", "alpha\n");
        vfs.write("b.txt", "beta\n");
        ExecContext::with_vfs(vfs)
    }

    #[test]
    fn cat_copies_stdin() {
        let c = parse_command("cat").unwrap();
        assert_eq!(c.run_str("x\ny\n", &ctx()).unwrap(), "x\ny\n");
        assert!(c.reads_stdin());
    }

    #[test]
    fn cat_reads_files() {
        let c = parse_command("cat a.txt b.txt").unwrap();
        assert_eq!(c.run_str("", &ctx()).unwrap(), "alpha\nbeta\n");
        assert!(!c.reads_stdin());
    }

    /// `program` runs bare and names what it was given that it refuses.
    fn rejects_arguments(program: &str) {
        assert!(parse_command(program).is_ok(), "{program}");
        let err = parse_command(&format!("{program} in.txt")).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("{program}: file operands are not supported")
        );
        let err = parse_command(&format!("{program} - in.txt")).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("{program}: file operands are not supported")
        );
        let err = parse_command(&format!("{program} -x")).unwrap_err();
        assert_eq!(err.to_string(), format!("{program}: unknown option -x"));
    }

    #[test]
    fn rev_rejects_operands() {
        rejects_arguments("rev");
    }

    #[test]
    fn tac_rejects_operands() {
        rejects_arguments("tac");
    }

    #[test]
    fn expand_rejects_operands() {
        rejects_arguments("expand");
    }

    #[test]
    fn shuf_rejects_operands() {
        rejects_arguments("shuf");
    }

    #[test]
    fn cat_missing_file_errors() {
        let c = parse_command("cat nope.txt").unwrap();
        assert!(c.run_str("", &ctx()).is_err());
    }

    #[test]
    fn env_assignment_prefix_is_skipped() {
        let c = parse_command("LC_COLLATE=C sort").unwrap();
        assert_eq!(c.program(), "sort");
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(parse_command("frobnicate -x").is_err());
    }

    #[test]
    fn empty_command_is_an_error() {
        assert!(parse_command("").is_err());
        assert!(parse_command("   ").is_err());
    }

    #[test]
    fn display_roundtrip() {
        let c = parse_command("grep -c foo").unwrap();
        assert_eq!(c.display(), "grep -c foo");
    }

    #[test]
    fn foreign_bytes_agree_piped_and_as_file_operand() {
        // The two input doors agree: a byte-clean command takes foreign
        // bytes either way, and a decoding one refuses them either way,
        // with the same message.
        let vfs = Vfs::new();
        let foreign: Vec<u8> = vec![0xff, 0xfe, b'x', b'\n', b'a', b'\n'];
        vfs.write("/foreign", Bytes::from(foreign.clone()));
        vfs.write("/clean", "a\nb\n");
        let ctx = ExecContext::with_vfs(vfs);

        let sort = parse_command("sort").unwrap();
        let piped = sort.run(Bytes::from(foreign.clone()), &ctx).unwrap();
        let operand = parse_command("sort /foreign").unwrap();
        let operand = operand.run(Bytes::new(), &ctx).unwrap();
        assert_eq!(piped.as_bytes(), b"a\n\xff\xfex\n");
        assert_eq!(piped, operand);

        let piped = parse_command("sed s/x/y/")
            .unwrap()
            .run(Bytes::from(foreign), &ctx)
            .unwrap_err();
        assert_eq!(piped.to_string(), "sed: input is not valid UTF-8");
        for (line, cmd) in [
            ("comm - /foreign", "comm"),
            ("paste /foreign", "paste"),
            ("diff /clean /foreign", "diff"),
        ] {
            let err = parse_command(line)
                .unwrap()
                .run(Bytes::from("a\n"), &ctx)
                .unwrap_err();
            assert_eq!(err.to_string(), format!("{cmd}: input is not valid UTF-8"));
        }

        let cmd = parse_command("sort /clean").unwrap();
        assert_eq!(cmd.run(Bytes::new(), &ctx).unwrap(), "a\nb\n");
    }
}
