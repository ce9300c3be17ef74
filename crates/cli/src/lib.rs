//! `kumquat` — the command-line interface to the KumQuat reproduction.
//!
//! The binary wraps the library crates behind its subcommands
//! (`synthesize`, `check`, `plan`, `run`, `emit`, `corpus`, `trace`; see
//! [`commands::USAGE`]).
//! All logic lives in this library crate so integration tests can drive the
//! subcommands without spawning processes; `src/main.rs` is a thin shim.
//!
//! The most interesting piece is [`emit`]: it compiles a planned pipeline
//! back into a *runnable POSIX shell script* that uses the real Unix
//! commands, reproducing the paper's actual artifact — a data-parallel
//! pipeline that runs in the same environment as the original.
//!
//! ```
//! let out = kq_cli::run_cli(&["synthesize".into(), "wc -l".into()]).unwrap();
//! assert!(out.text().contains("(back '\\n' add)"));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod emit;
pub mod report;

pub use commands::{run_cli, CliOutput, USAGE};
pub use emit::{emit_script, quote_sh, EmitOptions, Emitted};
